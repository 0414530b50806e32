import os

import pytest

from noisytail import pipeline


@pytest.fixture(autouse=True)
def _empty_stage1_memo():
    """Each test starts with `run_in_memory`'s memo empty, so a test that
    patches stage-1 internals is never served an earlier test's result."""
    pipeline._stage1_memo.clear()


@pytest.fixture(autouse=True)
def _no_child_left():
    """Every process a test forks is reaped by the time it ends: a writer
    left running or unreaped fails the test."""
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
