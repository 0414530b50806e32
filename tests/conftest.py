import pytest

from noisytail import pipeline


@pytest.fixture(autouse=True)
def _empty_stage1_memo():
    """Each test starts with `run_in_memory`'s memo empty, so a test that
    patches stage-1 internals is never served an earlier test's result."""
    pipeline._stage1_memo.clear()
