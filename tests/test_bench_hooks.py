"""The traced benchmark's hooks against the package.

`perfbench/tracing.py` wraps package functions by name, from outside the
package.  A renamed or deleted target would only show up as "missing"
per-layer metrics in a traced bench run, so these tests read that module
(they do not modify it) and check its targets and measures here.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from noisytail.datagen import Dataset
from noisytail.numerics import make_rng
from noisytail.refurbish import RefurbishConfig, refurbish_dataset
from noisytail.stage1 import Predictions

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = load_tracing()


@pytest.mark.parametrize("target", [t for t in tracing.TARGETS if t[4]],
                         ids=lambda t: t[2])
def test_required_target_resolves(target):
    # the lookup `Tracer.install` makes: the attribute must be defined on
    # the module or class itself, where the tracer replaces it
    mod_name, path, _, _, _ = target
    owner = importlib.import_module(f"noisytail.{mod_name}")
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    assert callable(vars(owner).get(attr)), f"noisytail.{mod_name}.{path}"


def test_relabel_counts_reads_a_refurbish_result():
    rng = make_rng(0)
    n, k = 40, 4
    observed = rng.integers(0, k, size=n)
    ds = Dataset(np.arange(n), np.zeros((n, 2)), observed, observed, k)
    preds = Predictions(rng.normal(size=(n, k)) * 2)
    args = (ds, preds, RefurbishConfig())
    result = refurbish_dataset(*args)
    counts = tracing._relabel_counts(args, {}, result)
    assert counts == {"refurbish.rows": n,
                      "refurbish.changed": int(np.count_nonzero(result[1].changed))}
    assert 0 < counts["refurbish.changed"] < n
