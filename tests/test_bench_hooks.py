"""The traced benchmark's hooks against the package.

`perfbench/tracing.py` wraps package functions by name, from outside the
package.  A renamed or deleted target would only show up as "missing"
per-layer metrics in a traced bench run, so these tests read that module
(they do not modify it) and check its targets and measures here.
"""

import importlib
import importlib.util
import time
from pathlib import Path

import numpy as np
import pytest

from noisytail import pipeline
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


TRACED_MODULES = ("cli", "pipeline", "datagen", "stage1", "refurbish", "ensemble",
                  "numerics")
TINY = {"longtail": {"num_classes": 4, "head_count": 40, "imbalance_ratio": 4.0},
        "mixture": {"feature_dim": 5},
        "stage1": {"epochs": 1, "batch_size": 16, "queue_capacity": 32,
                   "encoder_hidden": 8, "repr_dim": 6, "proj_hidden": 8, "embed_dim": 6},
        "stage2": {"epochs": 1, "batch_size": 32},
        "thresholds": {"many_min": 30, "few_max": 15},
        "test_per_class": 5}


@pytest.fixture
def tracer():
    """`tracing.Tracer` installed on the package as the traced bench pass
    installs it; every attribute it wrapped is put back afterwards."""
    modules = {name: importlib.import_module(f"noisytail.{name}")
               for name in TRACED_MODULES}
    saved = []
    for mod_name, path, *_ in tracing.TARGETS:
        owner = modules[mod_name]
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        if attr in vars(owner):
            saved.append((owner, attr, vars(owner)[attr]))
    t = tracing.Tracer()
    t.install(modules)
    try:
        yield t
    finally:
        for owner, attr, value in saved:
            setattr(owner, attr, value)


def test_refurbish_span_nests_in_stage2(tracer, tmp_path):
    """`pipeline.run_refurbish` runs once, as stage 2's first step, with the
    relabelling under it, so `pipeline.refurbish_s` reads its time; the
    no-relabel chain does not refurbish."""
    cfg = pipeline.config_from_dict(TINY)
    t0 = time.perf_counter()
    pipeline.run_pipeline(cfg, tmp_path / "ws")
    dump = tracer.dump()
    assert dump["missing"] == []
    spans = tracing.Spans(dump)
    [refurbish] = spans.by_name["pipeline.run_refurbish"]
    assert spans.name[spans.parent[refurbish]] == "pipeline.run_stage2"
    [relabel] = spans.by_name["refurbish.refurbish_dataset"]
    assert spans.parent[relabel] == refurbish
    values, missing, _ = tracing.layer_metrics(dump, time.perf_counter() - t0)
    assert "pipeline.refurbish_s" not in missing
    assert 0 < values["pipeline.refurbish_s"] < values["pipeline.stage2_s"]

    first = len(tracer.names)
    pipeline.run_in_memory(cfg, no_relabel=True)
    later = tracer.names[first:]
    assert "pipeline.run_stage2" in later
    assert "pipeline.run_refurbish" not in later
    assert "refurbish.refurbish_dataset" not in later
