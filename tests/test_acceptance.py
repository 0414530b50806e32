"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the lines as they
complete.  Criteria 7 and 8 share a 3-seed benchmark battery (the default
desk-scale profile) computed once per test run.  A last test checks the
README's file-format table against the JSONL artifacts of criterion 9's
configuration.
"""

import json
import math
import re
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from noisytail import datagen, pipeline
from noisytail.cli import main
from noisytail.datagen import LongTailSpec, MixtureSpec, longtail_counts, synth_dataset
from noisytail.ensemble import expert_shifts, soft_class_counts
from noisytail.numerics import (
    finite_diff_grad,
    make_rng,
    relative_error,
    softmax_ce,
    softmax_rows,
)
from noisytail.pipeline import default_config, run_in_memory, stage_seed
from noisytail.refurbish import (
    ClassStats,
    RefurbishConfig,
    rarity,
    refurbish_batch,
)
from noisytail.stage1 import Predictions, banc_loss, contrastive_loss, sce_loss


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number} ({name}): FAIL")
        raise
    print(f"[acceptance] criterion {number} ({name}): PASS")


def onehot(i, k):
    v = np.zeros(k)
    v[i] = 1.0
    return v


def expert_losses(z, y, shifts):
    """Each expert's loss and logit gradient from the training kernel
    `softmax_ce`, on one sample whose three logit rows all equal z."""
    losses, grad = softmax_ce(np.tile(z, (1, 3, 1)), y[None], shifts)
    return losses, grad[0]


def refurbish_row(logits, observed, stats, sigma):
    """`refurbish_batch` on one row of logits; returns the records."""
    return refurbish_batch([0], Predictions(np.asarray(logits)[None]),
                           np.array([observed]), stats, RefurbishConfig(sigma))


# ---------------------------------------------------------------------------
# Criterion 1: gradient suite (< 1e-4 relative over >= 100 instances each,
# K <= 5, dims <= 8, total runtime < 10 s)
# ---------------------------------------------------------------------------

def _max_rel_err(analytic, numeric):
    return max(relative_error(a, b) for a, b in zip(np.ravel(analytic),
                                                    np.ravel(numeric)))


def test_criterion_1_gradient_suite():
    with criterion(1, "gradient suite"):
        rng = make_rng(101)
        t0 = time.perf_counter()
        worst = {"contrastive": 0.0, "sce": 0.0, "banc": 0.0,
                 "e1": 0.0, "e2": 0.0, "e3": 0.0,
                 "banc_kernel": 0.0, "banc_kernel_shifted": 0.0}

        for _ in range(100):
            d = int(rng.integers(2, 9))
            m = int(rng.integers(1, 7))
            zq = rng.normal(size=d)
            zq /= np.linalg.norm(zq)
            zk = rng.normal(size=d)
            zk /= np.linalg.norm(zk)
            negs = rng.normal(size=(m, d))
            negs /= np.linalg.norm(negs, axis=1, keepdims=True)
            tau = float(rng.uniform(0.1, 2.0))
            _, g_zk, g_negs = contrastive_loss(zq, zk, negs, tau)
            num_zk = finite_diff_grad(
                lambda v: contrastive_loss(zq, v, negs, tau)[0], zk)
            num_negs = finite_diff_grad(
                lambda v: contrastive_loss(zq, zk, v.reshape(m, d), tau)[0],
                negs.ravel())
            worst["contrastive"] = max(worst["contrastive"],
                                       _max_rel_err(g_zk, num_zk),
                                       _max_rel_err(g_negs, num_negs))

        for _ in range(100):
            k = int(rng.integers(2, 6))
            z = rng.normal(size=k) * 2
            y = onehot(int(rng.integers(0, k)), k)
            c = float(rng.uniform(0, 8))
            _, g_sce = sce_loss(softmax_rows(z), y)
            worst["sce"] = max(worst["sce"], _max_rel_err(
                g_sce, finite_diff_grad(lambda v: sce_loss(softmax_rows(v), y)[0], z)))
            _, g_banc = banc_loss(softmax_rows(z), y, c)
            worst["banc"] = max(worst["banc"], _max_rel_err(
                g_banc, finite_diff_grad(lambda v: banc_loss(softmax_rows(v), y, c)[0], z)))

        # the experts on the kernel that trains them, one (1, 1, K) row each
        for _ in range(100):
            k = int(rng.integers(2, 6))
            z = rng.normal(size=k) * 2
            y = softmax_rows(rng.normal(size=k))[None]
            shifts = expert_shifts(ClassStats(rng.uniform(0.5, 50, size=k)))
            for e, name in enumerate(("e1", "e2", "e3")):
                def fn(v, e=e):
                    return softmax_ce(v[None, None], y, shifts[e:e + 1])
                num = finite_diff_grad(lambda v: fn(v)[0][0], z)
                worst[name] = max(worst[name], _max_rel_err(fn(z)[1][0, 0], num))

        # BANC on the same kernel, one-hot labels: unshifted, as stage 1
        # trains it, and under a (1, K) ln(counts) shift row with c > 0
        for _ in range(100):
            k = int(rng.integers(2, 6))
            z = rng.normal(size=k) * 2
            y = onehot(int(rng.integers(0, k)), k)[None]
            c, c_pos = rng.uniform(0, 8), rng.uniform(0.1, 8)
            log_counts = np.log(rng.uniform(0.5, 50, size=(1, k)))
            for name, shift, c_row in (("banc_kernel", 0.0, c),
                                       ("banc_kernel_shifted", log_counts, c_pos)):
                def fn(v, shift=shift, c_row=c_row):
                    return softmax_ce(v[None, None], y, shift, c_row)
                num = finite_diff_grad(lambda v: fn(v)[0][0], z)
                worst[name] = max(worst[name], _max_rel_err(fn(z)[1][0, 0], num))

        elapsed = time.perf_counter() - t0
        for name, err in worst.items():
            assert err < 1e-4, f"{name}: max relative error {err}"
        assert elapsed < 10.0, f"gradient suite took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# Criterion 2: reductions
# ---------------------------------------------------------------------------

def test_criterion_2_reductions():
    with criterion(2, "loss reductions"):
        rng = make_rng(102)
        for _ in range(200):
            k = int(rng.integers(2, 6))
            p = softmax_rows(rng.normal(size=k) * 3)
            label = int(rng.integers(0, k))
            loss, _ = banc_loss(p, onehot(label, k), c=0.0)
            assert abs(loss - (-math.log(p[label]))) < 1e-12

            z = rng.normal(size=k) * 2
            sl = softmax_rows(rng.normal(size=k))
            uniform = ClassStats(np.full(k, float(rng.uniform(0.5, 20))))
            (l1, l2, l3), _ = expert_losses(z, sl, expert_shifts(uniform))
            assert abs(l2 - l1) < 1e-9
            assert abs(l3 - l1) < 1e-9


# ---------------------------------------------------------------------------
# Criterion 3: refurbishment exactness
# ---------------------------------------------------------------------------

def test_criterion_3_refurbishment_exactness():
    with criterion(3, "refurbishment exactness"):
        # independent oracle evaluation of the blend on the worked instance
        probs = np.array([0.5, 0.2, 0.3])
        h, sigma = 0.05, 0.2
        gamma = math.exp(-(h * h) / (sigma * sigma))
        w = probs[1] * gamma
        s = probs.copy()
        s[1] += w
        oracle = s / s.sum()

        counts = np.array([h, (1 - h) / 2, (1 - h) / 2]) * 10000
        stats = ClassStats(np.array([counts[1], counts[0], counts[2]]))
        rec = refurbish_row(np.log(probs), 1, stats, sigma)
        assert np.max(np.abs(rec.soft[0] - oracle)) < 1e-5
        # the same numbers printed to six figures
        assert np.max(np.abs(rec.soft[0] - np.array([0.420919, 0.326542, 0.252539]))) < 2e-5

        # agreement returns the exact one-hot
        rec2 = refurbish_row(np.log(probs), 0, stats, sigma)
        assert not rec2.changed[0]
        np.testing.assert_array_equal(rec2.soft[0], [1.0, 0.0, 0.0])

        # every emitted soft label is normalized
        rng = make_rng(103)
        for _ in range(300):
            k = int(rng.integers(2, 7))
            z = rng.normal(size=k) * 3
            st = ClassStats(rng.uniform(0.5, 50, size=k))
            soft = refurbish_row(z, int(rng.integers(0, k)), st, 0.2).soft[0]
            assert abs(soft.sum() - 1.0) < 1e-9
            assert np.all(soft >= 0)


# ---------------------------------------------------------------------------
# Criterion 4: rarity curve
# ---------------------------------------------------------------------------

def test_criterion_4_rarity_curve():
    with criterion(4, "rarity curve"):
        assert rarity(0.0, 0.2) == 1.0
        assert abs(rarity(0.2, 0.2) - math.exp(-1)) < 1e-9
        grid = [rarity(i / 100.0, 0.2) for i in range(101)]
        assert all(a >= b for a, b in zip(grid, grid[1:]))
        assert rarity(0.5, 0.2) < 0.002


# ---------------------------------------------------------------------------
# Criterion 5: soft counts
# ---------------------------------------------------------------------------

def test_criterion_5_soft_counts():
    with criterion(5, "soft class counts"):
        rng = make_rng(105)
        for n, k in [(10, 3), (500, 7), (123, 11)]:
            labels = softmax_rows(rng.normal(size=(n, k)) * 2)
            counts = soft_class_counts(labels).counts
            assert abs(counts.sum() - n) < 1e-6

        hard = [onehot(int(rng.integers(0, 5)), 5) for _ in range(200)]
        counts = soft_class_counts(np.stack(hard)).counts
        expected = np.sum(hard, axis=0)
        np.testing.assert_array_equal(counts, expected)
        assert all(c == int(c) for c in counts)


# ---------------------------------------------------------------------------
# Criterion 6: simulator statistics
# ---------------------------------------------------------------------------

def test_criterion_6_simulator_statistics():
    with criterion(6, "simulator statistics"):
        counts = longtail_counts(LongTailSpec(10, 5000, 100.0))
        assert counts[9] == 50

        ds = synth_dataset(LongTailSpec(10, 1000, 1.0),
                           MixtureSpec(feature_dim=4), make_rng(106))
        assert len(ds) == 10_000
        noisy, mask = datagen.inject_symmetric(ds, 0.4, make_rng(107))
        assert sum(mask) == 4000
        corrupted = mask
        assert np.count_nonzero(corrupted) == 4000
        assert np.all(noisy.observed[corrupted] != noisy.true[corrupted])
        untouched = ~mask
        assert np.all(noisy.observed[untouched] == noisy.true[untouched])

        fmap = [(0, 1), (3, 2)]
        asym, amask = datagen.inject_asymmetric(ds, 0.4, fmap, make_rng(108))
        for obs, src, m in zip(asym.observed.tolist(), ds.observed.tolist(), amask):
            if m:
                assert src in (0, 3)
                assert obs == dict(fmap)[src]
            else:
                assert obs == src


# ---------------------------------------------------------------------------
# Criteria 7 and 8: the desk-scale benchmark battery (3 seeds, median)
# ---------------------------------------------------------------------------

BENCH_SEEDS = (0, 1, 2)


@pytest.fixture(scope="session")
def benchmark_rows():
    rows = []
    for seed in BENCH_SEEDS:
        cfg = default_config(seed=seed)
        full = run_in_memory(cfg)
        norelabel = run_in_memory(cfg, no_relabel=True)
        ce_acc = pipeline.ce_baseline_accuracy(
            full.train, full.test, cfg.stage1, stage_seed(cfg.seed, "baseline"))
        rep = full.report
        rows.append({
            "stage1_vs_true": full.metrics["stage1_accuracy_vs_true"],
            "full": rep.overall_accuracy,
            "norelabel": norelabel.report.overall_accuracy,
            "ce": ce_acc,
            "max_single": max(rep.expert_overall),
            "e1_many": rep.expert_subgroup[0]["many"],
            "e3_many": rep.expert_subgroup[2]["many"],
            "e1_few": rep.expert_subgroup[0]["few"],
            "e3_few": rep.expert_subgroup[2]["few"],
        })
    return rows


def _check_margins(number, rows, checks):
    """Assert each check (quantity, bound, strict): the quantity's 3-seed
    median is >= the bound (> when strict), a number or the median of
    another quantity.  A table of every check, each side's median and
    per-seed values and the margin (median minus bound), is printed, for
    `pytest -s`, and is the assertion message when a check fails."""
    def side(key):
        values = [r[key] for r in rows]
        median = float(np.median(values))
        seeds = ", ".join(f"{s}: {v:.4f}" for s, v in zip(BENCH_SEEDS, values))
        return median, f"{key} {median:.4f} (seed {seeds})"

    lines, failed = [], False
    for key, bound, strict in checks:
        median, left = side(key)
        limit, right = side(bound) if isinstance(bound, str) else (bound, f"{bound:.4f}")
        ok = median > limit if strict else median >= limit
        failed |= not ok
        lines.append(f"  {'ok  ' if ok else 'FAIL'} {left} {'>' if strict else '>='} "
                     f"{right}: margin {median - limit:+.4f}")
    table = "\n".join([f"[acceptance] criterion {number} margins:"] + lines)
    print(table)
    assert not failed, table


def test_criterion_7_directional_ablation(benchmark_rows):
    with criterion(7, "directional ablation"):
        _check_margins(7, benchmark_rows, [
            ("stage1_vs_true", 1.0 - default_config().noise.rate, True),
            ("full", "norelabel", False),
            ("full", "ce", False),
        ])


def test_criterion_8_expert_specialization(benchmark_rows):
    with criterion(8, "expert specialization"):
        _check_margins(8, benchmark_rows, [
            ("e1_many", "e3_many", False),
            ("e3_few", "e1_few", False),
            ("full", "max_single", False),
        ])


# ---------------------------------------------------------------------------
# Criterion 9: determinism of command re-runs
# ---------------------------------------------------------------------------

CRITERION_9_CONFIG = {
    "seed": 17,
    "longtail": {"num_classes": 4, "head_count": 40, "imbalance_ratio": 4.0},
    "mixture": {"feature_dim": 5},
    "stage1": {"epochs": 3, "batch_size": 16, "queue_capacity": 32,
               "encoder_hidden": 8, "repr_dim": 6, "proj_hidden": 8,
               "embed_dim": 6},
    "stage2": {"epochs": 3, "batch_size": 32},
    "thresholds": {"many_min": 30, "few_max": 15},
    "test_per_class": 5,
}


def test_criterion_9_determinism(tmp_path):
    with criterion(9, "determinism"):
        cfg = pipeline.config_from_dict(CRITERION_9_CONFIG)
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        pipeline.run_pipeline(cfg, out1)
        pipeline.run_pipeline(cfg, out2)
        names = sorted(p.name for p in out1.iterdir())
        assert names == sorted(p.name for p in out2.iterdir())
        for name in names:
            if not name.startswith("manifest_"):
                assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name
        assert "manifest_refurbish.json" not in names
        for cmd in ("simulate", "stage1", "stage2", "evaluate"):
            m1 = json.loads((out1 / f"manifest_{cmd}.json").read_text())
            m2 = json.loads((out2 / f"manifest_{cmd}.json").read_text())
            for measured in ("wall_time_s", "write_s", "peak_rss_mb",
                             "writers_peak_rss_mb"):
                m1.pop(measured), m2.pop(measured)
            assert m1 == m2, cmd


# ---------------------------------------------------------------------------
# The README's file formats against the artifacts
# ---------------------------------------------------------------------------

def readme_file_formats() -> dict:
    """JSONL file name -> (required keys, optional keys), read from the
    README's "File formats" table, where `?` marks an optional key."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## File formats", 1)[1].split("\n## ", 1)[0]
    table = {}
    for files, record in re.findall(r"^\| (.+?) \| `\{(.*)\}` \|$", section, re.M):
        keys = re.findall(r'"(\w+)"(\??)', record)
        for name in re.findall(r"`([\w.]+\.jsonl)`", files):
            table[name] = ({k for k, opt in keys if not opt}, {k for k, opt in keys if opt})
    return table


def test_file_formats_table_matches_artifacts(tmp_path):
    table = readme_file_formats()
    pipeline.run_pipeline(pipeline.config_from_dict(CRITERION_9_CONFIG), tmp_path)
    written = sorted(p.name for p in tmp_path.glob("*.jsonl"))
    assert written == sorted(table)
    for name in written:
        with open(tmp_path / name, encoding="utf-8") as fh:
            keys = set(json.loads(fh.readline()))
        required, optional = table[name]
        assert required <= keys <= required | optional, (name, sorted(keys))


def test_file_formats_table_lists_what_the_cli_writes(tmp_path):
    """The table names exactly the JSONL files `noisytail pipeline` writes;
    the noise mask is not among them, as it is read off the labels."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps(CRITERION_9_CONFIG))
    out = tmp_path / "ws"
    assert main(["pipeline", "--config", str(config), "--out", str(out)]) == 0
    assert sorted(p.name for p in out.glob("*.jsonl")) == sorted(readme_file_formats())
