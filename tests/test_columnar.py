"""The columnar data path against per-row references.

Batched refurbishment and vectorised noise injection are compared bit for
bit with the per-sample rules, the JSONL writers byte for byte with a
per-record `json.dumps` writer at block edges and beside sibling writers,
and every loader is fed malformed input that must be rejected with an
error naming the line or the sample id.
"""

import errno
import hashlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from noisytail import jsonl
from noisytail.datagen import (
    Dataset,
    align_ids,
    import_embeddings,
    inject_asymmetric,
    inject_symmetric,
    load_dataset,
    save_dataset,
    save_noise_mask,
)
from noisytail.errors import InvalidInputError, ParseError
from noisytail.numerics import make_rng, softmax_rows
from noisytail.refurbish import (
    RefurbishConfig,
    align_records,
    class_proportions,
    load_records,
    refurbish_dataset,
    save_records,
)
from noisytail.stage1 import (
    Predictions,
    load_predictions,
    save_predictions,
)


def reference_refurbish(probs, predicted, observed, h, sigma):
    """The per-sample rule: rho = probs[obs], gamma = exp(-h^2/sigma^2),
    w = rho * gamma; agreement keeps the one-hot, else (p + w e)/(1 + w)."""
    rho = float(probs[observed])
    gamma = math.exp(-(h * h) / (sigma * sigma))
    w = rho * gamma
    if predicted == observed:
        soft = np.zeros(probs.size)
        soft[observed] = 1.0
        return rho, gamma, w, False, soft
    s = probs.copy()
    s[observed] += w
    return rho, gamma, w, True, s / s.sum()


def random_dataset(rng, n, k, d=3, with_true=True):
    observed = rng.integers(0, k, size=n)
    true = rng.integers(0, k, size=n) if with_true else None
    ids = rng.permutation(10 * n)[:n]
    return Dataset(ids, rng.normal(size=(n, d)) * 1e3, observed, true, k)


class TestBatchedRefurbishment:
    @given(n=st.integers(1, 40), k=st.integers(2, 7), seed=st.integers(0, 10_000),
           sigma=st.floats(0.05, 2.0), scale=st.floats(0.1, 8.0))
    @settings(max_examples=80, deadline=None)
    def test_equals_per_row_formula_bitwise(self, n, k, seed, sigma, scale):
        rng = make_rng(seed)
        ds = random_dataset(rng, n, k)
        preds = Predictions(rng.normal(size=(n, k)) * scale)
        soft, records = refurbish_dataset(ds, preds, RefurbishConfig(sigma))
        h = class_proportions(ds).proportions
        probs = softmax_rows(preds.logits)
        for i in range(n):
            rho, gamma, w, changed, ref = reference_refurbish(
                probs[i], int(preds.predicted[i]), int(ds.observed[i]),
                float(h[ds.observed[i]]), sigma)
            assert records.rho[i] == rho
            assert records.gamma[i] == gamma
            assert records.weight[i] == w
            assert bool(records.changed[i]) == changed
            assert soft[i].tobytes() == ref.tobytes()
            assert records.ids[i] == ds.ids[i]

    def test_changed_follows_the_probabilities(self):
        """The predicted class is the argmax of the probabilities the blend
        uses, since both come from one `Predictions`: a tie goes to the
        lowest class, and logits of 1e4 scale still give probability rows."""
        rng = make_rng(1)
        ds = random_dataset(rng, 200, 3)
        logits = rng.normal(size=(200, 3)) * 1e4
        logits[:20] = 0.0  # exact ties
        preds = Predictions(logits)
        soft, records = refurbish_dataset(ds, preds, RefurbishConfig())
        probs = softmax_rows(preds.logits)
        assert np.all(probs >= 0)
        assert np.all(np.abs(probs.sum(axis=1) - 1.0) < 1e-12)
        np.testing.assert_array_equal(
            records.changed, np.argmax(probs, axis=1) != ds.observed)
        assert np.all(np.abs(soft.sum(axis=1) - 1.0) < 1e-12)


def reference_symmetric(observed, true, k, rate, rng):
    """The per-sample rule: visit samples in order and draw one offset in
    [1, k) for each chosen sample, away from its true label."""
    n = len(observed)
    n_noisy = int(math.floor(rate * n + 0.5))
    chosen = set(rng.choice(n, size=n_noisy, replace=False).tolist()) if n_noisy else set()
    labels = [(true[i] + int(rng.integers(1, k))) % k if i in chosen else observed[i]
              for i in range(n)]
    return labels, [i in chosen for i in range(n)]


def reference_asymmetric(observed, flips, rate, rng):
    labels, mask = list(observed), [False] * len(observed)
    for src, dst in flips:
        idx = [i for i, y in enumerate(observed) if y == src]
        n_flip = int(math.floor(rate * len(idx) + 0.5))
        if n_flip:
            for c in rng.choice(len(idx), size=n_flip, replace=False):
                labels[idx[c]], mask[idx[c]] = dst, True
    return labels, mask


class TestVectorisedNoise:
    @given(n=st.integers(1, 300), k=st.integers(2, 9), rate=st.floats(0.0, 0.95),
           seed=st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_symmetric_equals_per_sample_draws(self, n, k, rate, seed):
        ds = random_dataset(make_rng(seed + 1), n, k)
        out, mask = inject_symmetric(ds, rate, make_rng(seed))
        labels, ref_mask = reference_symmetric(ds.observed.tolist(), ds.true.tolist(),
                                               k, rate, make_rng(seed))
        assert out.observed.tolist() == labels
        assert mask.tolist() == ref_mask

    @given(n=st.integers(1, 300), rate=st.floats(0.0, 0.95), seed=st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_asymmetric_equals_per_sample_draws(self, n, rate, seed):
        ds = random_dataset(make_rng(seed + 1), n, 5)
        flips = [(0, 1), (3, 2), (4, 0)]
        out, mask = inject_asymmetric(ds, rate, flips, make_rng(seed))
        labels, ref_mask = reference_asymmetric(ds.observed.tolist(), flips, rate,
                                                make_rng(seed))
        assert out.observed.tolist() == labels
        assert mask.tolist() == ref_mask


# ---------------------------------------------------------------------------
# Writers: byte-identical to one json.dumps per record
# ---------------------------------------------------------------------------

def reference_write(path, records):
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")


def dataset_case(n, seed, with_true=True):
    ds = random_dataset(make_rng(seed), n, 4, d=6, with_true=with_true)
    refs = []
    for i in range(len(ds)):
        rec = {"id": int(ds.ids[i]), "features": ds.X[i].tolist(),
               "observed_label": int(ds.observed[i])}
        if with_true:
            rec["true_label"] = int(ds.true[i])
        refs.append(rec)
    return (lambda path: save_dataset(ds, path)), refs


def predictions_case(n, seed):
    rng = make_rng(seed)
    ids = rng.permutation(n)
    preds = Predictions(rng.normal(size=(n, 5)) * 4)
    refs = [{"id": int(ids[i]), "logits": preds.logits[i].tolist()} for i in range(n)]
    return (lambda path: save_predictions(ids, preds, path)), refs


def records_case(n, seed):
    rng = make_rng(seed)
    ds = random_dataset(rng, n, 6)
    preds = Predictions(rng.normal(size=(n, 6)))
    _, records = refurbish_dataset(ds, preds, RefurbishConfig())
    refs = [{"id": r.id, "soft_label": r.soft.tolist(),
             "changed": r.changed, "rho": r.rho, "gamma": r.gamma,
             "weight": r.weight} for r in records]
    return (lambda path: save_records(records, path)), refs


def mask_case(n, seed):
    mask = make_rng(seed).random(n) < 0.4
    ids = np.arange(n) * 3
    refs = [{"id": int(i), "noisy": bool(m)} for i, m in zip(ids, mask)]
    return (lambda path: save_noise_mask(mask, ids, path)), refs


def in_forked_writer(write):
    """`write(path)` run as the pipeline runs a JSONL writer: in a child
    forked by `jsonl.Forks`, whose failure the caller sees as an OSError
    naming the file."""
    def run(path):
        forks = jsonl.Forks()
        forks.wait(forks.start(f"cannot write {path}: writer", lambda: write(path)))
    return run


WRITER_CASES = {
    "dataset": dataset_case,
    "dataset_no_true": lambda n, seed: dataset_case(n, seed, with_true=False),
    "predictions": predictions_case,
    "records": records_case,
    "mask": mask_case,
}


def assert_writer_bytes(tmp_path, case, n, seed):
    write, refs = WRITER_CASES[case](n, seed)
    write(tmp_path / "new.jsonl")
    reference_write(tmp_path / "ref.jsonl", refs)
    assert (tmp_path / "new.jsonl").read_bytes() == \
           (tmp_path / "ref.jsonl").read_bytes()


B = jsonl.BLOCK_ROWS
# (case, writers, rows): 0, 1 and either side of a block edge, and either
# side of 4 blocks per writer, written by `writers` forked writers at once.
# A Dataset (and so a record set) holds at least one sample.
CONCURRENT_CASES = [(case, writers, n)
                    for case in sorted(WRITER_CASES) for writers in (1, 2, 3, 4)
                    for n in (0, 1, B - 1, B, B + 1,
                              4 * writers * B - 1, 4 * writers * B + 1)
                    if n or case in ("predictions", "mask")]


def failing_after(blocks: int, error: Exception):
    """An `encode_rows` that passes `blocks` blocks to `write`, then raises."""
    encode_rows = jsonl.encode_rows

    def failing(write, keys, columns):
        rows = min(blocks * B, len(columns[0]))
        encode_rows(write, keys, [c[:rows] for c in columns])
        raise error
    return failing


class TestWriters:
    @pytest.mark.parametrize("with_true", [True, False])
    def test_dataset_bytes(self, tmp_path, with_true):
        assert_writer_bytes(tmp_path, "dataset" if with_true else "dataset_no_true",
                            5000, 2)

    def test_predictions_bytes(self, tmp_path):
        assert_writer_bytes(tmp_path, "predictions", 5000, 3)

    def test_records_bytes(self, tmp_path):
        assert_writer_bytes(tmp_path, "records", 5000, 4)

    def test_mask_bytes(self, tmp_path):
        assert_writer_bytes(tmp_path, "mask", 300, 5)

    @pytest.mark.parametrize("case,writers,n", CONCURRENT_CASES)
    def test_bytes_at_every_shard_count(self, tmp_path, case, writers, n):
        """`writers` forked writers, each encoding a file of its own
        serially, run at once as the pipeline's do: every file equals the
        per-record reference and every digest sent back is that of its
        bytes."""
        write, refs = WRITER_CASES[case](n, n + writers)
        reference_write(tmp_path / "ref.jsonl", refs)
        ref = (tmp_path / "ref.jsonl").read_bytes()
        forks = jsonl.Forks()
        paths = {forks.start(f"cannot write {path}: writer",
                             lambda path=path: write(path)): path
                 for path in (tmp_path / f"new{w}.jsonl" for w in range(writers))}
        try:
            for pid, path in paths.items():
                assert forks.wait(pid) == hashlib.sha256(ref).hexdigest()
                assert path.read_bytes() == ref
        finally:
            forks.kill()

    @given(n=st.integers(0, 20 * B))
    @settings(max_examples=25, deadline=None)
    def test_mask_bytes_any_row_count(self, tmp_path_factory, n):
        assert_writer_bytes(tmp_path_factory.mktemp("mask"), "mask", n, n)

    def test_non_finite_values_are_refused(self, tmp_path):
        """Refused before the file is opened, naming key and row, also when
        the value lies past the first block."""
        n = 8 * B
        for value in (np.nan, np.inf, -np.inf):
            preds = Predictions(np.zeros((n, 3)))
            preds.logits[n - 10, 2] = value
            path = tmp_path / "p.jsonl"
            with pytest.raises(ValueError, match=f"logits at row {n - 10} is not finite"):
                save_predictions(np.arange(n), preds, path)
            assert not path.exists()

    @pytest.mark.parametrize("blocks", [0, 2])
    def test_failed_encoder_leaves_nothing_behind(self, tmp_path, monkeypatch, capfd,
                                                  blocks):
        """An encoder that fails, before any row or after `blocks` blocks
        reached the file, leaves no file in the directory."""
        self.check_failed_encoder(tmp_path, monkeypatch, capfd, blocks, "caller")

    @pytest.mark.parametrize("blocks", [0, 2])
    def test_failed_encoder_in_forked_writer_leaves_nothing_behind(
            self, tmp_path, monkeypatch, capfd, blocks):
        """The same when the write runs in a forked writer, whose failure
        the caller sees as an OSError naming the file."""
        self.check_failed_encoder(tmp_path, monkeypatch, capfd, blocks, "forked_writer")

    @staticmethod
    def check_failed_encoder(tmp_path, monkeypatch, capfd, blocks, via):
        monkeypatch.setattr(jsonl, "encode_rows",
                            failing_after(blocks, RuntimeError(f"boom after {blocks}")))
        write, _ = mask_case(3 * B, 0)
        path = tmp_path / "mask.jsonl"
        expected = ((OSError, f"cannot write {re.escape(str(path))}")
                    if via == "forked_writer" else (RuntimeError, "boom"))
        if via == "forked_writer":
            write = in_forked_writer(write)
        with pytest.raises(expected[0], match=expected[1]):
            write(path)
        assert os.listdir(tmp_path) == []
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        if via == "forked_writer":
            assert f"boom after {blocks}" in capfd.readouterr().err

    @pytest.mark.parametrize("blocks", [1, 2])
    @pytest.mark.parametrize("encoder_fails", [True, False])
    def test_failed_close_leaves_nothing_behind(self, tmp_path, monkeypatch, capfd,
                                                blocks, encoder_fails):
        """A target of `blocks` blocks and one row whose closing flush fails
        (a full disk) is deleted, and an encoder failure before it, after
        `blocks` blocks, stays the error reported."""
        self.check_failed_close(tmp_path, monkeypatch, capfd, blocks, encoder_fails,
                                "caller")

    @pytest.mark.parametrize("blocks", [1, 2])
    @pytest.mark.parametrize("encoder_fails", [True, False])
    def test_failed_close_in_forked_writer_leaves_nothing_behind(
            self, tmp_path, monkeypatch, capfd, blocks, encoder_fails):
        """The same when the whole write runs in a forked writer: the error
        reported on stderr is the first one, and the OSError names the file."""
        self.check_failed_close(tmp_path, monkeypatch, capfd, blocks, encoder_fails,
                                "forked_writer")

    @staticmethod
    def check_failed_close(tmp_path, monkeypatch, capfd, blocks, encoder_fails, via):
        def open_failing_close(*args, **kwargs):
            fh = open(*args, **kwargs)
            close = fh.close

            def failing_close():
                close()
                raise OSError(errno.ENOSPC, "disk full on close")
            fh.close = failing_close
            return fh

        monkeypatch.setattr(jsonl, "open", open_failing_close, raising=False)
        if encoder_fails:
            monkeypatch.setattr(jsonl, "encode_rows",
                                failing_after(blocks, RuntimeError("boom")))
        write, _ = mask_case(blocks * B + 1, 0)
        cause = "boom" if encoder_fails else "disk full"
        path = tmp_path / "mask.jsonl"
        if via == "forked_writer":
            with pytest.raises(OSError, match=f"cannot write {re.escape(str(path))}"):
                in_forked_writer(write)(path)
            assert cause in capfd.readouterr().err
        else:
            with pytest.raises(RuntimeError if encoder_fails else OSError, match=cause):
                write(path)
        assert os.listdir(tmp_path) == []
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


_ENCODER = json.JSONEncoder(allow_nan=False).encode
# floats whose reprs take each form: signed zero, subnormal, exponent from
# 1e16 up and below 1e-4, the largest double
EDGE_FLOATS = [-0.0, 5e-324, 1e16, 1e-05, 1.7976931348623157e308]
INT64 = np.iinfo(np.int64)
# the elements drawn for each written dtype; None: any value of the dtype
COLUMN_KINDS = {
    np.int64: st.integers(INT64.min, INT64.max) | st.sampled_from([INT64.min, INT64.max]),
    np.int32: None, np.uint64: None, bool: None,
    np.float32: st.floats(allow_nan=False, allow_infinity=False, width=32),
    np.float64: (st.floats(allow_nan=False, allow_infinity=False)
                 | st.sampled_from(EDGE_FLOATS)),
}


@st.composite
def tables(draw):
    """Keys holding quotes, backslashes, `%` and non-ASCII characters, and
    1-D columns or vectors of width 0, 1 and 20, of every written dtype."""
    n = draw(st.integers(0, 5))
    keys = draw(st.lists(st.text(st.sampled_from('a"\\%sé雪\n')), min_size=1,
                         max_size=4, unique=True))
    columns = []
    for _ in keys:
        dtype = draw(st.sampled_from(list(COLUMN_KINDS)))
        width = draw(st.sampled_from([None, 0, 1, 20]))
        columns.append(draw(hnp.arrays(dtype, (n,) if width is None else (n, width),
                                       elements=COLUMN_KINDS[dtype])))
    return tuple(keys), columns


def encoded(keys, columns) -> bytes:
    parts = []
    jsonl.encode_rows(parts.append, keys, columns)
    return b"".join(parts)


class TestRowTemplate:
    """`encode_rows` fills one `%` row template per file; every row must
    come out as the JSON encoder's bytes for that row's dict."""

    @staticmethod
    def expected(keys, columns) -> bytes:
        rows = zip(*(c.tolist() for c in columns))
        return "".join(_ENCODER(dict(zip(keys, row))) + "\n" for row in rows).encode()

    @given(table=tables())
    @settings(max_examples=300, deadline=None)
    def test_writes_the_encoders_bytes(self, table):
        keys, columns = table
        assert encoded(keys, columns) == self.expected(keys, columns)

    def test_edge_values_across_a_block_edge(self):
        n = B + 1
        floats = np.resize(np.array(EDGE_FLOATS + [-x for x in EDGE_FLOATS]), (n, 20))
        keys = ("id", "x", "flag", "v")
        columns = [np.resize(np.array([INT64.min, INT64.max, 0, -1]), n), floats,
                   np.arange(n) % 3 == 0, floats[:, 0]]
        assert encoded(keys, columns) == self.expected(keys, columns)

    @pytest.mark.parametrize("column", [
        np.array(["a"]), np.array([1j]), np.array([None], object),
        np.array(["2020-01-01"], "datetime64[D]"), np.zeros((1, 1, 1))],
        ids=["str", "complex", "object", "datetime", "3-D"])
    def test_unsupported_column_is_refused(self, column):
        with pytest.raises(TypeError, match="cannot write x"):
            encoded(("id", "x"), [np.arange(1), column])


def test_import_starts_no_process_pool():
    """`import noisytail` loads neither process-pool module, so the CLI's
    start-up time cannot silently grow by them."""
    code = ("import noisytail, sys; "
            "print([m for m in ('multiprocessing', 'concurrent.futures') "
            "if m in sys.modules])")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=60, check=True)
    assert out.stdout.strip() == "[]"


# ---------------------------------------------------------------------------
# Loaders: bad input is rejected, naming the line or the sample id
# ---------------------------------------------------------------------------

def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n")


def sample(i, feats=(0.5, 1.5), obs=0, true=0):
    return json.dumps({"id": i, "features": list(feats), "observed_label": obs,
                       "true_label": true})


def prediction(i, logits=(0.0, 1.0), probs=None, cls=1):
    """A prediction line as earlier versions wrote it, with `probs` and
    `predicted_class` beside the logits."""
    probs = probs if probs is not None else list(
        np.exp(logits) / np.exp(logits).sum())
    return json.dumps({"id": i, "logits": list(logits), "probs": list(probs),
                       "predicted_class": cls})


def record(i, soft=(0.25, 0.75), changed=True):
    return json.dumps({"id": i, "soft_label": list(soft), "changed": changed,
                       "rho": 0.5, "gamma": 0.9, "weight": 0.45})


class TestDatasetLoader:
    def test_nan_feature_names_line(self, tmp_path):
        path = tmp_path / "d.jsonl"
        write_lines(path, [sample(0), sample(1),
                           '{"id": 2, "features": [NaN, 1.0], "observed_label": 0}'])
        with pytest.raises(ParseError, match="line 3.*non-finite"):
            load_dataset(path, num_classes=2)

    def test_duplicate_id_names_sample(self, tmp_path):
        path = tmp_path / "d.jsonl"
        write_lines(path, [sample(0), sample(7), sample(7)])
        with pytest.raises(InvalidInputError, match="duplicate sample id 7"):
            load_dataset(path, num_classes=2)

    @pytest.mark.parametrize("row", [sample(1, obs=-1), sample(1, true=2)])
    def test_out_of_range_label_names_line(self, tmp_path, row):
        path = tmp_path / "d.jsonl"
        write_lines(path, [sample(0), row])
        with pytest.raises(ParseError, match="line 2.*out of range"):
            load_dataset(path, num_classes=2)

    def test_out_of_range_label_without_k_names_sample(self, tmp_path):
        path = tmp_path / "d.jsonl"
        write_lines(path, [sample(0), sample(4, obs=-1)])
        with pytest.raises(InvalidInputError, match="sample 4"):
            load_dataset(path)

    @pytest.mark.parametrize("feats", [(1.0,), (1.0, 2.0, 3.0), ([1.0], [2.0]),
                                       ("a", 1.0), (None, 1.0)])
    def test_ragged_or_malformed_row_names_line(self, tmp_path, feats):
        path = tmp_path / "d.jsonl"
        write_lines(path, [sample(0), sample(1), sample(2, feats=feats)])
        with pytest.raises(ParseError, match="line 3"):
            load_dataset(path, num_classes=2)

    @pytest.mark.parametrize("line", [1, 3])
    @pytest.mark.parametrize("feats", [(True, 1.0), (1.0, False), ("0.5", 1.0)])
    def test_non_number_entry_names_line(self, tmp_path, feats, line):
        # a JSON boolean or a numeric string is not a number, in the first
        # row (which fixes the width) or in a later one
        rows = [sample(0), sample(1), sample(2)]
        rows[line - 1] = sample(line - 1, feats=feats)
        path = tmp_path / "d.jsonl"
        write_lines(path, rows)
        with pytest.raises(ParseError,
                           match=f"line {line}: .*features must be an array of 2 numbers"):
            load_dataset(path, num_classes=2)

    @pytest.mark.parametrize("key", ["id", "features", "observed_label"])
    def test_missing_key_names_line(self, tmp_path, key):
        rec = json.loads(sample(1))
        del rec[key]
        path = tmp_path / "d.jsonl"
        write_lines(path, [sample(0), json.dumps(rec)])
        with pytest.raises(ParseError, match="line 2"):
            load_dataset(path, num_classes=2)

    @pytest.mark.parametrize("key,value", [
        ("observed_label", 1.9), ("observed_label", 1.0), ("observed_label", "1"),
        ("observed_label", True), ("true_label", "1"), ("true_label", True),
        ("true_label", 0.5), ("id", 2.0), ("id", False), ("id", "2"), ("id", 2**63),
        ("observed_label", [1]),
    ])
    def test_label_or_id_not_an_integer_names_line(self, tmp_path, key, value):
        rec = json.loads(sample(1))
        rec[key] = value
        path = tmp_path / "d.jsonl"
        write_lines(path, [sample(0), json.dumps(rec)])
        with pytest.raises(ParseError, match=f"line 2: .*{key} must be an integer"):
            load_dataset(path, num_classes=2)

    def test_null_true_label_is_absent(self, tmp_path):
        path = tmp_path / "d.jsonl"
        rec = json.loads(sample(1))
        rec["true_label"] = None
        write_lines(path, [sample(0), json.dumps(rec)])
        ds = load_dataset(path, num_classes=2)
        assert ds.true is None and ds.observed.dtype == np.int64

    def test_blank_lines_skipped_and_mixed_true_is_real_data(self, tmp_path):
        path = tmp_path / "d.jsonl"
        no_true = json.dumps({"id": 5, "features": [1.0, 2.0], "observed_label": 1})
        write_lines(path, ["", sample(3), "", no_true, ""])
        ds = load_dataset(path, num_classes=2)
        assert ds.ids.tolist() == [3, 5] and ds.true is None
        np.testing.assert_array_equal(ds.X, [[0.5, 1.5], [1.0, 2.0]])


class TestEmbeddingImport:
    @pytest.mark.parametrize("bad_row", ["[NaN, 1.0]", "[1.0]", "[1.0, 2.0, 3.0]",
                                         '{"features": [1.0, 2.0]}', "[oops"])
    def test_bad_feature_row_names_line(self, tmp_path, bad_row):
        feats, labels = tmp_path / "emb.jsonl", tmp_path / "labels.txt"
        write_lines(feats, ["[0.5, 1.5]", bad_row])
        write_lines(labels, ["0", "1"])
        with pytest.raises(ParseError, match="line 2"):
            import_embeddings(feats, labels)

    @pytest.mark.parametrize("rows,line", [(["[true, 1.0]", "[0.5, 1.5]"], 1),
                                           (["[0.5, 1.5]", "[1.0, false]"], 2),
                                           (["[0.5, 1.5]", '[1.0, "2.0"]'], 2)])
    def test_non_number_entry_names_line(self, tmp_path, rows, line):
        feats, labels = tmp_path / "emb.jsonl", tmp_path / "labels.txt"
        write_lines(feats, rows)
        write_lines(labels, ["0", "1"])
        with pytest.raises(ParseError, match=f"line {line}: .*array of 2 numbers"):
            import_embeddings(feats, labels)


class TestPredictionLoader:
    def test_roundtrip_exact(self, tmp_path):
        rng = make_rng(6)
        preds = Predictions(rng.normal(size=(50, 4)) * 3)
        ids = rng.permutation(50)
        save_predictions(ids, preds, tmp_path / "p.jsonl")
        got_ids, got = load_predictions(tmp_path / "p.jsonl")
        assert got_ids.tolist() == ids.tolist()
        for a, b in ((preds.logits, got.logits),
                     (softmax_rows(preds.logits), softmax_rows(got.logits)),
                     (preds.predicted, got.predicted)):
            assert a.tobytes() == b.tobytes()

    def test_alignment_follows_ids_not_file_order(self, tmp_path):
        rng = make_rng(7)
        ds = random_dataset(rng, 60, 4)
        preds = Predictions(rng.normal(size=(60, 4)))
        order = rng.permutation(60)
        save_predictions(ds.ids[order], Predictions(preds.logits[order]),
                         tmp_path / "p.jsonl")
        ids, loaded = load_predictions(tmp_path / "p.jsonl")
        aligned = Predictions(loaded.logits[align_ids(ids, ds.ids, "prediction")])
        assert aligned.logits.tobytes() == preds.logits.tobytes()
        assert aligned.predicted.tolist() == preds.predicted.tolist()
        _, records = refurbish_dataset(ds, preds, RefurbishConfig())
        save_records(records.take(order), tmp_path / "r.jsonl")
        back = align_records(ds, load_records(tmp_path / "r.jsonl"))
        assert back.ids.tolist() == ds.ids.tolist()
        assert back.soft.tobytes() == records.soft.tobytes()

    @pytest.mark.parametrize("edit, match", [
        (lambda ids: np.concatenate([ids[:1], ids[:-1]]), "duplicate prediction id"),
        (lambda ids: np.where(ids == ids[3], -5, ids), "no prediction for sample id"),
        (lambda ids: ids[:-1], "prediction count"),
    ])
    def test_alignment_rejects_bad_ids(self, edit, match):
        rng = make_rng(8)
        ds = random_dataset(rng, 10, 3)
        ids = edit(ds.ids.copy())
        with pytest.raises(InvalidInputError, match=match):
            align_ids(ids, ds.ids, "prediction")

    def test_nan_logit_names_line(self, tmp_path):
        path = tmp_path / "p.jsonl"
        write_lines(path, [prediction(0),
                           '{"id": 1, "logits": [NaN, 0.0], "probs": [0.5, 0.5], '
                           '"predicted_class": 0}'])
        with pytest.raises(ParseError, match="line 2.*logits"):
            load_predictions(path)

    def test_ragged_row_names_line(self, tmp_path):
        path = tmp_path / "p.jsonl"
        write_lines(path, [prediction(0), prediction(1, logits=(0.0, 1.0, 2.0))])
        with pytest.raises(ParseError, match="line 2"):
            load_predictions(path)

    @pytest.mark.parametrize("key", ["id", "logits"])
    def test_missing_key_names_line(self, tmp_path, key):
        rec = json.loads(prediction(1))
        del rec[key]
        path = tmp_path / "p.jsonl"
        write_lines(path, [prediction(0), json.dumps(rec)])
        with pytest.raises(ParseError, match="line 2"):
            load_predictions(path)

    @pytest.mark.parametrize("key", ["probs", "predicted_class"])
    def test_loads_without_key(self, tmp_path, key):
        rec = json.loads(prediction(1, logits=(2.0, -1.0)))
        del rec[key]
        path = tmp_path / "p.jsonl"
        write_lines(path, [prediction(0), json.dumps(rec)])
        ids, got = load_predictions(path)
        assert ids.tolist() == [0, 1]
        assert got.predicted.tolist() == [1, 0]

    def test_older_rows_load_from_their_logits_alone(self, tmp_path):
        """`probs` and `predicted_class` in a file are ignored, also where
        they disagree with the logits."""
        rng = make_rng(9)
        logits = rng.normal(size=(6, 4)) * 3
        preds = Predictions(logits)
        probs = softmax_rows(preds.logits)
        lines = [prediction(i, logits[i].tolist(), probs[i].tolist(),
                            int(preds.predicted[i])) for i in range(5)]
        lines.append(prediction(5, logits[5].tolist(), [1.0, 0.0, 0.0, 0.0],
                                (int(preds.predicted[5]) + 1) % 4))
        path = tmp_path / "p.jsonl"
        write_lines(path, lines)
        _, got = load_predictions(path)
        for a, b in ((preds.logits, got.logits),
                     (softmax_rows(preds.logits), softmax_rows(got.logits)),
                     (preds.predicted, got.predicted)):
            assert a.tobytes() == b.tobytes()

    def test_take_equals_row_slicing(self):
        """A `Predictions` of some rows of the logits holds those rows of
        the whole: softmax and argmax work row by row."""
        rng = make_rng(10)
        preds = Predictions(rng.normal(size=(80, 7)) * 5)
        for idx in (rng.permutation(80), rng.permutation(80)[:33], slice(5, 40)):
            got = Predictions(preds.logits[idx])
            assert got.logits.tobytes() == preds.logits[idx].tobytes()
            assert (softmax_rows(got.logits).tobytes()
                    == softmax_rows(preds.logits)[idx].tobytes())
            assert got.predicted.tobytes() == preds.predicted[idx].tobytes()

    def test_malformed_json_names_line(self, tmp_path):
        path = tmp_path / "p.jsonl"
        write_lines(path, [prediction(0), "{oops"])
        with pytest.raises(ParseError, match="line 2"):
            load_predictions(path)


class TestRecordLoader:
    def test_not_a_probability_vector_names_line(self, tmp_path):
        path = tmp_path / "r.jsonl"
        write_lines(path, [record(0), record(1, soft=(0.5, 0.6))])
        with pytest.raises(ParseError, match="line 2.*probability"):
            load_records(path)

    def test_nan_soft_label_names_line(self, tmp_path):
        path = tmp_path / "r.jsonl"
        write_lines(path, [record(0), record(1).replace("0.25", "NaN")])
        with pytest.raises(ParseError, match="line 2.*non-finite"):
            load_records(path)

    @pytest.mark.parametrize("line", [1, 2])
    def test_boolean_soft_label_names_line(self, tmp_path, line):
        # [false, true] would pass as the probability vector [0.0, 1.0]
        rows = [record(0), record(1)]
        rows[line - 1] = record(line - 1, soft=(False, True))
        path = tmp_path / "r.jsonl"
        write_lines(path, rows)
        with pytest.raises(ParseError,
                           match=f"line {line}: .*soft_label must be an array of 2 numbers"):
            load_records(path)

    def test_ragged_row_names_line(self, tmp_path):
        path = tmp_path / "r.jsonl"
        write_lines(path, [record(0), record(1, soft=(0.2, 0.3, 0.5))])
        with pytest.raises(ParseError, match="line 2"):
            load_records(path)

    @pytest.mark.parametrize("key", ["id", "soft_label", "changed", "rho",
                                     "gamma", "weight"])
    def test_missing_key_names_line(self, tmp_path, key):
        rec = json.loads(record(1))
        del rec[key]
        path = tmp_path / "r.jsonl"
        write_lines(path, [record(0), json.dumps(rec)])
        with pytest.raises(ParseError, match="line 2"):
            load_records(path)

    @pytest.mark.parametrize("key,value", [
        ("changed", "no"), ("changed", 1), ("changed", 0), ("changed", None),
        ("id", 1.0), ("id", True), ("rho", "0.5"), ("rho", True), ("gamma", None),
    ])
    def test_field_of_wrong_type_names_line(self, tmp_path, key, value):
        rec = json.loads(record(1))
        rec[key] = value
        path = tmp_path / "r.jsonl"
        write_lines(path, [record(0), json.dumps(rec)])
        want = {"changed": "true or false", "id": "an integer"}.get(key, "a finite number")
        with pytest.raises(ParseError, match=f"line 2: .*{key} must be {want}"):
            load_records(path)

    @pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity",
                                       pytest.param(str(10**400), id="10**400")])
    def test_non_finite_scalar_names_line(self, tmp_path, value):
        path = tmp_path / "r.jsonl"
        write_lines(path, [record(0), record(1).replace('"rho": 0.5', f'"rho": {value}')])
        with pytest.raises(ParseError, match="line 2: .*rho must be a finite number"):
            load_records(path)

    def test_integer_numbers_load_as_floats(self, tmp_path):
        path = tmp_path / "r.jsonl"
        write_lines(path, [record(0, changed=False).replace('"weight": 0.45', '"weight": 0')])
        rec = load_records(path)
        assert rec.weight.dtype == np.float64 and rec.weight.tolist() == [0.0]
        assert rec.changed.dtype == bool and rec.changed.tolist() == [False]
