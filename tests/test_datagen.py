import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from noisytail.datagen import (
    Dataset,
    LongTailSpec,
    MixtureSpec,
    NoiseSpec,
    import_embeddings,
    inject_asymmetric,
    inject_symmetric,
    load_dataset,
    load_noise_mask,
    longtail_counts,
    save_dataset,
    save_noise_mask,
    synth_dataset,
    synth_split,
)
from noisytail.errors import InvalidInputError, InvalidSpecError, ParseError
from noisytail.numerics import make_rng


def closed_form_counts(k, n1, ir):
    # independent oracle: the decay law evaluated directly
    return [max(1, int(math.floor(n1 * ir ** (-(i) / (k - 1)) + 0.5)))
            for i in range(k)]


class TestLongtailCounts:
    def test_balanced_limit(self):
        counts = longtail_counts(LongTailSpec(10, 1000, 1.0))
        assert counts == [1000] * 10

    def test_ir10_closed_form(self):
        counts = longtail_counts(LongTailSpec(10, 1000, 10.0))
        assert counts == closed_form_counts(10, 1000, 10.0)
        assert counts[0] == 1000
        assert counts[-1] == 100

    def test_ir100_tail_is_50(self):
        counts = longtail_counts(LongTailSpec(10, 5000, 100.0))
        assert counts[-1] == 50
        assert counts == closed_form_counts(10, 5000, 100.0)

    @given(k=st.integers(2, 30), n1=st.integers(100, 5000),
           ir=st.floats(1.0, 100.0))
    @settings(max_examples=60, deadline=None)
    def test_non_increasing_head_preserved(self, k, n1, ir):
        counts = longtail_counts(LongTailSpec(k, n1, ir))
        assert counts[0] == n1
        assert all(a >= b for a, b in zip(counts, counts[1:]))
        assert all(c >= 1 for c in counts)

    def test_k_too_small(self):
        with pytest.raises(InvalidSpecError):
            LongTailSpec(1, 100, 10.0)


class TestSynthDataset:
    def test_determinism(self):
        lt = LongTailSpec(5, 40, 4.0)
        mix = MixtureSpec(feature_dim=6)
        a = synth_dataset(lt, mix, make_rng(9))
        b = synth_dataset(lt, mix, make_rng(9))
        assert a.ids.tolist() == b.ids.tolist()
        assert a.observed.tolist() == b.observed.tolist()
        np.testing.assert_array_equal(a.X, b.X)

    def test_degenerate_stddev_separates_exactly(self):
        lt = LongTailSpec(4, 30, 3.0)
        mix = MixtureSpec(feature_dim=5, within_class_stddev=1e-9)
        ds = synth_dataset(lt, mix, make_rng(3))
        X, y = ds.X, ds.true
        centers = np.stack([X[y == k].mean(axis=0) for k in range(4)])
        pred = ((X[:, None, :] - centers[None, :, :]) ** 2).sum(-1).argmin(1)
        assert (pred == y).mean() == 1.0

    def test_default_mixture_linearly_separable(self):
        # nearest-centroid (a linear classifier) fit on clean train labels
        lt = LongTailSpec(10, 200, 10.0)
        mix = MixtureSpec(feature_dim=16, class_center_scale=1.0,
                          within_class_stddev=0.3)
        train, test = synth_split(lt, mix, make_rng(4), test_per_class=30)
        Xtr, ytr = train.X, train.true
        Xte, yte = test.X, test.observed
        centers = np.stack([Xtr[ytr == k].mean(axis=0) for k in range(10)])
        pred = ((Xte[:, None, :] - centers[None, :, :]) ** 2).sum(-1).argmin(1)
        assert (pred == yte).mean() > 0.9

    def test_counts_match_spec(self):
        lt = LongTailSpec(6, 100, 10.0)
        ds = synth_dataset(lt, MixtureSpec(feature_dim=4), make_rng(0))
        got = np.bincount(ds.true, minlength=6).tolist()
        assert got == longtail_counts(lt)

    def test_split_shares_centers(self):
        lt = LongTailSpec(4, 50, 5.0)
        mix = MixtureSpec(feature_dim=6, within_class_stddev=1e-6)
        train, test = synth_split(lt, mix, make_rng(1), test_per_class=10)
        Xtr, ytr = train.X, train.true
        Xte, yte = test.X, test.observed
        for k in range(4):
            np.testing.assert_allclose(Xtr[ytr == k].mean(axis=0),
                                       Xte[yte == k].mean(axis=0), atol=1e-4)


class TestSymmetricNoise:
    def _dataset(self, n_per_class=50, k=4, seed=0):
        lt = LongTailSpec(k, n_per_class, 1.0)
        return synth_dataset(lt, MixtureSpec(feature_dim=3), make_rng(seed))

    def test_rate_zero_is_identity(self):
        ds = self._dataset()
        out, mask = inject_symmetric(ds, 0.0, make_rng(1))
        assert not any(mask)
        assert out.observed.tolist() == ds.observed.tolist()

    def test_exact_count_and_disagreement(self):
        ds = self._dataset(n_per_class=250, k=4)  # N = 1000
        out, mask = inject_symmetric(ds, 0.4, make_rng(2))
        assert sum(mask) == 400
        for obs, true, noisy in zip(out.observed, out.true, mask):
            if noisy:
                assert obs != true
            else:
                assert obs == true

    def test_binary_forced_flip(self):
        lt = LongTailSpec(2, 100, 1.0)
        ds = synth_dataset(lt, MixtureSpec(feature_dim=2), make_rng(5))
        out, mask = inject_symmetric(ds, 0.5, make_rng(6))
        assert sum(mask) == 100
        for obs, true, noisy in zip(out.observed, out.true, mask):
            if noisy:
                assert obs == 1 - true

    def test_true_labels_untouched(self):
        ds = self._dataset()
        out, _ = inject_symmetric(ds, 0.3, make_rng(7))
        assert out.true.tolist() == ds.true.tolist()

    def test_rate_one_rejected(self):
        with pytest.raises(InvalidSpecError):
            inject_symmetric(self._dataset(), 1.0, make_rng(0))

    @given(rate=st.floats(0.0, 0.9), seed=st.integers(0, 100))
    @settings(max_examples=25, deadline=None)
    def test_measured_rate_matches(self, rate, seed):
        ds = self._dataset(n_per_class=50, k=4, seed=1)
        out, mask = inject_symmetric(ds, rate, make_rng(seed))
        measured = int(np.count_nonzero(out.observed != out.true))
        assert measured == sum(mask)
        assert abs(measured - rate * len(ds)) <= 0.5


class TestAsymmetricNoise:
    def _dataset(self, counts=(100, 80, 60, 40), seed=0):
        rng = make_rng(seed)
        labels = np.repeat(np.arange(len(counts)), counts)
        return Dataset(np.arange(labels.size), rng.normal(size=(labels.size, 3)),
                       labels, labels, len(counts))

    def test_rate_zero(self):
        ds = self._dataset()
        out, mask = inject_asymmetric(ds, 0.0, [(0, 1)], make_rng(1))
        assert not any(mask)

    def test_single_pair_exact_count(self):
        ds = self._dataset(counts=(100, 50))
        out, mask = inject_asymmetric(ds, 0.5, [(0, 1)], make_rng(2))
        flipped = [(obs, true) for obs, true, m in zip(out.observed, out.true, mask) if m]
        assert len(flipped) == 50
        assert all(obs == 1 and true == 0 for obs, true in flipped)

    def test_flip_map_per_source_class(self):
        ds = self._dataset()
        fmap = [(0, 1), (2, 3)]
        out, mask = inject_asymmetric(ds, 0.4, fmap, make_rng(3))
        by_class = {k: 0 for k in range(4)}
        for obs, src in zip(out.observed.tolist(), ds.observed.tolist()):
            if obs != src:
                by_class[src] += 1
                assert obs == dict(fmap)[src]
        assert by_class == {0: 40, 1: 0, 2: 24, 3: 0}

    def test_out_of_range_class(self):
        ds = self._dataset()
        with pytest.raises(InvalidSpecError):
            inject_asymmetric(ds, 0.2, [(0, 9)], make_rng(0))

    def test_self_flip_rejected(self):
        ds = self._dataset()
        with pytest.raises(InvalidSpecError):
            inject_asymmetric(ds, 0.2, [(1, 1)], make_rng(0))


class TestNoiseSpecValidation:
    def test_asymmetric_requires_flip_map(self):
        with pytest.raises(InvalidSpecError):
            NoiseSpec(kind="asymmetric", rate=0.2)

    def test_unknown_kind(self):
        with pytest.raises(InvalidSpecError):
            NoiseSpec(kind="label-smear", rate=0.2)

    def test_symmetric_ok_without_map(self):
        NoiseSpec(kind="symmetric", rate=0.4)


class TestPersistence:
    def _dataset(self):
        rng = make_rng(12)
        rows = [(rng.normal(size=4) * 1e3, int(rng.integers(0, 3)),
                 int(rng.integers(0, 3))) for _ in range(20)]
        X, observed, true = zip(*rows)
        return Dataset(np.arange(20), np.stack(X), observed, true, 3)

    def test_roundtrip_bit_exact(self, tmp_path):
        ds = self._dataset()
        path = tmp_path / "ds.jsonl"
        save_dataset(ds, path)
        back = load_dataset(path, num_classes=3)
        assert back.num_classes == 3 and back.feature_dim == 4
        assert ds.ids.tolist() == back.ids.tolist()
        assert ds.observed.tolist() == back.observed.tolist()
        assert ds.true.tolist() == back.true.tolist()
        np.testing.assert_array_equal(ds.X, back.X)

    def test_label_out_of_range_names_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        rows = [{"id": 0, "features": [0.0], "observed_label": 0},
                {"id": 1, "features": [0.0], "observed_label": 3}]
        path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        with pytest.raises(ParseError, match="line 2"):
            load_dataset(path, num_classes=3)

    def test_missing_true_label_loads_none(self, tmp_path):
        path = tmp_path / "real.jsonl"
        path.write_text(json.dumps({"id": 0, "features": [1.0, 2.0],
                                    "observed_label": 1}) + "\n")
        ds = load_dataset(path, num_classes=2)
        assert ds.true is None

    def test_malformed_json_names_line(self, tmp_path):
        path = tmp_path / "garbled.jsonl"
        path.write_text(json.dumps({"id": 0, "features": [1.0],
                                    "observed_label": 0}) + "\n{oops\n")
        with pytest.raises(ParseError, match="line 2"):
            load_dataset(path)

    def test_inconsistent_dim_names_line(self, tmp_path):
        path = tmp_path / "dims.jsonl"
        rows = [{"id": 0, "features": [1.0, 2.0], "observed_label": 0},
                {"id": 1, "features": [1.0], "observed_label": 0}]
        path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        with pytest.raises(ParseError, match="line 2"):
            load_dataset(path)

    def test_mask_roundtrip(self, tmp_path):
        path = tmp_path / "mask.jsonl"
        save_noise_mask([True, False, True], [5, 7, 9], path)
        assert load_noise_mask(path) == {5: True, 7: False, 9: True}


class TestImportEmbeddings:
    def test_basic_import(self, tmp_path):
        feats = tmp_path / "emb.jsonl"
        labels = tmp_path / "labels.txt"
        feats.write_text("\n".join(json.dumps([float(i), 0.5, -1.0, 2.0])
                                   for i in range(3)) + "\n")
        labels.write_text("0\n2\n1\n")
        ds = import_embeddings(feats, labels)
        assert len(ds) == 3 and ds.feature_dim == 4 and ds.num_classes == 3
        assert ds.true is None
        assert ds.observed.tolist() == [0, 2, 1]

    def test_row_count_mismatch(self, tmp_path):
        feats = tmp_path / "emb.jsonl"
        labels = tmp_path / "labels.txt"
        feats.write_text(json.dumps([1.0, 2.0]) + "\n")
        labels.write_text("0\n1\n")
        with pytest.raises(ParseError):
            import_embeddings(feats, labels)

    def test_roundtrip_through_save(self, tmp_path):
        feats = tmp_path / "emb.jsonl"
        labels = tmp_path / "labels.txt"
        feats.write_text("\n".join(json.dumps([0.125 * i, -3.5])
                                   for i in range(4)) + "\n")
        labels.write_text("1\n0\n1\n0\n")
        ds = import_embeddings(feats, labels)
        path = tmp_path / "ds.jsonl"
        save_dataset(ds, path)
        back = load_dataset(path, num_classes=ds.num_classes)
        assert back.true is None
        assert (ds.ids.tolist(), ds.observed.tolist()) == \
               (back.ids.tolist(), back.observed.tolist())
        np.testing.assert_array_equal(ds.X, back.X)


class TestDatasetValidation:
    def test_duplicate_ids(self):
        with pytest.raises(InvalidInputError):
            Dataset([0, 0], np.zeros((2, 2)), [0, 1], [0, 1], 2)

    def test_label_out_of_range(self):
        with pytest.raises(InvalidInputError):
            Dataset([0], np.zeros((1, 2)), [5], None, 2)

    def test_empty_rejected(self):
        with pytest.raises(InvalidInputError):
            Dataset([], np.zeros((0, 2)), [], None, 2)
