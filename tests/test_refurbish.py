import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from noisytail.datagen import Dataset
from noisytail.errors import InvalidInputError, InvalidSpecError, ParseError
from noisytail.numerics import make_rng, softmax_rows
from noisytail.refurbish import (
    ClassStats,
    RefurbishConfig,
    RefurbishRecords,
    class_proportions,
    load_records,
    rarity,
    refurbish_batch,
    refurbish_dataset,
    save_records,
)
from noisytail.stage1 import Predictions


def make_ds(labels, k, dim=2):
    labels = np.asarray(labels, dtype=np.int64)
    return Dataset(np.arange(labels.size), np.zeros((labels.size, dim)), labels,
                   labels, k)


def preds_from_probs(*prob_rows):
    """Predictions whose rows have the given probabilities: the logits are
    their logs, a zero probability becoming a logit of -1e4, whose softmax
    underflows to exactly 0."""
    P = np.asarray(prob_rows, dtype=np.float64)
    logits = np.full(P.shape, -1e4)
    np.log(P, out=logits, where=P > 0)
    return Predictions(logits)


def refurbish_row(preds, observed, stats, sigma):
    """`refurbish_batch` on a one-row `Predictions`."""
    return refurbish_batch([0], preds, np.array([observed]), stats,
                           RefurbishConfig(sigma))


class TestClassProportions:
    def test_small_example(self):
        stats = class_proportions(make_ds([0, 0, 1], k=2))
        np.testing.assert_array_equal(stats.counts, [2.0, 1.0])
        np.testing.assert_allclose(stats.proportions, [2 / 3, 1 / 3], atol=1e-15)

    def test_single_class(self):
        stats = class_proportions(make_ds([1, 1, 1], k=2))
        np.testing.assert_allclose(stats.proportions, [0.0, 1.0], atol=1e-15)

    def test_balanced(self):
        stats = class_proportions(make_ds([0, 1, 2, 3] * 100, k=4))
        np.testing.assert_allclose(stats.proportions, [0.25] * 4, atol=1e-15)

    @pytest.mark.parametrize("counts", [[2.0, -1.0], [0.0, 0.0], [1.0, np.nan]])
    def test_bad_counts_rejected(self, counts):
        with pytest.raises(InvalidInputError):
            ClassStats(counts)


class TestRarity:
    def test_zero_proportion_max(self):
        assert rarity(0.0, 0.2) == 1.0

    def test_closed_forms(self):
        assert abs(rarity(0.2, 0.2) - math.exp(-1)) < 1e-12
        assert abs(rarity(0.5, 0.2) - math.exp(-6.25)) < 1e-12

    def test_decays_fast_past_half(self):
        assert rarity(0.5, 0.2) < 0.002

    @given(st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    @settings(max_examples=100, deadline=None)
    def test_monotone_decreasing(self, a, b):
        lo, hi = min(a, b), max(a, b)
        if lo < hi:
            assert rarity(hi, 0.2) <= rarity(lo, 0.2)

    def test_range(self):
        for h in np.linspace(0, 1, 21):
            g = rarity(float(h), 0.2)
            assert 0.0 < g <= 1.0

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            rarity(1.5, 0.2)
        with pytest.raises(InvalidSpecError):
            rarity(0.5, 0.0)


class TestRefurbishOne:
    def worked_example(self):
        # independent evaluation of the blend: rho = probs[observed],
        # gamma = exp(-h^2/sigma^2), w = rho*gamma, soft = (p + w*e)/(1+w)
        probs = np.array([0.5, 0.2, 0.3])
        h, sigma = 0.05, 0.2
        gamma = math.exp(-(h * h) / (sigma * sigma))
        rho = probs[1]
        w = rho * gamma
        s = probs.copy()
        s[1] += w
        return probs, gamma, rho, w, s / s.sum()

    def _stats_with_h(self, h, k=3):
        # class 1 holds proportion h of a size-10000 corpus
        n1 = h * 10000
        rest = (10000 - n1) / (k - 1)
        counts = np.full(k, rest)
        counts[1] = n1
        return ClassStats(counts)

    def test_worked_example_exact(self):
        probs, gamma, rho, w, expected = self.worked_example()
        stats = self._stats_with_h(0.05)
        rec = refurbish_row(preds_from_probs(probs), 1, stats, 0.2)
        assert rec.changed[0]
        assert abs(rec.gamma[0] - gamma) < 1e-12
        assert abs(rec.rho[0] - rho) < 1e-12
        assert abs(rec.weight[0] - w) < 1e-12
        assert rec.weight[0] == rec.rho[0] * rec.gamma[0]
        np.testing.assert_allclose(rec.soft[0], expected, atol=1e-12)
        # values printed to 6 places elsewhere round-trip within 2e-5
        np.testing.assert_allclose(rec.soft[0], [0.420919, 0.326542, 0.252539], atol=2e-5)

    def test_agreement_returns_exact_onehot(self):
        stats = self._stats_with_h(0.3)
        rec = refurbish_row(preds_from_probs([0.2, 0.7, 0.1]), 1, stats, 0.2)
        assert not rec.changed[0]
        np.testing.assert_array_equal(rec.soft[0], [0.0, 1.0, 0.0])

    def test_zero_confidence_keeps_probs(self):
        # rho = 0 implies w = 0, so the soft label is the prediction itself
        stats = self._stats_with_h(0.2)
        probs = np.array([0.6, 0.0, 0.4])
        rec = refurbish_row(preds_from_probs(probs), 1, stats, 0.2)
        assert rec.weight[0] == 0.0
        np.testing.assert_allclose(rec.soft[0], probs, atol=1e-15)

    def test_denominator_identity(self):
        # sum of the unnormalized blend is exactly 1 + w
        rng = make_rng(0)
        for _ in range(100):
            k = int(rng.integers(2, 7))
            preds = Predictions(rng.normal(size=(1, k)) * 2)
            observed = int(rng.integers(0, k))
            stats = ClassStats(rng.uniform(1, 100, size=k))
            rec = refurbish_row(preds, observed, stats, 0.2)
            s = softmax_rows(preds.logits)[0]
            s[observed] += rec.weight[0]
            assert abs(s.sum() - (1.0 + rec.weight[0])) < 1e-12

    def test_monotone_in_weight(self):
        # soft[observed] = (rho + w)/(1 + w) strictly increases in w;
        # sweep w upward by raising sigma
        probs = np.array([0.5, 0.2, 0.3])
        stats = self._stats_with_h(0.3)
        prev = -1.0
        prev_w = -1.0
        for sigma in [0.05, 0.1, 0.2, 0.4, 0.8, 1.6]:
            rec = refurbish_row(preds_from_probs(probs), 1, stats, sigma)
            assert rec.weight[0] > prev_w
            assert rec.soft[0, 1] > prev
            prev = rec.soft[0, 1]
            prev_w = rec.weight[0]

    @given(st.integers(2, 6), st.integers(0, 5), st.integers(0, 10_000))
    @settings(max_examples=100, deadline=None)
    def test_normalization_property(self, k, observed, seed):
        observed = observed % k
        rng = make_rng(seed)
        preds = Predictions(rng.normal(size=(1, k)) * 3)
        stats = ClassStats(rng.uniform(0.5, 50, size=k))
        w = refurbish_row(preds, observed, stats, 0.2).soft[0]
        assert np.all(w >= 0)
        assert abs(w.sum() - 1.0) < 1e-9


class TestRefurbishDataset:
    def _setup(self, n=30, k=4, seed=1):
        rng = make_rng(seed)
        ds = make_ds(rng.integers(0, k, size=n), k)
        preds = Predictions(rng.normal(size=(n, k)) * 2)
        return ds, preds

    def test_all_agreeing_gives_onehots(self):
        ds, _ = self._setup()
        preds = preds_from_probs(*[np.roll([0.7, 0.1, 0.1, 0.1], obs)
                                   for obs in ds.observed])
        softs, records = refurbish_dataset(ds, preds, RefurbishConfig())
        assert all(not r.changed for r in records)
        for obs, sl in zip(ds.observed, softs):
            np.testing.assert_array_equal(sl, np.eye(4)[obs])

    def test_uniform_probs_formula(self):
        k = 4
        ds = make_ds([0, 1, 2, 3, 0, 0], k)
        uniform = np.full(k, 0.25)
        preds = Predictions(np.zeros((len(ds), k)))
        softs, records = refurbish_dataset(ds, preds, RefurbishConfig(0.2))
        stats = class_proportions(ds)
        for obs, sl, rec in zip(ds.observed, softs, records):
            if obs == 0:
                continue  # agreement case
            w = 0.25 * rarity(float(stats.proportions[obs]), 0.2)
            expected = (uniform + w * np.eye(k)[obs]) / (1 + w)
            np.testing.assert_allclose(sl, expected, atol=1e-12)
            assert rec.changed

    def test_no_discards(self):
        ds, preds = self._setup(n=57)
        softs, records = refurbish_dataset(ds, preds, RefurbishConfig())
        assert len(softs) == len(records) == 57

    def test_length_mismatch(self):
        ds, preds = self._setup()
        with pytest.raises(InvalidInputError):
            refurbish_dataset(ds, Predictions(preds.logits[:-1]), RefurbishConfig())


class TestRecordPersistence:
    def test_roundtrip(self, tmp_path):
        rng = make_rng(2)
        ds = make_ds(rng.integers(0, 3, size=10), 3)
        preds = Predictions(rng.normal(size=(10, 3)))
        _, records = refurbish_dataset(ds, preds, RefurbishConfig())
        path = tmp_path / "refurb.jsonl"
        save_records(records, path)
        back = load_records(path)
        assert len(back) == len(records)
        for a, b in zip(records, back):
            assert (a.id, a.changed) == (b.id, b.changed)
            assert abs(a.rho - b.rho) < 1e-15
            assert abs(a.gamma - b.gamma) < 1e-15
            np.testing.assert_array_equal(a.soft, b.soft)


class TestSoftLabelValidation:
    def test_rejects_non_probability(self, tmp_path):
        # soft labels are checked where they enter from a file
        for bad in ([0.5, 0.6], [-0.1, 1.1]):
            records = RefurbishRecords(np.array([0]), np.array([0.5]), np.array([1.0]),
                                       np.array([0.5]), np.array([bad]), np.array([True]))
            save_records(records, tmp_path / "r.jsonl")
            with pytest.raises(ParseError, match="line 1.*probability"):
                load_records(tmp_path / "r.jsonl")

    def test_sigma_positive(self):
        with pytest.raises(InvalidSpecError):
            RefurbishConfig(sigma=0.0)

    def test_sigma_whose_square_underflows(self):
        """rarity divides by sigma^2, which is 0.0 below about 1.6e-162: such
        a sigma is refused; the smallest ones above keep the formula."""
        for sigma in (1e-300, 1e-163):
            with pytest.raises(InvalidSpecError, match=repr(sigma)):
                RefurbishConfig(sigma=sigma)
            with pytest.raises(InvalidSpecError, match=repr(sigma)):
                rarity(0.1, sigma)
        assert RefurbishConfig(sigma=1e-161).sigma == 1e-161
        assert rarity(0.0, 1e-161) == 1.0 and rarity(0.5, 1e-161) == 0.0

    @pytest.mark.parametrize("sigma", [math.nan, math.inf, -math.inf])
    def test_sigma_finite(self, sigma):
        with pytest.raises(InvalidSpecError, match=repr(sigma)):
            RefurbishConfig(sigma=sigma)
        with pytest.raises(InvalidSpecError, match=repr(sigma)):
            rarity(0.1, sigma)
