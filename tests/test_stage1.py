import copy
import math
import os
import signal
import subprocess
import sys
import textwrap
import types
from collections import deque
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from noisytail import jsonl, stage1
from noisytail.datagen import (
    Dataset,
    LongTailSpec,
    MixtureSpec,
    inject_symmetric,
    synth_dataset,
)
from noisytail.errors import InvalidInputError, InvalidSpecError, NumericError
from noisytail.numerics import (
    BLAS_TWO_THREADS,
    SgdMomentum,
    finite_diff_grad,
    flatten_params,
    forward,
    l2_normalize,
    make_rng,
    relative_error,
    softmax_rows,
)
from noisytail.stage1 import (
    FeatureQueue,
    Predictions,
    Stage1Config,
    augment,
    augmented_rows,
    banc_loss,
    build_stage1_model,
    contrastive_loss,
    head_batch_gradients,
    load_predictions,
    load_stage1_checkpoint,
    predict_all,
    predict_batch,
    save_predictions,
    save_stage1_checkpoint,
    sce_loss,
    stage1_batch_gradients,
    train_stage1,
)

TINY = dict(encoder_hidden=8, repr_dim=6, proj_hidden=8, embed_dim=4,
            queue_capacity=32, batch_size=16, epochs=3)


def tiny_dataset(seed=0, k=4, n1=40, ir=4.0, noise=0.3):
    ds = synth_dataset(LongTailSpec(k, n1, ir), MixtureSpec(feature_dim=5),
                       make_rng(seed))
    if noise:
        ds, _ = inject_symmetric(ds, noise, make_rng(seed + 1))
    return ds


def onehot(k, n):
    v = np.zeros(n)
    v[k] = 1.0
    return v


class DequeQueue:
    """Per-row reference for FeatureQueue: a deque(maxlen=capacity) that
    appends each row L2-normalised on its own."""

    def __init__(self, capacity):
        self._buf = deque(maxlen=capacity)

    def __len__(self):
        return len(self._buf)

    def push_batch(self, Z):
        for row in np.asarray(Z, dtype=np.float64):
            self._buf.append(l2_normalize(row))

    def as_matrix(self):
        return np.stack(list(self._buf)) if self._buf else None


class TestFeatureQueue:
    @given(capacity=st.integers(1, 40),
           sizes=st.lists(st.integers(0, 90), max_size=12),
           seed=st.integers(0, 10_000))
    @settings(max_examples=100, deadline=None)
    def test_matches_deque_reference(self, capacity, sizes, seed):
        rng = make_rng(seed)
        q, ref = FeatureQueue(capacity), DequeQueue(capacity)
        assert q.as_matrix() is None and len(q) == 0
        for size in sizes:
            Z = rng.normal(size=(size, 3)) * rng.uniform(0.1, 10.0)
            q.push_batch(Z)
            ref.push_batch(Z)
            assert len(q) == len(ref)
            got, want = q.as_matrix(), ref.as_matrix()
            if want is None:
                assert got is None
            else:
                np.testing.assert_array_equal(got, want)

    def test_reads_are_copies(self):
        q = FeatureQueue(3)
        q.push_batch(np.eye(3))
        q.as_matrix()[:] = 0.0
        np.testing.assert_array_equal(q.as_matrix(), np.eye(3))

    @pytest.mark.parametrize("bad", [
        np.array([[1.0, np.nan]]),
        np.array([[np.inf, 0.0]]),
        np.array([1.0, 0.0]),
        np.ones((1, 1, 2)),
        np.ones((2, 3)),
    ], ids=["nan", "inf", "1-D", "3-D", "width"])
    def test_bad_batch_rejected(self, bad):
        q = FeatureQueue(4)
        q.push_batch(np.ones((1, 2)))
        with pytest.raises(InvalidInputError):
            q.push_batch(bad)
        np.testing.assert_array_equal(q.as_matrix(), l2_normalize(np.ones((1, 2))))

    def test_fifo_discipline(self):
        rng = make_rng(0)
        for capacity, batch, pushes in [(8, 3, 1), (8, 3, 2), (8, 3, 5), (4, 4, 3)]:
            q = FeatureQueue(capacity)
            history = []
            for _ in range(pushes):
                Z = l2_normalize(rng.normal(size=(batch, 4)))
                q.push_batch(Z)
                history.extend(Z)
            expected = history[-min(len(history), capacity):]
            assert len(q) == min(pushes * batch, capacity)
            for got, want in zip(q.as_matrix(), expected):
                np.testing.assert_allclose(got, want, atol=1e-12)

    def test_entries_unit_norm(self):
        q = FeatureQueue(4)
        q.push_batch(np.array([[3.0, 4.0]]))
        np.testing.assert_allclose(np.linalg.norm(q.as_matrix()[0]), 1.0, atol=1e-9)

    def test_capacity_validated(self):
        with pytest.raises(InvalidSpecError):
            FeatureQueue(0)


class TestAugment:
    def test_identity_when_disabled(self):
        cfg = Stage1Config(aug_noise_stddev=0.0, aug_dropout_prob=0.0)
        x = np.array([1.0, -2.0, 3.0])
        np.testing.assert_array_equal(augment(x, cfg, make_rng(0)), x)

    def test_full_dropout_zeroes(self):
        cfg = Stage1Config(aug_noise_stddev=0.5, aug_dropout_prob=1.0)
        out = augment(np.ones(6), cfg, make_rng(0))
        np.testing.assert_array_equal(out, np.zeros(6))

    def test_seeded_reproducibility(self):
        cfg = Stage1Config(aug_noise_stddev=0.3, aug_dropout_prob=0.2)
        x = np.linspace(-1, 1, 8)
        np.testing.assert_array_equal(augment(x, cfg, make_rng(7)),
                                      augment(x, cfg, make_rng(7)))


class TestContrastiveLoss:
    def test_equal_similarities_give_log_m(self):
        # anchor orthogonal to key and all negatives: every similarity is 0
        zq = np.array([1.0, 0.0, 0.0])
        zk = np.array([0.0, 1.0, 0.0])
        negs = np.array([[0.0, 0.0, 1.0],
                         [0.0, -1.0, 0.0],
                         [0.0, 0.0, -1.0]])
        loss, _, _ = contrastive_loss(zq, zk, negs, tau=0.2)
        assert abs(loss - math.log(3)) < 1e-12

    def test_closed_form_negative_two(self):
        zq = np.array([1.0, 0.0])
        loss, _, _ = contrastive_loss(zq, zq, -zq[None, :], tau=1.0)
        assert abs(loss - (-2.0)) < 1e-12

    def test_huge_tau_single_negative(self):
        rng = make_rng(4)
        zq = l2_normalize(rng.normal(size=6))
        zk = l2_normalize(rng.normal(size=6))
        neg = l2_normalize(rng.normal(size=6))
        loss, _, _ = contrastive_loss(zq, zk, neg[None, :], tau=1e6)
        assert abs(loss) < 1e-5

    def test_not_bounded_below_by_zero(self):
        zq = np.array([1.0, 0.0])
        loss, _, _ = contrastive_loss(zq, zq, -zq[None, :], tau=0.5)
        assert loss < 0.0

    def test_empty_negatives_rejected(self):
        zq = np.array([1.0, 0.0])
        with pytest.raises(InvalidInputError):
            contrastive_loss(zq, zq, np.empty((0, 2)), tau=0.2)

    @pytest.mark.parametrize("include_positive", [False, True])
    def test_gradients_match_finite_differences(self, include_positive):
        rng = make_rng(8)
        worst = 0.0
        for _ in range(100):
            d = int(rng.integers(2, 9))
            m = int(rng.integers(1, 7))
            zq = l2_normalize(rng.normal(size=d))
            zk = l2_normalize(rng.normal(size=d))
            negs = l2_normalize(rng.normal(size=(m, d)))
            tau = float(rng.uniform(0.1, 2.0))
            _, g_zk, g_negs = contrastive_loss(zq, zk, negs, tau, include_positive)

            num_zk = finite_diff_grad(
                lambda v: contrastive_loss(zq, v, negs, tau, include_positive)[0], zk)
            for a, b in zip(g_zk, num_zk):
                worst = max(worst, relative_error(a, b))

            flat = negs.ravel()
            num_negs = finite_diff_grad(
                lambda v: contrastive_loss(zq, zk, v.reshape(m, d), tau,
                                           include_positive)[0], flat)
            for a, b in zip(g_negs.ravel(), num_negs):
                worst = max(worst, relative_error(a, b))
        assert worst < 1e-4, f"max relative error {worst}"

    def test_include_positive_nonnegative(self):
        # standard InfoNCE form is bounded below by 0
        rng = make_rng(3)
        for _ in range(20):
            zq = l2_normalize(rng.normal(size=4))
            zk = l2_normalize(rng.normal(size=4))
            negs = l2_normalize(rng.normal(size=(3, 4)))
            loss, _, _ = contrastive_loss(zq, zk, negs, 0.2, include_positive=True)
            assert loss >= 0.0


class TestSceLoss:
    def test_perfect_prediction_zero(self):
        loss, _ = sce_loss(np.array([1.0, 0.0]), np.array([1.0, 0.0]))
        assert loss == 0.0

    def test_uniform_closed_form(self):
        # -log(0.5) + 4 * 0.5 with the log(0) := -4 clamp
        loss, _ = sce_loss(np.array([0.5, 0.5]), np.array([1.0, 0.0]))
        assert abs(loss - 2.6931471805599454) < 1e-12

    def test_gradient_matches_finite_differences(self):
        rng = make_rng(9)
        worst = 0.0
        for _ in range(100):
            k = int(rng.integers(2, 6))
            z = rng.normal(size=k) * 2
            y = onehot(int(rng.integers(0, k)), k)
            _, grad = sce_loss(softmax_rows(z), y)
            num = finite_diff_grad(lambda v: sce_loss(softmax_rows(v), y)[0], z)
            for a, b in zip(grad, num):
                worst = max(worst, relative_error(a, b))
        assert worst < 1e-4, f"max relative error {worst}"


class TestBancLoss:
    def test_c_zero_is_cross_entropy(self):
        rng = make_rng(10)
        for _ in range(50):
            k = int(rng.integers(2, 6))
            p = softmax_rows(rng.normal(size=k) * 3)
            label = int(rng.integers(0, k))
            loss, _ = banc_loss(p, onehot(label, k), c=0.0)
            assert abs(loss - (-math.log(p[label]))) < 1e-12

    def test_worked_example(self):
        loss, _ = banc_loss(np.array([0.5, 0.5]), np.array([1.0, 0.0]), c=6.0)
        assert abs(loss - 3.6931471805599454) < 1e-12

    def test_perfect_prediction_zero_any_c(self):
        for c in [0.0, 1.0, 6.0, 100.0]:
            loss, _ = banc_loss(np.array([1.0, 0.0]), np.array([1.0, 0.0]), c=c)
            assert loss == 0.0

    def test_penalty_bound(self):
        # banc - ce = c * (1 - p_y), always within [0, c]
        rng = make_rng(11)
        for _ in range(100):
            k = int(rng.integers(2, 7))
            p = softmax_rows(rng.normal(size=k) * 2)
            label = int(rng.integers(0, k))
            c = float(rng.uniform(0, 10))
            gap = banc_loss(p, onehot(label, k), c)[0] + math.log(p[label])
            expected = c * (1.0 - p[label])
            assert abs(gap - expected) < 1e-12
            assert -1e-12 <= gap <= c + 1e-12

    def test_gradient_matches_finite_differences(self):
        rng = make_rng(12)
        worst = 0.0
        for _ in range(100):
            k = int(rng.integers(2, 6))
            z = rng.normal(size=k) * 2
            y = onehot(int(rng.integers(0, k)), k)
            c = float(rng.uniform(0, 8))
            _, grad = banc_loss(softmax_rows(z), y, c)
            num = finite_diff_grad(lambda v: banc_loss(softmax_rows(v), y, c)[0], z)
            for a, b in zip(grad, num):
                worst = max(worst, relative_error(a, b))
        assert worst < 1e-4, f"max relative error {worst}"

    def test_invalid_probs_rejected(self):
        with pytest.raises(InvalidInputError):
            banc_loss(np.array([0.7, 0.7]), np.array([1.0, 0.0]), c=1.0)


class TestBatchedKernelsMatchReferences:
    """The kernels that train stage 1 against the per-sample reference
    formulas: `_banc_batch` is the mean of `banc_loss` over the rows, and
    `_contrastive_batch` the mean of `contrastive_loss` over the anchors,
    each anchor's negatives being the other in-batch keys plus the queue."""

    # absolute: about five float64 ulps at 10, the largest |similarity|/tau
    # these draws reach (tau >= 0.1); the largest deviation seen is 1.8e-15
    TOL = 1e-14

    def test_banc_batch_is_mean_of_banc_loss(self):
        rng = make_rng(30)
        for _ in range(100):
            b, k = int(rng.integers(1, 9)), int(rng.integers(2, 7))
            logits = rng.normal(size=(b, k)) * 3
            Y = np.eye(k)[rng.integers(0, k, size=b)]
            c = float(rng.uniform(0, 8))
            loss, grad = stage1._banc_batch(logits, Y, c)
            P = softmax_rows(logits)
            refs = [banc_loss(P[i], Y[i], c) for i in range(b)]
            assert abs(loss - np.mean([r[0] for r in refs])) <= self.TOL
            np.testing.assert_allclose(grad, np.stack([r[1] for r in refs]) / b,
                                       rtol=0, atol=self.TOL)

    @pytest.mark.parametrize("queue_rows", [0, 5])
    @pytest.mark.parametrize("include_positive", [False, True])
    def test_contrastive_batch_is_mean_of_contrastive_loss(self, include_positive,
                                                          queue_rows):
        rng = make_rng(31 + 2 * queue_rows + include_positive)
        for _ in range(100):
            b, d = int(rng.integers(2, 9)), int(rng.integers(2, 9))
            Zq = l2_normalize(rng.normal(size=(b, d)))
            Zk = l2_normalize(rng.normal(size=(b, d)))
            queue = l2_normalize(rng.normal(size=(queue_rows, d))) if queue_rows else None
            tau = float(rng.uniform(0.1, 2.0))
            loss, g_Zk = stage1._contrastive_batch(Zq, Zk, queue, tau, include_positive)
            losses, g_ref = [], np.zeros_like(Zk)
            for i in range(b):
                others = [j for j in range(b) if j != i]
                negs = Zk[others] if queue is None else np.concatenate((Zk[others], queue))
                l_i, g_zk, g_negs = contrastive_loss(Zq[i], Zk[i], negs, tau,
                                                     include_positive)
                losses.append(l_i)
                g_ref[i] += g_zk
                g_ref[others] += g_negs[:b - 1]  # the queue rows are constants
            assert abs(loss - np.mean(losses)) <= self.TOL
            np.testing.assert_allclose(g_Zk, g_ref / b, rtol=0, atol=self.TOL)


def step_setup(**overrides):
    """A tiny model, an 8-row batch with one-hot labels and a 10-row queue."""
    ds = tiny_dataset()
    cfg = Stage1Config(seed=4, **{**TINY, **overrides})
    model = build_stage1_model(ds.feature_dim, ds.num_classes, cfg, make_rng(4))
    X = ds.X[:8]
    labels = ds.observed[:8]
    Y = np.zeros((8, ds.num_classes))
    Y[np.arange(8), labels] = 1.0
    queue = l2_normalize(make_rng(5).normal(size=(10, cfg.embed_dim)))
    return model, X, Y, queue, cfg


PARTS = ("encoder", "projection", "classifier")


def by_part(model, grads):
    """A step's gradient list, in the optimizer's order, split into one
    list per model part."""
    out, start = {}, 0
    for part in PARTS:
        n = len(getattr(model, part).params())
        out[part] = grads[start:start + n]
        start += n
    assert start == len(grads)
    return out


def whole_step(model, XS, Y, queue, cfg):
    """A training step's two parts, composed as `train_stage1` runs them:
    (the gradients of all three parts in the order of `PARTS`, the
    step's losses, the detached keys)."""
    grads, con, keys, V = stage1_batch_gradients(model, XS, queue, cfg)
    head_grads, losses = head_batch_gradients(model.classifier, V, Y, con, cfg)
    return grads + head_grads, losses, keys


class TestStage1Loss:
    """The step's `total` metric blends its two terms as
    (1-alpha)*con + alpha*banc."""

    def _metrics(self, alpha):
        model, X, Y, queue, cfg = step_setup(alpha=alpha)
        return whole_step(model, augmented_rows(X, cfg, make_rng(6)), Y, queue, cfg)[1]

    def test_endpoints(self):
        m = self._metrics(0.0)
        assert m["total"] == m["con"]
        m = self._metrics(1.0)
        assert m["total"] == m["banc"]

    def test_blend(self):
        m = self._metrics(0.2)
        assert abs(m["total"] - (0.8 * m["con"] + 0.2 * m["banc"])) < 1e-12

    def test_alpha_range(self):
        with pytest.raises(InvalidSpecError):
            Stage1Config(alpha=1.5)


class TestPredict:
    """`predict_batch` on one-row feature matrices, read through `Predictions`."""

    def _model(self, seed=0):
        cfg = Stage1Config(**TINY)
        return build_stage1_model(5, 4, cfg, make_rng(seed)), cfg

    def test_probs_sum_to_one(self):
        model, _ = self._model()
        p = Predictions(predict_batch(model, np.ones((1, 5))))
        assert abs(softmax_rows(p.logits)[0].sum() - 1.0) < 1e-12

    def test_deterministic(self):
        model, _ = self._model()
        x = np.linspace(0, 1, 5)[None, :]
        a, b = Predictions(predict_batch(model, x)), Predictions(predict_batch(model, x))
        np.testing.assert_array_equal(a.logits, b.logits)
        np.testing.assert_array_equal(a.predicted, b.predicted)

    def test_zero_weight_classifier_uniform(self):
        model, _ = self._model()
        for w in model.classifier.weights:
            w[:] = 0.0
        for b in model.classifier.biases:
            b[:] = 0.0
        p = Predictions(predict_batch(model, np.ones((1, 5))))
        np.testing.assert_allclose(softmax_rows(p.logits), np.full((1, 4), 0.25),
                                   atol=1e-12)
        assert p.predicted[0] == 0  # tie broken toward lowest index

    def test_dimension_mismatch(self):
        model, _ = self._model()
        with pytest.raises(InvalidInputError):
            predict_batch(model, np.ones((1, 7)))

    def test_logits_must_be_finite_matrix(self):
        for bad in (np.empty((1, 0)), [[1.0, np.nan]], [[1.0, np.inf]], [1.0, 0.0]):
            with pytest.raises(InvalidInputError, match="finite"):
                Predictions(bad)


class TestTrainStage1:
    def test_epochs_zero_returns_init(self):
        ds = tiny_dataset()
        cfg = Stage1Config(seed=3, **{**TINY, "epochs": 0})
        model, log = train_stage1(ds, cfg)
        preds = predict_all(model, ds)
        ref = build_stage1_model(ds.feature_dim, ds.num_classes, cfg, make_rng(3))
        for a, b in zip(model.encoder.params(), ref.encoder.params()):
            np.testing.assert_array_equal(a, b)
        assert log == []
        assert len(preds) == len(ds)
        assert np.all(np.abs(softmax_rows(preds.logits).sum(axis=1) - 1.0) < 1e-9)

    def test_deterministic_given_seed(self):
        ds = tiny_dataset()
        cfg = Stage1Config(seed=5, **TINY)
        m1, l1 = train_stage1(ds, cfg)
        m2, l2 = train_stage1(ds, cfg)
        assert l1 == l2
        for a, b in zip(m1.encoder.params(), m2.encoder.params()):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(predict_all(m1, ds).logits,
                                      predict_all(m2, ds).logits)

    def test_matches_deque_queue_bitwise(self, monkeypatch):
        # the batched queue must train exactly as the per-row deque queue did
        ds = tiny_dataset()
        cfg = Stage1Config(seed=5, **TINY)
        m1, l1 = train_stage1(ds, cfg)
        monkeypatch.setattr(stage1, "FeatureQueue", DequeQueue)
        m2, l2 = train_stage1(ds, cfg)
        assert l1 == l2
        for part in PARTS:
            for a, b in zip(getattr(m1, part).params(), getattr(m2, part).params()):
                np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(predict_all(m1, ds).logits,
                                      predict_all(m2, ds).logits)

    def test_batch_size_exceeds_dataset(self):
        ds = tiny_dataset()
        cfg = Stage1Config(**{**TINY, "batch_size": len(ds) + 1})
        with pytest.raises(InvalidSpecError):
            train_stage1(ds, cfg)

    def test_beats_observed_labels_small_benchmark(self):
        # direction check at reduced scale: predictions vs true labels must
        # beat the observed-label agreement rate
        ds = tiny_dataset(seed=2, k=6, n1=80, ir=8.0, noise=0.4)
        cfg = Stage1Config(seed=1, encoder_hidden=32, repr_dim=16, proj_hidden=32,
                           embed_dim=16, queue_capacity=64, batch_size=32, epochs=25)
        model, _ = train_stage1(ds, cfg)
        pred_cls = predict_all(model, ds).predicted
        true = ds.true
        observed_acc = (ds.observed == true).mean()
        assert (pred_cls == true).mean() > observed_acc


class TestStopGradientAndIsolation:
    def test_batch_gradients_match_finite_differences(self):
        # the gradients that train the model, checked against the oracle:
        # (1-alpha)*con for encoder and projection, with the query branch
        # computed once by a frozen copy of the model (stop-gradient), and
        # alpha*banc for the classifier on fixed features; the two
        # augmentations are drawn as the step draws them.  Each of the
        # step's two parts is checked: the encoder and projection part, and
        # the head's part on the features the first part hands over
        model, X, Y, queue, cfg = step_setup()
        step_grads, con, _, V_step = stage1_batch_gradients(
            model, augmented_rows(X, cfg, make_rng(6)), queue, cfg)
        grads = by_part(model, step_grads
                        + head_batch_gradients(model.classifier, V_step, Y, con, cfg)[0])
        rng = make_rng(6)
        X_q, X_k = augment(X, cfg, rng), augment(X, cfg, rng)
        frozen = copy.deepcopy(model)
        Zq = l2_normalize(forward(frozen.encoder, X_q, frozen.projection))
        V = forward(frozen.encoder, X)

        def con():
            Zk = l2_normalize(forward(model.encoder, X_k, model.projection))
            return stage1._contrastive_batch(Zq, Zk, queue, cfg.tau,
                                             cfg.include_positive)[0]

        def banc():
            return stage1._banc_batch(forward(model.classifier, V), Y, cfg.c)[0]

        terms = {"encoder": (1.0 - cfg.alpha, con), "projection": (1.0 - cfg.alpha, con),
                 "classifier": (cfg.alpha, banc)}
        worst = 0.0
        for part in PARTS:
            weight, term = terms[part]
            for p, g in zip(getattr(model, part).params(), grads[part]):
                def f(flat, p=p):
                    saved = p.copy()
                    p[...] = flat.reshape(p.shape)
                    value = weight * term()
                    p[...] = saved
                    return value
                num = finite_diff_grad(f, p.ravel().copy())
                for a, b in zip(g.ravel(), num):
                    worst = max(worst, relative_error(a, b))
        assert worst < 1e-4, f"max relative error {worst}"

    def test_classifier_isolated_from_encoder(self):
        # labels must not influence encoder/projection gradients
        model, X, Y, queue, cfg = step_setup()
        Y2 = np.roll(Y, 1, axis=1)  # different labels
        g1, g2 = (by_part(model, whole_step(
                      model, augmented_rows(X, cfg, make_rng(7)), labels, queue, cfg)[0])
                  for labels in (Y, Y2))
        for part in ("encoder", "projection"):
            for a, b in zip(g1[part], g2[part]):
                np.testing.assert_array_equal(a, b)
        assert any(not np.array_equal(a, b) for a, b in
                   zip(g1["classifier"], g2["classifier"]))

    def test_alpha_one_zeroes_contrastive_path(self):
        model, X, Y, queue, cfg = step_setup()
        cfg = Stage1Config(**{**cfg.__dict__, "alpha": 1.0})
        g = by_part(model, whole_step(
            model, augmented_rows(X, cfg, make_rng(8)), Y, queue, cfg)[0])
        for part in ("encoder", "projection"):
            for a in g[part]:
                assert np.all(a == 0.0)

    def test_alpha_zero_zeroes_classifier(self):
        model, X, Y, queue, cfg = step_setup()
        cfg = Stage1Config(**{**cfg.__dict__, "alpha": 0.0})
        g = by_part(model, whole_step(
            model, augmented_rows(X, cfg, make_rng(9)), Y, queue, cfg)[0])
        for a in g["classifier"]:
            assert np.all(a == 0.0)


def serial_stage1(ds, cfg, queue=None):
    """`train_stage1` run serially, with no loader: per step, the encoder
    and projection part and its update, then the head's part on the
    features of the stacked forward and its update, in two buffers as
    `train_stage1` lays them out.  The queue is a `FeatureQueue`, or, if
    given, a fixed snapshot.  Returns the model, the log and the rng."""
    rng = make_rng(cfg.seed)
    model = build_stage1_model(ds.feature_dim, ds.num_classes, cfg, rng)
    params, grads, views = flatten_params(model.encoder, model.projection)
    head_params, head_grads, (head_views,) = flatten_params(model.classifier)
    opts = [SgdMomentum(p, lr=cfg.lr, momentum=cfg.momentum,
                        weight_decay=cfg.weight_decay) for p in (params, head_params)]
    fifo, keys = FeatureQueue(cfg.queue_capacity), None
    onehot = np.eye(ds.num_classes)
    n = len(ds)
    steps = -(-n // cfg.batch_size)
    log = []
    for epoch in range(cfg.epochs):
        order = rng.permutation(n)
        sums = {}
        for start in range(0, n, cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            XS = augmented_rows(ds.X[idx], cfg, rng)
            if keys is not None:
                fifo.push_batch(keys)
            _, con, keys, V = stage1_batch_gradients(
                model, XS, fifo.as_matrix() if queue is None else queue, cfg, views)
            opts[0].step(grads)
            _, losses = head_batch_gradients(model.classifier, V,
                                             onehot[ds.observed[idx]], con, cfg,
                                             head_views)
            opts[1].step(head_grads)
            for name, value in losses.items():
                sums[name] = sums.get(name, 0.0) + value
        log.append({"epoch": epoch, **{k: v / steps for k, v in sums.items()}})
    return model, log, rng


def model_bytes(model):
    return b"".join(p.tobytes() for part in PARTS for p in getattr(model, part).params())


class TestHeadInTheLoader:
    """The classifier head trains in the batch loader, one slot behind the
    step, on the features and contrastive loss the step writes into its
    slot: every bit is the serial chain's."""

    def test_every_batch_size_equals_the_serial_chain(self, monkeypatch):
        # default widths, a fixed queue snapshot (so a one-row batch has
        # negatives) and three steps an epoch, the last of one row; the
        # config bypasses `Stage1Config`, which refuses a batch of one
        queue = l2_normalize(make_rng(40).normal(size=(128, 32)))

        class Snapshot:
            def __init__(self, capacity):
                pass

            def push_batch(self, keys):
                pass

            def as_matrix(self):
                return queue

        monkeypatch.setattr(stage1, "FeatureQueue", Snapshot)
        rng = make_rng(41)
        for b in range(1, 65):
            n = 2 * b + 1
            labels = rng.integers(0, 20, size=n)
            ds = Dataset(np.arange(n), rng.normal(size=(n, 16)), labels, labels, 20)
            cfg = types.SimpleNamespace(**{**vars(Stage1Config(seed=b)), "epochs": 2,
                                           "batch_size": b})
            got, got_log = train_stage1(ds, cfg)
            want, want_log, _ = serial_stage1(ds, cfg, queue)
            assert got_log == want_log, b
            assert model_bytes(got) == model_bytes(want), b

    @pytest.mark.parametrize("batch_size", [2, 5, 15, 45])
    def test_train_stage1_equals_the_serial_chain(self, batch_size):
        # 91 samples: a last batch of one row at each of these sizes
        ds = tiny_dataset()
        cfg = Stage1Config(seed=8, **{**TINY, "batch_size": batch_size})
        assert len(ds) % batch_size == 1
        got, got_log = train_stage1(ds, cfg)
        want, want_log, _ = serial_stage1(ds, cfg)
        assert got_log == want_log
        assert model_bytes(got) == model_bytes(want)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_contrastive_divergence_after_banc_names_the_banc_step(self, monkeypatch):
        # BANC's loss is not finite at step 2, in the loader, and the
        # contrastive loss at step 3, in this process: step 2 is named
        banc, contrastive = stage1._banc_batch, stage1._contrastive_batch
        calls = {"banc": 0, "con": 0}

        def bad_banc(*args):
            calls["banc"] += 1  # counted in the loader, which runs every call
            loss, grad = banc(*args)
            return (math.inf if calls["banc"] == 3 else loss), grad

        def bad_contrastive(*args):
            calls["con"] += 1
            loss, grad = contrastive(*args)
            return (math.nan if calls["con"] == 4 else loss), grad

        monkeypatch.setattr(stage1, "_banc_batch", bad_banc)
        monkeypatch.setattr(stage1, "_contrastive_batch", bad_contrastive)
        with pytest.raises(NumericError, match=r"stage 1 diverged: .* epoch 0, step 2$"):
            train_stage1(tiny_dataset(), Stage1Config(seed=9, **TINY))
        assert calls == {"banc": 0, "con": 4}  # this process ran no BANC

    def test_killed_loader_raises_naming_it(self, monkeypatch):
        start, pids = jsonl.Forks.start, []

        def recorded(forks, label, fn):
            pids.append(start(forks, label, fn))
            return pids[-1]

        step, steps = stage1.stage1_batch_gradients, []

        def killing(*args):
            steps.append(1)
            if len(steps) == 3:
                os.kill(pids[0], signal.SIGKILL)
            return step(*args)

        monkeypatch.setattr(jsonl.Forks, "start", recorded)
        monkeypatch.setattr(stage1, "stage1_batch_gradients", killing)
        with pytest.raises(OSError, match="stage 1 loader"):
            train_stage1(tiny_dataset(), Stage1Config(seed=10, **TINY))

    def test_head_past_two_blas_threads_trains_without_hanging(self):
        # a head product of 64 x 512 x 20 multiply-adds runs on two BLAS
        # threads, in a loader forked after this process's own two-thread
        # products woke OpenBLAS's helper thread
        assert 64 * 512 * 20 >= BLAS_TWO_THREADS
        script = textwrap.dedent("""
            import numpy as np
            from noisytail.datagen import LongTailSpec, MixtureSpec, synth_dataset
            from noisytail.numerics import make_rng
            from noisytail.stage1 import Stage1Config, train_stage1
            a = np.ones((400, 400))
            a @ a
            ds = synth_dataset(LongTailSpec(20, 64, 1.0), MixtureSpec(feature_dim=16),
                               make_rng(0))
            cfg = Stage1Config(repr_dim=512, batch_size=64, epochs=3, queue_capacity=128)
            model, log = train_stage1(ds, cfg)
            assert len(log) == 3 and np.isfinite(model.classifier.weights[0]).all()
        """)
        src = Path(__file__).resolve().parents[1] / "src"
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, (str(src), os.environ.get("PYTHONPATH"))))}
        done = subprocess.run([sys.executable, "-c", script], env=env, timeout=120,
                              capture_output=True, text=True)
        assert done.returncode == 0, done.stderr


class TestPersistence:
    def test_checkpoint_roundtrip(self, tmp_path):
        """Weights round-trip exactly, so the checkpoint determines the
        predictions of the trained model bit for bit."""
        ds = tiny_dataset()
        cfg = Stage1Config(seed=6, **TINY)
        model, _ = train_stage1(ds, cfg)
        preds = predict_all(model, ds)
        path = tmp_path / "ckpt.json"
        save_stage1_checkpoint(model, cfg, path)
        back, back_cfg = load_stage1_checkpoint(path)
        assert back_cfg == cfg
        for a, b in zip(model.encoder.params() + model.projection.params()
                        + model.classifier.params(),
                        back.encoder.params() + back.projection.params()
                        + back.classifier.params()):
            np.testing.assert_array_equal(a, b)
        again = predict_all(back, ds)
        assert again.logits.tobytes() == preds.logits.tobytes()
        assert again.predicted.tobytes() == preds.predicted.tobytes()

    def test_predictions_roundtrip(self, tmp_path):
        ds = tiny_dataset()
        cfg = Stage1Config(seed=7, **TINY)
        model, _ = train_stage1(ds, cfg)
        preds = predict_all(model, ds)
        path = tmp_path / "preds.jsonl"
        save_predictions(ds.ids, preds, path)
        ids, loaded = load_predictions(path)
        np.testing.assert_array_equal(ids, ds.ids)
        np.testing.assert_array_equal(preds.logits, loaded.logits)
        np.testing.assert_array_equal(preds.predicted, loaded.predicted)
