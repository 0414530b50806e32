import json
import math
import tracemalloc

import numpy as np
import pytest

from noisytail.datagen import Dataset, LongTailSpec, MixtureSpec, synth_dataset
from noisytail.ensemble import (
    COUNT_FLOOR,
    EnsembleModel,
    Stage2Config,
    SubgroupThresholds,
    backbone_hash,
    ensemble_predict_batch,
    evaluate,
    expert_shifts,
    load_stage2_checkpoint,
    report_csv,
    save_stage2_checkpoint,
    soft_class_counts,
    subgroup_of,
    train_stage2,
)
from noisytail.errors import InvalidInputError, InvalidSpecError, ParseError
from noisytail.numerics import (
    FORWARD_ROWS,
    Mlp,
    backward_batch,
    finite_diff_grad,
    flatten_params,
    forward_batch,
    init_mlp,
    make_rng,
    relative_error,
    sgd_epochs,
    softmax_ce,
    softmax_rows,
)
from noisytail.refurbish import ClassStats
from noisytail.stage1 import Predictions, Stage1Config, build_stage1_model, predict_batch


def random_softlabels(rng, n, k):
    """An (N, K) soft-label matrix: the softmax of random rows."""
    return softmax_rows(rng.normal(size=(n, k)) * 2)


def experts_on_row(z, y, counts):
    """`softmax_ce` on one sample whose three expert logit rows all equal
    z, under the shift table of `counts`: the (3,) losses and (3, K) logit
    gradients of E1, E2 and E3."""
    z = np.asarray(z, dtype=np.float64)
    losses, grad = softmax_ce(np.tile(z, (1, 3, 1)), np.asarray(y, dtype=np.float64)[None],
                              expert_shifts(counts))
    return losses, grad[0]


class TestSoftClassCounts:
    def test_onehot_recovers_hard_counts(self):
        labels = np.eye(3)[np.arange(10) % 3]
        counts = soft_class_counts(labels).counts
        np.testing.assert_array_equal(counts, [4.0, 3.0, 3.0])
        assert all(c == int(c) for c in counts)

    def test_small_example(self):
        counts = soft_class_counts(np.array([[0.7, 0.3], [0.2, 0.8]])).counts
        np.testing.assert_allclose(counts, [0.9, 1.1], atol=1e-12)

    def test_conservation(self):
        rng = make_rng(0)
        for n, k in [(10, 3), (100, 7), (55, 2)]:
            counts = soft_class_counts(random_softlabels(rng, n, k)).counts
            assert abs(counts.sum() - n) < 1e-6

    def test_inconsistent_k_rejected(self):
        # a matrix cannot hold rows of different K; the flat concatenation
        # of a K=2 and a K=3 label is not an (N, K) matrix
        with pytest.raises(InvalidInputError):
            soft_class_counts(np.concatenate([[1.0, 0.0], [1.0, 0.0, 0.0]]))

    def test_empty_rejected(self):
        with pytest.raises(InvalidInputError):
            soft_class_counts(np.zeros((0, 3)))


class TestExpertLosses:
    """Each expert's loss and gradient from `softmax_ce` on one row, under
    the shift table `expert_shifts` builds for training."""

    def test_e1_uniform_logits(self):
        losses, _ = experts_on_row(np.zeros(2), [1.0, 0.0], ClassStats(np.ones(2)))
        assert abs(losses[0] - math.log(2)) < 1e-12

    def test_e1_entropy_minimum(self):
        # when the target is the softmax of the logits, the loss is the entropy
        rng = make_rng(1)
        for _ in range(20):
            z = rng.normal(size=4) * 2
            p = softmax_rows(z)
            losses, grad = experts_on_row(z, p, ClassStats(np.ones(4)))
            entropy = -float(np.sum(p * np.log(p)))
            assert abs(losses[0] - entropy) < 1e-12
            np.testing.assert_allclose(grad[0], np.zeros(4), atol=1e-12)

    def test_e2_closed_forms(self):
        counts = ClassStats(np.array([3.0, 1.0]))
        losses, _ = experts_on_row(np.zeros(2), [1.0, 0.0], counts)
        assert abs(losses[1] - (-math.log(3 / 4))) < 1e-12
        losses, _ = experts_on_row(np.zeros(2), [0.0, 1.0], counts)
        assert abs(losses[1] - (-math.log(1 / 4))) < 1e-12

    def test_e3_closed_forms(self):
        counts = ClassStats(np.array([3.0, 1.0]))
        losses, _ = experts_on_row(np.zeros(2), [1.0, 0.0], counts)
        assert abs(losses[2] - (-math.log(9 / 10))) < 1e-12
        losses, _ = experts_on_row(np.zeros(2), [0.0, 1.0], counts)
        assert abs(losses[2] - (-math.log(1 / 10))) < 1e-12
        # heavier rare-class push than e2's -log(1/4)
        assert losses[2] > -math.log(1 / 4)

    def test_uniform_counts_reduce_to_e1(self):
        rng = make_rng(2)
        for _ in range(50):
            k = int(rng.integers(2, 6))
            z = rng.normal(size=k) * 2
            y = softmax_rows(rng.normal(size=k))
            counts = ClassStats(np.full(k, float(rng.uniform(0.5, 20))))
            (l1, l2, l3), (g1, g2, g3) = experts_on_row(z, y, counts)
            assert abs(l2 - l1) < 1e-9 and abs(l3 - l1) < 1e-9
            np.testing.assert_allclose(g2, g1, atol=1e-9)
            np.testing.assert_allclose(g3, g1, atol=1e-9)

    def test_rare_class_loss_ordering(self):
        # soft label concentrated on the rare class: e3 >= e2 >= e1
        rng = make_rng(3)
        for _ in range(100):
            k = int(rng.integers(2, 6))
            counts = np.sort(rng.uniform(1, 100, size=k))[::-1].copy()
            rare = k - 1
            y = np.full(k, 0.02 / (k - 1))
            y[rare] = 0.98
            z = rng.normal(size=k)
            (l1, l2, l3), _ = experts_on_row(z, y, ClassStats(counts))
            assert l3 >= l2 - 1e-9
            assert l2 >= l1 - 1e-9

    def test_gradients_match_finite_differences(self):
        rng = make_rng(4)
        worst = 0.0
        for _ in range(100):
            k = int(rng.integers(2, 6))
            z = rng.normal(size=k) * 2
            y = softmax_rows(rng.normal(size=k))[None]
            shifts = expert_shifts(ClassStats(rng.uniform(0.5, 50, size=k)))
            for e in range(3):
                def loss(v, e=e):
                    return softmax_ce(v[None, None], y, shifts[e:e + 1])[0][0]
                grad = softmax_ce(z[None, None], y, shifts[e:e + 1])[1][0, 0]
                num = finite_diff_grad(loss, z)
                for a, b in zip(grad, num):
                    worst = max(worst, relative_error(a, b))
        assert worst < 1e-4, f"max relative error {worst}"

    def test_zero_count_degenerate(self):
        # training floors a zero count at COUNT_FLOOR, so ln n stays finite
        shifts = expert_shifts(ClassStats(np.array([1.0, 0.0])))
        np.testing.assert_array_equal(
            shifts, [[0.0, 0.0], [0.0, math.log(COUNT_FLOOR)],
                     [0.0, 2 * math.log(COUNT_FLOOR)]])
        losses, grad = experts_on_row(np.zeros(2), [1.0, 0.0], ClassStats([1.0, 0.0]))
        assert np.all(np.isfinite(losses)) and np.all(np.isfinite(grad))


class TestExpertBatchGradient:
    """Finite-difference check of the fused kernel that trains stage 2:
    (m, 3, K) logits with a (3, K) shift table of zero, ln n and 2 ln n,
    and through the 3K head into its weights and biases, for each expert's
    loss in turn."""

    @pytest.mark.parametrize("power", [0, 1, 2])
    def test_logit_and_head_gradients(self, power):
        rng = make_rng(20 + power)
        b, d, k = 6, 4, 5
        V = rng.normal(size=(b, d))
        Y = random_softlabels(rng, b, k)
        shifts = expert_shifts(ClassStats(rng.uniform(0.5, 50, size=k)))
        head = init_mlp([d, 3 * k], rng)

        def loss(flat_logits):
            return softmax_ce(flat_logits.reshape(b, 3, k), Y, shifts)[0][power]

        logits, cache = forward_batch(head, V)
        _, g_sum = softmax_ce(logits.reshape(b, 3, k), Y, shifts)
        # the kernel's gradient of the sum is each expert's gradient on its own slice
        g_logits = np.zeros_like(g_sum)
        g_logits[:, power] = g_sum[:, power]
        num = finite_diff_grad(loss, logits.ravel())
        worst = max(relative_error(a, c) for a, c in zip(g_logits.ravel(), num))
        grads, _ = backward_batch(head, cache, g_logits.reshape(b, 3 * k))
        for p, g in zip(head.params(), grads):
            def f(flat, p=p):
                saved = p.copy()
                p[...] = flat.reshape(p.shape)
                value = loss(forward_batch(head, V)[0].ravel())
                p[...] = saved
                return value
            num = finite_diff_grad(f, p.ravel().copy())
            worst = max([worst] + [relative_error(a, c) for a, c in zip(g.ravel(), num)])
        assert worst < 1e-4, f"max relative error {worst}"

    def test_each_expert_matches_its_one_row_loss(self):
        # against the soft CE of the softmax of z_e + e ln n, written out by hand
        rng = make_rng(21)
        k = 4
        z = rng.normal(size=(1, 3, k))
        y = softmax_rows(rng.normal(size=k))
        n = rng.uniform(0.5, 50, size=k)
        losses, grad = softmax_ce(z, y[None, :], expert_shifts(ClassStats(n)))
        for e in range(3):
            shifted = np.exp(z[0, e] + e * np.log(n))
            q = shifted / shifted.sum()
            assert abs(losses[e] - (-np.sum(y * np.log(q)))) < 1e-12
            np.testing.assert_allclose(grad[0, e], q - y, rtol=0, atol=1e-12)


def tiny_stage1_model(feature_dim=5, k=4, seed=0):
    cfg = Stage1Config(encoder_hidden=8, repr_dim=6, proj_hidden=8, embed_dim=4)
    return build_stage1_model(feature_dim, k, cfg, make_rng(seed))


def tiny_train_setup(seed=0, k=4, n1=40):
    ds = synth_dataset(LongTailSpec(k, n1, 4.0), MixtureSpec(feature_dim=5),
                       make_rng(seed))
    rng = make_rng(seed + 10)
    softs = random_softlabels(rng, len(ds), k)
    return ds, softs


class TestTrainStage2:
    def test_epochs_zero_heads_at_init(self):
        ds, softs = tiny_train_setup()
        s1 = tiny_stage1_model()
        cfg = Stage2Config(epochs=0, batch_size=16, seed=5)
        model, log = train_stage2(ds, softs, s1, cfg)
        # one 3K draw is the same RNG stream as three K draws, one per expert
        ref_rng = make_rng(5)
        refs = [init_mlp([s1.encoder.out_dim, ds.num_classes], ref_rng) for _ in range(3)]
        np.testing.assert_array_equal(model.head.weights[0],
                                      np.concatenate([r.weights[0] for r in refs]))
        np.testing.assert_array_equal(model.head.biases[0], np.zeros(3 * ds.num_classes))
        assert log == []

    def test_backbone_frozen_exactly(self):
        ds, softs = tiny_train_setup()
        s1 = tiny_stage1_model()
        before = [p.copy() for p in s1.encoder.params()]
        cfg = Stage2Config(epochs=4, batch_size=16, seed=6)
        model, _ = train_stage2(ds, softs, s1, cfg)
        for a, b in zip(model.backbone.params(), before):
            assert np.max(np.abs(a - b)) == 0.0
        # and the source model is untouched too
        for a, b in zip(s1.encoder.params(), before):
            assert np.max(np.abs(a - b)) == 0.0

    def test_deterministic(self):
        ds, softs = tiny_train_setup()
        s1 = tiny_stage1_model()
        cfg = Stage2Config(epochs=3, batch_size=16, seed=7)
        m1, l1 = train_stage2(ds, softs, s1, cfg)
        m2, l2 = train_stage2(ds, softs, s1, cfg)
        assert l1 == l2
        for a, b in zip(m1.head.params(), m2.head.params()):
            np.testing.assert_array_equal(a, b)

    def test_misalignment_rejected(self):
        ds, softs = tiny_train_setup()
        s1 = tiny_stage1_model()
        with pytest.raises(InvalidInputError):
            train_stage2(ds, softs[:-1], s1, Stage2Config(epochs=1, batch_size=16))

    def test_fused_head_trains_the_per_expert_weights(self):
        ds, softs = tiny_train_setup()
        s1 = tiny_stage1_model()
        cfg = Stage2Config(epochs=5, batch_size=16, seed=8)
        assert len(ds) % cfg.batch_size, "the final batch must be ragged"
        model, log = train_stage2(ds, softs, s1, cfg)
        experts, ref_log = reference_train_stage2(ds, softs, s1, cfg)
        np.testing.assert_allclose(model.head.weights[0],
                                   np.concatenate([e.weights[0] for e in experts]),
                                   rtol=1e-12)
        np.testing.assert_allclose(model.head.biases[0],
                                   np.concatenate([e.biases[0] for e in experts]),
                                   rtol=1e-12)
        assert len(log) == len(ref_log) == cfg.epochs
        for row, ref in zip(log, ref_log):
            assert row.keys() == ref.keys() == {"epoch", "e1", "e2", "e3"}
            for name in ("e1", "e2", "e3"):
                assert row[name] == pytest.approx(ref[name], rel=1e-12)

    def test_batch_size_exceeds_dataset(self):
        ds, softs = tiny_train_setup()
        s1 = tiny_stage1_model()
        with pytest.raises(InvalidSpecError):
            train_stage2(ds, softs, s1, Stage2Config(epochs=1, batch_size=10_000))


def reference_train_stage2(ds, softs, s1, cfg):
    """Stage 2 as three separate heads: per step, three forward passes, three
    shifted soft-CE losses and three backward passes."""
    rng = make_rng(cfg.seed)
    experts = [init_mlp([s1.encoder.out_dim, ds.num_classes], rng) for _ in range(3)]
    log_n = np.log(np.maximum(soft_class_counts(softs).counts, COUNT_FLOOR))
    V, _ = forward_batch(s1.encoder, ds.X)
    params, grads, views = flatten_params(*experts)

    def batch(idx):
        return V[idx], softs[idx]

    def step(V_rows, Y_rows):
        losses = {}
        for name, expert, power, out in zip(("e1", "e2", "e3"), experts, (0.0, 1.0, 2.0),
                                            views):
            logits, cache = forward_batch(expert, V_rows)
            q = softmax_rows(logits + power * log_n)
            losses[name] = float(np.mean(-np.sum(Y_rows * np.log(q), axis=1)))
            g_logits = (q - Y_rows) / len(V_rows)
            backward_batch(expert, cache, g_logits, out=out)
        return losses

    log = sgd_epochs("reference", params, grads, cfg, len(ds), rng, batch,
                     ((1, V.shape[1]), (1, ds.num_classes)), step)
    return experts, log


def head_with_fixed_probs(prob_rows, repr_dim):
    # a zero-weight 3K head whose biases are log-probabilities: expert e's
    # the softmax of its bias = prob_rows[e]
    p = np.concatenate([np.asarray(r, dtype=float) for r in prob_rows])
    return Mlp([repr_dim, p.size], [np.zeros((p.size, repr_dim))], [np.log(p)])


class TestEnsemblePredict:
    def _identity_backbone(self, d):
        return Mlp([d, d], [np.eye(d)], [np.zeros(d)])

    def test_identical_heads_equal_member(self):
        d = 3
        backbone = self._identity_backbone(d)
        model = EnsembleModel(backbone, head_with_fixed_probs([[0.6, 0.3, 0.1]] * 3, d))
        probs, _ = ensemble_predict_batch(model, np.zeros((1, d)))
        np.testing.assert_allclose(probs, [[0.6, 0.3, 0.1]], atol=1e-12)

    def test_probs_sum_to_one(self):
        weights = np.concatenate([make_rng(i).normal(size=(3, 4)) for i in range(3)])
        model = EnsembleModel(self._identity_backbone(4),
                              Mlp([4, 9], [weights], [np.zeros(9)]))
        probs, _ = ensemble_predict_batch(model, np.array([[0.5, -1.0, 2.0, 0.0]]))
        assert abs(probs[0].sum() - 1.0) < 1e-12

    def test_vote_arithmetic(self):
        # two heads at [0.6, 0.4] vs one at [0.2, 0.8]: mean decides class 1
        d = 2
        model = EnsembleModel(self._identity_backbone(d),
                              head_with_fixed_probs(
                                  [[0.6, 0.4], [0.6, 0.4], [0.2, 0.8]], d))
        probs, _ = ensemble_predict_batch(model, np.zeros((1, d)))
        np.testing.assert_allclose(probs, [[0.4666666666666667, 0.5333333333333333]],
                                   atol=1e-12)
        assert np.argmax(probs[0]) == 1

    def test_logit_mean_fusion(self):
        d = 2
        model = EnsembleModel(self._identity_backbone(d),
                              head_with_fixed_probs(
                                  [[0.6, 0.4], [0.6, 0.4], [0.2, 0.8]], d))
        probs, _ = ensemble_predict_batch(model, np.zeros((1, d)), fusion="logit_mean")
        mean_logits = np.mean([np.log([0.6, 0.4]), np.log([0.6, 0.4]),
                               np.log([0.2, 0.8])], axis=0)
        np.testing.assert_allclose(probs[0], softmax_rows(mean_logits), atol=1e-12)

    def test_dim_mismatch(self):
        model = EnsembleModel(self._identity_backbone(3),
                              head_with_fixed_probs([[0.5, 0.5]] * 3, 3))
        with pytest.raises(InvalidInputError):
            ensemble_predict_batch(model, np.zeros((1, 5)))

    def test_head_shape_rejected(self):
        backbone = self._identity_backbone(3)
        with pytest.raises(InvalidInputError, match="3K"):
            EnsembleModel(backbone, Mlp([3, 4], [np.zeros((4, 3))], [np.zeros(4)]))
        with pytest.raises(InvalidInputError, match="3K"):
            EnsembleModel(backbone, init_mlp([3, 4, 6], make_rng(0)))
        with pytest.raises(InvalidInputError, match="backbone"):
            EnsembleModel(backbone, Mlp([2, 6], [np.zeros((6, 2))], [np.zeros(6)]))


class TestSubgroups:
    def test_threshold_application(self):
        th = SubgroupThresholds(many_min=100, few_max=20)
        assert subgroup_of(5000, th) == "many"
        assert subgroup_of(60, th) == "medium"
        assert subgroup_of(5, th) == "few"
        # boundaries are inclusive of medium
        assert subgroup_of(100, th) == "medium"
        assert subgroup_of(20, th) == "medium"

    def test_invalid_thresholds(self):
        with pytest.raises(InvalidSpecError):
            SubgroupThresholds(many_min=10, few_max=50)


def balanced_test_ds(k, per_class, d, scale=10.0):
    labels = np.repeat(np.arange(k), per_class)
    X = np.zeros((labels.size, d))
    X[np.arange(labels.size), labels] = scale
    return Dataset(np.arange(labels.size), X, labels, labels, k)


class TestEvaluate:
    def _perfect_model(self, k):
        backbone = Mlp([k, k], [np.eye(k)], [np.zeros(k)])
        head = Mlp([k, 3 * k], [np.tile(np.eye(k), (3, 1))], [np.zeros(3 * k)])
        return EnsembleModel(backbone, head)

    def test_perfect_predictor_all_ones(self):
        k = 3
        model = self._perfect_model(k)
        test = balanced_test_ds(k, 5, k)
        counts = ClassStats(np.array([5000.0, 60.0, 5.0]))
        report = evaluate(model, test, counts, SubgroupThresholds(100, 20))
        assert report.overall_accuracy == 1.0
        assert report.subgroup_accuracy == {"many": 1.0, "medium": 1.0, "few": 1.0}
        assert report.subgroup_classes == {"many": [0], "medium": [1], "few": [2]}
        for acc in report.expert_overall:
            assert acc == 1.0

    def test_subgroup_counts_partition(self):
        k = 3
        model = self._perfect_model(k)
        test = balanced_test_ds(k, 7, k)
        counts = ClassStats(np.array([5000.0, 60.0, 5.0]))
        report = evaluate(model, test, counts, SubgroupThresholds(100, 20))
        assert sum(report.subgroup_counts.values()) == len(test)

    def test_constant_predictor_one_over_k(self):
        k = 4
        backbone = Mlp([k, k], [np.eye(k)], [np.zeros(k)])
        bias = np.zeros(k)
        bias[0] = 10.0
        head = Mlp([k, 3 * k], [np.zeros((3 * k, k))], [np.tile(bias, 3)])
        model = EnsembleModel(backbone, head)
        test = balanced_test_ds(k, 10, k)
        counts = ClassStats(np.full(k, 100.0))
        report = evaluate(model, test, counts, SubgroupThresholds(100, 20))
        assert abs(report.overall_accuracy - 1 / k) < 1e-12

    def test_experts_scored_separately(self):
        # E1 is perfect, E2 always says class 0, E3 never picks the true class
        k = 3
        backbone = Mlp([k, k], [np.eye(k)], [np.zeros(k)])
        head = Mlp([k, 3 * k], [np.vstack([np.eye(k), np.zeros((k, k)), -np.eye(k)])],
                   [np.concatenate([np.zeros(k), [10.0, 0.0, 0.0], np.zeros(k)])])
        test = balanced_test_ds(k, 4, k)
        counts = ClassStats(np.array([5000.0, 60.0, 5.0]))
        report = evaluate(EnsembleModel(backbone, head), test, counts,
                          SubgroupThresholds(100, 20))
        assert report.expert_overall == [1.0, 1 / 3, 0.0]
        assert report.expert_subgroup == [{"many": 1.0, "medium": 1.0, "few": 1.0},
                                          {"many": 1.0, "medium": 0.0, "few": 0.0},
                                          {"many": 0.0, "medium": 0.0, "few": 0.0}]
        # the mean of the three softmaxes favours class 0 unless E1 alone says otherwise
        assert report.overall_accuracy == 1 / 3
        assert report.subgroup_accuracy == {"many": 1.0, "medium": 0.0, "few": 0.0}

    def test_absent_training_class_rejected(self):
        k = 3
        model = self._perfect_model(k)
        test = balanced_test_ds(k, 2, k)
        counts = ClassStats(np.array([10.0, 10.0, 0.0]))
        with pytest.raises(InvalidInputError):
            evaluate(model, test, counts, SubgroupThresholds(100, 20))

    def test_csv_layout(self):
        k = 3
        model = self._perfect_model(k)
        test = balanced_test_ds(k, 4, k)
        counts = ClassStats(np.array([5000.0, 60.0, 5.0]))
        report = evaluate(model, test, counts, SubgroupThresholds(100, 20))
        csv = report_csv(report)
        lines = csv.strip().split("\n")
        assert lines[0] == "model,many,medium,few,all"
        assert len(lines) == 5
        assert lines[-1].startswith("ensemble,")


class TestCheckpoint:
    def test_roundtrip(self, tmp_path):
        ds, softs = tiny_train_setup()
        s1 = tiny_stage1_model()
        cfg = Stage2Config(epochs=2, batch_size=16, seed=9)
        model, _ = train_stage2(ds, softs, s1, cfg)
        path = tmp_path / "stage2.json"
        save_stage2_checkpoint(model, cfg, "stage1_checkpoint.json", path)
        back, back_cfg = load_stage2_checkpoint(path, model.backbone, ds.num_classes)
        assert back_cfg == cfg
        for a, b in zip(model.head.params(), back.head.params()):
            np.testing.assert_array_equal(a, b)

    def test_file_stores_the_head_as_one_layer(self, tmp_path):
        ds, softs = tiny_train_setup()
        s1 = tiny_stage1_model()
        cfg = Stage2Config(epochs=1, batch_size=16, seed=9)
        model, _ = train_stage2(ds, softs, s1, cfg)
        path = tmp_path / "stage2.json"
        save_stage2_checkpoint(model, cfg, "stage1_checkpoint.json", path)
        state = json.loads(path.read_text())
        k, repr_dim = ds.num_classes, s1.encoder.out_dim
        assert "experts" not in state
        head = state["head"]
        assert head["layer_dims"] == [repr_dim, 3 * k]
        (weights,), (biases,) = head["weights"], head["biases"]
        for e in range(3):  # expert e is rows [eK, (e+1)K)
            rows = slice(e * k, (e + 1) * k)
            assert (weights[e * k * repr_dim:(e + 1) * k * repr_dim]
                    == model.head.weights[0][rows].ravel().tolist())
            assert biases[rows] == model.head.biases[0][rows].tolist()

    @pytest.mark.parametrize("corrupt", [
        lambda head: {**head, "layer_dims": [head["layer_dims"][0], head["layer_dims"][1] - 1],
                      "weights": [head["weights"][0][:-head["layer_dims"][0]]],
                      "biases": [head["biases"][0][:-1]]},
        lambda head: {**head, "layer_dims": head["layer_dims"] + [head["layer_dims"][1]],
                      "weights": head["weights"] + [[0.0] * head["layer_dims"][1] ** 2],
                      "biases": head["biases"] + [[0.0] * head["layer_dims"][1]]},
    ], ids=["short_head", "two_layer_head"])
    def test_head_layout_rejected(self, tmp_path, corrupt):
        ds, softs = tiny_train_setup()
        s1 = tiny_stage1_model()
        cfg = Stage2Config(epochs=1, batch_size=16, seed=9)
        model, _ = train_stage2(ds, softs, s1, cfg)
        path = tmp_path / "stage2.json"
        save_stage2_checkpoint(model, cfg, "stage1_checkpoint.json", path)
        state = json.loads(path.read_text())
        state["head"] = corrupt(state["head"])
        path.write_text(json.dumps(state))
        with pytest.raises(ParseError, match="one linear layer of 3K outputs"):
            load_stage2_checkpoint(path, model.backbone, ds.num_classes)

    def test_head_of_another_class_count_rejected(self, tmp_path):
        # 3 more rows: a whole 3K' head, but K' is not the run's K
        ds, softs = tiny_train_setup()
        s1 = tiny_stage1_model()
        cfg = Stage2Config(epochs=1, batch_size=16, seed=9)
        model, _ = train_stage2(ds, softs, s1, cfg)
        path = tmp_path / "stage2.json"
        save_stage2_checkpoint(model, cfg, "stage1_checkpoint.json", path)
        load_stage2_checkpoint(path, model.backbone, ds.num_classes)
        with pytest.raises(ParseError, match=r"head has \d+ outputs, not 3 x"):
            load_stage2_checkpoint(path, model.backbone, ds.num_classes + 1)

    def test_backbone_hash_mismatch(self, tmp_path):
        ds, softs = tiny_train_setup()
        s1 = tiny_stage1_model()
        cfg = Stage2Config(epochs=1, batch_size=16, seed=9)
        model, _ = train_stage2(ds, softs, s1, cfg)
        path = tmp_path / "stage2.json"
        save_stage2_checkpoint(model, cfg, "stage1_checkpoint.json", path)
        wrong = model.backbone.copy()
        wrong.weights[0][0, 0] += 1.0
        with pytest.raises(InvalidInputError, match="backbone"):
            load_stage2_checkpoint(path, wrong, ds.num_classes)

    def test_hash_is_weight_sensitive(self):
        net = tiny_stage1_model().encoder
        h1 = backbone_hash(net)
        net2 = net.copy()
        net2.weights[0][0, 0] += 1e-12
        assert backbone_hash(net2) != h1


class TestInferenceMemory:
    """The full-training-set inference passes (stage-1 predictions, stage-2
    features) hold each wide activation one row block at a time, and
    `Predictions` keeps no matrix beside its logits.  NumPy reports its
    buffers to tracemalloc."""

    N = 3 * FORWARD_ROWS + 17
    HIDDEN = 256
    FULL_ACTIVATION = N * HIDDEN * 8  # bytes of one (N, HIDDEN) float64 matrix

    def model_and_data(self, encoder_hidden=HIDDEN, repr_dim=4):
        cfg = Stage1Config(encoder_hidden=encoder_hidden, repr_dim=repr_dim,
                           proj_hidden=4, embed_dim=4)
        rng = make_rng(0)
        model = build_stage1_model(4, 3, cfg, rng)
        labels = np.arange(self.N) % 3
        ds = Dataset(np.arange(self.N), rng.normal(size=(self.N, 4)), labels, labels, 3)
        return model, ds

    @staticmethod
    def traced_peak(fn) -> int:
        """Peak bytes allocated while `fn()` runs, above what was held before."""
        tracemalloc.start()
        try:
            held = tracemalloc.get_traced_memory()[0]
            fn()
            return tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()

    def test_stage1_predictions(self):
        model, ds = self.model_and_data()
        peak = self.traced_peak(lambda: predict_batch(model, ds.X))
        assert peak < self.FULL_ACTIVATION / 2, peak

    def test_stage1_predictions_chain_the_encoder_output(self):
        # a wide encoder output goes on to the classifier block by block
        model, ds = self.model_and_data(encoder_hidden=4, repr_dim=self.HIDDEN)
        peak = self.traced_peak(lambda: predict_batch(model, ds.X))
        assert peak < self.FULL_ACTIVATION / 2, peak

    def test_predictions_keep_only_the_logits(self):
        k = 20
        logits = make_rng(0).normal(size=(self.N, k))
        peak = self.traced_peak(lambda: Predictions(logits))
        assert peak < self.N * k * 8 / 2, peak

    def test_stage2_features(self):
        model, ds = self.model_and_data()
        soft = np.eye(3)[ds.observed]
        cfg = Stage2Config(epochs=0, batch_size=16)
        peak = self.traced_peak(lambda: train_stage2(ds, soft, model, cfg))
        assert peak < self.FULL_ACTIVATION / 2, peak
