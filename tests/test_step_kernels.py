"""The training-step kernels against frozen copies of their earlier,
allocating forms, bit for bit, and a check that no kernel writes into
its inputs.

The references below are the kernels as they were before they were
rewritten to work in place: every one of them allocated a fresh array per
operation.  The rewrites keep every operation, its operand order and the
shapes and layouts of every matrix product, so `np.array_equal` (not a
tolerance) is the contract.  The batch sizes cover every stage-1 batch
from 1 to 64 rows, because BLAS picks its kernel by operand shape.
"""

import copy

import numpy as np
import pytest

from noisytail import stage1
from noisytail.ensemble import expert_shifts
from noisytail.numerics import (
    _ACTIVATIONS,
    SgdMomentum,
    backward_batch,
    flatten_params,
    forward_batch,
    init_mlp,
    l2_normalize,
    make_rng,
    softmax_ce,
    softmax_rows,
)
from noisytail.refurbish import ClassStats
from noisytail.stage1 import (
    FeatureQueue,
    Stage1Config,
    augment,
    augmented_rows,
    build_stage1_model,
    stage1_batch_gradients,
)

EMBED = 32  # the default embedding width
CAPACITY = 128  # the default profile's queue


# ---------------------------------------------------------------------------
# Frozen references: the kernels before the in-place rewrite
# ---------------------------------------------------------------------------

def ref_l2_normalize(v, axis=-1):
    n = np.linalg.norm(v, axis=axis, keepdims=True)
    return v / np.maximum(n, 1e-12)


def ref_banc_batch(logits, Y, c):
    P = softmax_rows(logits)
    p_y = np.sum(P * Y, axis=1)
    ce = -np.log(np.maximum(p_y, 1e-300))
    losses = ce + c * (1.0 - p_y)
    grad = ((P - Y) + c * P * (p_y[:, None] - Y)) / logits.shape[0]
    return float(losses.mean()), grad


def ref_contrastive_batch(Zq, Zk, queue_mat, tau, include_positive):
    b = Zq.shape[0]
    n_queue = 0 if queue_mat is None else queue_mat.shape[0]
    S = (Zq @ Zk.T) / tau
    pos = np.diag(S).copy()
    blocks = [S]
    if n_queue:
        blocks.append((Zq @ queue_mat.T) / tau)
    den = np.concatenate(blocks, axis=1)
    if not include_positive:
        den[np.arange(b), np.arange(b)] = -np.inf
    m = den.max(axis=1, keepdims=True)
    e = np.exp(den - m)
    z = e.sum(axis=1)
    lse = m[:, 0] + np.log(z)
    losses = -pos + lse
    P = e / z[:, None]
    Pb = P[:, :b]
    G_Zk = (Pb.T @ Zq) / tau
    G_Zk -= Zq / tau
    return float(losses.mean()), G_Zk / b


def ref_normalize_backward(raw, unit, grad_unit):
    norms = np.maximum(np.linalg.norm(raw, axis=1, keepdims=True), 1e-12)
    inner = np.sum(grad_unit * unit, axis=1, keepdims=True)
    return (grad_unit - inner * unit) / norms


_REF_DACT = {"tanh": lambda a: 1.0 - a * a, "logistic": lambda a: a * (1.0 - a)}


def ref_backward_batch(net, cache, upstream, input_grad=True):
    dact = _REF_DACT[net.activation]
    grads = [np.empty(0)] * (2 * len(net.weights))
    delta = upstream
    for l in range(len(net.weights) - 1, -1, -1):
        grads[2 * l] = delta.T @ cache[l]
        grads[2 * l + 1] = delta.sum(axis=0)
        if l > 0:
            delta = (delta @ net.weights[l]) * dact(cache[l])
    return grads, delta @ net.weights[0] if input_grad else None


def ref_sgd_step(params, velocity, grads, lr, momentum, weight_decay):
    for p, v, g in zip(params, velocity, grads):
        np.multiply(v, momentum, out=v)
        v += g + weight_decay * p
        p -= lr * v


def ref_expert_batch(logits, Y, shifts):
    q = softmax_rows(logits + shifts)
    with np.errstate(divide="ignore"):
        losses = -np.sum(Y[:, None] * np.log(np.maximum(q, 1e-300)), axis=-1)
    return np.ascontiguousarray(losses.T).mean(axis=1), (q - Y[:, None]) / logits.shape[0]


def ref_stage1_batch_gradients(model, X, Y, queue_mat, cfg, rng):
    """The training step as it was, on the references."""
    b = X.shape[0]
    X_q = augment(X, cfg, rng)
    X_k = augment(X, cfg, rng)
    v, enc_cache = forward_batch(model.encoder, np.concatenate((X_q, X_k, X)))
    z_raw, proj_cache = forward_batch(model.projection, v[:2 * b])
    Zq = ref_l2_normalize(z_raw[:b])
    zk_raw = z_raw[b:]
    Zk = ref_l2_normalize(zk_raw)
    con_loss, g_Zk = ref_contrastive_batch(Zq, Zk, queue_mat, cfg.tau,
                                           cfg.include_positive)
    g_zk_raw = ref_normalize_backward(zk_raw, Zk, (1.0 - cfg.alpha) * g_Zk)
    proj_grads, g_vk = ref_backward_batch(
        model.projection, [c[b:] for c in proj_cache], g_zk_raw)
    enc_grads, _ = ref_backward_batch(
        model.encoder, [c[b:2 * b] for c in enc_cache], g_vk, input_grad=False)
    logits, clf_cache = forward_batch(model.classifier, v[2 * b:])
    banc_mean, g_logits = ref_banc_batch(logits, Y, cfg.c)
    clf_grads, _ = ref_backward_batch(model.classifier, clf_cache,
                                      cfg.alpha * g_logits, input_grad=False)
    metrics = {"con": con_loss, "banc": banc_mean,
               "total": (1.0 - cfg.alpha) * con_loss + cfg.alpha * banc_mean}
    return enc_grads + proj_grads + clf_grads, metrics, Zk


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

def unit_rows(rng, n, d=EMBED):
    return l2_normalize(rng.normal(size=(n, d)))


def queue_states(rng):
    """Queue snapshots as `FeatureQueue.as_matrix` returns them: empty,
    partly filled, exactly full, and full after the ring has wrapped."""
    states = {"empty": None}
    for name, pushes in (("partial", (64, 13)), ("full", (64, 64)),
                         ("wrapped", (64, 64, 64, 41))):
        q = FeatureQueue(CAPACITY)
        for n in pushes:
            q.push_batch(rng.normal(size=(n, EMBED)))
        states[name] = q.as_matrix()
    return states


QUEUES = queue_states(make_rng(100))


def assert_grads_equal(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert np.array_equal(a, b)


def assert_unchanged(before, after):
    """Every array in `before` (a copy) equals its counterpart in `after`."""
    if isinstance(before, np.ndarray):
        assert np.array_equal(before, after, equal_nan=True)
    elif isinstance(before, (list, tuple)):
        assert len(before) == len(after)
        for a, b in zip(before, after):
            assert_unchanged(a, b)
    else:
        assert before == after


# ---------------------------------------------------------------------------
# Bit equality
# ---------------------------------------------------------------------------

class TestL2Normalize:
    @pytest.mark.parametrize("shape,axis", [((7,), -1), ((9, EMBED), -1),
                                            ((9, EMBED), 0), ((128, 5), 1)])
    def test_equals_linalg_norm_form(self, shape, axis):
        v = make_rng(1).normal(size=shape) * 3
        v[0] = 0.0  # a zero row or column meets the 1e-12 floor
        assert np.array_equal(l2_normalize(v, axis), ref_l2_normalize(v, axis))

    def test_stacked_rows_equal_separate(self):
        # one call over [query; key] rows equals one call per half
        rng = make_rng(2)
        for b in range(1, 65):
            z = rng.normal(size=(2 * b, EMBED))
            u = l2_normalize(z)
            assert np.array_equal(u[:b], ref_l2_normalize(z[:b]))
            assert np.array_equal(u[b:], ref_l2_normalize(z[b:]))


class TestContrastiveBatch:
    @pytest.mark.parametrize("queue", list(QUEUES))
    @pytest.mark.parametrize("include_positive", [False, True])
    def test_every_batch_size(self, queue, include_positive):
        rng = make_rng(3)
        Q = QUEUES[queue]
        for b in range(1, 65):
            if b == 1 and Q is None:
                continue  # no negative: rejected, see below
            stacked = unit_rows(rng, 2 * b)  # the step passes views of one matrix
            for Zq, Zk in ((stacked[:b], stacked[b:]),
                           (unit_rows(rng, b), unit_rows(rng, b))):
                tau = 0.2
                got = stage1._contrastive_batch(Zq, Zk, Q, tau, include_positive)
                want = ref_contrastive_batch(Zq, Zk, Q, tau, include_positive)
                assert got[0] == want[0], (b, queue)
                assert np.array_equal(got[1], want[1]), (b, queue)

    def test_no_negative_rejected(self):
        Z = unit_rows(make_rng(4), 1)
        with pytest.raises(stage1.InvalidInputError):
            stage1._contrastive_batch(Z, Z, None, 0.2, False)


class TestBancBatch:
    @pytest.mark.parametrize("c", [0.0, 6.0, 0.37])
    @pytest.mark.parametrize("k", [2, 5, 20])
    def test_every_batch_size(self, k, c):
        rng = make_rng(5)
        for b in range(1, 65):
            logits = rng.normal(size=(b, k)) * 3
            Y = np.eye(k)[rng.integers(0, k, size=b)]
            got = stage1._banc_batch(logits, Y, c)
            want = ref_banc_batch(logits, Y, c)
            assert got[0] == want[0], (b, k, c)
            assert np.array_equal(got[1], want[1]), (b, k, c)

    def test_saturated_rows(self):
        # p_y of exactly 1 and of 0: a zero gradient entry and a floored log
        logits = np.array([[800.0, 0.0, 0.0], [0.0, 0.0, -800.0]])
        Y = np.eye(3)[[0, 2]]
        for c in (0.0, 6.0):
            got, want = stage1._banc_batch(logits, Y, c), ref_banc_batch(logits, Y, c)
            assert got[0] == want[0]
            assert np.array_equal(got[1], want[1])


class TestNormalizeBackward:
    def test_every_batch_size(self):
        rng = make_rng(6)
        for b in range(1, 65):
            raw = rng.normal(size=(b, EMBED)) * rng.uniform(0.1, 5.0)
            norms = np.maximum(np.linalg.norm(raw, axis=1, keepdims=True), 1e-12)
            unit = l2_normalize(raw)
            g = rng.normal(size=(b, EMBED))
            assert np.array_equal(stage1._normalize_backward(norms, unit, g),
                                  ref_normalize_backward(raw, unit, g))


class TestBackwardBatch:
    @pytest.mark.parametrize("activation", ["tanh", "logistic"])
    @pytest.mark.parametrize("dims", [[16, 64, 32], [32, 64, 32], [32, 20], [32, 60]])
    def test_batch_sizes(self, activation, dims):
        rng = make_rng(7)
        net = init_mlp(dims, rng, activation)
        for b in (1, 2, 7, 41, 64, 184, 256):
            out, cache = forward_batch(net, rng.normal(size=(b, dims[0])))
            up = rng.normal(size=out.shape)
            for input_grad in (True, False):
                got = backward_batch(net, cache, up, input_grad)
                want = ref_backward_batch(net, cache, up, input_grad)
                assert_grads_equal(got[0], want[0])
                assert (got[1] is None) == (want[1] is None)
                if want[1] is not None:
                    assert np.array_equal(got[1], want[1])

    def test_sliced_cache(self):
        # the step backpropagates through row slices of a stacked forward
        rng = make_rng(8)
        net = init_mlp([32, 64, 32], rng)
        for b in range(1, 65):
            _, cache = forward_batch(net, rng.normal(size=(2 * b, 32)))
            part = [c[b:] for c in cache]
            up = rng.normal(size=(b, 32))
            got, want = backward_batch(net, part, up), ref_backward_batch(net, part, up)
            assert_grads_equal(got[0], want[0])
            assert np.array_equal(got[1], want[1])


class TestSgdStep:
    @pytest.mark.parametrize("momentum,weight_decay", [(0.9, 5e-4), (0.0, 0.0),
                                                        (0.5, 0.01)])
    def test_flat_buffer_matches_per_array_update(self, momentum, weight_decay):
        """One update over the flat buffer of `flatten_params` has the bits
        of the update run array by array, over 50 steps at stage 1's ten
        parameter shapes, and the gradients reach it through the views."""
        rng = make_rng(9)
        model = build_stage1_model(16, 20, Stage1Config(), rng)
        nets = (model.encoder, model.projection, model.classifier)
        ref_params = [p.copy() for net in nets for p in net.params()]
        ref_velocity = [np.zeros_like(p) for p in ref_params]
        params, grads, views = flatten_params(*nets)
        assert len(ref_params) == 10
        opt = SgdMomentum(params, lr=0.02, momentum=momentum, weight_decay=weight_decay)
        for _ in range(50):
            step_grads = [rng.normal(size=p.shape) for p in ref_params]
            for view, g in zip([v for net_views in views for v in net_views], step_grads):
                view[...] = g
            opt.step(grads)
            ref_sgd_step(ref_params, ref_velocity, step_grads, 0.02, momentum,
                         weight_decay)
        for p, q in zip([p for net in nets for p in net.params()], ref_params):
            assert np.array_equal(p, q)
        assert np.array_equal(opt.velocity,
                              np.concatenate([v.ravel() for v in ref_velocity]))

    def test_flatten_keeps_values_and_views(self):
        rng = make_rng(19)
        nets = [init_mlp([16, 64, 32], rng), init_mlp([32, 20], rng)]
        before = [p.copy() for net in nets for p in net.params()]
        params, grads, views = flatten_params(*nets)
        after = [p for net in nets for p in net.params()]
        assert params.size == grads.size == sum(p.size for p in before)
        for p, q, g in zip(after, before, [v for net_views in views for v in net_views]):
            assert np.array_equal(p, q) and p.shape == q.shape == g.shape
            assert np.shares_memory(p, params) and np.shares_memory(g, grads)
        params += 1.0
        assert np.array_equal(nets[1].biases[0], before[-1] + 1.0)


class TestExpertBatch:
    @pytest.mark.parametrize("rows", [1, 41, 184, 256])
    def test_rows(self, rows):
        rng = make_rng(10)
        k = 20
        shifts = expert_shifts(ClassStats(rng.integers(0, 600, size=k).astype(float)))
        logits = rng.normal(size=(rows, 3, k)) * 4
        Y = softmax_rows(rng.normal(size=(rows, k)) * 2)
        Y[0] = np.eye(k)[3]  # a one-hot row: zeros times floored logs
        got, want = softmax_ce(logits, Y, shifts), ref_expert_batch(logits, Y, shifts)
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1])

    def test_reshaped_head_output(self):
        # stage 2 passes a reshape of the head's (m, 3K) output
        rng = make_rng(11)
        k = 20
        shifts = expert_shifts(ClassStats(rng.uniform(1, 600, size=k)))
        flat = rng.normal(size=(256, 3 * k))
        Y = softmax_rows(rng.normal(size=(256, k)))
        got = softmax_ce(flat.reshape(256, 3, k), Y, shifts)
        want = ref_expert_batch(flat.reshape(256, 3, k), Y, shifts)
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1])


class TestStage1Step:
    """The whole step, composed of the rewritten kernels, against the step
    composed of the references."""

    @pytest.mark.parametrize("queue", list(QUEUES))
    @pytest.mark.parametrize("include_positive", [False, True])
    def test_every_batch_size(self, queue, include_positive):
        cfg = Stage1Config(include_positive=include_positive)
        rng = make_rng(12)
        model = build_stage1_model(16, 20, cfg, rng)
        Q = QUEUES[queue]
        for b in range(1 if Q is not None else 2, 65):
            X = rng.normal(size=(b, 16))
            Y = np.eye(20)[rng.integers(0, 20, size=b)]
            seed = int(rng.integers(1 << 31))
            got = stage1_batch_gradients(model, augmented_rows(X, cfg, make_rng(seed)),
                                         Y, Q, cfg)
            want = ref_stage1_batch_gradients(model, X, Y, Q, cfg, make_rng(seed))
            assert_grads_equal(got[0], want[0])
            assert got[1] == want[1]
            assert np.array_equal(got[2], want[2])

    @pytest.mark.parametrize("b", [1, 2, 17, 41, 56, 64])
    def test_gradients_into_the_flat_buffer(self, b):
        """With `out`, the step writes the gradients it returns into the
        views of `flatten_params`: the bits of the allocating form."""
        cfg = Stage1Config()
        rng = make_rng(14)
        model = build_stage1_model(16, 20, cfg, rng)
        XS = augmented_rows(rng.normal(size=(b, 16)), cfg, rng)
        Y = np.eye(20)[rng.integers(0, 20, size=b)]
        want = stage1_batch_gradients(model, XS, Y, QUEUES["wrapped"], cfg)
        _, grads, views = flatten_params(model.encoder, model.projection,
                                         model.classifier)
        got = stage1_batch_gradients(model, XS, Y, QUEUES["wrapped"], cfg, views)
        assert_grads_equal(got[0], want[0])
        assert got[1] == want[1]
        assert np.array_equal(grads, np.concatenate([g.ravel() for g in want[0]]))

    def test_c_zero(self):
        cfg = Stage1Config(c=0.0)
        rng = make_rng(13)
        model = build_stage1_model(16, 20, cfg, rng)
        X = rng.normal(size=(64, 16))
        Y = np.eye(20)[rng.integers(0, 20, size=64)]
        got = stage1_batch_gradients(model, augmented_rows(X, cfg, make_rng(1)), Y,
                                     QUEUES["wrapped"], cfg)
        want = ref_stage1_batch_gradients(model, X, Y, QUEUES["wrapped"], cfg,
                                          make_rng(1))
        assert_grads_equal(got[0], want[0])
        assert got[1] == want[1]


# ---------------------------------------------------------------------------
# Inputs are never written
# ---------------------------------------------------------------------------

class TestInputsUnchanged:
    def test_contrastive(self):
        rng = make_rng(20)
        stacked = unit_rows(rng, 2 * 16)
        Zq, Zk = stacked[:16], stacked[16:]
        for include_positive in (False, True):
            args = (Zq, Zk, QUEUES["wrapped"])
            before = copy.deepcopy(args)
            stage1._contrastive_batch(*args, 0.2, include_positive)
            assert_unchanged(before, args)

    @pytest.mark.parametrize("c", [0.0, 6.0])
    def test_banc(self, c):
        rng = make_rng(21)
        logits = rng.normal(size=(16, 20))
        Y = np.eye(20)[rng.integers(0, 20, size=16)]
        before = copy.deepcopy((logits, Y))
        stage1._banc_batch(logits, Y, c)
        assert_unchanged(before, (logits, Y))

    def test_normalize_backward(self):
        rng = make_rng(22)
        raw = rng.normal(size=(16, EMBED))
        args = (np.linalg.norm(raw, axis=1, keepdims=True), l2_normalize(raw),
                rng.normal(size=(16, EMBED)))
        before = copy.deepcopy(args)
        stage1._normalize_backward(*args)
        assert_unchanged(before, args)

    def test_l2_normalize(self):
        v = make_rng(23).normal(size=(16, EMBED))
        before = v.copy()
        l2_normalize(v)
        assert_unchanged(before, v)

    @pytest.mark.parametrize("activation", sorted(_ACTIVATIONS))
    def test_backward_batch(self, activation):
        rng = make_rng(24)
        net = init_mlp([16, 64, 32], rng, activation)
        out, cache = forward_batch(net, rng.normal(size=(16, 16)))
        up = rng.normal(size=out.shape)
        weights = [p.copy() for p in net.params()]
        before = copy.deepcopy((cache, up))
        backward_batch(net, cache, up)
        assert_unchanged(before, (cache, up))
        assert_unchanged(weights, net.params())

    def test_sgd_step_grads(self):
        rng = make_rng(25)
        params = rng.normal(size=36)
        grads = rng.normal(size=36)
        opt = SgdMomentum(params, lr=0.1, weight_decay=1e-3)
        before = copy.deepcopy(grads)
        for _ in range(3):
            opt.step(grads)
        assert_unchanged(before, grads)

    def test_expert_batch(self):
        rng = make_rng(26)
        logits = rng.normal(size=(16, 3, 20))
        Y = softmax_rows(rng.normal(size=(16, 20)))
        shifts = expert_shifts(ClassStats(rng.uniform(1, 100, size=20)))
        before = copy.deepcopy((logits, Y, shifts))
        softmax_ce(logits, Y, shifts)
        assert_unchanged(before, (logits, Y, shifts))

    def test_queue_read(self):
        q = FeatureQueue(8)
        q.push_batch(make_rng(27).normal(size=(11, 4)))
        first = q.as_matrix()
        first[:] = 0.0
        assert not np.array_equal(q.as_matrix(), first)

    def test_step_leaves_batch_and_queue(self):
        cfg = Stage1Config()
        rng = make_rng(28)
        model = build_stage1_model(16, 20, cfg, rng)
        X = rng.normal(size=(64, 16))
        Y = np.eye(20)[rng.integers(0, 20, size=64)]
        Q = QUEUES["wrapped"].copy()
        weights = [p.copy() for part in (model.encoder, model.projection,
                                         model.classifier) for p in part.params()]
        XS = augmented_rows(X, cfg, make_rng(1))
        before = copy.deepcopy((X, XS, Y, Q))
        stage1_batch_gradients(model, XS, Y, Q, cfg)
        assert_unchanged(before, (X, XS, Y, Q))
        assert_unchanged(weights, [p for part in (model.encoder, model.projection,
                                                  model.classifier)
                                   for p in part.params()])
