import math
import time
import types

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from noisytail import jsonl, numerics
from noisytail.errors import InvalidInputError, NumericError
from noisytail.numerics import (
    BLAS_TWO_THREADS,
    FORWARD_ROWS,
    Mlp,
    SgdMomentum,
    backward_batch,
    finite_diff_grad,
    forward,
    forward_batch,
    forward_rows,
    gradient_check,
    init_mlp,
    make_rng,
    relative_error,
    sgd_epochs,
    softmax_rows,
)
from noisytail.pipeline import default_config
from noisytail.stage1 import build_stage1_model


def forward_row(net, x):
    """`forward_batch` on the one-row matrix [x]; returns the output row."""
    return forward_batch(net, np.asarray(x, dtype=np.float64)[None, :])[0][0]


def backward_row(net, x, u):
    """`backward_batch` of (output . u) on the one-row matrix [x]."""
    _, cache = forward_batch(net, x[None, :])
    grads, gx = backward_batch(net, cache, u[None, :])
    return grads, gx[0]


class TestSoftmax:
    def test_symmetry(self):
        np.testing.assert_allclose(softmax_rows([[0.0, 0.0]]), [[0.5, 0.5]], atol=1e-15)

    def test_closed_form_ln3(self):
        # e^{ln 3} / (e^{ln 3} + 1) = 3/4
        np.testing.assert_allclose(softmax_rows([[math.log(3), 0.0]]), [[0.75, 0.25]],
                                   atol=1e-12)

    def test_shift_invariance(self):
        rng = make_rng(0)
        for _ in range(50):
            z = rng.normal(size=(1, rng.integers(1, 8)))
            c = rng.normal() * 100
            np.testing.assert_allclose(softmax_rows(z + c), softmax_rows(z), atol=1e-12)

    @given(st.lists(st.floats(min_value=-1e4, max_value=1e4), min_size=1, max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_probability_vector_up_to_1e4(self, logits):
        p = softmax_rows([logits])
        assert np.all(p >= 0)
        assert abs(p.sum() - 1.0) < 1e-12


class TestMlpForward:
    def test_identity_single_layer(self):
        net = Mlp([3, 3], [np.eye(3)], [np.zeros(3)])
        v = np.array([1.5, -2.0, 0.25])
        np.testing.assert_array_equal(forward_row(net, v), v)

    def test_zero_weight_returns_bias(self):
        b = np.array([0.1, -0.7])
        net = Mlp([4, 2], [np.zeros((2, 4))], [b])
        np.testing.assert_array_equal(forward_row(net, np.ones(4)), b)

    def test_matches_direct_matrix_arithmetic(self):
        # oracle: the same affine chain written out by hand
        rng = make_rng(7)
        for _ in range(20):
            net = init_mlp([5, 4, 3], rng)
            x = rng.normal(size=5)
            hidden = np.tanh(net.weights[0] @ x + net.biases[0])
            expected = net.weights[1] @ hidden + net.biases[1]
            np.testing.assert_allclose(forward_row(net, x), expected, atol=1e-12)

    def test_dimension_mismatch(self):
        net = init_mlp([3, 2], make_rng(0))
        with pytest.raises(InvalidInputError):
            forward_row(net, np.ones(4))


class TestMlpBackward:
    def test_zero_upstream_gives_zero_grads(self):
        rng = make_rng(1)
        net = init_mlp([4, 5, 2], rng)
        grads, gx = backward_row(net, rng.normal(size=4), np.zeros(2))
        for g in grads:
            assert np.all(g == 0.0)
        assert np.all(gx == 0.0)

    def test_linear_layer_outer_product(self):
        # y = Wx: dL/dW = upstream (outer) x, dL/dx = W^T upstream
        rng = make_rng(2)
        net = init_mlp([3, 2], rng)
        x = rng.normal(size=3)
        u = rng.normal(size=2)
        grads, gx = backward_row(net, x, u)
        np.testing.assert_allclose(grads[0], np.outer(u, x), atol=1e-12)
        np.testing.assert_allclose(grads[1], u, atol=1e-12)
        np.testing.assert_allclose(gx, net.weights[0].T @ u, atol=1e-12)

    def test_matches_finite_differences(self):
        # layer counts <= 3, dims <= 16, >= 100 random instances
        rng = make_rng(3)
        worst = 0.0
        for _ in range(100):
            n_layers = int(rng.integers(1, 4))
            dims = [int(rng.integers(1, 17)) for _ in range(n_layers + 1)]
            net = init_mlp(dims, rng, activation=str(rng.choice(["tanh", "logistic"])))
            x = rng.normal(size=dims[0])
            u = rng.normal(size=dims[-1])
            grads, gx = backward_row(net, x, u)

            def loss_of_x(xv):
                return float(forward_row(net, xv) @ u)

            numeric_x = finite_diff_grad(loss_of_x, x, eps=1e-5)
            for a, n in zip(gx, numeric_x):
                worst = max(worst, relative_error(a, n))

            for l in range(len(net.weights)):
                flat = net.weights[l].ravel()

                def loss_of_w(wv, l=l, shape=net.weights[l].shape):
                    saved = net.weights[l]
                    net.weights[l] = wv.reshape(shape)
                    out = float(forward_row(net, x) @ u)
                    net.weights[l] = saved
                    return out

                numeric_w = finite_diff_grad(loss_of_w, flat, eps=1e-5)
                for a, n in zip(grads[2 * l].ravel(), numeric_w):
                    worst = max(worst, relative_error(a, n))

                def loss_of_b(bv, l=l):
                    saved = net.biases[l]
                    net.biases[l] = bv
                    out = float(forward_row(net, x) @ u)
                    net.biases[l] = saved
                    return out

                numeric_b = finite_diff_grad(loss_of_b, net.biases[l], eps=1e-5)
                for a, n in zip(grads[2 * l + 1], numeric_b):
                    worst = max(worst, relative_error(a, n))
        assert worst < 1e-4, f"max relative error {worst}"

    @pytest.mark.parametrize("dims", [[3, 2], [3, 5, 4, 2]])
    def test_without_input_grad_same_param_grads(self, dims):
        rng = make_rng(4)
        net = init_mlp(dims, rng)
        _, cache = forward_batch(net, rng.normal(size=(7, 3)))
        upstream = rng.normal(size=(7, 2))
        full, gx = backward_batch(net, cache, upstream)
        grads, none = backward_batch(net, cache, upstream, input_grad=False)
        assert gx.shape == (7, 3) and none is None
        for a, b in zip(full, grads):
            assert a.tobytes() == b.tobytes()

    def test_shape_mismatch(self):
        net = init_mlp([3, 2], make_rng(0))
        _, cache = forward_batch(net, np.ones((1, 3)))
        with pytest.raises(InvalidInputError):
            backward_batch(net, cache, np.ones((1, 3)))


class TestFiniteDiff:
    def test_sum_function(self):
        g = finite_diff_grad(lambda v: float(np.sum(v)), np.array([0.3, -1.2, 4.0]))
        np.testing.assert_allclose(g, np.ones(3), atol=1e-8)

    def test_half_norm_squared(self):
        x = np.array([1.0, 2.0])
        g = finite_diff_grad(lambda v: 0.5 * float(v @ v), x, eps=1e-4)
        np.testing.assert_allclose(g, x, atol=1e-6)

    def test_eps_cross_check_on_loss(self):
        # the oracle itself: two eps values must agree on a smooth loss
        from noisytail.stage1 import banc_loss

        rng = make_rng(11)
        z = rng.normal(size=4)
        y = np.zeros(4)
        y[1] = 1.0

        def f(logits):
            return banc_loss(softmax_rows(logits), y, c=6.0)[0]

        g4 = finite_diff_grad(f, z, eps=1e-4)
        g5 = finite_diff_grad(f, z, eps=1e-5)
        _, analytic = banc_loss(softmax_rows(z), y, c=6.0)
        for a, b in zip(g4, g5):
            assert relative_error(a, b) < 1e-4
        for a, b in zip(analytic, g5):
            assert relative_error(a, b) < 1e-4

    def test_non_finite_raises(self):
        with pytest.raises(NumericError):
            finite_diff_grad(lambda v: float("nan"), np.ones(2))

    def test_bad_eps(self):
        with pytest.raises(InvalidInputError):
            finite_diff_grad(lambda v: 0.0, np.ones(2), eps=0.0)


class TestGradientCheck:
    def test_passes_on_correct_gradient(self):
        x = np.array([0.5, -0.25, 1.0])
        report = gradient_check(lambda v: 0.5 * float(v @ v), x, x)
        assert report.passed
        assert report.max_relative_error < 1e-4

    def test_fails_on_corrupted_gradient(self):
        x = np.array([0.5, -0.25, 1.0])
        bad = x.copy()
        bad[1] += 0.5
        report = gradient_check(lambda v: 0.5 * float(v @ v), x, bad)
        assert not report.passed
        assert report.worst_coordinate == 1


class TestRng:
    def test_equal_seeds_equal_streams(self):
        a = make_rng(123456789)
        b = make_rng(123456789)
        np.testing.assert_array_equal(a.random(1_000_000), b.random(1_000_000))

    def test_different_seeds_differ(self):
        assert not np.array_equal(make_rng(1).random(100), make_rng(2).random(100))


class TestSgdMomentum:
    def test_single_step_hand_computed(self):
        p = np.array([1.0, -2.0])
        opt = SgdMomentum(p, lr=0.1, momentum=0.5, weight_decay=0.01)
        g = np.array([0.3, 0.4])
        # v = 0.5*0 + (g + 0.01*p); p -= 0.1*v
        expected_v = g + 0.01 * np.array([1.0, -2.0])
        expected_p = np.array([1.0, -2.0]) - 0.1 * expected_v
        opt.step(g)
        np.testing.assert_allclose(p, expected_p, atol=1e-15)
        opt.step(np.zeros(2))
        expected_v2 = 0.5 * expected_v + 0.01 * expected_p
        np.testing.assert_allclose(p, expected_p - 0.1 * expected_v2, atol=1e-15)


class TestBatchedForward:
    def test_batch_matches_single(self):
        rng = make_rng(5)
        net = init_mlp([6, 4, 3], rng)
        X = rng.normal(size=(10, 6))
        Y, _ = forward_batch(net, X)
        for i in range(10):
            np.testing.assert_allclose(Y[i], forward_batch(net, X[i:i + 1])[0][0],
                                       atol=1e-12)


# Chains for `forward`: the stage-1 encoder and classifier shapes (255-row
# blocks); narrow heads, K = 2 and K = 5, whose blocks the kernel floor
# sizes (1,201 and 481 rows; chained after an encoder, they size the chunks,
# and the encoder runs 255-row blocks inside them); a wide hidden layer,
# in = 256, whose products the two-thread line sizes (121 rows).
FORWARD_CHAINS = {"": [32, 64, 32, 20], "K2": [32, 64, 32, 2],
                  "K5": [32, 64, 32, 5], "wide": [32, 256, 32, 20]}


def forward_cases():
    """(dims, n) for each chain at 0 and 1 rows, either side of FORWARD_ROWS
    and of each block size B: the chain's as one net, and its encoder's and
    head's alone, which a chained call uses inside its chunks; and past
    three blocks of each.  A short last block of 1 or 17 rows, or a block
    under the kernel floor, would round differently in BLAS."""
    cases = []
    for name, dims in FORWARD_CHAINS.items():
        sizes = [0, 1]
        for part in (dims, dims[:-1], dims[-2:]):
            for b in (FORWARD_ROWS, forward_rows([init_mlp(part, make_rng(0))])):
                sizes += [b - 1, b, b + 1, 3 * b + 17]
        for n in dict.fromkeys(sizes):
            cases.append(pytest.param(dims, n, id="-".join(filter(None, [name, str(n)]))))
    return cases


class TestForward:
    """`forward`, the cache-free inference pass in row blocks, against
    `forward_batch` on the whole matrix."""

    @pytest.mark.parametrize("activation", ["tanh", "logistic"])
    @pytest.mark.parametrize("dims, n", forward_cases())
    def test_same_bytes_as_forward_batch(self, dims, n, activation):
        rng = make_rng(n)
        net = init_mlp(dims, rng, activation)
        X = rng.normal(size=(n, 32)) * 2
        out = forward(net, X)
        expected = forward_batch(net, X)[0]
        assert out.shape == expected.shape == (n, dims[-1])
        assert out.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("shape", [(6,), (3, 7), (FORWARD_ROWS + 1, 7)])
    def test_rejects_input_as_forward_batch_does(self, shape):
        net = init_mlp([6, 4, 3], make_rng(0))
        with pytest.raises(InvalidInputError) as batch_error:
            forward_batch(net, np.ones(shape))
        with pytest.raises(InvalidInputError) as error:
            forward(net, np.ones(shape))
        assert str(error.value) == str(batch_error.value)

    @pytest.mark.parametrize("dims, n", forward_cases())
    def test_chained_same_bytes_as_nested_forward_batch(self, dims, n):
        # an encoder then a one-layer head, as `predict_batch` chains them
        rng = make_rng(n)
        encoder = init_mlp(dims[:-1], rng)
        classifier = init_mlp(dims[-2:], rng)
        X = rng.normal(size=(n, 32)) * 2
        out = forward(encoder, X, classifier)
        expected = forward_batch(classifier, forward_batch(encoder, X)[0])[0]
        assert out.shape == expected.shape == (n, dims[-1])
        assert out.tobytes() == expected.tobytes()

    def test_default_profile_blocks_stay_on_one_blas_thread(self):
        """Every chain the default profile runs through `forward` (stage-1
        predictions, stage-2 features, evaluation, the CE baseline's test
        pass) keeps each block's layer products below the two-thread line."""
        cfg = default_config()
        k, s1 = cfg.longtail.num_classes, cfg.stage1
        model = build_stage1_model(cfg.mixture.feature_dim, k, s1, make_rng(0))
        chains = [(model.encoder, model.classifier), (model.encoder,),
                  (model.encoder, init_mlp([s1.repr_dim, 3 * k], make_rng(0))),
                  (model.encoder, init_mlp([s1.repr_dim, k], make_rng(0)))]
        for chain in chains:
            rows = forward_rows(chain)
            assert rows == 255
            for m in chain:
                for w in m.weights:
                    assert rows * w.size < BLAS_TWO_THREADS

    @pytest.mark.parametrize("k", [2, 5])
    def test_narrow_head_blocks_stay_on_one_blas_thread(self, k, monkeypatch):
        """With a two- or five-class head, the chains of the default
        profile's widths call `forward_batch` only on blocks whose layer
        products stay below the two-thread line: the head sizes the
        chunks, and the encoder splits them."""
        cfg = default_config()
        s1 = cfg.stage1
        model = build_stage1_model(cfg.mixture.feature_dim, k, s1, make_rng(0))
        blocks = []

        def counted(net, X):
            blocks.append(len(X) * max(w.size for w in net.weights))
            return forward_batch(net, X)
        monkeypatch.setattr(numerics, "forward_batch", counted)
        X = make_rng(1).normal(size=(47_913, cfg.mixture.feature_dim))
        for head in (model.classifier, init_mlp([s1.repr_dim, 3 * k], make_rng(0))):
            forward(model.encoder, X, head)
        assert blocks and max(blocks) < BLAS_TWO_THREADS

    def test_chain_width_mismatch_raises_before_any_block(self, monkeypatch):
        rng = make_rng(0)
        nets = [init_mlp([6, 4], rng), init_mlp([4, 5], rng), init_mlp([3, 2], rng)]
        calls = []
        monkeypatch.setattr(numerics, "forward_batch",
                            lambda net, X: calls.append(net) or forward_batch(net, X))
        with pytest.raises(InvalidInputError, match="input dim 3"):
            forward(nets[0], np.ones((2 * FORWARD_ROWS + 1, 6)), *nets[1:])
        assert calls == []


class TestLoader:
    """`sgd_epochs` takes each step's `batch(idx)` from a forked loader."""

    CFG = types.SimpleNamespace(epochs=3, batch_size=4, lr=0.1, momentum=0.9,
                                weight_decay=0.0)
    N = 10  # three steps per epoch, the last of 2 rows

    def _toy(self, rng, fail_at=None):
        """A toy trainer: each batch draws noise from `rng`, as stage 1's
        augmentation does; `step` keeps copies of the arrays it gets."""
        X = np.arange(2.0 * self.N).reshape(self.N, 2)
        calls, seen = [], []

        def batch(idx):
            calls.append(len(idx))
            if len(calls) == fail_at:
                raise ValueError("bad batch")
            rows = X[idx]
            return rows + rng.normal(size=rows.shape), np.concatenate([rows] * 3)

        def step(noisy, rows):
            seen.append((noisy.copy(), rows.copy()))
            time.sleep(0.001)  # a slot handed back too early is refilled meanwhile
            assert np.array_equal(noisy, seen[-1][0]) and np.array_equal(rows, seen[-1][1])
            return {"loss": float(noisy.sum())}

        return batch, step, seen

    def _train(self, rng, batch, step, cfg=CFG):
        return sgd_epochs("toy", np.zeros(3), np.zeros(3), cfg, self.N, rng, batch,
                          ((1, 2), (3, 2)), step)

    def test_batches_and_rng_state_match_serial_draws(self):
        rng = make_rng(3)
        batch, step, seen = self._toy(rng)
        log = self._train(rng, batch, step)
        ref_rng = make_rng(3)
        ref_batch, _, _ = self._toy(ref_rng)
        want = []
        for _ in range(self.CFG.epochs):
            order = ref_rng.permutation(self.N)
            for start in range(0, self.N, self.CFG.batch_size):
                want.append(ref_batch(order[start:start + self.CFG.batch_size]))
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        assert len(seen) == len(want) == 9
        for (got_noisy, got_rows), (noisy, rows) in zip(seen, want):
            assert got_noisy.tobytes() == noisy.tobytes()
            assert got_rows.tobytes() == rows.tobytes()
        assert [row["loss"] for row in log] == [
            sum(float(noisy.sum()) for noisy, _ in want[e * 3:e * 3 + 3]) / 3
            for e in range(3)]
        assert rng.random() == ref_rng.random()  # the parent's stream goes on

    def test_failing_batch_raises_naming_the_stage(self, capfd):
        rng = make_rng(4)
        batch, step, seen = self._toy(rng, fail_at=6)
        with pytest.raises(OSError, match="toy loader exited with status 1"):
            self._train(rng, batch, step)
        assert len(seen) <= 5  # the steps whose batches the child filled
        assert "toy loader failed: ValueError('bad batch')" in capfd.readouterr().err

    def test_divergence_kills_and_reaps_the_loader(self):
        rng = make_rng(5)
        batch, _, _ = self._toy(rng)
        steps = []

        def step(noisy, rows):
            steps.append(1)
            return {"loss": math.inf if len(steps) == 2 else 0.0}

        with pytest.raises(NumericError, match="toy diverged: .* epoch 0, step 1"):
            self._train(rng, batch, step)

    def test_step_exception_kills_and_reaps_the_loader(self):
        rng = make_rng(6)
        batch, _, _ = self._toy(rng)

        def step(noisy, rows):
            raise KeyError("in the step")

        with pytest.raises(KeyError):
            self._train(rng, batch, step)

    def test_no_epochs_forks_nothing(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("forked with no epochs")
        monkeypatch.setattr(jsonl.Forks, "start", refuse)
        rng = make_rng(7)
        state = rng.bit_generator.state
        batch, step, seen = self._toy(rng)
        cfg = types.SimpleNamespace(**{**vars(self.CFG), "epochs": 0})
        assert self._train(rng, batch, step, cfg=cfg) == []
        assert seen == [] and rng.bit_generator.state == state
