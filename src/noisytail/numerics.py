"""Minimal dense numerics used by every other module.

Vectors are plain 1-D float64 numpy arrays.  The multilayer perceptron
carries hand-coded gradients (no autodiff graph), and `finite_diff_grad`
is the independent oracle every analytic gradient in the package is
tested against.  All arithmetic is 64-bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import InvalidInputError, InvalidSpecError, NumericError

Vec = np.ndarray

REL_ERR_FLOOR = 1e-8
# `forward`'s row blocks (see there).  Measured with OpenBLAS 0.3.31:
# - a product of m*n*k >= BLAS_TWO_THREADS multiply-adds runs on two
#   threads, and the helper thread then keeps spinning after it returns;
# - a product of at most KERNEL_FLOOR output entries (m*n) goes to another
#   kernel, which rounds differently from the same rows in a larger product.
FORWARD_ROWS = 4096  # the most rows per block; bounds the activations held
BLAS_TWO_THREADS = 524_288
KERNEL_FLOOR = 1_200


def as_vec(values, name: str = "vector") -> Vec:
    """Coerce to a finite 1-D float64 array, validating shape and entries."""
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != 1:
        raise InvalidInputError(f"{name} must be 1-D, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise InvalidInputError(f"{name} contains non-finite entries")
    return v


def make_rng(seed: int) -> np.random.Generator:
    """Seeded counter-based generator; equal seeds yield identical streams."""
    return np.random.default_rng(int(seed) & 0xFFFFFFFFFFFFFFFF)


def softmax_rows(logits: np.ndarray) -> np.ndarray:
    """Max-shifted softmax over the last axis of a batch of logits."""
    z = np.asarray(logits, dtype=np.float64)
    e = z - z.max(axis=-1, keepdims=True)  # the one new array; exp and divide in place
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    return e


def l2_norms(v: np.ndarray, axis: int = -1) -> np.ndarray:
    """The L2 norms `l2_normalize` divides by, floored at 1e-12, with the
    reduced axis kept.  The same operations as `np.linalg.norm`, without
    its `conj` copy."""
    n = np.sqrt(np.add.reduce(v * v, axis, keepdims=True))
    return np.maximum(n, 1e-12, out=n)


def l2_normalize(v: np.ndarray, axis: int = -1) -> np.ndarray:
    """Scale to unit L2 norm (rows of a matrix when axis=-1 on 2-D input)."""
    return v / l2_norms(v, axis)


def relative_error(a: float, b: float) -> float:
    """|a-b| / max(1e-8, |a|, |b|); the floor guards tiny denominators."""
    return abs(a - b) / max(REL_ERR_FLOOR, abs(a), abs(b))


# ---------------------------------------------------------------------------
# Multilayer perceptron with manual backprop
# ---------------------------------------------------------------------------

def _tanh_derivative(a: np.ndarray) -> np.ndarray:
    d = a * a
    return np.subtract(1.0, d, out=d)


def _logistic_derivative(a: np.ndarray) -> np.ndarray:
    d = 1.0 - a
    d *= a
    return d


_ACTIVATIONS = {
    # value (free to overwrite its argument) and derivative expressed
    # through the post-activation a (one new array, never a itself)
    "tanh": (lambda z: np.tanh(z, out=z), _tanh_derivative),
    "logistic": (lambda z: 1.0 / (1.0 + np.exp(-z)), _logistic_derivative),
}


@dataclass
class Mlp:
    """Fully connected net: affine + smooth activation per hidden layer,
    final layer affine.  weights[l] has shape (dims[l+1], dims[l])."""

    layer_dims: list[int]
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    activation: str = "tanh"

    def __post_init__(self):
        dims = list(self.layer_dims)
        if len(dims) < 2 or any(d <= 0 for d in dims):
            raise InvalidInputError(f"bad layer dims {dims}")
        if self.activation not in _ACTIVATIONS:
            raise InvalidInputError(f"unknown activation {self.activation!r}")
        if len(self.weights) != len(dims) - 1 or len(self.biases) != len(dims) - 1:
            raise InvalidInputError("parameter count does not match layer dims")
        for l, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.shape != (dims[l + 1], dims[l]) or b.shape != (dims[l + 1],):
                raise InvalidInputError(
                    f"layer {l}: weight shape {w.shape} / bias shape {b.shape} "
                    f"inconsistent with dims {dims}"
                )
            if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
                raise InvalidInputError(f"layer {l}: non-finite parameters")

    @property
    def in_dim(self) -> int:
        return self.layer_dims[0]

    @property
    def out_dim(self) -> int:
        return self.layer_dims[-1]

    def params(self) -> list[np.ndarray]:
        """All parameter arrays in a fixed order (weights then bias per layer)."""
        return [p for layer in zip(self.weights, self.biases) for p in layer]

    def copy(self) -> "Mlp":
        return Mlp(list(self.layer_dims), [w.copy() for w in self.weights],
                   [b.copy() for b in self.biases], self.activation)


def init_mlp(layer_dims: list[int], rng: np.random.Generator,
             activation: str = "tanh", weight_scale: float = 1.0) -> Mlp:
    """Random init: N(0, (weight_scale/sqrt(fan_in))^2) weights, zero biases.

    weight_scale < 1 keeps first-layer preactivations out of the saturated
    region when inputs have above-unit variance.
    """
    weights, biases = [], []
    for fan_in, fan_out in zip(layer_dims[:-1], layer_dims[1:]):
        weights.append(rng.normal(0.0, weight_scale / math.sqrt(fan_in),
                                  size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    return Mlp(list(layer_dims), weights, biases, activation)


def _net_input(net: Mlp, X: np.ndarray) -> np.ndarray:
    """X as an (N, in_dim) float64 matrix, or InvalidInputError."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != net.in_dim:
        raise InvalidInputError(
            f"input shape {X.shape} incompatible with first layer dim {net.in_dim}"
        )
    return X


def forward_batch(net: Mlp, X: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """Batched forward pass for training.  Returns (outputs, cache of
    per-layer inputs).

    X is (N, in_dim); the cache stores each layer's input matrix plus, for
    hidden layers, the post-activation needed by the derivative.
    """
    X = _net_input(net, X)
    act, _ = _ACTIVATIONS[net.activation]
    cache = [X]
    a = X
    last = len(net.weights) - 1
    for l, (w, b) in enumerate(zip(net.weights, net.biases)):
        # bias and tanh in place: one (N, width) array per layer, not three
        z = a @ w.T
        z += b
        a = z if l == last else act(z)
        cache.append(a)
    return a, cache


def forward_rows(nets) -> int:
    """The most rows per block of `forward` through the chain `nets`:
    the largest B whose every layer product, B x in x out, stays below
    BLAS_TWO_THREADS, raised until a block of (B + 1) // 2 rows has more
    than KERNEL_FLOOR outputs in the narrowest layer, capped at
    FORWARD_ROWS.  The default profile's nets get 255 rows; a K = 2 head
    gets 1,201, and its widest products run on two threads, as they must
    to keep their bits."""
    shapes = [w.shape for m in nets for w in m.weights]
    rows = max(1, (BLAS_TWO_THREADS - 1) // max(o * i for o, i in shapes))
    rows = max(rows, 2 * (KERNEL_FLOOR // min(o for o, _ in shapes)) + 1)
    return min(rows, FORWARD_ROWS)


def forward(net: Mlp, X: np.ndarray, *then: Mlp) -> np.ndarray:
    """Inference: the outputs of `forward_batch(net, X)`, bit for bit, with
    no cache; with nets in `then`, those outputs go on through each of
    them in order, as nested calls would.  The rows go through
    `forward_batch` in blocks of at most `forward_rows(nets)`, each block
    through every net before the next block starts, and only the last
    net's output is kept, so the activations held at once do not grow
    with N.  The widths of the chain are checked before any block runs.

    Small blocks keep every layer product on one BLAS thread, so OpenBLAS
    never wakes the helper thread that would then spin on the core the
    forked writers use, and each block's activations stay in cache.  Each
    output row depends only on its input row, except that a product of at
    most KERNEL_FLOOR outputs rounds differently.  So the blocks are of
    equal size, to one row, never a short remainder: past B rows, each
    block has at least (B + 1) // 2, which `forward_rows` puts above the
    floor in every layer.  Then every row has the bits it has in one
    product over all N rows, so a chained call, nested calls and
    `forward_batch` agree although their block sizes differ.
    """
    X = _net_input(net, X)
    nets = (net, *then)
    for prev, nxt in zip(nets, then):
        if nxt.in_dim != prev.out_dim:
            raise InvalidInputError(f"chained net input dim {nxt.in_dim} does not "
                                    f"match the previous output dim {prev.out_dim}")
    n = len(X)
    blocks = max(1, -(-n // forward_rows(nets)))
    out = np.empty((n, nets[-1].out_dim))
    for i in range(blocks):
        rows = slice(n * i // blocks, n * (i + 1) // blocks)
        a = X[rows]
        for m in nets:
            a = forward_batch(m, a)[0]
        out[rows] = a
    return out


def backward_batch(net: Mlp, cache: list[np.ndarray], upstream: np.ndarray,
                   input_grad: bool = True
                   ) -> tuple[list[np.ndarray], Optional[np.ndarray]]:
    """Gradients of sum_n (output_n . upstream_n) from a forward cache.

    The parameter gradients, summed over the batch, come as one list in
    `net.params()` order (weight then bias per layer), so a trainer hands
    them to the optimizer as they are.  Also returns the gradient with
    respect to the input matrix, or None with `input_grad=False`, which
    skips its matrix product.  Neither the cache nor `upstream` is written:
    each layer's delta is a new array, scaled by the activation derivative
    in place.
    """
    upstream = np.asarray(upstream, dtype=np.float64)
    if upstream.shape != (cache[0].shape[0], net.out_dim):
        raise InvalidInputError(
            f"upstream shape {upstream.shape} incompatible with output dim {net.out_dim}"
        )
    _, dact = _ACTIVATIONS[net.activation]
    grads = [np.empty(0)] * (2 * len(net.weights))
    delta = upstream
    for l in range(len(net.weights) - 1, -1, -1):
        grads[2 * l] = delta.T @ cache[l]
        grads[2 * l + 1] = delta.sum(axis=0)
        if l > 0:
            delta = delta @ net.weights[l]
            delta *= dact(cache[l])
    return grads, delta @ net.weights[0] if input_grad else None


# ---------------------------------------------------------------------------
# Finite-difference oracle and gradient checking
# ---------------------------------------------------------------------------

def finite_diff_grad(f, x: Vec, eps: float = 1e-5) -> Vec:
    """Central-difference gradient estimate of a scalar function."""
    if eps <= 0:
        raise InvalidInputError("eps must be positive")
    x = as_vec(x, "x")
    g = np.empty_like(x)
    for i in range(x.size):
        xp = x.copy()
        xm = x.copy()
        xp[i] += eps
        xm[i] -= eps
        fp, fm = float(f(xp)), float(f(xm))
        if not (math.isfinite(fp) and math.isfinite(fm)):
            raise NumericError(f"non-finite function value near coordinate {i}")
        g[i] = (fp - fm) / (2.0 * eps)
    return g


@dataclass
class GradCheckReport:
    max_relative_error: float
    worst_coordinate: int
    passed: bool


def gradient_check(f, x: Vec, analytic_grad: Vec, eps: float = 1e-5,
                   tol: float = 1e-4) -> GradCheckReport:
    """Compare an analytic gradient against finite differences coordinate-wise."""
    numeric = finite_diff_grad(f, x, eps)
    analytic = as_vec(analytic_grad, "analytic_grad")
    if analytic.size != numeric.size:
        raise InvalidInputError("gradient length mismatch")
    errs = [relative_error(a, n) for a, n in zip(analytic, numeric)]
    worst = int(np.argmax(errs)) if errs else 0
    worst_err = errs[worst] if errs else 0.0
    return GradCheckReport(worst_err, worst, worst_err < tol)


# ---------------------------------------------------------------------------
# SGD with momentum + weight decay
# ---------------------------------------------------------------------------

@dataclass
class SgdMomentum:
    """In-place SGD over a fixed parameter list: v = mu*v + (g + wd*p); p -= lr*v.

    Each parameter has one scratch array of its shape, which holds
    g + wd*p and then lr*v, so a step allocates nothing and never writes
    into the gradients it is given."""

    params: list[np.ndarray]
    lr: float
    momentum: float = 0.9
    weight_decay: float = 0.0
    velocity: list[np.ndarray] = field(default_factory=list)
    _scratch: list[np.ndarray] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.lr <= 0:
            raise InvalidInputError("lr must be positive")
        if not self.velocity:
            self.velocity = [np.zeros_like(p) for p in self.params]
        self._scratch = [np.empty_like(p) for p in self.params]

    def step(self, grads: list[np.ndarray]) -> None:
        if len(grads) != len(self.params):
            raise InvalidInputError("gradient list does not match parameter list")
        lr, mu, wd = self.lr, self.momentum, self.weight_decay
        for p, v, g, s in zip(self.params, self.velocity, grads, self._scratch):
            v *= mu
            np.multiply(p, wd, out=s)
            s += g
            v += s
            np.multiply(v, lr, out=s)
            p -= s


def sgd_epochs(stage: str, params: list[np.ndarray], cfg, n: int,
               rng: np.random.Generator, step) -> list[dict]:
    """The permute/batch/update loop of every trainer; returns each epoch's
    mean losses.  It trains `params` in place with an `SgdMomentum` built
    from `cfg.lr`, `cfg.momentum` and `cfg.weight_decay`, over `cfg.epochs`
    epochs of `cfg.batch_size`-row batches of the n samples.  `step(idx)`
    gives a batch's gradients, a list in `params` order, and its named
    losses.  A non-finite loss raises NumericError naming the stage, epoch
    and step, before the update."""
    batch_size = cfg.batch_size
    if batch_size > n:
        raise InvalidSpecError(f"batch_size {batch_size} exceeds dataset size {n}")
    opt = SgdMomentum(params, lr=cfg.lr, momentum=cfg.momentum,
                      weight_decay=cfg.weight_decay)
    log = []
    for epoch in range(cfg.epochs):
        order = rng.permutation(n)
        starts = range(0, n, batch_size)
        sums: dict[str, float] = {}
        for i, start in enumerate(starts):
            grads, losses = step(order[start:start + batch_size])
            if not all(map(math.isfinite, losses.values())):
                raise NumericError(
                    f"{stage} diverged: non-finite loss at epoch {epoch}, step {i}")
            opt.step(grads)
            for name, value in losses.items():
                sums[name] = sums.get(name, 0.0) + value
        log.append({"epoch": epoch, **{k: v / len(starts) for k, v in sums.items()}})
    return log
