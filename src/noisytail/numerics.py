"""Minimal dense numerics used by every other module.

Vectors are plain 1-D float64 numpy arrays.  The multilayer perceptron
carries hand-coded gradients (no autodiff graph), and `finite_diff_grad`
is the independent oracle every analytic gradient in the package is
tested against.  All arithmetic is 64-bit.  `sgd_epochs` is the one
training loop; its batches come from a forked loader (see there).
"""

from __future__ import annotations

import json
import math
import mmap
import os
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


def softmax_ce(logits: np.ndarray, Y: np.ndarray, shifts: np.ndarray | float = 0.0,
               c: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """Soft cross-entropy of E heads, (m, E, K) logits against (m, K)
    labels Y under a logit shift of shape (E, K) or a scalar, plus c times
    the off-label mass 1 - p_y: each head's mean loss, shape (E,), and the
    gradient of their sum, ((q - Y) + c q (p_y - Y)) / m, q being the
    shifted softmax, built in the array that becomes the gradient.  The row
    max comes from a transposed copy (exact in any order, one vectorised
    pass), the log is floored at 1e-300, and each head's mean is over its
    own contiguous column, so it rounds as a 1-D mean."""
    m, e, k = logits.shape
    Y = Y[:, None]
    q = logits + shifts
    q -= np.ascontiguousarray(q.reshape(m * e, k).T).max(axis=0).reshape(m, e, 1)
    np.exp(q, out=q)
    q /= q.sum(axis=-1, keepdims=True)
    w = np.maximum(q, 1e-300)
    np.log(w, out=w)
    w *= Y
    losses = -w.sum(axis=-1)
    if c:  # the off-label penalty, built in the log's buffer
        np.multiply(q, Y, out=w)
        p_y = w.sum(axis=-1, keepdims=True)
        losses += c * (1.0 - p_y[..., 0])
        np.multiply(q, c, out=w)
        w *= p_y - Y
        q -= Y
        q += w
    else:
        q -= Y
    q /= m
    return np.ascontiguousarray(losses.T).sum(axis=1) / m, q  # as np.mean rounds it


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
    FORWARD_ROWS.  The default profile's chains get 255 rows; a chain
    ending in a K = 2 head 1,201, and its encoder alone 255."""
    shapes = [w.shape for m in nets for w in m.weights]
    rows = max(1, (BLAS_TWO_THREADS - 1) // max(o * i for o, i in shapes))
    rows = max(rows, 2 * (KERNEL_FLOOR // min(o for o, _ in shapes)) + 1)
    return min(rows, FORWARD_ROWS)


def _row_blocks(n: int, most: int) -> list[slice]:
    """n rows as the fewest blocks of at most `most` rows, of equal size to
    one row: past `most` rows, each has at least (most + 1) // 2."""
    blocks = max(1, -(-n // most))
    return [slice(n * i // blocks, n * (i + 1) // blocks) for i in range(blocks)]


def forward(net: Mlp, X: np.ndarray, *then: Mlp) -> np.ndarray:
    """Inference: the outputs of `forward_batch(net, X)`, bit for bit, with
    no cache; with nets in `then`, those outputs go on through each of
    them in order, as nested calls would.  The rows go in chunks of at
    most `forward_rows(nets)`, each chunk through every net before the
    next chunk starts, and each net runs `forward_batch` over a chunk in
    blocks of at most its own `forward_rows([net])`.  Only the last net's
    output is kept, so the activations held at once do not grow with N.
    The widths of the chain are checked before any block runs.

    Small blocks keep every layer product on one BLAS thread, so OpenBLAS
    never wakes the helper thread that would then spin on the core the
    forked writers use, and each block's activations stay in cache.  A
    narrow head sizes the chunks, not the encoder's blocks: after a K = 2
    head raises the chunk to 1,201 rows, the encoder still runs 255 at
    most.  Each output row depends only on its input row, except that a
    product of at most KERNEL_FLOOR outputs rounds differently.  So chunks
    and blocks are of equal size, to one row, never a short remainder:
    past N rows, each has at least half of its own bound, which
    `forward_rows` puts above the floor of every net it covers.  Then
    every row has the bits it has in one product over all N rows, so a
    chained call, nested calls and `forward_batch` agree although their
    block sizes differ.
    """
    X = _net_input(net, X)
    nets = (net, *then)
    for prev, nxt in zip(nets, then):
        if nxt.in_dim != prev.out_dim:
            raise InvalidInputError(f"chained net input dim {nxt.in_dim} does not "
                                    f"match the previous output dim {prev.out_dim}")
    rows = [forward_rows([m]) for m in nets]
    out = np.empty((len(X), nets[-1].out_dim))
    for chunk in _row_blocks(len(X), forward_rows(nets)):
        a = X[chunk]
        for m, most in zip(nets, rows):
            if len(a) <= most:
                a = forward_batch(m, a)[0]
            else:
                a = np.concatenate([forward_batch(m, a[block])[0]
                                    for block in _row_blocks(len(a), most)])
        out[chunk] = a
    return out


def backward_batch(net: Mlp, cache: list[np.ndarray], upstream: np.ndarray,
                   input_grad: bool = True, out: Optional[list[np.ndarray]] = None
                   ) -> tuple[list[np.ndarray], Optional[np.ndarray]]:
    """Gradients of sum_n (output_n . upstream_n) from a forward cache.

    The parameter gradients, summed over the batch, come as one list in
    `net.params()` order (weight then bias per layer): the arrays of `out`,
    written in place, such as a trainer's views of its gradient buffer
    (`flatten_params`), or new ones.  Also returns the gradient with
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
    grads = [np.empty_like(p) for p in net.params()] if out is None else out
    delta = upstream
    for l in range(len(net.weights) - 1, -1, -1):
        np.matmul(delta.T, cache[l], out=grads[2 * l])
        delta.sum(axis=0, out=grads[2 * l + 1])
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
# SGD with momentum + weight decay, over one flat buffer per trainer
# ---------------------------------------------------------------------------

def flatten_params(*nets: Mlp) -> tuple[np.ndarray, np.ndarray, list[list[np.ndarray]]]:
    """Move the parameters of `nets` into one float64 buffer, net after
    net, each in `params()` order, and rebind every weight and bias as a
    view of it, so `params()`, `mlp_state` and the checkpoints read what
    they read before.  Returns that buffer, a zeroed gradient buffer of
    the same layout, and per net the views of the gradient buffer in its
    `params()` order, for `backward_batch(..., out=...)`."""
    params = np.concatenate([p.ravel() for net in nets for p in net.params()])
    grads = np.zeros_like(params)
    views, at = [], 0
    for net in nets:
        views.append([])
        for l in range(len(net.weights)):
            for arrays in (net.weights, net.biases):
                shape, end = arrays[l].shape, at + arrays[l].size
                arrays[l] = params[at:end].reshape(shape)
                views[-1].append(grads[at:end].reshape(shape))
                at = end
    return params, grads, views


@dataclass
class SgdMomentum:
    """In-place SGD over one parameter buffer: v = mu*v + (g + wd*p);
    p -= lr*v.  The update is elementwise, so over a trainer's flat buffer
    it has the bits of the same update run array by array.

    One scratch buffer holds g + wd*p and then lr*v, so a step makes six
    ufunc calls, allocates nothing and never writes into the gradients it
    is given."""

    params: np.ndarray
    lr: float
    momentum: float = 0.9
    weight_decay: float = 0.0
    velocity: Optional[np.ndarray] = None
    _scratch: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.lr <= 0:
            raise InvalidInputError("lr must be positive")
        if self.velocity is None:
            self.velocity = np.zeros_like(self.params)
        self._scratch = np.empty_like(self.params)

    def step(self, grads: np.ndarray) -> None:
        if grads.shape != self.params.shape:
            raise InvalidInputError("gradient buffer does not match parameter buffer")
        p, v, s = self.params, self.velocity, self._scratch
        v *= self.momentum
        np.multiply(p, self.weight_decay, out=s)
        s += grads
        v += s
        np.multiply(v, self.lr, out=s)
        p -= s


RING_SLOTS = 4  # batches the loader may have filled ahead of the step


def _loaded_batches(stage: str, rng: np.random.Generator, epochs: int, n: int,
                    batch_size: int, batch, layout):
    """Every step's batch arrays, in step order, as views of a slot of a
    ring in one anonymous shared `mmap`, filled by a loader child forked
    through `jsonl.Forks` when the first batch is asked for.

    The child takes `rng` over: per epoch it draws the permutation of the
    n samples, and per step runs `batch(idx)` on the step's indices and
    copies the arrays into the step's slot (`layout` gives each array's
    rows per sample and columns), then writes one byte to a pipe.  The
    parent reads a byte before it hands out a slot, and gives the slot
    back, one byte on a second pipe, when the next batch is asked for: the
    step has returned by then, and its forward cache, which holds views of
    the slot, is gone.  At the end the child sends back the rng's
    `bit_generator.state` as JSON and the parent sets it, so `rng` ends as
    if the draws had been made here.  A child that dies ends the byte
    pipe, and `Forks.wait` raises OSError naming the stage's loader; an
    exception here, or closing the generator early, kills and reaps the
    child.  `batch` must make no BLAS call and take no lock (see `Forks`).
    """
    from .jsonl import Forks  # jsonl imports this module

    if not epochs:
        return
    starts = range(0, n, batch_size)
    rows = [min(batch_size, n - start) for start in starts] * epochs
    # each array starts on a 64-byte line, so no two slots share one
    sizes = [-(-rows_per * cols * batch_size * 8 // 64) * 64
             for rows_per, cols in layout]
    slot = sum(sizes)
    ring = mmap.mmap(-1, RING_SLOTS * slot)

    def views(k: int) -> list[np.ndarray]:
        at = k % RING_SLOTS * slot
        out = []
        for (rows_per, cols), size in zip(layout, sizes):
            out.append(np.ndarray((rows_per * rows[k], cols), np.float64, ring, at))
            at += size
        return out

    filled_r, filled_w = os.pipe()
    freed_r, freed_w = os.pipe()

    def load() -> str:
        os.close(filled_r)
        os.close(freed_w)
        free, k = RING_SLOTS, 0
        for _ in range(epochs):
            order = rng.permutation(n)
            for start in starts:
                if not free:
                    free = len(os.read(freed_r, RING_SLOTS))
                    if not free:
                        raise EOFError("the training loop closed the ring")
                for view, array in zip(views(k), batch(order[start:start + batch_size]),
                                       strict=True):
                    view[...] = array
                os.write(filled_w, b"\0")
                free -= 1
                k += 1
        return json.dumps(rng.bit_generator.state)

    forks = Forks()
    try:
        try:
            pid = forks.start(f"{stage} loader", load)
        finally:
            os.close(filled_w)  # the child's ends
            os.close(freed_r)

        def ended(k: int) -> OSError:
            forks.wait(pid)  # raises, naming the loader, if it failed
            return OSError(f"{stage} loader ended before step {k}")

        ready = 0
        for k in range(len(rows)):
            if not ready:
                ready = len(os.read(filled_r, RING_SLOTS))
                if not ready:
                    raise ended(k)
            ready -= 1
            yield views(k)
            if k + RING_SLOTS < len(rows):  # the child still needs the slot
                try:
                    os.write(freed_w, b"\0")
                except BrokenPipeError:
                    raise ended(k + 1) from None
        rng.bit_generator.state = json.loads(forks.wait(pid))
    finally:
        forks.kill()
        os.close(filled_r)
        os.close(freed_w)


def sgd_epochs(stage: str, params: np.ndarray, grads: np.ndarray, cfg, n: int,
               rng: np.random.Generator, batch, layout, step) -> list[dict]:
    """The permute/batch/update loop of every trainer; returns each epoch's
    mean losses.  It trains the buffer `params` in place with an
    `SgdMomentum` built from `cfg.lr`, `cfg.momentum` and
    `cfg.weight_decay`, over `cfg.epochs` epochs of `cfg.batch_size`-row
    batches of the n samples.

    A step has two parts.  `batch(idx)` is the part that does not depend
    on the weights: it draws from `rng` and returns the step's arrays,
    each of `layout`'s (rows per sample, columns) shape.  It runs ahead in
    a forked loader (`_loaded_batches`), which leaves `rng` as serial draws
    would.  `step(*arrays)` writes the gradients into `grads`, the buffer
    of `flatten_params` that `params` came with, and returns the named
    losses.  A non-finite loss raises NumericError naming the stage, epoch
    and step, before the update.  With no epochs nothing is forked."""
    batch_size = cfg.batch_size
    if batch_size > n:
        raise InvalidSpecError(f"batch_size {batch_size} exceeds dataset size {n}")
    opt = SgdMomentum(params, lr=cfg.lr, momentum=cfg.momentum,
                      weight_decay=cfg.weight_decay)
    steps = -(-n // batch_size)
    batches = _loaded_batches(stage, rng, cfg.epochs, n, batch_size, batch, layout)
    log = []
    try:
        for epoch in range(cfg.epochs):
            sums: dict[str, float] = {}
            for i, arrays in zip(range(steps), batches):
                losses = step(*arrays)
                if not all(map(math.isfinite, losses.values())):
                    raise NumericError(
                        f"{stage} diverged: non-finite loss at epoch {epoch}, step {i}")
                opt.step(grads)
                for name, value in losses.items():
                    sums[name] = sums.get(name, 0.0) + value
            log.append({"epoch": epoch, **{k: v / steps for k, v in sums.items()}})
        next(batches, None)  # hands the last slot back and takes the rng's state
    finally:
        batches.close()
    return log
