"""Stage-1 training: contrastive representation learning plus a
pre-screening classifier.

A single shared encoder serves both branches of the contrastive pair, in
one forward of the stacked query, key and raw rows; the query branch is
evaluated under stop-gradient (values only, no parameter updates flow
through it) while the key branch receives the contrastive gradients.  A
FIFO feature queue supplies extra negatives.  The classifier head is
trained on detached encoder features with BANC, a noise-tolerant
cross-entropy (`numerics.softmax_ce`), so labels never influence the
representation.  `banc_loss` and `contrastive_loss` are the per-sample
reference formulas the batched kernels are tested against.  Nothing
trains with `sce_loss`: it is kept only as the gradient reference that
acceptance criterion 1 checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict, field
from typing import Optional

import numpy as np

from . import jsonl
from .datagen import MAX_EPOCHS, MAX_ROWS, MAX_WIDTH, Dataset
from .errors import InvalidInputError, InvalidSpecError
from .numerics import (
    _ACTIVATIONS,
    Mlp,
    as_vec,
    backward_batch,
    flatten_params,
    forward,
    forward_batch,
    init_mlp,
    l2_normalize,
    l2_norms,
    make_rng,
    sgd_epochs,
    softmax_ce,
)

SCE_LOG_ZERO = -4.0  # conventional clamp for log(0) in the symmetric term


@dataclass
class Stage1Config:
    """Hyperparameters for stage 1.

    Defaults follow the reference regimen (lr 0.02, momentum 0.9, weight
    decay 5e-4, batch 128, 200 epochs, tau 0.2, alpha 0.2, c 6); desk-scale
    runs override epochs/batch via the pipeline profile.
    """

    tau: float = 0.2
    alpha: float = 0.2
    c: float = 6.0
    queue_capacity: int = 1024
    embed_dim: int = 32
    repr_dim: int = 32
    encoder_hidden: int = 64
    proj_hidden: int = 64
    epochs: int = 200
    batch_size: int = 128
    lr: float = 0.02
    momentum: float = 0.9
    weight_decay: float = 5e-4
    aug_noise_stddev: float = 0.1
    aug_dropout_prob: float = 0.1
    seed: int = 0
    include_positive: bool = False  # InfoNCE-style denominator, for ablation
    activation: str = "tanh"
    init_scale: float = 1.0

    def __post_init__(self):
        width = f"in [1, {MAX_WIDTH}]"
        for name, bad, want in (
                ("tau", self.tau <= 0, "positive"),
                ("alpha", not 0.0 <= self.alpha <= 1.0, "in [0, 1]"),
                ("c", self.c < 0, ">= 0"),
                ("queue_capacity", not 1 <= self.queue_capacity <= MAX_ROWS,
                 f"in [1, {MAX_ROWS}]"),
                ("embed_dim", not 1 <= self.embed_dim <= MAX_WIDTH, width),
                ("repr_dim", not 1 <= self.repr_dim <= MAX_WIDTH, width),
                ("encoder_hidden", not 1 <= self.encoder_hidden <= MAX_WIDTH, width),
                ("proj_hidden", not 1 <= self.proj_hidden <= MAX_WIDTH, width),
                ("batch_size", self.batch_size < 1, ">= 1"),
                ("epochs", self.epochs < 0, ">= 0"),
                ("epochs", self.epochs > MAX_EPOCHS, f"<= {MAX_EPOCHS}"),
                ("lr", self.lr <= 0, "positive"),
                ("momentum", not 0.0 <= self.momentum < 1.0, "in [0, 1)"),
                ("weight_decay", self.weight_decay < 0, ">= 0"),
                ("aug_noise_stddev", self.aug_noise_stddev < 0, ">= 0"),
                ("aug_dropout_prob", not 0.0 <= self.aug_dropout_prob <= 1.0, "in [0, 1]"),
                ("init_scale", self.init_scale <= 0, "positive"),
                ("activation", self.activation not in _ACTIVATIONS,
                 f"one of {sorted(_ACTIVATIONS)}")):
            if bad:
                raise InvalidSpecError(f"{name} must be {want}, got {getattr(self, name)!r}")


@dataclass
class Predictions:
    """Classifier outputs for N samples, built from the (N, K) `logits`
    alone: `predicted`, the row argmax (lowest index on ties), is computed
    once, at construction, after the logits are checked to be a finite
    matrix of at least one column.  No (N, K) probability matrix is kept:
    a reader takes `softmax_rows(logits)` when it needs one."""

    logits: np.ndarray
    predicted: np.ndarray = field(init=False)

    def __post_init__(self):
        self.logits = np.asarray(self.logits, dtype=np.float64)
        if (self.logits.ndim != 2 or self.logits.shape[1] == 0
                or not np.all(np.isfinite(self.logits))):
            raise InvalidInputError("logits must be a finite (N, K) matrix with "
                                    f"K >= 1, got shape {self.logits.shape}")
        self.predicted = np.argmax(self.logits, axis=1)

    def __len__(self) -> int:
        return len(self.logits)


@dataclass
class Stage1Model:
    encoder: Mlp
    projection: Mlp
    classifier: Mlp

    def __post_init__(self):
        if self.classifier.in_dim != self.encoder.out_dim:
            raise InvalidInputError("classifier input dim must match encoder output dim")
        if self.projection.in_dim != self.encoder.out_dim:
            raise InvalidInputError("projection input dim must match encoder output dim")


class FeatureQueue:
    """FIFO queue of unit-norm embeddings used as extra negatives.

    Storage is one (n, d) float64 array of the newest n <= capacity rows,
    oldest first, the order the contrastive kernel sees them in; d is fixed
    by the first push.  Each push appends its rows and drops the oldest
    past capacity.
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise InvalidSpecError("queue capacity must be >= 1")
        self.capacity = capacity
        self._rows: Optional[np.ndarray] = None

    def __len__(self) -> int:
        return 0 if self._rows is None else len(self._rows)

    def push_batch(self, Z: np.ndarray) -> None:
        """Enqueue the rows of Z, L2-normalised, evicting the oldest."""
        Z = np.asarray(Z, dtype=np.float64)
        if Z.ndim != 2:
            raise InvalidInputError(f"embedding batch must be 2-D, got shape {Z.shape}")
        if not np.isfinite(Z).all():
            raise InvalidInputError("embedding contains non-finite entries")
        if self._rows is None:
            self._rows = np.empty((0, Z.shape[1]))
        elif Z.shape[1] != self._rows.shape[1]:
            raise InvalidInputError(
                f"embedding dim {Z.shape[1]} != queue dim {self._rows.shape[1]}")
        rows = l2_normalize(Z[-self.capacity:])  # only the newest can survive
        self._rows = np.concatenate((self._rows, rows))[-self.capacity:]

    def as_matrix(self) -> Optional[np.ndarray]:
        """Oldest-to-newest copy of the queued rows, or None when empty."""
        return self._rows.copy() if len(self) else None


# ---------------------------------------------------------------------------
# Augmentation (feature-space stand-in for image augmentations)
# ---------------------------------------------------------------------------

def augment(features: np.ndarray, cfg: Stage1Config,
            rng: np.random.Generator) -> np.ndarray:
    """Additive Gaussian noise followed by independent coordinate zeroing."""
    x = np.asarray(features, dtype=np.float64)
    out = x + rng.normal(0.0, cfg.aug_noise_stddev, size=x.shape)
    keep = rng.random(x.shape) >= cfg.aug_dropout_prob
    return out * keep


def augmented_rows(X: np.ndarray, cfg: Stage1Config,
                   rng: np.random.Generator) -> np.ndarray:
    """The (3b, d) rows of one step's encoder forward for the b rows of X:
    the query view, the key view (each an `augment` draw, in that order)
    and X itself."""
    return np.concatenate((augment(X, cfg, rng), augment(X, cfg, rng), X))


# ---------------------------------------------------------------------------
# Losses
# ---------------------------------------------------------------------------

def _check_prob_vector(p: np.ndarray, name: str = "probs") -> np.ndarray:
    p = as_vec(p, name)
    if np.any(p < 0) or abs(p.sum() - 1.0) > 1e-6:
        raise InvalidInputError(f"{name} is not a probability vector")
    return p


def _check_onehot(y: np.ndarray, k: int) -> np.ndarray:
    y = as_vec(y, "onehot")
    if y.size != k:
        raise InvalidInputError(f"onehot length {y.size} != {k}")
    if not np.all((y == 0.0) | (y == 1.0)) or y.sum() != 1.0:
        raise InvalidInputError("onehot must have exactly one entry equal to 1")
    return y


def contrastive_loss(zq: np.ndarray, zk: np.ndarray, negatives,
                     tau: float, include_positive: bool = False
                     ) -> tuple[float, np.ndarray, np.ndarray]:
    """Queue-based contrastive loss for one anchor.

    loss = -(zq.zk)/tau + logsumexp_j((zq.z_j)/tau) over the negative set
    (optionally also the positive).  zq is treated as a constant
    (stop-gradient); returns (loss, grad wrt zk, grads wrt negatives).
    Because the positive is excluded from the denominator by default, the
    loss is not bounded below by zero.
    """
    if tau <= 0:
        raise InvalidSpecError("tau must be positive")
    zq = as_vec(zq, "zq")
    zk = as_vec(zk, "zk")
    negs = np.asarray(negatives, dtype=np.float64)
    if negs.ndim == 1:
        negs = negs[None, :]
    if negs.size == 0:
        raise InvalidInputError("contrastive loss requires at least one negative")
    if negs.shape[1] != zq.size or zk.size != zq.size:
        raise InvalidInputError("embedding dimensions do not match")

    s_pos = float(zq @ zk) / tau
    s_neg = (negs @ zq) / tau
    den = np.concatenate(([s_pos], s_neg)) if include_positive else s_neg
    m = den.max()
    e = np.exp(den - m)
    lse = m + np.log(e.sum())
    loss = -s_pos + lse

    p = e / e.sum()
    if include_positive:
        grad_zk = (-1.0 + p[0]) * zq / tau
        p_neg = p[1:]
    else:
        grad_zk = -zq / tau
        p_neg = p
    grad_negs = p_neg[:, None] * zq[None, :] / tau
    return float(loss), grad_zk, grad_negs


def sce_loss(probs: np.ndarray, onehot: np.ndarray,
             log_zero: float = SCE_LOG_ZERO) -> tuple[float, np.ndarray]:
    """Symmetric cross-entropy with log(0) clamped to `log_zero`.

    Returns the loss and its gradient with respect to the underlying
    logits (probs being their softmax image).
    """
    p = _check_prob_vector(probs)
    y = _check_onehot(onehot, p.size)
    log_y = np.where(y > 0, 0.0, log_zero)
    with np.errstate(divide="ignore"):
        ce = -float(np.log(p @ y))  # only the labeled entry enters the sum
    reverse = -float(np.sum(log_y * p))
    grad = (p - y) - p * (log_y - float(log_y @ p))
    return ce + reverse, grad


def banc_loss(probs: np.ndarray, onehot: np.ndarray,
              c: float) -> tuple[float, np.ndarray]:
    """Noise-tolerant balanced cross-entropy: cross-entropy plus a linear
    penalty c on the probability mass assigned off-label.

    loss = -sum_k y_k log p_k + c * sum_k (1-y_k) p_k.  With c=0 this is
    exactly cross-entropy.  Returns (loss, gradient wrt logits).
    """
    if c < 0:
        raise InvalidSpecError("c must be >= 0")
    p = _check_prob_vector(probs)
    y = _check_onehot(onehot, p.size)
    p_y = float(p @ y)
    with np.errstate(divide="ignore"):
        ce = -math.log(p_y) if p_y > 0 else math.inf
    loss = ce + c * (1.0 - p_y)
    grad = (p - y) + c * p * (p_y - y)
    return loss, grad


# ---------------------------------------------------------------------------
# Batched internals
# ---------------------------------------------------------------------------

def _banc_batch(logits: np.ndarray, Y: np.ndarray, c: float
                ) -> tuple[float, np.ndarray]:
    """BANC's batch mean and (b, K) logit gradient by `softmax_ce`; kept as a
    call site only, the name the benchmark's tracer times as banc_s."""
    losses, grad = softmax_ce(logits[:, None], Y, 0.0, c)
    return float(losses[0]), grad[:, 0]


def _contrastive_batch(Zq: np.ndarray, Zk: np.ndarray,
                       queue_mat: Optional[np.ndarray], tau: float,
                       include_positive: bool) -> tuple[float, np.ndarray]:
    """Mean contrastive loss over a batch of anchor/key pairs.

    Negatives for anchor i are the other in-batch keys plus the queue
    snapshot.  Returns the mean loss and the gradient of that mean with
    respect to the key embeddings (queue entries are constants, and the
    query side is a constant by stop-gradient).
    """
    b = Zq.shape[0]
    n_queue = 0 if queue_mat is None else queue_mat.shape[0]
    if (b - 1) + n_queue < 1:
        raise InvalidInputError("contrastive loss requires at least one negative")
    # One (b, b + Q) buffer holds the similarities, then the softmax
    # numerators.  Each product writes its own columns: a single product
    # over [Zk; queue], or one by a contiguous copy of a transpose, rounds
    # differently at some batch sizes.
    den = np.empty((b, b + n_queue))
    np.matmul(Zq, Zk.T, out=den[:, :b])
    if n_queue:
        np.matmul(Zq, queue_mat.T, out=den[:, b:])
    den /= tau
    pos = den.diagonal().copy()
    if not include_positive:
        np.fill_diagonal(den, -np.inf)

    m = den.max(axis=1, keepdims=True)
    den -= m
    np.exp(den, out=den)
    z = den.sum(axis=1)
    lse = m[:, 0] + np.log(z)
    losses = -pos + lse

    Pb = den[:, :b]  # probabilities on the in-batch keys only
    Pb /= z[:, None]
    G_Zk = Pb.T @ Zq
    G_Zk /= tau
    G_Zk -= Zq / tau  # the positive term: dloss_i/dzk_i has -zq_i/tau
    G_Zk /= b
    return float(losses.sum()) / b, G_Zk  # the mean, rounded as np.mean rounds it


def _normalize_backward(norms: np.ndarray, unit: np.ndarray,
                        grad_unit: np.ndarray) -> np.ndarray:
    """Backprop through row-wise L2 normalization unit = raw / norms, given
    the (b, 1) norms the forward divided by (`l2_norms(raw)`)."""
    g = grad_unit * unit
    inner = g.sum(axis=1, keepdims=True)
    np.multiply(inner, unit, out=g)
    np.subtract(grad_unit, g, out=g)
    g /= norms
    return g


def stage1_batch_gradients(model: Stage1Model, XS: np.ndarray, Y: np.ndarray,
                           queue_mat: Optional[np.ndarray], cfg: Stage1Config,
                           out: Optional[tuple[list, list, list]] = None):
    """One training step's gradients, without applying them, for the
    stacked rows XS of `augmented_rows` and the one-hot labels Y.

    Returns (gradients, metrics dict, detached unit-norm keys).  The
    gradients are one list in the optimizer's order: encoder, projection,
    classifier, each in its `params()` order; with `out`, the three nets'
    gradient views of `flatten_params`, they are written there.

    The query, key and raw rows share one encoder forward, and the query
    and key rows one projection forward.  The query rows are used for
    their values only (stop-gradient): backprop reads only the key rows'
    slices of those caches.
    """
    b = len(XS) // 3
    g_enc, g_proj, g_clf = out or (None, None, None)

    # row layout of the stacked forwards: query rows, key rows, raw rows
    v, enc_cache = forward_batch(model.encoder, XS)
    z_raw, proj_cache = forward_batch(model.projection, v[:2 * b])

    # one normalization of the query and key rows
    norms = l2_norms(z_raw)
    unit = z_raw / norms
    Zq, Zk = unit[:b], unit[b:]

    # key branch: receives the contrastive gradient
    con_loss, g_Zk = _contrastive_batch(Zq, Zk, queue_mat, cfg.tau,
                                        cfg.include_positive)
    g_Zk *= 1.0 - cfg.alpha
    g_zk_raw = _normalize_backward(norms[b:], Zk, g_Zk)
    proj_grads, g_vk = backward_batch(
        model.projection, [c[b:] for c in proj_cache], g_zk_raw, out=g_proj)
    enc_grads, _ = backward_batch(
        model.encoder, [c[b:2 * b] for c in enc_cache], g_vk, input_grad=False,
        out=g_enc)

    # classifier on detached features of the raw inputs
    logits, clf_cache = forward_batch(model.classifier, v[2 * b:])
    banc_mean, g_logits = _banc_batch(logits, Y, cfg.c)
    g_logits *= cfg.alpha
    clf_grads, _ = backward_batch(model.classifier, clf_cache, g_logits,
                                  input_grad=False, out=g_clf)

    metrics = {
        "con": con_loss,
        "banc": banc_mean,
        "total": (1.0 - cfg.alpha) * con_loss + cfg.alpha * banc_mean,
    }
    return enc_grads + proj_grads + clf_grads, metrics, Zk


# ---------------------------------------------------------------------------
# Training and inference
# ---------------------------------------------------------------------------

def build_stage1_model(feature_dim: int, num_classes: int, cfg: Stage1Config,
                       rng: np.random.Generator) -> Stage1Model:
    encoder = init_mlp([feature_dim, cfg.encoder_hidden, cfg.repr_dim], rng,
                       cfg.activation, cfg.init_scale)
    projection = init_mlp([cfg.repr_dim, cfg.proj_hidden, cfg.embed_dim], rng,
                          cfg.activation, cfg.init_scale)
    classifier = init_mlp([cfg.repr_dim, num_classes], rng, cfg.activation,
                          cfg.init_scale)
    return Stage1Model(encoder, projection, classifier)


def predict_batch(model: Stage1Model, X: np.ndarray) -> np.ndarray:
    return forward(model.encoder, X, model.classifier)


def predict_all(model: Stage1Model, ds: Dataset) -> Predictions:
    return Predictions(predict_batch(model, ds.X))


def train_stage1(ds: Dataset, cfg: Stage1Config) -> tuple[Stage1Model, list[dict]]:
    """Joint contrastive + classifier training over the noisy dataset.

    Per batch: two augmented views are formed (`augmented_rows`, drawn
    ahead by the loader of `sgd_epochs`); the query side is evaluated
    under stop-gradient; key embeddings receive the contrastive gradient
    and are enqueued when the next step starts, so every step reads the
    queue as the previous update left it.  The classifier head sees
    detached features only.  The three nets train in one flat buffer
    (`flatten_params`).  Returns the model and a per-epoch loss log;
    `predict_all` gives the model's predictions.
    """
    n = len(ds)
    if n < 2:
        raise InvalidSpecError("training requires at least 2 samples")
    rng = make_rng(cfg.seed)
    model = build_stage1_model(ds.feature_dim, ds.num_classes, cfg, rng)
    params, grads, views = flatten_params(model.encoder, model.projection,
                                          model.classifier)
    X, observed = ds.X, ds.observed
    onehot = np.eye(ds.num_classes)  # row k is class k's label
    queue = FeatureQueue(cfg.queue_capacity)
    keys = None  # the previous step's key embeddings

    def batch(idx):
        return (augmented_rows(X.take(idx, axis=0), cfg, rng),
                onehot.take(observed.take(idx), axis=0))

    def step(XS, Y):
        nonlocal keys
        if keys is not None:
            queue.push_batch(keys)
        _, metrics, keys = stage1_batch_gradients(model, XS, Y, queue.as_matrix(),
                                                  cfg, views)
        return metrics

    layout = ((3, ds.feature_dim), (1, ds.num_classes))
    return model, sgd_epochs("stage 1", params, grads, cfg, n, rng, batch, layout, step)


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------

def save_stage1_checkpoint(model: Stage1Model, cfg: Stage1Config, path) -> str:
    return jsonl.write_json(path, {
        "kind": "stage1",
        "config": asdict(cfg),
        "encoder": jsonl.mlp_state(model.encoder),
        "projection": jsonl.mlp_state(model.projection),
        "classifier": jsonl.mlp_state(model.classifier),
    })


def load_stage1_checkpoint(path) -> tuple[Stage1Model, Stage1Config]:
    with jsonl.read_checkpoint(path, "stage1") as state:
        model = Stage1Model(
            encoder=jsonl.mlp_from_state(state["encoder"]),
            projection=jsonl.mlp_from_state(state["projection"]),
            classifier=jsonl.mlp_from_state(state["classifier"]),
        )
        return model, jsonl.build(Stage1Config, state["config"], "config.")


def save_predictions(ids: np.ndarray, preds: Predictions, path) -> str:
    """One `{"id", "logits"}` row per sample; the rest derives from the logits.
    No command writes this file (`refurbish` recomputes the predictions from
    the checkpoint); kept only because the benchmark's tracer names it."""
    return jsonl.write_rows(path, ("id", "logits"), [np.asarray(ids), preds.logits])


def load_predictions(path) -> tuple[np.ndarray, Predictions]:
    """Sample ids and predictions in file order.  Only `id` and `logits`
    are read: the `probs` and `predicted_class` of older files are
    ignored, so no file can contradict its own logits.  No command reads
    this file; kept only because the benchmark's tracer names it."""
    cols, _ = jsonl.read_columns(path, "prediction", {"id": "int"}, ("logits",))
    return cols["id"], Predictions(cols["logits"])
