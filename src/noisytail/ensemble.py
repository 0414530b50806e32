"""Stage-2 training: three expert heads over a frozen backbone, held in
training, inference and the checkpoint alike as one (3K x repr) layer.

Each expert optimizes a soft cross-entropy whose logits are shifted by an
increasing power of the (soft) class counts: no shift for the head expert,
+ln(n) for the balanced expert, +2 ln(n) for the tail expert, through
`numerics.softmax_ce`, the kernel of stage 1's BANC loss too.  The shifts
act only during training; prediction fuses the experts' raw-probability
outputs.  Evaluation breaks accuracy down into many/medium/few-shot class
subgroups by training-set class size.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, asdict
from typing import Optional

import numpy as np

from . import jsonl
from .datagen import MAX_EPOCHS, Dataset
from .errors import InvalidInputError, InvalidSpecError
from .numerics import (
    Mlp,
    backward_batch,
    flatten_params,
    forward,
    forward_batch,
    init_mlp,
    make_rng,
    sgd_epochs,
    softmax_ce,
    softmax_rows,
)
from .refurbish import ClassStats
from .stage1 import Stage1Model

COUNT_FLOOR = 1e-3  # applied to soft counts before ln(n)


def soft_class_counts(soft_labels: np.ndarray) -> ClassStats:
    """Class sizes n_k = sum_i y_i[k] over the rows of an (N, K) soft-label
    matrix; one-hot rows give hard counts."""
    Y = np.asarray(soft_labels, dtype=np.float64)
    if Y.ndim != 2 or Y.shape[0] == 0:
        raise InvalidInputError(
            f"soft labels must be a non-empty (N, K) matrix, got shape {Y.shape}")
    return ClassStats(Y.sum(axis=0))


@dataclass
class Stage2Config:
    """Expert-head training settings (reference regimen: batch 512)."""

    epochs: int = 200
    batch_size: int = 512
    lr: float = 0.02
    momentum: float = 0.9
    weight_decay: float = 5e-4
    seed: int = 0
    fusion: str = "prob_mean"  # or "logit_mean", for ablation

    def __post_init__(self):
        for name, bad, want in (
                ("epochs", self.epochs < 0, ">= 0"),
                ("epochs", self.epochs > MAX_EPOCHS, f"<= {MAX_EPOCHS}"),
                ("batch_size", self.batch_size < 1, ">= 1"),
                ("lr", self.lr <= 0, "positive"),
                ("momentum", not 0.0 <= self.momentum < 1.0, "in [0, 1)"),
                ("weight_decay", self.weight_decay < 0, ">= 0"),
                ("fusion", self.fusion not in ("prob_mean", "logit_mean"),
                 "'prob_mean' or 'logit_mean'")):
            if bad:
                raise InvalidSpecError(f"{name} must be {want}, got {getattr(self, name)!r}")


@dataclass
class SubgroupThresholds:
    """Shot-subgroup boundaries on absolute training-set class counts:
    many-shot strictly above `many_min`, few-shot strictly below `few_max`."""

    many_min: int = 100
    few_max: int = 20

    def __post_init__(self):
        if self.few_max > self.many_min:
            raise InvalidSpecError("few_max must be <= many_min")


@dataclass
class EnsembleModel:
    """Frozen backbone and a (3K x repr) linear head: rows [eK, (e+1)K) are expert e."""

    backbone: Mlp
    head: Mlp

    def __post_init__(self):
        if len(self.head.layer_dims) != 2 or self.head.out_dim % 3:
            raise InvalidInputError("the head must be one linear layer of 3K outputs, "
                                    f"got layer dims {self.head.layer_dims}")
        if self.head.in_dim != self.backbone.out_dim:
            raise InvalidInputError("head input dim must match backbone output")


def check_classes(model: EnsembleModel, num_classes: int) -> None:
    """InvalidInputError naming the head unless it has 3 x num_classes outputs."""
    if model.head.out_dim != 3 * num_classes:
        raise InvalidInputError(f"head has {model.head.out_dim} outputs, not "
                                f"3 x {num_classes} for {num_classes} classes")


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------

def expert_shifts(counts: ClassStats) -> np.ndarray:
    """The (3, K) shift table: 0 for E1 (plain soft CE), ln n_k for E2
    (balanced-softmax style) and 2 ln n_k for E3 (tail-focused), with the
    counts floored at COUNT_FLOOR so ln n stays finite."""
    return np.log(np.maximum(counts.counts, COUNT_FLOOR)) * [[0.0], [1.0], [2.0]]


def train_stage2(ds: Dataset, soft_labels: np.ndarray,
                 stage1_model: Stage1Model, cfg: Stage2Config
                 ) -> tuple[EnsembleModel, list[dict]]:
    """Train the three experts jointly over the frozen stage-1 encoder.

    `soft_labels` is the (N, K) soft-label matrix in dataset order.  Soft
    class counts are computed once before training (floored at
    COUNT_FLOOR so ln(n) stays finite).  One (3K x repr) head holds the
    experts; each expert's rows get only its own loss gradient.  The
    backbone is copied from the stage-1 model and never updated.  A
    non-finite loss raises NumericError naming the epoch and step.
    """
    n = len(ds)
    k = ds.num_classes
    Y = np.asarray(soft_labels, dtype=np.float64)
    if Y.shape != (n, k):
        raise InvalidInputError(f"soft labels {Y.shape} != (dataset size, K) = ({n}, {k})")
    rng = make_rng(cfg.seed)
    backbone = stage1_model.encoder.copy()
    model = EnsembleModel(backbone, init_mlp([backbone.out_dim, 3 * k], rng))
    params, grads, (g_head,) = flatten_params(model.head)

    shifts = expert_shifts(soft_class_counts(Y))

    # frozen backbone: features can be precomputed once
    V = forward(backbone, ds.X)

    def batch(idx):
        return V[idx], Y[idx]

    def step(V_rows, Y_rows):
        logits, cache = forward_batch(model.head, V_rows)
        losses, g_logits = softmax_ce(logits.reshape(len(V_rows), 3, k), Y_rows, shifts)
        backward_batch(model.head, cache, g_logits.reshape(logits.shape),
                       input_grad=False, out=g_head)
        return dict(zip(("e1", "e2", "e3"), losses.tolist()))

    layout = ((1, backbone.out_dim), (1, k))
    return model, sgd_epochs("stage 2", params, grads, cfg, n, rng, batch, layout, step)


# ---------------------------------------------------------------------------
# Inference and evaluation
# ---------------------------------------------------------------------------

def _expert_logits(model: EnsembleModel, X: np.ndarray) -> np.ndarray:
    """(m, 3, K) raw logits of every expert."""
    logits = forward(model.backbone, X, model.head)
    return logits.reshape(len(logits), 3, -1)


def ensemble_predict_batch(model: EnsembleModel, X: np.ndarray, fusion: str = "prob_mean"
                           ) -> tuple[np.ndarray, np.ndarray]:
    """Fused class probabilities for a feature matrix, and the (m, 3, K)
    expert logits.  Raw logits only: the count shifts are training-time
    reweightings."""
    logits = _expert_logits(model, X)
    if fusion == "logit_mean":
        return softmax_rows(logits.mean(axis=1)), logits
    if fusion != "prob_mean":
        raise InvalidSpecError(f"unknown fusion rule {fusion!r}")
    return softmax_rows(logits).mean(axis=1), logits


SUBGROUPS = ("many", "medium", "few")


def subgroup_of(count: float, thresholds: SubgroupThresholds) -> str:
    if count > thresholds.many_min:
        return "many"
    if count < thresholds.few_max:
        return "few"
    return "medium"


@dataclass
class EvalReport:
    overall_accuracy: float
    subgroup_accuracy: dict          # ensemble accuracy per subgroup (None if empty)
    expert_overall: list[float]
    expert_subgroup: list[dict]
    subgroup_classes: dict           # subgroup -> sorted class indices
    subgroup_counts: dict            # subgroup -> test sample count
    confusion: np.ndarray            # ensemble counts[true, predicted]
    thresholds: SubgroupThresholds
    fusion: str

    def to_json_dict(self) -> dict:
        return {**asdict(self), "confusion": self.confusion.tolist()}


def class_subgroups(counts: np.ndarray, thresholds: SubgroupThresholds) -> np.ndarray:
    """The shot subgroup name of each class, from its training-set size."""
    return np.array([subgroup_of(float(c), thresholds) for c in counts])


def masked_mean(values: np.ndarray, mask: np.ndarray) -> Optional[float]:
    """Mean of `values` where `mask` holds; None when it holds nowhere."""
    return float(values[mask].mean()) if mask.any() else None


def evaluate(model: EnsembleModel, test_ds: Dataset, train_counts: ClassStats,
             thresholds: SubgroupThresholds,
             fusion: str = "prob_mean") -> EvalReport:
    """Accuracy report over a clean test split.

    Subgroup membership (many/medium/few) is decided by *training-set*
    class sizes, not test counts.  Per-expert accuracies use each expert's
    raw logits alone.
    """
    k = test_ds.num_classes
    if train_counts.num_classes != k:
        raise InvalidInputError("training counts do not match test num_classes")
    check_classes(model, k)
    labels = test_ds.observed
    present = np.unique(labels)
    absent = [int(c) for c in present if train_counts.counts[c] == 0]
    if absent:
        raise InvalidInputError(f"classes {absent} absent from training counts")

    class_group = class_subgroups(train_counts.counts, thresholds)
    masks = {g: class_group[labels] == g for g in SUBGROUPS}
    probs, logits = ensemble_predict_batch(model, test_ds.X, fusion)
    fused_pred = np.argmax(probs, axis=1)
    # rows: ensemble, e1, e2, e3
    correct = (np.vstack([fused_pred, logits.argmax(axis=2).T]) == labels).astype(float)
    by_group = [{g: masked_mean(c, m) for g, m in masks.items()} for c in correct]
    return EvalReport(
        overall_accuracy=float(correct[0].mean()),
        subgroup_accuracy=by_group[0],
        expert_overall=correct[1:].mean(axis=1).tolist(),
        expert_subgroup=by_group[1:],
        subgroup_classes={g: np.flatnonzero(class_group == g).tolist()
                          for g in SUBGROUPS},
        subgroup_counts={g: int(m.sum()) for g, m in masks.items()},
        confusion=np.bincount(labels * k + fused_pred, minlength=k * k).reshape(k, k),
        thresholds=thresholds,
        fusion=fusion,
    )


def report_csv(report: EvalReport) -> str:
    """Four-row accuracy table: model, many, medium, few, all."""
    rows = list(zip(("expert1", "expert2", "expert3"), report.expert_subgroup,
                    report.expert_overall))
    rows.append(("ensemble", report.subgroup_accuracy, report.overall_accuracy))
    lines = ["model,many,medium,few,all"]
    for name, sub, acc in rows:
        values = [sub[g] for g in SUBGROUPS] + [acc]
        lines.append(",".join([name] + ["" if v is None else f"{v:.4f}" for v in values]))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------

def backbone_hash(net: Mlp) -> str:
    payload = json.dumps(jsonl.mlp_state(net), sort_keys=True, allow_nan=False).encode()
    return hashlib.sha256(payload).hexdigest()


def save_stage2_checkpoint(model: EnsembleModel, cfg: Stage2Config,
                           stage1_checkpoint_name: str, path) -> str:
    """The (3K x repr) head goes to disk as the one linear layer it is:
    expert e is rows [eK, (e+1)K) of `head`'s weights and biases.  Returns
    the file's SHA-256."""
    return jsonl.write_json(path, {
        "kind": "stage2",
        "config": asdict(cfg),
        "backbone_hash": backbone_hash(model.backbone),
        "stage1_checkpoint": stage1_checkpoint_name,
        "head": jsonl.mlp_state(model.head),
    })


def load_stage2_checkpoint(path, backbone: Mlp, num_classes: int
                           ) -> tuple[EnsembleModel, Stage2Config]:
    """Rebuild the ensemble of a `num_classes`-class run from its checkpoint
    plus the referenced backbone.

    `EnsembleModel` checks the stored head's shape, and its outputs must
    be 3 x num_classes.  The stored hash must match the supplied
    backbone's weights.
    """
    with jsonl.read_checkpoint(path, "stage2") as state:
        stored_hash = state["backbone_hash"]
        model = EnsembleModel(backbone.copy(), jsonl.mlp_from_state(state["head"]))
        check_classes(model, num_classes)
        cfg = jsonl.build(Stage2Config, state["config"], "config.")
    if backbone_hash(backbone) != stored_hash:
        raise InvalidInputError(
            "backbone weights do not match the checkpoint's backbone_hash; "
            f"expected the encoder from {state.get('stage1_checkpoint')!r}")
    return model, cfg
