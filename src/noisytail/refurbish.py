"""Soft-label refurbishment bridging the two training stages.

When the pre-screening prediction disagrees with the observed label, the
label is not discarded or overwritten: the predicted probability vector is
blended with the observed one-hot label, weighted by prediction confidence
times class rarity, and renormalized.  Agreement keeps the observed label
exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import jsonl
from .datagen import Dataset
from .errors import InvalidInputError, InvalidSpecError
from .numerics import as_vec, softmax_rows
from .stage1 import Predictions


@dataclass
class ClassStats:
    """Per-class sample counts: hard (a bincount of labels) or soft (the
    summed mass of soft labels).  The counts are checked once, nonnegative
    with a positive total; `proportions` and `num_classes` derive from them."""

    counts: np.ndarray

    def __post_init__(self):
        self.counts = as_vec(self.counts, "counts")
        if np.any(self.counts < 0) or not self.counts.sum() > 0:
            raise InvalidInputError("counts must be nonnegative with a positive total")

    @property
    def proportions(self) -> np.ndarray:
        return self.counts / self.counts.sum()

    @property
    def num_classes(self) -> int:
        return self.counts.size


@dataclass
class RefurbishConfig:
    sigma: float = 0.2

    def __post_init__(self):
        _check_sigma(self.sigma)


def _check_sigma(sigma: float) -> None:
    """Refuse a sigma that is not positive and finite, or whose square,
    rarity's denominator, underflows to 0 (sigma below about 1.6e-162)."""
    if not (math.isfinite(sigma) and sigma > 0 and sigma * sigma > 0):
        raise InvalidSpecError(
            f"sigma must be positive and finite, with a nonzero square, got {sigma!r}")


@dataclass
class RefurbishRecord:
    id: int
    rho: float       # predicted probability of the observed label
    gamma: float     # rarity of the observed class
    weight: float    # rho * gamma
    soft: np.ndarray  # the refurbished label
    changed: bool    # prediction disagreed with the observed label


@dataclass
class RefurbishRecords:
    """RefurbishRecord fields as columns over N samples; `soft` is the
    (N, K) soft-label matrix."""

    ids: np.ndarray
    rho: np.ndarray
    gamma: np.ndarray
    weight: np.ndarray
    soft: np.ndarray
    changed: np.ndarray

    def __len__(self) -> int:
        return len(self.ids)

    def __iter__(self):
        columns = (self.ids.tolist(), self.rho.tolist(), self.gamma.tolist(),
                   self.weight.tolist(), self.soft, self.changed.tolist())
        return (RefurbishRecord(*row) for row in zip(*columns))


def class_proportions(ds: Dataset) -> ClassStats:
    """Hard occurrence counts of observed labels and their proportions."""
    return ClassStats(np.bincount(ds.observed, minlength=ds.num_classes).astype(float))


def rarity(h: float, sigma: float) -> float:
    """Zero-mean bell curve over the class proportion: exp(-h^2/sigma^2).

    Near 1 for vanishing proportions, decaying fast past h ~ sigma.
    """
    if not (0.0 <= h <= 1.0):
        raise InvalidInputError(f"proportion h={h} outside [0, 1]")
    _check_sigma(sigma)
    return math.exp(-(h * h) / (sigma * sigma))


def refurbish_batch(ids, preds: Predictions, observed: np.ndarray,
                    stats: ClassStats, cfg: RefurbishConfig) -> RefurbishRecords:
    """Refurbish N labels at once from N predictions.

    Agreement (predicted class == observed) keeps the exact one-hot label.
    Otherwise the new label is (p + w * onehot) / (1 + w), with p the
    softmax of the logits and w = rho * gamma: the prediction's confidence
    in the observed label times the observed class's rarity.  The soft
    labels are built in place in p, the only (N, K) array made here.
    """
    soft = softmax_rows(preds.logits)
    n, k = soft.shape
    if np.any((observed < 0) | (observed >= k)):
        raise InvalidInputError(f"observed label out of range [0, {k})")
    if stats.num_classes != k:
        raise InvalidInputError("class stats length does not match the predictions")

    rows = np.arange(n)
    rho = soft[rows, observed]  # a copy, taken before the labels overwrite it
    # one scalar rarity per class, so gamma carries rarity()'s exact bits
    gamma = np.array([rarity(float(h), cfg.sigma) for h in stats.proportions])[observed]
    weight = rho * gamma
    changed = preds.predicted != observed
    soft[rows, observed] += weight
    soft /= soft.sum(axis=1, keepdims=True)
    soft[~changed] = 0.0
    soft[rows[~changed], observed[~changed]] = 1.0
    return RefurbishRecords(np.asarray(ids), rho, gamma, weight, soft, changed)


def refurbish_dataset(ds: Dataset, preds: Predictions, cfg: RefurbishConfig
                      ) -> tuple[np.ndarray, RefurbishRecords]:
    """Refurbish the whole corpus; one record per sample, none dropped.

    `preds` must align positionally with the dataset, as those of
    `stage1.predict_all` on it do.  Returns the (N, K) soft-label matrix
    and the records.
    """
    if len(preds) != len(ds):
        raise InvalidInputError(
            f"prediction count {len(preds)} != dataset size {len(ds)}")
    records = refurbish_batch(ds.ids, preds, ds.observed, class_proportions(ds), cfg)
    return records.soft, records


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------

def save_records(records: RefurbishRecords, path) -> str:
    """One row per sample.  No command writes this file (`stage2` recomputes
    the records); kept only because the benchmark's tracer names it."""
    return jsonl.write_rows(path, ("id", "soft_label", "changed", "rho", "gamma", "weight"),
                            [records.ids, records.soft, records.changed, records.rho,
                             records.gamma, records.weight])


def load_records(path) -> RefurbishRecords:
    """Records in file order; every soft label must be a probability vector.
    No command reads this file; kept only because the benchmark's tracer
    names it."""
    cols, linenos = jsonl.read_columns(
        path, "refurbishment",
        {"id": "int", "rho": "float", "gamma": "float", "weight": "float",
         "changed": "bool"},
        ("soft_label",))
    S = cols["soft_label"]
    jsonl.check_rows(np.any(S < 0, axis=1) | (np.abs(S.sum(axis=1) - 1.0) > 1e-9),
                     linenos, "soft label must be a probability vector")
    return RefurbishRecords(cols["id"], cols["rho"], cols["gamma"], cols["weight"],
                            S, cols["changed"])
