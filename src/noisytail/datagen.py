"""Long-tailed dataset construction with controlled label noise.

Builds synthetic Gaussian-mixture feature datasets whose class sizes decay
exponentially from head to tail, corrupts labels symmetrically or along a
directed flip map, and persists everything as JSON Lines.  Externally
computed embeddings can be imported for real-noise data without any image
handling in this package.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import jsonl
from .errors import InvalidInputError, InvalidSpecError, ParseError


@dataclass
class Dataset:
    """Column arrays over N samples: unique integer `ids`, an (N, d)
    feature matrix `X`, `observed` labels and, for simulated data, `true`
    labels (None in real-data mode).  Every label is < num_classes."""

    ids: np.ndarray
    X: np.ndarray
    observed: np.ndarray
    true: Optional[np.ndarray]
    num_classes: int

    def __post_init__(self):
        if self.num_classes < 1:
            raise InvalidSpecError("num_classes must be >= 1")
        self.ids = np.asarray(self.ids, dtype=np.int64)
        self.X = np.asarray(self.X, dtype=np.float64)
        self.observed = np.asarray(self.observed, dtype=np.int64)
        if self.true is not None:
            self.true = np.asarray(self.true, dtype=np.int64)
        n = self.ids.size
        if n == 0:
            raise InvalidInputError("dataset must contain at least one sample")
        labels = [y for y in (self.observed, self.true) if y is not None]
        if self.X.ndim != 2 or len(self.X) != n or \
                any(c.shape != (n,) for c in [self.ids] + labels):
            raise InvalidInputError(
                f"ids, labels and the rows of X {self.X.shape} must number {n}")
        sorted_ids = np.sort(self.ids)
        dup = sorted_ids[1:] == sorted_ids[:-1]
        if dup.any():
            raise InvalidInputError(f"duplicate sample id {sorted_ids[1:][dup][0]}")
        self._reject(~np.isfinite(self.X).all(axis=1), lambda i: "non-finite features")
        for name, y in (("observed_label", self.observed), ("true_label", self.true)):
            if y is not None:
                self._reject((y < 0) | (y >= self.num_classes),
                             lambda i: f"{name} {y[i]} out of range")

    def _reject(self, bad: np.ndarray, message) -> None:
        """InvalidInputError naming the first sample flagged in `bad`."""
        if bad.any():
            i = int(np.argmax(bad))
            raise InvalidInputError(f"sample {self.ids[i]}: {message(i)}")

    def __len__(self) -> int:
        return self.ids.size

    @property
    def feature_dim(self) -> int:
        return self.X.shape[1]


def align_ids(ids: np.ndarray, target: np.ndarray, what: str) -> np.ndarray:
    """The permutation `perm` with ids[perm] == target, for rows keyed by
    `ids` that must correspond 1:1 with the unique ids in `target`."""
    ids = np.asarray(ids, dtype=np.int64)
    if ids.size != target.size:
        raise InvalidInputError(
            f"{what} count {ids.size} != dataset size {target.size}")
    order = np.argsort(ids, kind="stable")
    sorted_ids = ids[order]
    dup = sorted_ids[1:] == sorted_ids[:-1]
    if dup.any():
        raise InvalidInputError(f"duplicate {what} id {sorted_ids[1:][dup][0]}")
    pos = np.minimum(np.searchsorted(sorted_ids, target), ids.size - 1)
    missing = sorted_ids[pos] != target
    if missing.any():
        raise InvalidInputError(f"no {what} for sample id {target[missing][0]}")
    return order[pos]


@dataclass
class LongTailSpec:
    num_classes: int
    head_count: int
    imbalance_ratio: float

    def __post_init__(self):
        if self.num_classes < 2:
            raise InvalidSpecError("num_classes must be >= 2")
        if self.imbalance_ratio < 1:
            raise InvalidSpecError("imbalance_ratio must be >= 1")
        if self.head_count < self.imbalance_ratio:
            raise InvalidSpecError("head_count must be >= imbalance_ratio")


@dataclass
class NoiseSpec:
    kind: str  # "symmetric" | "asymmetric"
    rate: float
    flip_map: Optional[list[tuple[int, int]]] = None

    def __post_init__(self):
        if self.kind not in ("symmetric", "asymmetric"):
            raise InvalidSpecError(f"unknown noise kind {self.kind!r}")
        if not (0.0 <= self.rate < 1.0):
            raise InvalidSpecError("noise rate must be in [0, 1)")
        if self.kind == "asymmetric":
            if not self.flip_map:
                raise InvalidSpecError("asymmetric noise requires a non-empty flip_map")
            self.flip_map = [(int(a), int(b)) for a, b in self.flip_map]
            for src, dst in self.flip_map:
                if src == dst:
                    raise InvalidSpecError(f"flip pair {src}->{dst} maps a class to itself")
            sources = [a for a, _ in self.flip_map]
            if len(sources) != len(set(sources)):
                raise InvalidSpecError("flip_map has duplicate source classes")
        elif self.flip_map is not None:
            raise InvalidSpecError("flip_map applies only to asymmetric noise")


@dataclass
class MixtureSpec:
    """Isotropic Gaussian blobs standing in for image feature extractors."""

    feature_dim: int = 16
    class_center_scale: float = 1.0
    within_class_stddev: float = 0.3

    def __post_init__(self):
        if self.feature_dim < 1:
            raise InvalidSpecError("feature_dim must be >= 1")
        if self.class_center_scale <= 0 or self.within_class_stddev <= 0:
            raise InvalidSpecError("mixture scales must be positive")


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def longtail_counts(spec: LongTailSpec) -> list[int]:
    """Per-class sizes n_k = round(n_1 * IR^(-(k-1)/(K-1))), floored at 1.

    The head count is preserved exactly and the sequence is non-increasing.
    """
    k = spec.num_classes
    return [max(1, _round_half_up(spec.head_count * spec.imbalance_ratio ** (-i / (k - 1))))
            for i in range(k)]


def class_centers(num_classes: int, mix: MixtureSpec,
                  rng: np.random.Generator) -> np.ndarray:
    """K randomly placed class centers, N(0, class_center_scale^2) per coord."""
    return rng.normal(0.0, mix.class_center_scale, size=(num_classes, mix.feature_dim))


def _draw_class_samples(centers: np.ndarray, counts: list[int], mix: MixtureSpec,
                        rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    feats = [centers[k] + rng.normal(0.0, mix.within_class_stddev,
                                     size=(n, mix.feature_dim))
             for k, n in enumerate(counts)]
    return np.concatenate(feats), np.repeat(np.arange(len(counts)), counts)


def _assemble(features: np.ndarray, labels: np.ndarray, num_classes: int,
              rng: np.random.Generator) -> Dataset:
    order = rng.permutation(len(labels))
    shuffled = labels[order]
    return Dataset(np.arange(len(labels)), features[order], shuffled,
                   shuffled.copy(), num_classes)


def synth_dataset(lt: LongTailSpec, mix: MixtureSpec, rng: np.random.Generator,
                  centers: Optional[np.ndarray] = None) -> Dataset:
    """Long-tailed Gaussian-mixture dataset; observed labels start clean."""
    if centers is None:
        centers = class_centers(lt.num_classes, mix, rng)
    counts = longtail_counts(lt)
    features, labels = _draw_class_samples(centers, counts, mix, rng)
    return _assemble(features, labels, lt.num_classes, rng)


def synth_split(lt: LongTailSpec, mix: MixtureSpec, rng: np.random.Generator,
                test_per_class: int) -> tuple[Dataset, Dataset]:
    """Imbalanced training split plus a balanced clean test split drawn from
    the same class centers."""
    if test_per_class < 1:
        raise InvalidSpecError("test_per_class must be >= 1")
    centers = class_centers(lt.num_classes, mix, rng)
    train = synth_dataset(lt, mix, rng, centers=centers)
    feats, labels = _draw_class_samples(centers, [test_per_class] * lt.num_classes,
                                        mix, rng)
    test = _assemble(feats, labels, lt.num_classes, rng)
    return train, test


# ---------------------------------------------------------------------------
# Label corruption
# ---------------------------------------------------------------------------

def inject_symmetric(ds: Dataset, rate: float, rng: np.random.Generator
                     ) -> tuple[Dataset, np.ndarray]:
    """Relabel exactly round(rate*N) samples, chosen uniformly without
    replacement, each to a uniformly random *different* label.

    Returns the corrupted dataset and a per-sample boolean mask of altered
    labels.  True labels are untouched, so the measured corruption rate
    equals the requested one up to rounding of a single sample.
    """
    if not (0.0 <= rate < 1.0):
        raise InvalidSpecError("symmetric noise rate must be in [0, 1)")
    n = len(ds)
    n_noisy = _round_half_up(rate * n)
    mask = np.zeros(n, dtype=bool)
    labels = ds.observed.copy()
    if n_noisy:
        chosen = np.sort(rng.choice(n, size=n_noisy, replace=False))
        # draw from the K-1 labels other than the current ground truth,
        # one offset per chosen sample in dataset order
        base = (ds.true if ds.true is not None else ds.observed)[chosen]
        offsets = rng.integers(1, ds.num_classes, size=n_noisy)
        labels[chosen] = (base + offsets) % ds.num_classes
        mask[chosen] = True
    return dataclasses.replace(ds, observed=labels), mask


def inject_asymmetric(ds: Dataset, rate: float, flip_map: list[tuple[int, int]],
                      rng: np.random.Generator) -> tuple[Dataset, np.ndarray]:
    """Directed label flipping: within each source class of the map, a
    `rate` fraction (rounded) of its samples is relabeled to the mapped
    target.  Classes outside the map are untouched."""
    if not (0.0 <= rate < 1.0):
        raise InvalidSpecError("asymmetric noise rate must be in [0, 1)")
    if not flip_map:
        raise InvalidSpecError("asymmetric noise requires a non-empty flip_map")
    flips = {}
    for src, dst in flip_map:
        if not (0 <= src < ds.num_classes and 0 <= dst < ds.num_classes):
            raise InvalidSpecError(f"flip pair {src}->{dst} references an unknown class")
        if src == dst:
            raise InvalidSpecError(f"flip pair {src}->{dst} maps a class to itself")
        flips[int(src)] = int(dst)

    mask = np.zeros(len(ds), dtype=bool)
    labels = ds.observed.copy()
    for src, dst in flips.items():
        idx = np.flatnonzero(ds.observed == src)
        n_flip = _round_half_up(rate * len(idx))
        if n_flip == 0:
            continue
        chosen = idx[rng.choice(len(idx), size=n_flip, replace=False)]
        labels[chosen] = dst
        mask[chosen] = True
    return dataclasses.replace(ds, observed=labels), mask


def apply_noise(ds: Dataset, noise: NoiseSpec, rng: np.random.Generator
                ) -> tuple[Dataset, np.ndarray]:
    if noise.kind == "symmetric":
        return inject_symmetric(ds, noise.rate, rng)
    return inject_asymmetric(ds, noise.rate, noise.flip_map, rng)


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------

_MISSING = np.iinfo(np.int64).min  # true_label absent from a record


def save_dataset(ds: Dataset, path) -> str:
    """One JSON object per line; floats keep full double precision.
    Returns the file's SHA-256."""
    keys = ("id", "features", "observed_label")
    columns = [ds.ids, ds.X, ds.observed]
    if ds.true is not None:
        keys += ("true_label",)
        columns.append(ds.true)
    return jsonl.write_rows(path, keys, columns)


def load_dataset(path, num_classes: Optional[int] = None) -> Dataset:
    """Parse a JSONL dataset file.

    When `num_classes` is given, labels are bound-checked against it;
    otherwise K is inferred as max(label)+1.  A file in which any record
    lacks true_label loads with `true` None (real-data mode).  Errors name
    the offending line.
    """
    cols, linenos = jsonl.read_columns(
        path, "sample", {"id": int, "observed_label": int, "true_label": int},
        ("features",), optional={"true_label": _MISSING})
    observed, true = cols["observed_label"], cols["true_label"]
    has_true = true != _MISSING
    k = num_classes
    if k is None:
        k = 1 + max(int(observed.max()), int(true.max()), 0)
    else:
        for name, labels, known in (("observed_label", observed, True),
                                    ("true_label", true, has_true)):
            jsonl.check_rows(known & ((labels < 0) | (labels >= k)), linenos,
                             lambda i: f"{name} {labels[i]} out of range [0, {k})")
    return Dataset(cols["id"], cols["features"], observed,
                   true if has_true.all() else None, k)


def save_noise_mask(mask: np.ndarray, ids: np.ndarray, path) -> str:
    """Rows {"id", "noisy"}; returns the file's SHA-256.  No command writes
    this file: the mask is `observed_label != true_label` in the dataset
    file.  Kept only because the benchmark's tracer names it as a target."""
    return jsonl.write_rows(path, ("id", "noisy"),
                            [np.asarray(ids), np.asarray(mask, dtype=bool)])


def import_embeddings(features_path, labels_path,
                      num_classes: Optional[int] = None) -> Dataset:
    """Build a Dataset from externally computed embeddings.

    `features_path` holds one JSON array per line; `labels_path` one integer
    per line.  Row counts must match.  `true` is None (real-data mode).
    """
    features = jsonl.VectorColumn("features", features_path)
    linenos = []
    for lineno, row in jsonl.read_rows(features_path, "feature row"):
        try:
            features.append(row)
        except (TypeError, ValueError) as e:  # InvalidInputError is a ValueError
            raise ParseError(f"bad feature row: {e}", lineno) from e
        linenos.append(lineno)
    labels = []
    with open(labels_path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                labels.append(int(line))
            except ValueError as e:
                raise ParseError(f"bad label {line!r}", lineno) from e
    if features.n != len(labels):
        raise ParseError(
            f"feature rows ({features.n}) and label rows ({len(labels)}) differ", None)
    if not labels:
        raise ParseError("embedding file contains no rows", None)
    X = features.buf[:features.n]
    jsonl.check_rows(~np.isfinite(X).all(axis=1), linenos,
                     "bad feature row: features contains non-finite entries")
    k = num_classes if num_classes is not None else 1 + max(labels)
    return Dataset(np.arange(len(labels)), X, labels, None, k)
