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

# The largest size a config field may ask for.  Each size becomes an array
# dimension or a loop count, so a larger one would exhaust memory or never
# finish; a config that asks for more exits 2 naming the field.  Each
# bound holds for its field alone; MAX_VALUES bounds one product of several.
MAX_CLASSES = 10_000  # longtail.num_classes
MAX_ROWS = 100_000  # longtail.head_count, test_per_class, stage1.queue_capacity
MAX_WIDTH = 10_000  # mixture.feature_dim and the stage-1 layer widths
MAX_EPOCHS = 100_000  # stage1.epochs and stage2.epochs
MAX_VALUES = 10**8  # entries of the simulated train and test feature matrices


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


@dataclass
class LongTailSpec:
    num_classes: int
    head_count: int
    imbalance_ratio: float

    def __post_init__(self):
        if not 2 <= self.num_classes <= MAX_CLASSES:
            raise InvalidSpecError(f"num_classes must be in [2, {MAX_CLASSES}], "
                                   f"got {self.num_classes}")
        if self.head_count > MAX_ROWS:
            raise InvalidSpecError(f"head_count must be <= {MAX_ROWS}, got {self.head_count}")
        if self.imbalance_ratio < 1:
            raise InvalidSpecError("imbalance_ratio must be >= 1")
        if self.head_count < self.imbalance_ratio:
            raise InvalidSpecError("head_count must be >= imbalance_ratio")


@dataclass
class NoiseSpec:
    """The one rule for a noise model.  An asymmetric flip map is a
    non-empty list of [source, target] pairs, kept as lists of ints (the
    form the config file writes), with no self-map and no repeated source;
    `check_classes` checks its classes against K."""

    kind: str  # "symmetric" | "asymmetric"
    rate: float
    flip_map: Optional[list[list[int]]] = None

    def __post_init__(self):
        if self.kind not in ("symmetric", "asymmetric"):
            raise InvalidSpecError(
                f"kind must be 'symmetric' or 'asymmetric', got {self.kind!r}")
        if not (0.0 <= self.rate < 1.0):
            raise InvalidSpecError(f"rate must be in [0, 1), got {self.rate!r}")
        if self.kind == "asymmetric":
            if not self.flip_map:
                raise InvalidSpecError("flip_map must be non-empty for asymmetric noise")
            self.flip_map = [[int(a), int(b)] for a, b in self.flip_map]
            for src, dst in self.flip_map:
                if src == dst:
                    raise InvalidSpecError(f"flip_map pair {src}->{dst} maps a class to itself")
            sources = [a for a, _ in self.flip_map]
            if len(sources) != len(set(sources)):
                raise InvalidSpecError("flip_map has duplicate source classes")
        elif self.flip_map is not None:
            raise InvalidSpecError("flip_map applies only to asymmetric noise")

    def check_classes(self, k: int) -> None:
        """Refuse a flip pair that names a class outside [0, k)."""
        for src, dst in self.flip_map or ():
            if not (0 <= src < k and 0 <= dst < k):
                raise InvalidSpecError(
                    f"flip_map pair {src}->{dst} names a class outside [0, {k})")


@dataclass
class MixtureSpec:
    """Isotropic Gaussian blobs standing in for image feature extractors."""

    feature_dim: int = 16
    class_center_scale: float = 1.0
    within_class_stddev: float = 0.3

    def __post_init__(self):
        if not 1 <= self.feature_dim <= MAX_WIDTH:
            raise InvalidSpecError(f"feature_dim must be in [1, {MAX_WIDTH}], "
                                   f"got {self.feature_dim}")
        for name in ("class_center_scale", "within_class_stddev"):
            if getattr(self, name) <= 0:
                raise InvalidSpecError(f"{name} must be positive, got {getattr(self, name)!r}")


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
    equals the requested one up to rounding of a single sample.  The rate
    passes `NoiseSpec`'s rule.
    """
    NoiseSpec("symmetric", rate)
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


def inject_asymmetric(ds: Dataset, rate: float, flip_map: list[list[int]],
                      rng: np.random.Generator) -> tuple[Dataset, np.ndarray]:
    """Directed label flipping: within each source class of the map, in map
    order, a `rate` fraction (rounded) of its samples is relabeled to the
    mapped target.  Classes outside the map are untouched.  The rate and
    the map pass `NoiseSpec`'s rule, its classes checked against the
    dataset's."""
    noise = NoiseSpec("asymmetric", rate, flip_map)
    noise.check_classes(ds.num_classes)
    mask = np.zeros(len(ds), dtype=bool)
    labels = ds.observed.copy()
    for src, dst in noise.flip_map:
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
        path, "sample", {"id": "int", "observed_label": "int", "true_label": "int"},
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

    `features_path` holds one JSON array per line; `labels_path` one JSON
    integer that fits an int64 per line.  Row counts must match.  `true`
    is None (real-data mode).
    """
    features = jsonl.VectorColumn("features", features_path)
    linenos = []
    for lineno, row in jsonl.read_rows(features_path, "feature row"):
        try:
            features.append(row)
        except (TypeError, ValueError, OverflowError) as e:  # InvalidInputError is a ValueError
            raise ParseError(f"bad feature row: {e}", lineno) from e
        linenos.append(lineno)
    labels = []
    for lineno, label in jsonl.read_rows(labels_path, "label"):
        if not jsonl.is_int64(label):
            raise ParseError(f"bad label: must be an integer, got {label!r}", lineno)
        labels.append(label)
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
