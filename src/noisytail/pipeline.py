"""End-to-end orchestration: configuration, seeding, manifests, and the
simulate -> stage1 -> stage2 -> evaluate chain, which the CLI and
`run_in_memory` both run through the four stage runners.  Stage 2's first
step refurbishes the labels (`run_refurbish`), except in the no-relabel
ablation.

Every command is reproducible from (config, seed) alone; per-stage seeds
are derived by hashing the global seed with the stage name, and each
command writes a JSON manifest recording the config hash, the seed, the
SHA-256 and write time of each of its artifacts, and the process's peak
memory when the stage finished.  Every artifact is saved, by the saver of
the module that owns its format, in a forked writer of its own.

No file holds stage 1's predictions or the soft labels: the stage-1
checkpoint and `train.jsonl` determine both, and `stage2` recomputes them,
under its own config's `refurbish.sigma`.
"""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import json
import math
import resource
import time
from dataclasses import dataclass, field, asdict
from pathlib import Path
from typing import Optional, get_type_hints

import numpy as np

from . import datagen, ensemble, jsonl, refurbish, stage1
from .datagen import Dataset, LongTailSpec, MixtureSpec, NoiseSpec
from .ensemble import Stage2Config, SubgroupThresholds
from .errors import InvalidInputError, InvalidSpecError
from .numerics import (
    backward_batch,
    flatten_params,
    forward,
    forward_batch,
    init_mlp,
    make_rng,
    sgd_epochs,
    softmax_ce,
)
from .refurbish import ClassStats, RefurbishConfig
from .stage1 import Stage1Config

# artifact names within a workspace directory
TRAIN_FILE = "train.jsonl"
TEST_FILE = "test.jsonl"
STAGE1_CKPT = "stage1_checkpoint.json"
STAGE1_LOG = "stage1_log.json"
STAGE2_CKPT = "stage2_checkpoint.json"
STAGE2_LOG = "stage2_log.json"
EVAL_JSON = "eval_report.json"
EVAL_CSV = "eval_report.csv"
PREDICTIONS = "stage1 predictions"  # a memo key only: no file holds them


def _variant_name(name: str, no_relabel: bool) -> str:
    if not no_relabel:
        return name
    stem, dot, ext = name.partition(".")
    return f"{stem}_norelabel{dot}{ext}"


@dataclass
class PipelineConfig:
    """Everything needed to reproduce one experiment."""

    longtail: LongTailSpec
    mixture: MixtureSpec
    noise: NoiseSpec
    stage1: Stage1Config
    refurbish: RefurbishConfig
    stage2: Stage2Config
    thresholds: SubgroupThresholds
    test_per_class: int = 50
    out_dir: Optional[str] = None
    seed: int = 0

    def __post_init__(self):
        if not 1 <= self.test_per_class <= datagen.MAX_ROWS:
            raise InvalidSpecError(f"test_per_class must be in [1, {datagen.MAX_ROWS}], "
                                   f"got {self.test_per_class}")


def default_config(seed: int = 0) -> PipelineConfig:
    """Desk-scale profile: K=20, d=16, n_1=600, IR=10, symmetric noise 0.4,
    50 epochs per stage, batches 64/256, queue 128.  A deliberate
    reduction of the reference regimen (200 epochs, batches 128/512) so a
    full run takes seconds; the manifest records the profile used.

    Subgroup thresholds are set for this profile's class sizes (600 down
    to 60): many-shot above 300 training samples, few-shot below 120.

    The queue is kept at two batches' worth of negatives: softmax mass on
    queue entries transmits no gradient (they are constants), so a queue
    much larger than the batch starves the repulsive term and the
    embedding collapses at this scale.  Stage 2 uses a larger flat step
    than the reference regimen's annealed 0.02 to reach head convergence
    within 50 epochs.
    """
    return PipelineConfig(
        longtail=LongTailSpec(num_classes=20, head_count=600, imbalance_ratio=10.0),
        mixture=MixtureSpec(feature_dim=16, class_center_scale=1.0,
                            within_class_stddev=1.1),
        noise=NoiseSpec(kind="symmetric", rate=0.4),
        stage1=Stage1Config(epochs=50, batch_size=64, queue_capacity=128),
        refurbish=RefurbishConfig(sigma=0.2),
        stage2=Stage2Config(epochs=50, batch_size=256, lr=0.1),
        thresholds=SubgroupThresholds(many_min=300, few_max=120),
        test_per_class=100,
        seed=seed,
    )


# ---------------------------------------------------------------------------
# Config (de)serialization
# ---------------------------------------------------------------------------

# the config sections: the fields of PipelineConfig that are dataclasses
_SECTION_TYPES = {name: t for name, t in get_type_hints(PipelineConfig).items()
                  if dataclasses.is_dataclass(t)}


def config_to_dict(cfg: PipelineConfig) -> dict:
    d = asdict(cfg)
    if d["noise"].get("flip_map") is not None:
        d["noise"]["flip_map"] = [list(p) for p in d["noise"]["flip_map"]]
    return d


def config_from_dict(data: dict) -> PipelineConfig:
    if not isinstance(data, dict):
        raise InvalidSpecError("config must be a JSON object")
    base = config_to_dict(default_config())
    sections = {}
    for name, cls in _SECTION_TYPES.items():
        section = data.get(name, {})
        if not isinstance(section, dict):
            raise InvalidSpecError(f"config section {name!r} must be an object")
        sections[name] = jsonl.build(cls, {**base[name], **section}, f"{name}.")
    scalars = {k: v for k, v in {**base, **data}.items() if k not in sections}
    cfg = jsonl.build(PipelineConfig, scalars, **sections)
    n_train = sum(datagen.longtail_counts(cfg.longtail))
    for name in ("stage1", "stage2"):
        if getattr(cfg, name).batch_size > n_train:
            raise InvalidSpecError(
                f"{name}.batch_size {getattr(cfg, name).batch_size} exceeds the "
                f"{n_train} training samples the longtail section simulates")
    k = cfg.longtail.num_classes
    for src, dst in cfg.noise.flip_map or ():
        if not (0 <= src < k and 0 <= dst < k):
            raise InvalidSpecError(
                f"noise.flip_map pair {src}->{dst} names a class outside "
                f"[0, {k}), the classes of longtail.num_classes")
    n_rows = n_train + cfg.test_per_class * k
    if n_rows * cfg.mixture.feature_dim > datagen.MAX_VALUES:
        raise InvalidSpecError(
            f"the simulated features would hold {n_rows} rows x "
            f"{cfg.mixture.feature_dim} = {n_rows * cfg.mixture.feature_dim} values, "
            f"over {datagen.MAX_VALUES}: lower longtail.head_count, "
            f"longtail.num_classes, test_per_class or mixture.feature_dim")
    return cfg


def load_config(path) -> PipelineConfig:
    return config_from_dict(jsonl.read_json(path, "config"))


def config_hash(cfg: PipelineConfig) -> str:
    payload = json.dumps(config_to_dict(cfg), sort_keys=True, allow_nan=False).encode()
    return hashlib.sha256(payload).hexdigest()


def stage_seed(global_seed: int, stage: str) -> int:
    """Derived per-stage seed: hash of (global seed, stage name)."""
    digest = hashlib.sha256(f"{global_seed}:{stage}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


def _seeded(cfg: PipelineConfig, stage: str):
    """The config section of `stage` ("stage1" or "stage2") under its
    derived seed, which replaces the `seed` a config file may give it."""
    return dataclasses.replace(getattr(cfg, stage), seed=stage_seed(cfg.seed, stage))


# ---------------------------------------------------------------------------
# Manifests and the workspace
# ---------------------------------------------------------------------------

def write_manifest(out_dir: Path, command: str, cfg: PipelineConfig,
                   wall_time_s: float, peak_rss: float, metrics: dict,
                   written: dict[str, tuple[str, float]],
                   writers_peak_rss: float) -> None:
    """`written` maps each artifact to (SHA-256, seconds its write took);
    the digests come from the writers, so no artifact is read back.
    `peak_rss` is the process's peak resident set size in MB (10^6 bytes)
    when the stage finished; `writers_peak_rss` is the largest peak of the
    process's reaped children (the forked writers and batch loaders) when
    it wrote the manifest."""
    manifest = {
        "command": command,
        "config": config_to_dict(cfg),
        "config_hash": config_hash(cfg),
        "seed": cfg.seed,
        "stage_seeds": {s: stage_seed(cfg.seed, s)
                        for s in ("simulate", "stage1", "stage2")},
        "wall_time_s": wall_time_s,
        "write_s": {name: seconds for name, (_, seconds) in written.items()},
        "peak_rss_mb": peak_rss,
        "writers_peak_rss_mb": writers_peak_rss,
        "metrics": metrics,
        "artifacts": {name: digest for name, (digest, _) in written.items()},
    }
    jsonl.write_json(out_dir / f"manifest_{command}.json", manifest, indent=2)


def _peak_rss_mb(who: int) -> float:
    """`getrusage(who).ru_maxrss` in MB (10^6 bytes); Linux reports KiB."""
    return resource.getrusage(who).ru_maxrss * 1024 / 1e6


class Workspace:
    """A run's directory plus, in `memo`, the artifacts the run wrote there
    and the one value no file holds, `PREDICTIONS`.  A later stage takes a
    kept value, else loads the file: floats are written with `repr` and
    rows in id order, so the two are equal.  A single-stage command starts
    with an empty memo; `run_pipeline` hands one workspace down the chain.

    Each artifact is written by a forked writer of its own while the next
    stage runs; leaving the workspace's `with` block joins them on every
    path, then writes the manifest of each stage that finished and wrote
    all of its artifacts, from the digests the writers sent back.  A
    workspace with no directory only keeps the values and metrics: it
    starts no writer and writes nothing (the trainers still fork their
    batch loaders, see `numerics.sgd_epochs`)."""

    def __init__(self, out_dir=None):
        self.out_dir = None if out_dir is None else Path(out_dir)
        if self.out_dir is not None:
            self.out_dir.mkdir(parents=True, exist_ok=True)
        self.memo: dict[str, object] = {}
        self.metrics: dict[str, dict] = {}  # command -> that stage's metrics
        self.written: dict[str, tuple[str, float]] = {}  # name -> (SHA-256, write s)
        self._writers = jsonl.Forks()
        self._writing: dict[int, str] = {}  # writer pid -> artifact name
        self._unclaimed: list[str] = []  # written since the last stage finished
        self._finished: list[tuple] = []  # manifests to write at the join

    def __enter__(self) -> "Workspace":
        return self

    def __exit__(self, *exc) -> None:
        self.join()

    def get(self, name: str, producer: str, load):
        """The kept value of `name`, else `load(path)` of the file the
        `producer` command writes."""
        if name in self.memo:
            return self.memo[name]
        path = self.out_dir / name
        if not path.exists():
            raise InvalidInputError(
                f"missing {name} in {self.out_dir}; run the `{producer}` command first")
        return load(path)

    def dataset(self, name: str, cfg: PipelineConfig) -> Dataset:
        return self.get(name, "simulate",
                        lambda p: datagen.load_dataset(p, cfg.longtail.num_classes))

    def write(self, name: str, value, save) -> None:
        """Keep `value` as `name` and fork a writer that runs `save(path)`
        on the file `name`; `save` returns the SHA-256 of the bytes it
        wrote.  The writer saves the snapshot the fork took, so the caller
        may change or drop what `save` reads at once.  A value `save`
        refuses, such as a NaN, fails the writer before it opens the file,
        and the join raises."""
        self.memo[name] = value
        if self.out_dir is None:
            return
        path = self.out_dir / name

        def write() -> str:
            t0 = time.perf_counter()
            digest = save(path)
            return f"{digest} {time.perf_counter() - t0!r}"
        self._writing[self._writers.start(f"cannot write {path}: writer", write)] = name
        self._unclaimed.append(name)

    def finish(self, command: str, cfg: PipelineConfig, t0: float,
               metrics: dict) -> None:
        """End a stage that started at `t0`: its manifest, written at the
        join, lists the artifacts written since the last stage finished and
        records the stage's wall time and the peak RSS so far."""
        self.metrics[command] = metrics
        if self.out_dir is None:
            return
        self._finished.append((command, cfg, time.perf_counter() - t0,
                               _peak_rss_mb(resource.RUSAGE_SELF),
                               metrics, self._unclaimed))
        self._unclaimed = []

    def join(self) -> None:
        """Wait for every writer, in the order they started, then write the
        manifest of each finished stage that wrote all of its artifacts and
        delete that of every other: each stage writes at least one file, so
        from the first stage whose writer failed no later stage has all of
        its files either.  A writer that failed raises OSError naming its
        file, after the other writers are killed and reaped and every file
        not fully written is deleted."""
        try:
            for pid, name in list(self._writing.items()):
                digest, seconds = self._writers.wait(pid).split()
                self.written[name] = (digest, float(seconds))
                del self._writing[pid]
        except BaseException:
            self._writers.kill()
            for name in self._writing.values():
                (self.out_dir / name).unlink(missing_ok=True)
            self._writing.clear()
            raise
        finally:
            writers_peak_rss = _peak_rss_mb(resource.RUSAGE_CHILDREN)
            for command, cfg, wall_time_s, peak_rss, metrics, names in self._finished:
                if all(name in self.written for name in names):
                    write_manifest(self.out_dir, command, cfg, wall_time_s, peak_rss,
                                   metrics, {name: self.written[name] for name in names},
                                   writers_peak_rss)
                else:
                    (self.out_dir / f"manifest_{command}.json").unlink(missing_ok=True)
            self._finished.clear()


# ---------------------------------------------------------------------------
# Stage runners
# ---------------------------------------------------------------------------

def run_simulate(cfg: PipelineConfig, ws: Workspace) -> dict:
    t0 = time.perf_counter()
    rng = make_rng(stage_seed(cfg.seed, "simulate"))
    train, test = datagen.synth_split(cfg.longtail, cfg.mixture, rng,
                                      cfg.test_per_class)
    train, _ = datagen.apply_noise(train, cfg.noise, rng)
    ws.write(TRAIN_FILE, train, lambda p: datagen.save_dataset(train, p))
    ws.write(TEST_FILE, test, lambda p: datagen.save_dataset(test, p))
    counts = np.bincount(train.true, minlength=cfg.longtail.num_classes).tolist()
    metrics = {
        "train_size": len(train),
        "test_size": len(test),
        "class_counts": counts,
        "measured_noise_rate": int((train.observed != train.true).sum()) / len(train),
    }
    ws.finish("simulate", cfg, t0, metrics)
    return metrics


def _accuracy(prefix: str, predicted: np.ndarray, train: Dataset) -> dict:
    """Agreement of predicted classes with the observed and true labels."""
    out = {f"{prefix}_vs_observed": float((predicted == train.observed).mean())}
    if train.true is not None:
        out[f"{prefix}_vs_true"] = float((predicted == train.true).mean())
    return out


def run_stage1(cfg: PipelineConfig, ws: Workspace) -> dict:
    t0 = time.perf_counter()
    train = ws.dataset(TRAIN_FILE, cfg)
    s1_cfg = _seeded(cfg, "stage1")
    model, log = stage1.train_stage1(train, s1_cfg)
    preds = ws.memo[PREDICTIONS] = stage1.predict_all(model, train)
    ws.write(STAGE1_CKPT, model, lambda p: stage1.save_stage1_checkpoint(model, s1_cfg, p))
    ws.write(STAGE1_LOG, log, lambda p: jsonl.write_json(p, log))
    metrics = {"final_losses": log[-1] if log else None,
               **_accuracy("train_accuracy", preds.predicted, train)}
    ws.finish("stage1", cfg, t0, metrics)
    return metrics


def _stage1_model(ws: Workspace) -> stage1.Stage1Model:
    return ws.get(STAGE1_CKPT, "stage1", lambda p: stage1.load_stage1_checkpoint(p)[0])


def run_refurbish(cfg: PipelineConfig, ws: Workspace, train: Dataset,
                  model: stage1.Stage1Model) -> tuple[np.ndarray, dict]:
    """Stage 2's first step: the (N, K) soft labels of stage 1's predictions
    on `train` under `cfg.refurbish`, and the metrics `manifest_stage2.json`
    records under `refurbish`.  The predictions are the kept ones, which no
    later stage reads, or `model`'s, recomputed bit for bit; either way
    they are freed before the metrics are taken."""
    preds = ws.memo.pop(PREDICTIONS, None)
    if preds is None:
        preds = stage1.predict_all(model, train)
    _, records = refurbish.refurbish_dataset(train, preds, cfg.refurbish)
    del preds
    metrics = {"fraction_changed": float(records.changed.mean()),
               **changed_rho_weight(train, records, cfg.thresholds)}
    if train.true is not None:
        metrics.update(refurbish_quality(train, records.soft, records.changed,
                                         cfg.thresholds))
    return records.soft, metrics


def _group_masks(train: Dataset, labels: np.ndarray,
                 thresholds: SubgroupThresholds) -> dict:
    """A mask over the samples for "overall" (every sample) and for each
    shot group (the samples whose class in `labels` is in it), the classes
    grouped by their `train_counts_for_eval` sizes."""
    group = ensemble.class_subgroups(train_counts_for_eval(train).counts,
                                     thresholds)[labels]
    return {"overall": np.ones(len(train), dtype=bool),
            **{g: group == g for g in ensemble.SUBGROUPS}}


def changed_rho_weight(train: Dataset, records: refurbish.RefurbishRecords,
                       thresholds: SubgroupThresholds) -> dict:
    """Mean rho, stage 1's probability of the observed label, and mean
    weight w = rho * gamma over the changed rows, overall and per shot group
    of each sample's observed class; None where a group has no changed row.
    Neither needs the true labels."""
    masks = _group_masks(train, train.observed, thresholds)
    return {name: {g: ensemble.masked_mean(values, records.changed & m)
                   for g, m in masks.items()}
            for name, values in (("rho_changed", records.rho),
                                 ("weight_changed", records.weight))}


def refurbish_quality(train: Dataset, soft: np.ndarray, changed: np.ndarray,
                      thresholds: SubgroupThresholds) -> dict:
    """Refurbishment against the true labels, overall and per shot group of
    each sample's true class: noise-detection precision and recall
    ("changed" against "actually corrupted"), the share of soft labels
    whose argmax is the true label, and the label mass on the true class
    before (the one-hot observed label) and after refurbishment.  None
    where a group is empty."""
    masks = _group_masks(train, train.true, thresholds)
    corrupted = train.observed != train.true
    soft_right = np.argmax(soft, axis=1) == train.true
    metrics = {"noise_precision": (corrupted, changed), "noise_recall": (changed, corrupted),
               "soft_label_accuracy": (soft_right, True),
               "true_class_mass_before": (~corrupted, True),
               "true_class_mass_after": (soft[np.arange(len(train)), train.true], True)}
    return {name: {g: ensemble.masked_mean(values, among & m) for g, m in masks.items()}
            for name, (values, among) in metrics.items()}


def run_stage2(cfg: PipelineConfig, ws: Workspace, no_relabel: bool = False) -> dict:
    t0 = time.perf_counter()
    train = ws.dataset(TRAIN_FILE, cfg)
    s1_model = _stage1_model(ws)
    metrics = {"variant": "w/o re-label" if no_relabel else "refurbished"}
    if no_relabel:
        softs = np.eye(train.num_classes)[train.observed]
    else:
        softs, metrics["refurbish"] = run_refurbish(cfg, ws, train, s1_model)
    s2_cfg = _seeded(cfg, "stage2")
    model, log = ensemble.train_stage2(train, softs, s1_model, s2_cfg)
    ckpt_name = _variant_name(STAGE2_CKPT, no_relabel)
    log_name = _variant_name(STAGE2_LOG, no_relabel)
    ws.write(ckpt_name, (model, s2_cfg), lambda p: ensemble.save_stage2_checkpoint(
        model, s2_cfg, STAGE1_CKPT, p))
    ws.write(log_name, log, lambda p: jsonl.write_json(p, log))
    metrics["final_losses"] = log[-1] if log else None
    ws.finish("stage2_norelabel" if no_relabel else "stage2", cfg, t0, metrics)
    return metrics


def train_counts_for_eval(train: Dataset) -> ClassStats:
    """Class sizes that define the shot subgroups: the clean per-class
    sizes when true labels are available, observed counts otherwise."""
    labels = train.true if train.true is not None else train.observed
    return ClassStats(np.bincount(labels, minlength=train.num_classes).astype(float))


def run_evaluate(cfg: PipelineConfig, ws: Workspace, no_relabel: bool = False) -> dict:
    t0 = time.perf_counter()
    train = ws.dataset(TRAIN_FILE, cfg)
    test = ws.dataset(TEST_FILE, cfg)
    s1_model = _stage1_model(ws)
    ckpt_name = _variant_name(STAGE2_CKPT, no_relabel)
    producer = "stage2 --no-relabel" if no_relabel else "stage2"
    model, s2_cfg = ws.get(ckpt_name, producer, lambda p: ensemble.load_stage2_checkpoint(
        p, s1_model.encoder, train.num_classes))
    report = ensemble.evaluate(model, test, train_counts_for_eval(train),
                               cfg.thresholds, fusion=s2_cfg.fusion)
    label = "w/o re-label" if no_relabel else "refurbished"
    doc = {"variant": label, **report.to_json_dict()}
    json_name = _variant_name(EVAL_JSON, no_relabel)
    csv_name = _variant_name(EVAL_CSV, no_relabel)
    csv = (f"# variant: {label}; thresholds: many>{cfg.thresholds.many_min}, "
           f"few<{cfg.thresholds.few_max}\n" + ensemble.report_csv(report))
    ws.write(json_name, report, lambda p: jsonl.write_json(p, doc, indent=2))
    ws.write(csv_name, csv, lambda p: jsonl.write_text(p, csv))
    metrics = {"variant": label,
               "overall_accuracy": report.overall_accuracy,
               "subgroup_accuracy": report.subgroup_accuracy}
    ws.finish("evaluate_norelabel" if no_relabel else "evaluate", cfg, t0, metrics)
    return metrics


def run_pipeline(cfg: PipelineConfig, out_dir: Path) -> dict:
    """simulate -> stage1 -> stage2 -> evaluate over one workspace, each
    stage taking its inputs from memory while the files of the stages
    before it are still being written."""
    with Workspace(out_dir) as ws:
        run_simulate(cfg, ws)
        run_stage1(cfg, ws)
        run_stage2(cfg, ws)
        return run_evaluate(cfg, ws)


# ---------------------------------------------------------------------------
# In-memory pipeline (sweeps, tests)
# ---------------------------------------------------------------------------

@dataclass
class PipelineResult:
    train: Dataset
    test: Dataset
    stage1_model: stage1.Stage1Model
    predictions: stage1.Predictions
    stage1_log: list[dict]
    stage2_model: ensemble.EnsembleModel
    report: ensemble.EvalReport
    metrics: dict = field(default_factory=dict)
    stages: dict = field(default_factory=dict)  # command -> that stage's metrics

    @property
    def noise_mask(self) -> np.ndarray:
        """Which train labels the noise altered: observed != true."""
        return self.train.observed != self.train.true


# The workspace of the last run_in_memory call after simulate and stage 1,
# keyed by `_stage1_key(cfg)`: at most one entry, which each call deep-copies
# so that no returned result shares an array with it.
_stage1_memo: dict[str, Workspace] = {}


def _stage1_key(cfg: PipelineConfig) -> str:
    """The config as JSON, less the sections simulate and stage 1 never
    read: a section added later makes the key differ, not collide."""
    d = config_to_dict(cfg)
    for name in ("refurbish", "stage2", "thresholds", "out_dir"):
        del d[name]
    return json.dumps(d, sort_keys=True)


def run_in_memory(cfg: PipelineConfig, no_relabel: bool = False) -> PipelineResult:
    """The four stage runners on a workspace with no directory: the chain
    and seeding of the file-based commands, without touching disk.
    `stages` maps each command to the metrics its manifest would record.

    As on the CLI, where `stage2 --no-relabel` reads the one stage-1
    checkpoint, the `no_relabel` variant shares stage 1 with the full
    chain: the workspace after simulate and stage 1, with their outputs
    and metrics, is memoized for the last config seen, keyed on every
    section but `refurbish`, `stage2`, `thresholds` and `out_dir`.
    Stage 2 (with its refurbishment, unless `no_relabel`) and evaluation
    run on every call, and each result holds its own copies of the arrays."""
    key = _stage1_key(cfg)
    if key not in _stage1_memo:
        _stage1_memo.clear()  # a call that raises leaves no entry
        ws = Workspace()
        run_simulate(cfg, ws)
        run_stage1(cfg, ws)
        _stage1_memo[key] = ws
    ws = copy.deepcopy(_stage1_memo[key])
    preds = ws.memo[PREDICTIONS]  # before run_refurbish drops them
    run_stage2(cfg, ws, no_relabel)
    run_evaluate(cfg, ws, no_relabel)
    train, report = ws.memo[TRAIN_FILE], ws.memo[_variant_name(EVAL_JSON, no_relabel)]
    metrics = {"overall_accuracy": report.overall_accuracy,
               **_accuracy("stage1_accuracy", preds.predicted, train)}
    return PipelineResult(train, ws.memo[TEST_FILE], ws.memo[STAGE1_CKPT], preds,
                          ws.memo[STAGE1_LOG],
                          ws.memo[_variant_name(STAGE2_CKPT, no_relabel)][0], report,
                          metrics, ws.metrics)


# ---------------------------------------------------------------------------
# Plain cross-entropy baseline (ablation reference)
# ---------------------------------------------------------------------------

def train_ce_baseline(train: Dataset, cfg: Stage1Config, seed: int):
    """Supervised end-to-end baseline: the same encoder architecture and
    initial weight scale as stage 1 plus a linear head, trained with plain
    cross-entropy on observed labels.  A non-finite loss raises
    NumericError naming the epoch and step."""
    rng = make_rng(seed)
    k = train.num_classes
    encoder = init_mlp([train.feature_dim, cfg.encoder_hidden, cfg.repr_dim],
                       rng, cfg.activation, cfg.init_scale)
    head = init_mlp([cfg.repr_dim, k], rng, cfg.activation, cfg.init_scale)
    params, grads, (g_encoder, g_head) = flatten_params(encoder, head)
    onehot = np.eye(k)  # row k is class k's label

    def batch(idx):
        return train.X[idx], onehot[train.observed[idx]]

    def step(X, y):
        v, enc_cache = forward_batch(encoder, X)
        logits, head_cache = forward_batch(head, v)
        losses, g_logits = softmax_ce(logits[:, None], y)  # c = 0: plain CE
        _, g_v = backward_batch(head, head_cache, g_logits[:, 0], out=g_head)
        backward_batch(encoder, enc_cache, g_v, input_grad=False, out=g_encoder)
        return {"ce": float(losses[0])}

    sgd_epochs("CE baseline", params, grads, cfg, len(train), rng, batch,
               ((1, train.feature_dim), (1, k)), step)
    return encoder, head


def ce_baseline_accuracy(train: Dataset, test: Dataset, cfg: Stage1Config,
                         seed: int) -> float:
    encoder, head = train_ce_baseline(train, cfg, seed)
    pred = np.argmax(forward(encoder, test.X, head), axis=1)
    return float((pred == test.observed).mean())


# ---------------------------------------------------------------------------
# Sweeps and curve emission
# ---------------------------------------------------------------------------

SWEEP_PARAMS = ("c", "alpha", "sigma", "tau")


@dataclass
class SweepSpec:
    parameter: str
    grid: list[float]

    def __post_init__(self):
        if self.parameter not in SWEEP_PARAMS:
            raise InvalidSpecError(
                f"sweep parameter must be one of {SWEEP_PARAMS}")
        if not self.grid:
            raise InvalidSpecError("sweep grid must be non-empty")
        bad = [v for v in self.grid if not math.isfinite(v)]
        if bad:
            raise InvalidSpecError(f"sweep grid value {bad[0]!r} is not finite")


def _with_sweep_value(cfg: PipelineConfig, param: str, value: float
                      ) -> PipelineConfig:
    if param in ("c", "alpha", "tau"):
        return dataclasses.replace(
            cfg, stage1=dataclasses.replace(cfg.stage1, **{param: value}))
    return dataclasses.replace(
        cfg, refurbish=dataclasses.replace(cfg.refurbish, sigma=value))


def run_sweep(cfg: PipelineConfig, sweep: SweepSpec, out_dir: Path) -> list[dict]:
    """One full pipeline run per grid value.

    Each grid point runs under a seed derived from its own config hash, so
    points are independent yet reproducible.  Returns rows sorted by value.
    """
    t0 = time.perf_counter()
    # every grid point's config is checked before the directory is made
    points = [(value, _with_sweep_value(cfg, sweep.parameter, value))
              for value in sweep.grid]
    with Workspace(out_dir) as ws:
        rows = []
        for value, cfg_v in points:
            seed_v = int.from_bytes(
                hashlib.sha256(config_hash(cfg_v).encode()).digest()[:8], "little")
            cfg_v = dataclasses.replace(cfg_v, seed=seed_v)
            result = run_in_memory(cfg_v)
            rows.append({"value": float(value),
                         "accuracy": result.report.overall_accuracy, **result.stages})
        rows.sort(key=lambda r: r["value"])
        text = f"{sweep.parameter},accuracy\n" + "".join(
            f"{r['value']},{r['accuracy']:.6f}\n" for r in rows)
        best = max(rows, key=lambda r: r["accuracy"])
        ws.write(f"sweep_{sweep.parameter}.csv", text, lambda p: jsonl.write_text(p, text))
        ws.finish(f"sweep_{sweep.parameter}", cfg, t0,
                  {"parameter": sweep.parameter, "rows": rows, "best": best})
    return rows


def rarity_curve_rows(sigma: float) -> list[tuple[float, float]]:
    """(h, gamma) on the grid h = 0.00, 0.01, ..., 1.00."""
    return [(i / 100.0, refurbish.rarity(i / 100.0, sigma)) for i in range(101)]


def write_rarity_curve(sigma: float, out_dir: Path, svg: bool = False) -> Path:
    """gamma(h) as `rarity_curve.csv`, and as a chart in `rarity_curve.svg`
    if `svg`.  No stage finishes, so no manifest is written."""
    rows = rarity_curve_rows(sigma)  # a bad sigma raises before the mkdir
    csv = "h,gamma\n" + "".join(f"{h:.2f},{g!r}\n" for h, g in rows)
    with Workspace(out_dir) as ws:
        ws.write("rarity_curve.csv", csv, lambda p: jsonl.write_text(p, csv))
        if svg:
            chart = svg_line_chart(rows, title=f"rarity score, sigma={sigma}",
                                   x_label="class proportion h", y_label="gamma")
            ws.write("rarity_curve.svg", chart, lambda p: jsonl.write_text(p, chart))
    return ws.out_dir / "rarity_curve.csv"


def svg_line_chart(points: list[tuple[float, float]], title: str = "",
                   x_label: str = "", y_label: str = "") -> str:
    """Dependency-free SVG polyline for sweep/curve outputs."""
    w, h, pad = 640, 400, 50
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0

    def sx(x):
        return pad + (x - x_lo) / x_span * (w - 2 * pad)

    def sy(y):
        return h - pad - (y - y_lo) / y_span * (h - 2 * pad)

    pts = " ".join(f"{sx(x):.1f},{sy(y):.1f}" for x, y in points)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}">',
        f'<rect width="{w}" height="{h}" fill="white"/>',
        f'<text x="{w/2:.0f}" y="20" text-anchor="middle">{title}</text>',
        f'<text x="{w/2:.0f}" y="{h-10}" text-anchor="middle">{x_label}</text>',
        f'<text x="15" y="{h/2:.0f}" text-anchor="middle" '
        f'transform="rotate(-90 15 {h/2:.0f})">{y_label}</text>',
        f'<line x1="{pad}" y1="{h-pad}" x2="{w-pad}" y2="{h-pad}" stroke="black"/>',
        f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{h-pad}" stroke="black"/>',
        f'<polyline points="{pts}" fill="none" stroke="steelblue" stroke-width="2"/>',
        "</svg>",
    ]
    return "\n".join(parts) + "\n"
