"""End-to-end orchestration: configuration, seeding, manifests, and the
simulate -> stage1 -> refurbish -> stage2 -> evaluate chain.

Every command is reproducible from (config, seed) alone; per-stage seeds
are derived by hashing the global seed with the stage name, and each
command writes a JSON manifest recording the config hash, the seed, and
SHA-256 hashes of its data artifacts.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import time
from dataclasses import dataclass, field, asdict
from pathlib import Path
from typing import Optional

import numpy as np

from . import datagen, ensemble, refurbish, stage1
from .datagen import Dataset, LongTailSpec, MixtureSpec, NoiseSpec
from .ensemble import Stage2Config, SubgroupThresholds
from .errors import InvalidInputError, InvalidSpecError
from .numerics import (
    SgdMomentum,
    backward_batch,
    forward_batch,
    init_mlp,
    make_rng,
    softmax_rows,
)
from .refurbish import ClassStats, RefurbishConfig, class_stats_from_counts
from .stage1 import Stage1Config

# artifact names within a workspace directory
TRAIN_FILE = "train.jsonl"
TEST_FILE = "test.jsonl"
MASK_FILE = "noise_mask.jsonl"
STAGE1_CKPT = "stage1_checkpoint.json"
PREDICTIONS_FILE = "stage1_predictions.jsonl"
STAGE1_LOG = "stage1_log.json"
REFURB_FILE = "refurbished.jsonl"
STAGE2_CKPT = "stage2_checkpoint.json"
STAGE2_LOG = "stage2_log.json"
EVAL_JSON = "eval_report.json"
EVAL_CSV = "eval_report.csv"


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
        if self.test_per_class < 1:
            raise InvalidSpecError("test_per_class must be >= 1")


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

_SECTION_TYPES = {
    "longtail": LongTailSpec,
    "mixture": MixtureSpec,
    "noise": NoiseSpec,
    "stage1": Stage1Config,
    "refurbish": RefurbishConfig,
    "stage2": Stage2Config,
    "thresholds": SubgroupThresholds,
}
_SCALAR_FIELDS = {"test_per_class", "out_dir", "seed"}


def config_to_dict(cfg: PipelineConfig) -> dict:
    d = asdict(cfg)
    if d["noise"].get("flip_map") is not None:
        d["noise"]["flip_map"] = [list(p) for p in d["noise"]["flip_map"]]
    return d


def _build_section(name: str, cls, data: dict):
    if not isinstance(data, dict):
        raise InvalidSpecError(f"config section {name!r} must be an object")
    known = {f.name for f in dataclasses.fields(cls)}
    unknown = set(data) - known
    if unknown:
        raise InvalidSpecError(f"unknown keys in {name!r}: {sorted(unknown)}")
    if name == "noise" and data.get("flip_map") is not None:
        data = dict(data)
        data["flip_map"] = [tuple(p) for p in data["flip_map"]]
    try:
        return cls(**data)
    except TypeError as e:
        raise InvalidSpecError(f"bad config section {name!r}: {e}") from e


def config_from_dict(data: dict) -> PipelineConfig:
    if not isinstance(data, dict):
        raise InvalidSpecError("config must be a JSON object")
    unknown = set(data) - set(_SECTION_TYPES) - _SCALAR_FIELDS
    if unknown:
        raise InvalidSpecError(f"unknown config keys: {sorted(unknown)}")
    kwargs = {}
    base = config_to_dict(default_config())
    for name, cls in _SECTION_TYPES.items():
        section = {**base[name], **data.get(name, {})} if name in data else base[name]
        kwargs[name] = _build_section(name, cls, section)
    for name in _SCALAR_FIELDS:
        kwargs[name] = data.get(name, base[name])
    return PipelineConfig(**kwargs)


def load_config(path) -> PipelineConfig:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as e:
            raise InvalidSpecError(f"config is not valid JSON: {e}") from e
    return config_from_dict(data)


def config_hash(cfg: PipelineConfig) -> str:
    payload = json.dumps(config_to_dict(cfg), sort_keys=True).encode()
    return hashlib.sha256(payload).hexdigest()


def stage_seed(global_seed: int, stage: str) -> int:
    """Derived per-stage seed: hash of (global seed, stage name)."""
    digest = hashlib.sha256(f"{global_seed}:{stage}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


# ---------------------------------------------------------------------------
# Manifests
# ---------------------------------------------------------------------------

def file_sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def write_manifest(out_dir: Path, command: str, cfg: PipelineConfig,
                   wall_time_s: float, metrics: dict,
                   artifact_names: list[str]) -> Path:
    manifest = {
        "command": command,
        "config": config_to_dict(cfg),
        "config_hash": config_hash(cfg),
        "seed": cfg.seed,
        "stage_seeds": {s: stage_seed(cfg.seed, s)
                        for s in ("simulate", "stage1", "stage2")},
        "wall_time_s": wall_time_s,
        "metrics": metrics,
        "artifacts": {name: file_sha256(out_dir / name) for name in artifact_names},
    }
    path = out_dir / f"manifest_{command}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=2)
        fh.write("\n")
    return path


def _require(out_dir: Path, name: str, producer: str) -> Path:
    path = out_dir / name
    if not path.exists():
        raise InvalidInputError(
            f"missing {name} in {out_dir}; run the `{producer}` command first")
    return path


# ---------------------------------------------------------------------------
# Stage runners (file-based)
# ---------------------------------------------------------------------------

def run_simulate(cfg: PipelineConfig, out_dir: Path) -> dict:
    t0 = time.perf_counter()
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = make_rng(stage_seed(cfg.seed, "simulate"))
    train, test = datagen.synth_split(cfg.longtail, cfg.mixture, rng,
                                      cfg.test_per_class)
    train, mask = datagen.apply_noise(train, cfg.noise, rng)
    datagen.save_dataset(train, out_dir / TRAIN_FILE)
    datagen.save_dataset(test, out_dir / TEST_FILE)
    datagen.save_noise_mask(mask, [s.id for s in train.samples],
                            out_dir / MASK_FILE)
    counts = np.bincount(train.true_labels(),
                         minlength=cfg.longtail.num_classes).tolist()
    metrics = {
        "train_size": len(train),
        "test_size": len(test),
        "class_counts": counts,
        "measured_noise_rate": sum(mask) / len(train),
    }
    write_manifest(out_dir, "simulate", cfg, time.perf_counter() - t0, metrics,
                   [TRAIN_FILE, TEST_FILE, MASK_FILE])
    return metrics


def run_stage1(cfg: PipelineConfig, out_dir: Path) -> dict:
    t0 = time.perf_counter()
    train = datagen.load_dataset(_require(out_dir, TRAIN_FILE, "simulate"),
                                 cfg.longtail.num_classes)
    s1_cfg = dataclasses.replace(cfg.stage1, seed=stage_seed(cfg.seed, "stage1"))
    model, preds, log = stage1.train_stage1(train, s1_cfg)
    stage1.save_stage1_checkpoint(model, s1_cfg, out_dir / STAGE1_CKPT)
    stage1.save_predictions([s.id for s in train.samples], preds,
                            out_dir / PREDICTIONS_FILE)
    with open(out_dir / STAGE1_LOG, "w", encoding="utf-8") as fh:
        json.dump(log, fh, sort_keys=True)
        fh.write("\n")
    pred_cls = np.array([p.predicted_class for p in preds])
    metrics = {
        "final_losses": log[-1] if log else None,
        "train_accuracy_vs_observed":
            float((pred_cls == train.observed_labels()).mean()),
    }
    true = train.true_labels()
    if true is not None:
        metrics["train_accuracy_vs_true"] = float((pred_cls == true).mean())
    write_manifest(out_dir, "stage1", cfg, time.perf_counter() - t0, metrics,
                   [STAGE1_CKPT, PREDICTIONS_FILE, STAGE1_LOG])
    return metrics


def run_refurbish(cfg: PipelineConfig, out_dir: Path) -> dict:
    t0 = time.perf_counter()
    train = datagen.load_dataset(_require(out_dir, TRAIN_FILE, "simulate"),
                                 cfg.longtail.num_classes)
    preds_by_id = stage1.load_predictions(
        _require(out_dir, PREDICTIONS_FILE, "stage1"))
    preds = stage1.align_predictions(train, preds_by_id)
    _, records = refurbish.refurbish_dataset(train, preds, cfg.refurbish)
    refurbish.save_records(records, out_dir / REFURB_FILE)
    metrics = refurbish.summarize_records(records)
    write_manifest(out_dir, "refurbish", cfg, time.perf_counter() - t0, metrics,
                   [REFURB_FILE])
    return metrics


def _soft_labels_for_stage2(train: Dataset, out_dir: Path,
                            no_relabel: bool) -> list[refurbish.SoftLabel]:
    if no_relabel:
        return [refurbish.onehot_soft_label(s.observed_label, train.num_classes)
                for s in train.samples]
    records = refurbish.load_records(_require(out_dir, REFURB_FILE, "refurbish"))
    aligned = refurbish.align_records(train, records)
    return [r.soft_label for r in aligned]


def run_stage2(cfg: PipelineConfig, out_dir: Path, no_relabel: bool = False) -> dict:
    t0 = time.perf_counter()
    train = datagen.load_dataset(_require(out_dir, TRAIN_FILE, "simulate"),
                                 cfg.longtail.num_classes)
    s1_model, _ = stage1.load_stage1_checkpoint(
        _require(out_dir, STAGE1_CKPT, "stage1"))
    softs = _soft_labels_for_stage2(train, out_dir, no_relabel)
    s2_cfg = dataclasses.replace(cfg.stage2, seed=stage_seed(cfg.seed, "stage2"))
    model, log = ensemble.train_stage2(train, softs, s1_model, s2_cfg)
    ckpt_name = _variant_name(STAGE2_CKPT, no_relabel)
    log_name = _variant_name(STAGE2_LOG, no_relabel)
    ensemble.save_stage2_checkpoint(model, s2_cfg, STAGE1_CKPT,
                                    out_dir / ckpt_name)
    with open(out_dir / log_name, "w", encoding="utf-8") as fh:
        json.dump(log, fh, sort_keys=True)
        fh.write("\n")
    metrics = {"variant": "w/o re-label" if no_relabel else "refurbished",
               "final_losses": log[-1] if log else None}
    command = "stage2_norelabel" if no_relabel else "stage2"
    write_manifest(out_dir, command, cfg, time.perf_counter() - t0, metrics,
                   [ckpt_name, log_name])
    return metrics


def train_counts_for_eval(train: Dataset) -> ClassStats:
    """Class sizes that define the shot subgroups: the clean per-class
    sizes when true labels are available, observed counts otherwise."""
    true = train.true_labels()
    labels = true if true is not None else train.observed_labels()
    counts = np.bincount(labels, minlength=train.num_classes).astype(float)
    return class_stats_from_counts(counts)


def run_evaluate(cfg: PipelineConfig, out_dir: Path,
                 no_relabel: bool = False) -> dict:
    t0 = time.perf_counter()
    train = datagen.load_dataset(_require(out_dir, TRAIN_FILE, "simulate"),
                                 cfg.longtail.num_classes)
    test = datagen.load_dataset(_require(out_dir, TEST_FILE, "simulate"),
                                cfg.longtail.num_classes)
    s1_model, _ = stage1.load_stage1_checkpoint(
        _require(out_dir, STAGE1_CKPT, "stage1"))
    ckpt_name = _variant_name(STAGE2_CKPT, no_relabel)
    producer = "stage2 --no-relabel" if no_relabel else "stage2"
    model, s2_cfg = ensemble.load_stage2_checkpoint(
        _require(out_dir, ckpt_name, producer), s1_model.encoder)
    report = ensemble.evaluate(model, test, train_counts_for_eval(train),
                               cfg.thresholds, fusion=s2_cfg.fusion)
    label = "w/o re-label" if no_relabel else "refurbished"
    doc = {"variant": label, **report.to_json_dict()}
    json_name = _variant_name(EVAL_JSON, no_relabel)
    csv_name = _variant_name(EVAL_CSV, no_relabel)
    with open(out_dir / json_name, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2)
        fh.write("\n")
    with open(out_dir / csv_name, "w", encoding="utf-8") as fh:
        fh.write(f"# variant: {label}; thresholds: many>"
                 f"{cfg.thresholds.many_min}, few<{cfg.thresholds.few_max}\n")
        fh.write(ensemble.report_csv(report))
    metrics = {"variant": label,
               "overall_accuracy": report.overall_accuracy,
               "subgroup_accuracy": report.subgroup_accuracy}
    command = "evaluate_norelabel" if no_relabel else "evaluate"
    write_manifest(out_dir, command, cfg, time.perf_counter() - t0, metrics,
                   [json_name, csv_name])
    return metrics


def run_pipeline(cfg: PipelineConfig, out_dir: Path) -> dict:
    """simulate -> stage1 -> refurbish -> stage2 -> evaluate, one workspace."""
    run_simulate(cfg, out_dir)
    run_stage1(cfg, out_dir)
    run_refurbish(cfg, out_dir)
    run_stage2(cfg, out_dir)
    return run_evaluate(cfg, out_dir)


# ---------------------------------------------------------------------------
# In-memory pipeline (sweeps, tests)
# ---------------------------------------------------------------------------

@dataclass
class PipelineResult:
    train: Dataset
    test: Dataset
    noise_mask: list[bool]
    stage1_model: stage1.Stage1Model
    predictions: list[stage1.Prediction]
    stage1_log: list[dict]
    records: list[refurbish.RefurbishRecord]
    stage2_model: ensemble.EnsembleModel
    report: ensemble.EvalReport
    metrics: dict = field(default_factory=dict)


def run_in_memory(cfg: PipelineConfig, no_relabel: bool = False) -> PipelineResult:
    """The full chain without touching disk; identical seeding to the
    file-based commands."""
    rng = make_rng(stage_seed(cfg.seed, "simulate"))
    train, test = datagen.synth_split(cfg.longtail, cfg.mixture, rng,
                                      cfg.test_per_class)
    train, mask = datagen.apply_noise(train, cfg.noise, rng)

    s1_cfg = dataclasses.replace(cfg.stage1, seed=stage_seed(cfg.seed, "stage1"))
    s1_model, preds, s1_log = stage1.train_stage1(train, s1_cfg)

    _, records = refurbish.refurbish_dataset(train, preds, cfg.refurbish)
    if no_relabel:
        softs = [refurbish.onehot_soft_label(s.observed_label, train.num_classes)
                 for s in train.samples]
    else:
        softs = [r.soft_label for r in records]

    s2_cfg = dataclasses.replace(cfg.stage2, seed=stage_seed(cfg.seed, "stage2"))
    s2_model, _ = ensemble.train_stage2(train, softs, s1_model, s2_cfg)
    report = ensemble.evaluate(s2_model, test, train_counts_for_eval(train),
                               cfg.thresholds, fusion=s2_cfg.fusion)

    pred_cls = np.array([p.predicted_class for p in preds])
    metrics = {
        "stage1_accuracy_vs_observed":
            float((pred_cls == train.observed_labels()).mean()),
        "overall_accuracy": report.overall_accuracy,
    }
    true = train.true_labels()
    if true is not None:
        metrics["stage1_accuracy_vs_true"] = float((pred_cls == true).mean())
    return PipelineResult(train, test, mask, s1_model, preds, s1_log, records,
                          s2_model, report, metrics)


# ---------------------------------------------------------------------------
# Plain cross-entropy baseline (ablation reference)
# ---------------------------------------------------------------------------

def train_ce_baseline(train: Dataset, cfg: Stage1Config, seed: int):
    """Supervised end-to-end baseline: the same encoder architecture plus a
    linear head, trained with plain cross-entropy on observed labels."""
    n = len(train)
    if cfg.batch_size > n:
        raise InvalidSpecError(f"batch_size {cfg.batch_size} exceeds dataset size {n}")
    rng = make_rng(seed)
    k = train.num_classes
    encoder = init_mlp([train.feature_dim, cfg.encoder_hidden, cfg.repr_dim],
                       rng, cfg.activation)
    head = init_mlp([cfg.repr_dim, k], rng, cfg.activation)
    X = train.feature_matrix()
    labels = train.observed_labels()
    Y = np.zeros((n, k))
    Y[np.arange(n), labels] = 1.0
    opt = SgdMomentum(encoder.params() + head.params(), lr=cfg.lr,
                      momentum=cfg.momentum, weight_decay=cfg.weight_decay)
    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            v, enc_cache = forward_batch(encoder, X[idx])
            logits, head_cache = forward_batch(head, v)
            g_logits = (softmax_rows(logits) - Y[idx]) / len(idx)
            g_head, g_v = backward_batch(head, head_cache, g_logits)
            g_enc, _ = backward_batch(encoder, enc_cache, g_v)
            opt.step(g_enc.params() + g_head.params())
    return encoder, head


def ce_baseline_accuracy(train: Dataset, test: Dataset, cfg: Stage1Config,
                         seed: int) -> float:
    encoder, head = train_ce_baseline(train, cfg, seed)
    v, _ = forward_batch(encoder, test.feature_matrix())
    logits, _ = forward_batch(head, v)
    pred = np.argmax(logits, axis=1)
    return float((pred == test.observed_labels()).mean())


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
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    for value in sweep.grid:
        cfg_v = _with_sweep_value(cfg, sweep.parameter, value)
        seed_v = int.from_bytes(
            hashlib.sha256(config_hash(cfg_v).encode()).digest()[:8], "little")
        cfg_v = dataclasses.replace(cfg_v, seed=seed_v)
        result = run_in_memory(cfg_v)
        rows.append({"value": float(value),
                     "accuracy": result.report.overall_accuracy})
    rows.sort(key=lambda r: r["value"])
    csv_name = f"sweep_{sweep.parameter}.csv"
    with open(out_dir / csv_name, "w", encoding="utf-8") as fh:
        fh.write(f"{sweep.parameter},accuracy\n")
        for r in rows:
            fh.write(f"{r['value']},{r['accuracy']:.6f}\n")
    best = max(rows, key=lambda r: r["accuracy"])
    metrics = {"parameter": sweep.parameter, "rows": rows, "best": best}
    write_manifest(out_dir, f"sweep_{sweep.parameter}", cfg,
                   time.perf_counter() - t0, metrics, [csv_name])
    return rows


def rarity_curve_rows(sigma: float) -> list[tuple[float, float]]:
    """(h, gamma) on the grid h = 0.00, 0.01, ..., 1.00."""
    if sigma <= 0:
        raise InvalidSpecError("sigma must be positive")
    return [(i / 100.0, refurbish.rarity(i / 100.0, sigma)) for i in range(101)]


def write_rarity_curve(sigma: float, out_dir: Path, svg: bool = False) -> Path:
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = rarity_curve_rows(sigma)
    path = out_dir / "rarity_curve.csv"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("h,gamma\n")
        for h, g in rows:
            fh.write(f"{h:.2f},{g!r}\n")
    if svg:
        write_svg_line_chart(rows, out_dir / "rarity_curve.svg",
                             title=f"rarity score, sigma={sigma}",
                             x_label="class proportion h", y_label="gamma")
    return path


def write_svg_line_chart(points: list[tuple[float, float]], path,
                         title: str = "", x_label: str = "",
                         y_label: str = "") -> None:
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
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")
