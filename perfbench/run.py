"""Benchmark of the noisytail pipeline: three workloads, end-to-end metrics
from untraced passes, and per-layer metrics from a separate traced run.

    python3 perfbench/run.py --workload pipeline_default --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --trace 1

Load model: one closed-loop client.  Each pass is a fresh single
`perfbench/worker.py` process, started only after the previous one has
exited and its outputs have been checked; NumPy keeps its default BLAS
threads.  Passes start until the next one would end past `--seconds`, with
at least two; with `--trace 1` each untraced pass is followed by a traced
one.  Before the passes, ten set-up-only processes measure start-up.  Everything is written under `.perfbench_tmp/` in the checkout
and removed afterwards.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; with `--trace 0` the metrics
are the end-to-end ones of BENCHMARK.json, with `--trace 1` its per-layer
ones.  Every pass's outputs are checked, and a pass whose check fails
counts as failed.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import tracing

ROOT = Path(__file__).resolve().parents[1]
WORKER = Path(__file__).resolve().parent / "worker.py"
WORK_DIR = ROOT / ".perfbench_tmp"

# later changes cite the workloads by these names; BENCHMARK.json says why
# each one is here
WORKLOADS = ("pipeline_default", "pipeline_48k", "ablation_inmem")
FILE_BASED = ("pipeline_default", "pipeline_48k")

E2E_UNITS = {"wall_s": "s", "samples_per_s": "1/s", "setup_s": "s",
             "peak_rss_mb": "MB", "test_acc": "fraction",
             "stage1_acc_true": "fraction"}
# Printed with the end-to-end table but not part of the JSON result, which
# holds only metrics steady enough between runs for a bound:
# - fail_frac is carried by `attempted`/`failed`;
# - wall_s_tail falls back to the maximum of 2-4 passes, which spreads
#   ~13% between runs;
# - test_acc_few spreads up to ~17% between seeds;
# - the ablation-only accuracies exist on one workload.
EXTRA_UNITS = {"fail_frac": "fraction", "wall_s_tail": "s",
               "test_acc_few": "fraction", "test_acc_norelabel": "fraction",
               "test_acc_ce": "fraction"}
LAYER_UNITS = {**{name: spec[0] for name, spec in tracing.LAYER_METRICS.items()},
               "trace.overhead_frac": "ratio", "trace.unaccounted_s": "s"}

SETUP_PROBES = 10
MIN_ROUNDS = 2
PASS_TIMEOUT_S = 120


def workload_config(workload: str, seed: int):
    """The generated config file's contents, or None when the workload
    runs the built-in default profile with `--seed`."""
    if workload != "pipeline_48k":
        return None
    # 10x the default head count; subgroup thresholds scale with it so the
    # few-shot group keeps the default profile's 6/8/6 class split
    return {"seed": seed,
            "longtail": {"head_count": 6000},
            "stage1": {"epochs": 1},
            "stage2": {"epochs": 5},
            "thresholds": {"many_min": 3000, "few_max": 1200}}


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------

def _reject_constant(token: str):
    raise ValueError(f"non-finite number {token}")


def strict_loads(text):
    """json.loads that rejects NaN and Infinity."""
    return json.loads(text, parse_constant=_reject_constant)


def check_workspace(ws: Path, problems: list[str]) -> tuple[str, dict, int]:
    """Strict-parse every artifact, verify manifest hashes; return a digest
    of the data artifacts, the quality figures and the train row count."""
    hashes, docs, train_rows = {}, {}, 0
    for path in sorted(ws.iterdir()):
        h = hashlib.sha256()
        try:
            with open(path, "rb") as fh:
                if path.suffix == ".jsonl":
                    for line in fh:
                        h.update(line)
                        if line.strip():
                            strict_loads(line)
                            train_rows += path.name == "train.jsonl"
                else:
                    data = fh.read()
                    h.update(data)
                    if path.suffix == ".json":
                        docs[path.name] = strict_loads(data)
        except ValueError as e:
            problems.append(f"{path.name}: not strict JSON ({e})")
        hashes[path.name] = h.hexdigest()
    for name, doc in docs.items():
        if name.startswith("manifest_"):
            for artifact, digest in doc.get("artifacts", {}).items():
                if hashes.get(artifact) != digest:
                    problems.append(f"{name}: hash of {artifact} does not match")
    # manifests carry wall times, so they are left out of the digest
    data = {n: h for n, h in hashes.items() if not n.startswith("manifest_")}
    digest = hashlib.sha256(json.dumps(data, sort_keys=True).encode()).hexdigest()
    quality = {}
    try:
        report = docs["eval_report.json"]
        quality = {"test_acc": report["overall_accuracy"],
                   "test_acc_few": report["subgroup_accuracy"]["few"],
                   "stage1_acc_true": docs["manifest_stage1.json"]["metrics"]
                   ["train_accuracy_vs_true"]}
    except (KeyError, TypeError) as e:
        problems.append(f"missing quality figure {e}")
    return digest, quality, train_rows


@dataclass
class Pass:
    traced: bool
    setup_s: float
    wall_s: float = math.nan
    result: dict = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)
    quality: dict = field(default_factory=dict)
    digest: str = ""
    layers: dict = field(default_factory=dict)
    missing: list[str] = field(default_factory=list)
    self_times: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.problems


def run_pass(workload: str, seed: int, pass_dir: Path, config_path,
             traced: bool = False, setup_only: bool = False) -> Pass:
    pass_dir.mkdir(parents=True)
    cmd = [sys.executable, str(WORKER), "--workload", workload,
           "--seed", str(seed), "--dir", str(pass_dir)]
    if config_path is not None:
        cmd += ["--config", str(config_path)]
    if traced:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    log = pass_dir / "log.txt"
    t_spawn = time.perf_counter()
    with open(log, "wb") as fh:
        try:
            rc = subprocess.run(cmd, cwd=ROOT, stdout=fh, stderr=subprocess.STDOUT,
                                timeout=PASS_TIMEOUT_S).returncode
        except subprocess.TimeoutExpired:
            rc = f"timeout after {PASS_TIMEOUT_S} s"
    p = Pass(traced=traced, setup_s=math.nan)
    try:
        p.result = json.loads((pass_dir / "result.json").read_text())
        p.setup_s = p.result["t_ready"] - t_spawn
    except (OSError, ValueError, KeyError):
        p.problems.append("no result from the worker")
    if rc != 0:
        p.problems.append(f"exit code {rc}")
    if not setup_only and not p.problems:
        check_pass(workload, pass_dir, p)
    if p.problems:
        tail = log.read_text(errors="replace")[-2000:]
        print(f"pass failed: {'; '.join(p.problems)}\n{tail}", file=sys.stderr)
    shutil.rmtree(pass_dir)
    return p


def check_pass(workload: str, pass_dir: Path, p: Pass) -> None:
    r = p.result
    p.wall_s = r["t_done"] - r["t_ready"]
    if workload in FILE_BASED:
        p.digest, p.quality, rows = check_workspace(pass_dir / "ws", p.problems)
        if rows != r["n_train"]:
            p.problems.append(f"train.jsonl has {rows} rows, expected {r['n_train']}")
    else:
        p.digest, p.quality = r.get("digest", ""), r.get("quality", {})
    for name, value in p.quality.items():
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            p.problems.append(f"{name} is {value!r}")
    acc = p.quality.get("test_acc")
    if isinstance(acc, (int, float)) and acc < 1.0 - r["noise_rate"]:
        p.problems.append(f"test_acc {acc} below 1 - noise rate")
    if p.traced:
        dump = json.loads((pass_dir / "spans.json").read_text())
        p.layers, p.missing, p.self_times = tracing.layer_metrics(dump, p.wall_s)


def check_repeats(passes: list[Pass]) -> list[str]:
    """Every pass of one seed must produce the same outputs, traced or not,
    and traced passes the same exact counts."""
    notes = []
    ref = next((p for p in passes if p.ok), None)
    for i, p in enumerate(passes, start=1):
        if ref is None or not p.ok or p is ref:
            continue
        if p.digest != ref.digest:
            p.problems.append("artifact hashes differ from the first pass")
        if p.quality != ref.quality:
            p.problems.append("quality figures differ from the first pass")
        if p.problems:
            notes.append(f"pass {i}: {'; '.join(p.problems)}")
    traced = [p for p in passes if p.traced and p.ok]
    for name in tracing.EXACT_COUNTS:
        seen = {p.layers.get(name) for p in traced}
        if len(seen) > 1:
            notes.append(f"count {name} varies between passes: {sorted(seen)}")
    return notes


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def tail(values: list[float]) -> tuple[float, str]:
    """The highest percentile with at least ten values beyond it; with
    fewer than 11 values no percentile has that, and the maximum is used."""
    s = sorted(values)
    n = len(s)
    if n > 10:
        return s[n - 11], f"p{100 * (n - 10) / n:.0f}"
    return s[-1], "max (fewer than 11 passes)"


def end_to_end(untraced: list[Pass], probes: list[Pass]) -> dict:
    """name -> (value, sample count, statistic)."""
    ok = [p for p in untraced if p.ok]
    walls = [p.wall_s for p in ok]
    setups = [p.setup_s for p in probes + untraced if math.isfinite(p.setup_s)]
    tail_value, tail_stat = tail(walls)
    out = {
        "wall_s": (statistics.median(walls), len(walls), "median"),
        "wall_s_tail": (tail_value, len(walls), tail_stat),
        "samples_per_s": (statistics.median(p.result["sample_epochs"] / p.wall_s
                                            for p in ok), len(ok), "median"),
        "setup_s": (statistics.median(setups), len(setups), "median"),
        "peak_rss_mb": (statistics.median(p.result["peak_rss_mb"] for p in ok),
                        len(ok), "median"),
    }
    for name, value in ok[0].quality.items():
        out[name] = (value, len(ok), "same on every pass")
    failed = sum(not p.ok for p in untraced)
    out["fail_frac"] = (failed / len(untraced), len(untraced), "failed/attempted")
    return out


def per_layer(traced: list[Pass], untraced: list[Pass]) -> tuple[dict, list[str]]:
    ok = [p for p in traced if p.ok]
    missing = sorted({m for p in ok for m in p.missing})
    out = {}
    for name in ok[0].layers:
        value = statistics.median(p.layers[name] for p in ok)
        if LAYER_UNITS[name] in ("count", "bytes"):
            value = int(value)  # check_repeats has verified they are equal
        out[name] = (value, len(ok), "median")
    untraced_wall = statistics.median(p.wall_s for p in untraced if p.ok)
    traced_wall = statistics.median(p.wall_s for p in ok)
    out["trace.overhead_frac"] = (traced_wall / untraced_wall - 1.0, len(ok),
                                  "traced median wall / untraced median wall - 1")
    return out, missing


def print_table(title: str, rows: dict, units: dict) -> None:
    print(title)
    for name, (value, n, stat) in rows.items():
        print(f"  {name:<24} {value:>14.6g} {units[name]:<9} n={n:<3} {stat}")


def print_self_times(p: Pass, top: int = 12) -> None:
    print(f"self time by span, first traced pass (top {top})")
    ranked = sorted(p.self_times.items(), key=lambda kv: kv[1], reverse=True)
    for name, value in ranked[:top]:
        print(f"  {name:<36} {value:>10.4f} s")


# ---------------------------------------------------------------------------
# Machine record
# ---------------------------------------------------------------------------

def _blas_threads():
    """OpenBLAS's current thread count, read from the library NumPy loaded."""
    import ctypes
    import glob
    import numpy
    libs = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)),
                        "numpy.libs", "*openblas*")
    for lib in glob.glob(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def machine_record(seed: int) -> dict:
    import numpy
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = {}
    try:
        info = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": info.get("name"), "version": info.get("version"),
                "config": info.get("openblas configuration")}
    except (TypeError, KeyError):
        pass
    try:
        blas["threads"] = _blas_threads()
    except OSError:
        blas["threads"] = None
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "blas": blas, "seed": seed}


# ---------------------------------------------------------------------------
# Running a workload
# ---------------------------------------------------------------------------

def load_declared() -> tuple[dict, dict, dict]:
    """Workload reasons, and end-to-end and per-layer metric units, as
    BENCHMARK.json declares them, checked against this benchmark."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    if sorted(w["name"] for w in spec["workloads"]) != sorted(WORKLOADS):
        raise SystemExit("error: BENCHMARK.json workloads are not this benchmark's")
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for declared, known in ((e2e, E2E_UNITS), (layers, LAYER_UNITS)):
        for name, unit in declared.items():
            if known.get(name) != unit:
                raise SystemExit(f"error: BENCHMARK.json metric {name} [{unit}] "
                                 "is not one this benchmark computes")
    return why, e2e, layers


def bench(workload: str, seed: int, seconds: float, trace: bool,
          declared: tuple[dict, dict, dict]) -> int:
    run_dir = WORK_DIR / f"{workload}-{seed}-{os.getpid()}"
    config_path = None
    try:
        run_dir.mkdir(parents=True)
        cfg = workload_config(workload, seed)
        if cfg is not None:
            config_path = run_dir / "config.json"
            config_path.write_text(json.dumps(cfg))
        counter = itertools.count(1)

        def one(**kw) -> Pass:
            return run_pass(workload, seed, run_dir / f"p{next(counter)}",
                            config_path, **kw)

        probes = [one(setup_only=True) for _ in range(SETUP_PROBES)]
        if not all(p.ok for p in probes):
            print("error: the worker does not start", file=sys.stderr)
            return 1
        # with tracing, each untraced pass is followed by a traced one, so
        # a drift in machine speed affects both sides of the overhead alike
        untraced, traced = [], []
        t0 = time.perf_counter()
        while True:
            round_start = time.perf_counter()
            untraced.append(one())
            if trace:
                traced.append(one(traced=True))
            now = time.perf_counter()
            if (len(untraced) >= MIN_ROUNDS
                    and now - t0 + (now - round_start) > seconds):
                break
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        if WORK_DIR.exists() and not any(WORK_DIR.iterdir()):
            WORK_DIR.rmdir()

    passes = untraced + traced
    notes = check_repeats(passes)
    failed = sum(not p.ok for p in passes)
    if not any(p.ok for p in untraced) or (trace and not any(p.ok for p in traced)):
        print(f"error: every pass of {workload} failed", file=sys.stderr)
        return 1

    why, declared_e2e, declared_layers = declared
    e2e = end_to_end(untraced, probes)
    print(f"== {workload} (seed {seed}): {why[workload]}")
    print(json.dumps({"machine": machine_record(seed), "workload": workload}))
    print_table("end-to-end (untraced passes)", e2e, {**E2E_UNITS, **EXTRA_UNITS})
    if trace:
        layers, missing = per_layer(traced, untraced)
        print_table("per-layer (traced passes)", layers, LAYER_UNITS)
        print_self_times(next(p for p in traced if p.ok))
        if missing:
            print("missing (a wrapped name or its measure no longer applies): "
                  + ", ".join(missing))
        chosen, units = layers, declared_layers
    else:
        chosen, units = e2e, declared_e2e
    for note in notes:
        print("check: " + note)
    result = {
        "correct": failed == 0 and not notes,
        "attempted": len(passes),
        "failed": failed,
        "metrics": {name: {"value": chosen[name][0], "unit": unit}
                    for name, unit in units.items() if name in chosen},
    }
    print(json.dumps(result, allow_nan=False))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(
        description="noisytail benchmark (see the module docstring)")
    p.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    # on SIGTERM, unwind so subprocess.run kills and reaps the running pass
    # and the work directory is removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "noisytail" / "__init__.py").is_file():
        print(f"error: no noisytail sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    declared = load_declared()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    rc = 0
    for name in names:
        rc = bench(name, args.seed, args.seconds, bool(args.trace), declared) or rc
    return rc


if __name__ == "__main__":
    sys.exit(main())
