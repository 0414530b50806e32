"""One benchmark pass, run by `run.py` in a fresh process.

    python3 perfbench/worker.py --workload NAME --seed S --dir DIR \
        [--config FILE] [--trace] [--setup-only]

Imports `noisytail` from the checkout's `src/`, builds the workload's
config, and records `time.perf_counter()` just before the first call into
the package: the parent, which read the same monotonic clock just before
starting this process, takes the difference as set-up time.  Then it runs
the workload once and writes `DIR/result.json` (and, with `--trace`,
`DIR/spans.json`).  File-based workloads write their artifacts to `DIR/ws`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def _sample_epochs(workload: str, cfg, n_train: int) -> int:
    """Training sample-epochs over every training call the workload makes."""
    one_chain = cfg.stage1.epochs + cfg.stage2.epochs
    if workload == "ablation_inmem":
        # two full chains plus the plain-CE baseline, which trains for
        # the stage-1 epoch count
        return n_train * (2 * one_chain + cfg.stage1.epochs)
    return n_train * one_chain


def _run(workload: str, cfg, seed: int, ws: Path, config_path) -> tuple[int, dict]:
    from noisytail import cli, pipeline

    if workload == "pipeline_default":
        return cli.main(["pipeline", "--out", str(ws), "--seed", str(seed)]), {}
    if workload == "pipeline_48k":
        return cli.main(["pipeline", "--out", str(ws),
                         "--config", str(config_path)]), {}
    full = pipeline.run_in_memory(cfg)
    norelabel = pipeline.run_in_memory(cfg, no_relabel=True)
    ce_acc = pipeline.ce_baseline_accuracy(
        full.train, full.test, cfg.stage1, pipeline.stage_seed(cfg.seed, "baseline"))
    quality = {
        "test_acc": full.report.overall_accuracy,
        "test_acc_few": full.report.subgroup_accuracy["few"],
        "stage1_acc_true": full.metrics["stage1_accuracy_vs_true"],
        "test_acc_norelabel": norelabel.report.overall_accuracy,
        "test_acc_ce": ce_acc,
    }
    outputs = json.dumps([full.report.to_json_dict(), full.metrics,
                          norelabel.report.to_json_dict(), norelabel.metrics,
                          ce_acc], sort_keys=True, allow_nan=False)
    return 0, {"quality": quality,
               "digest": hashlib.sha256(outputs.encode()).hexdigest()}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True,
                   choices=("pipeline_default", "pipeline_48k", "ablation_inmem"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--dir", type=Path, required=True)
    p.add_argument("--config", type=Path, default=None)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    sys.path.insert(0, str(SRC))
    import noisytail
    from noisytail import cli, datagen, ensemble, numerics, pipeline, refurbish, stage1

    if Path(noisytail.__file__).resolve().parent != SRC / "noisytail":
        print(f"error: imported noisytail from {noisytail.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    cfg = (pipeline.load_config(args.config) if args.config is not None
           else pipeline.default_config(seed=args.seed))

    tracer = None
    if args.trace:
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        from tracing import Tracer
        tracer = Tracer()
        tracer.install({"cli": cli, "pipeline": pipeline, "datagen": datagen,
                        "stage1": stage1, "refurbish": refurbish,
                        "ensemble": ensemble, "numerics": numerics})

    t_ready = time.perf_counter()
    result = {"t_ready": t_ready}
    if not args.setup_only:
        try:
            rc, extra = _run(args.workload, cfg, args.seed, args.dir / "ws",
                             args.config)
        except Exception:  # the pass fails; the parent counts it
            traceback.print_exc()
            rc, extra = 1, {}
        result.update(extra)
        result["t_done"] = time.perf_counter()
        result["rc"] = rc
        n_train = sum(datagen.longtail_counts(cfg.longtail))
        result["n_train"] = n_train
        result["sample_epochs"] = _sample_epochs(args.workload, cfg, n_train)
        result["noise_rate"] = cfg.noise.rate
        # ru_maxrss is in KiB on Linux
        result["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                                 * 1024 / 1e6)
    if tracer is not None:
        with open(args.dir / "spans.json", "w", encoding="utf-8") as fh:
            json.dump(tracer.dump(), fh)
    with open(args.dir / "result.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh, allow_nan=False)
    return result.get("rc", 0)


if __name__ == "__main__":
    sys.exit(main())
