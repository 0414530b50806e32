"""Command-line pipeline driver.

Commands write their artifacts plus a JSON manifest to a workspace
directory (--out).  A single-stage command reads its inputs from there;
`pipeline` hands each stage's outputs to the next in memory.  Exit codes:
0 success, 2 config/validation error, 3 I/O error, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from .errors import (
    InvalidInputError,
    InvalidSpecError,
    NumericError,
    ParseError,
)
from . import pipeline
from .pipeline import PipelineConfig, SweepSpec

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_NUMERIC = 4


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", type=Path, default=None,
                   help="JSON config mirroring PipelineConfig (default: built-in profile)")
    p.add_argument("--out", type=Path, default=None,
                   help="workspace directory (default: config out_dir)")
    p.add_argument("--seed", type=int, default=None,
                   help="global seed override; per-stage seeds are derived from it")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="noisytail",
        description="Two-stage noisy-label long-tail classification pipeline "
                    "on feature-vector datasets.")
    sub = p.add_subparsers(dest="command", required=True)

    for name, desc in [
        ("simulate", "generate the long-tailed noisy train split and clean test split"),
        ("stage1", "contrastive + pre-screening classifier training"),
        ("refurbish", "soft labels from observed labels and the stage-1 checkpoint"),
        ("stage2", "train the three-expert ensemble over the frozen backbone"),
        ("evaluate", "score the ensemble on the test split with shot subgroups"),
        ("pipeline", "run all stages in order"),
    ]:
        sp = sub.add_parser(name, help=desc)
        _add_common(sp)
        if name in ("stage2", "evaluate"):
            sp.add_argument("--no-relabel", action="store_true",
                            help="use one-hot observed labels instead of "
                                 "refurbished soft labels (ablation)")

    sp = sub.add_parser("sweep", help="rerun the pipeline over a hyperparameter grid")
    _add_common(sp)
    sp.add_argument("--param", required=True, choices=pipeline.SWEEP_PARAMS,
                    help="hyperparameter to sweep")
    sp.add_argument("--grid", required=True,
                    help="comma-separated values, e.g. 0,2,6,10")

    sp = sub.add_parser("rarity-curve", help="emit the rarity score gamma(h) as CSV")
    sp.add_argument("--sigma", type=float, default=0.2)
    sp.add_argument("--out", type=Path, required=True)
    sp.add_argument("--svg", action="store_true", help="also render an SVG chart")
    return p


def _load_config(args) -> PipelineConfig:
    cfg = pipeline.load_config(args.config) if args.config else pipeline.default_config()
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=int(args.seed))
    return cfg


def _out_dir(args, cfg: PipelineConfig) -> Path:
    if args.out is not None:
        return args.out
    if cfg.out_dir:
        return Path(cfg.out_dir)
    raise InvalidSpecError("no output directory: pass --out or set out_dir in the config")


def _print_metrics(command: str, metrics: dict) -> None:
    print(f"[{command}] " + json.dumps(metrics, sort_keys=True, default=str,
                                               allow_nan=False))


def run(args) -> int:
    if args.command == "rarity-curve":
        path = pipeline.write_rarity_curve(args.sigma, args.out, svg=args.svg)
        print(f"[rarity-curve] wrote {path}")
        return EXIT_OK

    cfg = _load_config(args)
    out = _out_dir(args, cfg)
    # run_pipeline and run_sweep open a workspace of their own
    if args.command == "pipeline":
        metrics = pipeline.run_pipeline(cfg, out)
    elif args.command == "sweep":
        try:
            grid = [float(v) for v in args.grid.split(",") if v.strip() != ""]
        except ValueError as e:
            raise InvalidSpecError(f"bad --grid value: {e}") from e
        rows = pipeline.run_sweep(cfg, SweepSpec(args.param, grid), out)
        best = max(rows, key=lambda r: r["accuracy"])
        print(f"best {args.param}={best['value']} "
              f"(accuracy {best['accuracy']:.4f})")
        metrics = {"rows": rows}
    else:
        # nothing in memory yet: inputs come from --out.  Leaving the block
        # waits for the forked writers, then writes the manifest.
        run_stage = getattr(pipeline, f"run_{args.command}")
        flags = {"no_relabel": args.no_relabel} if "no_relabel" in args else {}
        with pipeline.Workspace(out) as ws:
            metrics = run_stage(cfg, ws, **flags)
        if args.command == "simulate":
            print("class sizes (head to tail):", metrics["class_counts"])

    _print_metrics(args.command, metrics)
    return EXIT_OK


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return run(args)
    except (InvalidSpecError, InvalidInputError, ParseError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return EXIT_IO
    except (NumericError, FloatingPointError) as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
