"""Spans for the traced benchmark pass, and the per-layer metrics built from them.

The worker wraps functions of the `noisytail` modules from outside, by
replacing attributes on their modules or classes; the package itself is not
edited.  Each call through a wrapped name records one span (name, start, end,
parent span), kept in memory and written out when the pass ends.  The parent
process turns the spans into the per-layer metrics listed in `LAYER_METRICS`.

`forward_batch` and `backward_batch` are imported by name into several
modules, so each of those bindings is wrapped under the one span name
`numerics.forward_batch` / `numerics.backward_batch`.  Those module-level
aliases are optional: if a later change drops one, no metric is marked
missing for it.
"""

from __future__ import annotations

import os
import time
from collections import defaultdict


def _file_bytes(counter: str, arg_index: int):
    """Measure: size of the file a save/load call wrote or read."""
    def measure(args, kwargs, result) -> dict:
        return {counter: os.path.getsize(kwargs.get("path", args[arg_index]))}
    return measure


def _rows_loaded(args, kwargs, result) -> dict:
    return {"datagen.rows_loaded": len(result)}


def _relabel_counts(args, kwargs, result) -> dict:
    _, records = result
    return {"refurbish.rows": len(records),
            "refurbish.changed": sum(1 for r in records if r.changed)}


# (module, attribute path, span name, measure, required).  A measure runs
# after the call as measure(args, kwargs, result) and returns counter
# increments.  A required target that no longer exists, or whose measure
# no longer applies, makes the metrics that need it missing; an optional
# one (a re-exported alias) is skipped.
TARGETS = [
    ("cli", "main", "cli.main", None, True),
    ("pipeline", "run_pipeline", "pipeline.run_pipeline", None, True),
    ("pipeline", "run_simulate", "pipeline.run_simulate", None, True),
    ("pipeline", "run_stage1", "pipeline.run_stage1", None, True),
    ("pipeline", "run_refurbish", "pipeline.run_refurbish", None, True),
    ("pipeline", "run_stage2", "pipeline.run_stage2", None, True),
    ("pipeline", "run_evaluate", "pipeline.run_evaluate", None, True),
    ("pipeline", "write_manifest", "pipeline.write_manifest", None, True),
    ("pipeline", "run_in_memory", "pipeline.run_in_memory", None, True),
    ("pipeline", "ce_baseline_accuracy", "pipeline.ce_baseline_accuracy",
     None, True),
    ("datagen", "synth_split", "datagen.synth_split", None, True),
    ("datagen", "apply_noise", "datagen.apply_noise", None, True),
    ("datagen", "save_dataset", "datagen.save_dataset",
     _file_bytes("datagen.bytes_written", -1), True),
    ("datagen", "save_noise_mask", "datagen.save_noise_mask",
     _file_bytes("datagen.bytes_written", -1), True),
    ("datagen", "load_dataset", "datagen.load_dataset", _rows_loaded, True),
    ("stage1", "train_stage1", "stage1.train_stage1", None, True),
    ("stage1", "predict_all", "stage1.predict_all", None, True),
    ("stage1", "augment", "stage1.augment", None, True),
    ("stage1", "_contrastive_batch", "stage1._contrastive_batch", None, True),
    ("stage1", "_banc_batch", "stage1._banc_batch", None, True),
    ("stage1", "_normalize_backward", "stage1._normalize_backward", None, True),
    ("stage1", "FeatureQueue.push_batch", "stage1.FeatureQueue.push_batch",
     None, True),
    ("stage1", "FeatureQueue.as_matrix", "stage1.FeatureQueue.as_matrix",
     None, True),
    ("stage1", "save_stage1_checkpoint", "stage1.save_stage1_checkpoint",
     _file_bytes("stage1.io_bytes", -1), True),
    ("stage1", "load_stage1_checkpoint", "stage1.load_stage1_checkpoint",
     _file_bytes("stage1.io_bytes", 0), True),
    ("stage1", "save_predictions", "stage1.save_predictions",
     _file_bytes("stage1.io_bytes", -1), True),
    ("stage1", "load_predictions", "stage1.load_predictions",
     _file_bytes("stage1.io_bytes", 0), True),
    ("refurbish", "refurbish_dataset", "refurbish.refurbish_dataset",
     _relabel_counts, True),
    ("refurbish", "save_records", "refurbish.save_records", None, True),
    ("refurbish", "load_records", "refurbish.load_records", None, True),
    ("ensemble", "train_stage2", "ensemble.train_stage2", None, True),
    ("ensemble", "soft_class_counts", "ensemble.soft_class_counts", None, True),
    ("ensemble", "evaluate", "ensemble.evaluate", None, True),
    ("ensemble", "save_stage2_checkpoint", "ensemble.save_stage2_checkpoint",
     None, True),
    ("ensemble", "load_stage2_checkpoint", "ensemble.load_stage2_checkpoint",
     None, True),
    ("numerics", "forward_batch", "numerics.forward_batch", None, True),
    ("numerics", "backward_batch", "numerics.backward_batch", None, True),
    ("numerics", "SgdMomentum.step", "numerics.SgdMomentum.step", None, True),
    ("stage1", "forward_batch", "numerics.forward_batch", None, False),
    ("stage1", "backward_batch", "numerics.backward_batch", None, False),
    ("ensemble", "forward_batch", "numerics.forward_batch", None, False),
    ("ensemble", "backward_batch", "numerics.backward_batch", None, False),
    ("pipeline", "forward_batch", "numerics.forward_batch", None, False),
    ("pipeline", "backward_batch", "numerics.backward_batch", None, False),
]


class Tracer:
    """Records one span per call through a wrapped name, in memory."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.missing: list[str] = []
        self._stack = [-1]

    def wrap(self, owner, attr: str, name: str, measure=None) -> None:
        orig = owner.__dict__[attr]
        names, starts, ends, parents = (self.names, self.starts, self.ends,
                                        self.parents)
        stack, counters, missing = self._stack, self.counters, self.missing
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            start = clock()
            try:
                result = orig(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                starts[idx] = start
                ends[idx] = end
            if measure is not None:
                try:
                    for key, value in measure(args, kwargs, result).items():
                        counters[key] += value
                except (AttributeError, TypeError, ValueError, OSError):
                    # the call's arguments or result changed shape: report
                    # the metrics of this span missing instead of failing
                    if name not in missing:
                        missing.append(name)
            return result

        setattr(owner, attr, traced)

    def install(self, modules: dict) -> None:
        """Wrap every target in TARGETS; a required name that no longer
        exists is recorded in `missing` and its metrics are reported missing."""
        for mod_name, path, name, measure, required in TARGETS:
            owner = modules[mod_name]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            if owner is None or attr not in getattr(owner, "__dict__", {}):
                if required:
                    self.missing.append(name)
                continue
            self.wrap(owner, attr, name, measure)

    def dump(self) -> dict:
        """Spans in entry order as [name index, start, end, parent index]."""
        table = sorted(set(self.names))
        index = {n: i for i, n in enumerate(table)}
        return {"names": table,
                "spans": [[index[n], s, e, p] for n, s, e, p in
                          zip(self.names, self.starts, self.ends, self.parents)],
                "counters": dict(self.counters),
                "missing": self.missing}


# ---------------------------------------------------------------------------
# Per-layer metrics from a pass's spans
# ---------------------------------------------------------------------------

_S1_TRAIN, _S1_PREDICT, _S2_TRAIN = 1, 2, 4
_CONTEXT_FLAGS = {"stage1.train_stage1": _S1_TRAIN,
                  "stage1.predict_all": _S1_PREDICT,
                  "ensemble.train_stage2": _S2_TRAIN}


class Spans:
    """A pass's spans with durations and the stage each one ran under."""

    def __init__(self, dump: dict):
        table = dump["names"]
        self.name = [table[s[0]] for s in dump["spans"]]
        self.dur = [s[2] - s[1] for s in dump["spans"]]
        self.parent = [s[3] for s in dump["spans"]]
        self.counters = dump["counters"]
        self.missing = set(dump["missing"])
        # a span's parent was entered before it, so one forward sweep
        # propagates the stage flags down the tree
        self.flags = []
        for name, parent in zip(self.name, self.parent):
            inherited = self.flags[parent] if parent >= 0 else 0
            self.flags.append(inherited | _CONTEXT_FLAGS.get(name, 0))
        self.by_name = defaultdict(list)
        for i, name in enumerate(self.name):
            self.by_name[name].append(i)

    def total(self, name: str, where=None) -> float:
        return sum(self.dur[i] for i in self.by_name[name]
                   if where is None or where(i))

    def count(self, name: str, where=None) -> int:
        return sum(1 for i in self.by_name[name] if where is None or where(i))

    def in_stage1_training(self, i: int) -> bool:
        """Under train_stage1 but not in its final predict_all."""
        return self.flags[i] & (_S1_TRAIN | _S1_PREDICT) == _S1_TRAIN

    def in_stage2_training(self, i: int) -> bool:
        return bool(self.flags[i] & _S2_TRAIN)

    def under(self, parent_name: str):
        return lambda i: (self.parent[i] >= 0
                          and self.name[self.parent[i]] == parent_name)

    def root_time(self) -> float:
        return sum(d for d, p in zip(self.dur, self.parent) if p < 0)

    def self_times(self) -> dict[str, float]:
        """Per span name: its total time minus the time its children cover."""
        covered = [0.0] * len(self.dur)
        for d, p in zip(self.dur, self.parent):
            if p >= 0:
                covered[p] += d
        out = defaultdict(float)
        for name, d, c in zip(self.name, self.dur, covered):
            out[name] += d - c
        return dict(out)


def _stage1_train_s(t: Spans) -> float:
    return (t.total("stage1.train_stage1")
            - t.total("stage1.predict_all", t.under("stage1.train_stage1")))


def _phase_s(t: Spans, file_span: str, *in_memory_spans: str) -> float:
    """A pipeline phase: its `run_*` command when file-based, or the layer
    calls `run_in_memory` makes for it."""
    in_memory = t.under("pipeline.run_in_memory")
    return t.total(file_span) + sum(t.total(n, in_memory) for n in in_memory_spans)


_STAGE1_IO_SPANS = ("stage1.save_stage1_checkpoint",
                    "stage1.load_stage1_checkpoint",
                    "stage1.save_predictions", "stage1.load_predictions")
_TRAIN_S1 = ("stage1.train_stage1", "stage1.predict_all")
_STEP = "numerics.SgdMomentum.step"
# the parts of a stage-1 training step, each with the spans it sums
_STAGE1_PARTS = {
    "stage1.augment_s": ("stage1.augment",),
    "stage1.forward_s": ("numerics.forward_batch",),
    "stage1.contrastive_s": ("stage1._contrastive_batch",),
    "stage1.banc_s": ("stage1._banc_batch",),
    "stage1.backward_s": ("numerics.backward_batch", "stage1._normalize_backward"),
    "stage1.optim_s": (_STEP,),
    "stage1.queue_push_s": ("stage1.FeatureQueue.push_batch",),
    "stage1.queue_read_s": ("stage1.FeatureQueue.as_matrix",),
}
_ALL_PART_SPANS = tuple(n for spans in _STAGE1_PARTS.values() for n in spans)


def _stage1_part(t: Spans, spans: tuple) -> float:
    return sum(t.total(n, t.in_stage1_training) for n in spans)


# name -> (unit, span names it needs, value from a Spans).  trace.overhead_frac
# compares traced and untraced passes, so the runner adds it.
LAYER_METRICS = {
    "stage1.train_s": ("s", _TRAIN_S1, _stage1_train_s),
    "stage1.steps": ("count", _TRAIN_S1 + (_STEP,),
                     lambda t: t.count(_STEP, t.in_stage1_training)),
    "stage1.step_ms": ("ms", _TRAIN_S1 + (_STEP,),
                       lambda t: 1e3 * _stage1_train_s(t)
                       / max(1, t.count(_STEP, t.in_stage1_training))),
    **{name: ("s", _TRAIN_S1 + spans,
              lambda t, spans=spans: _stage1_part(t, spans))
       for name, spans in _STAGE1_PARTS.items()},
    "stage1.forward_calls": ("count", _TRAIN_S1 + ("numerics.forward_batch",),
                             lambda t: t.count("numerics.forward_batch",
                                               t.in_stage1_training)),
    "stage1.other_s": ("s", _TRAIN_S1 + _ALL_PART_SPANS,
                       lambda t: _stage1_train_s(t)
                       - sum(_stage1_part(t, spans)
                             for spans in _STAGE1_PARTS.values())),
    "stage1.predict_s": ("s", ("stage1.predict_all",),
                         lambda t: t.total("stage1.predict_all")),
    "stage1.io_s": ("s", _STAGE1_IO_SPANS,
                    lambda t: sum(t.total(n) for n in _STAGE1_IO_SPANS)),
    "stage1.io_bytes": ("bytes", _STAGE1_IO_SPANS,
                        lambda t: t.counters.get("stage1.io_bytes", 0)),
    "datagen.synth_s": ("s", ("datagen.synth_split", "datagen.apply_noise"),
                        lambda t: t.total("datagen.synth_split")
                        + t.total("datagen.apply_noise")),
    "datagen.save_s": ("s", ("datagen.save_dataset", "datagen.save_noise_mask"),
                       lambda t: t.total("datagen.save_dataset")
                       + t.total("datagen.save_noise_mask")),
    "datagen.load_s": ("s", ("datagen.load_dataset",),
                       lambda t: t.total("datagen.load_dataset")),
    "datagen.rows_loaded": ("count", ("datagen.load_dataset",),
                            lambda t: t.counters.get("datagen.rows_loaded", 0)),
    "datagen.bytes_written": ("bytes", ("datagen.save_dataset",
                                        "datagen.save_noise_mask"),
                              lambda t: t.counters.get("datagen.bytes_written", 0)),
    "refurbish.relabel_s": ("s", ("refurbish.refurbish_dataset",),
                            lambda t: t.total("refurbish.refurbish_dataset")),
    "refurbish.rows": ("count", ("refurbish.refurbish_dataset",),
                       lambda t: t.counters.get("refurbish.rows", 0)),
    "refurbish.changed_frac": ("ratio", ("refurbish.refurbish_dataset",),
                               lambda t: t.counters.get("refurbish.changed", 0)
                               / max(1, t.counters.get("refurbish.rows", 0))),
    "refurbish.io_s": ("s", ("refurbish.save_records", "refurbish.load_records"),
                       lambda t: t.total("refurbish.save_records")
                       + t.total("refurbish.load_records")),
    "ensemble.train_s": ("s", ("ensemble.train_stage2",),
                         lambda t: t.total("ensemble.train_stage2")),
    "ensemble.steps": ("count", ("ensemble.train_stage2", _STEP),
                       lambda t: t.count(_STEP, t.in_stage2_training)),
    "ensemble.optim_s": ("s", ("ensemble.train_stage2", _STEP),
                         lambda t: t.total(_STEP, t.in_stage2_training)),
    "ensemble.soft_counts_s": ("s", ("ensemble.soft_class_counts",),
                               lambda t: t.total("ensemble.soft_class_counts")),
    "ensemble.eval_s": ("s", ("ensemble.evaluate",),
                        lambda t: t.total("ensemble.evaluate")),
    "ensemble.io_s": ("s", ("ensemble.save_stage2_checkpoint",
                            "ensemble.load_stage2_checkpoint"),
                      lambda t: t.total("ensemble.save_stage2_checkpoint")
                      + t.total("ensemble.load_stage2_checkpoint")),
    "numerics.forward_calls": ("count", ("numerics.forward_batch",),
                               lambda t: t.count("numerics.forward_batch")),
    "numerics.backward_calls": ("count", ("numerics.backward_batch",),
                                lambda t: t.count("numerics.backward_batch")),
    "numerics.sgd_steps": ("count", (_STEP,), lambda t: t.count(_STEP)),
    "pipeline.simulate_s": ("s", ("pipeline.run_simulate", "pipeline.run_in_memory",
                                  "datagen.synth_split", "datagen.apply_noise"),
                            lambda t: _phase_s(t, "pipeline.run_simulate",
                                               "datagen.synth_split",
                                               "datagen.apply_noise")),
    "pipeline.stage1_s": ("s", ("pipeline.run_stage1", "pipeline.run_in_memory",
                                "stage1.train_stage1"),
                          lambda t: _phase_s(t, "pipeline.run_stage1",
                                             "stage1.train_stage1")),
    "pipeline.refurbish_s": ("s", ("pipeline.run_refurbish",
                                   "pipeline.run_in_memory",
                                   "refurbish.refurbish_dataset"),
                             lambda t: _phase_s(t, "pipeline.run_refurbish",
                                                "refurbish.refurbish_dataset")),
    "pipeline.stage2_s": ("s", ("pipeline.run_stage2", "pipeline.run_in_memory",
                                "ensemble.train_stage2"),
                          lambda t: _phase_s(t, "pipeline.run_stage2",
                                             "ensemble.train_stage2")),
    "pipeline.evaluate_s": ("s", ("pipeline.run_evaluate",
                                  "pipeline.run_in_memory", "ensemble.evaluate"),
                            lambda t: _phase_s(t, "pipeline.run_evaluate",
                                               "ensemble.evaluate")),
    "pipeline.manifest_s": ("s", ("pipeline.write_manifest",),
                            lambda t: t.total("pipeline.write_manifest")),
    "pipeline.ce_baseline_s": ("s", ("pipeline.ce_baseline_accuracy",),
                               lambda t: t.total("pipeline.ce_baseline_accuracy")),
}

# counts that must repeat exactly between passes of one seed
EXACT_COUNTS = ("stage1.steps", "stage1.forward_calls", "stage1.io_bytes",
                "ensemble.steps", "numerics.forward_calls",
                "numerics.backward_calls", "numerics.sgd_steps",
                "refurbish.rows", "datagen.rows_loaded", "datagen.bytes_written")


def layer_metrics(dump: dict, pass_wall_s: float
                  ) -> tuple[dict, list[str], dict[str, float]]:
    """Per-layer values for one traced pass, the metrics reported missing
    because a span they need could not be wrapped, and self times by span."""
    t = Spans(dump)
    values, missing = {}, []
    for name, (_, needs, value) in LAYER_METRICS.items():
        if t.missing.intersection(needs):
            missing.append(name)
        else:
            values[name] = value(t)
    values["trace.unaccounted_s"] = pass_wall_s - t.root_time()
    return values, missing, t.self_times()
