"""Span tracing from outside the program, and the per-layer metrics.

``Tracer.install`` replaces every public function of the gdasum modules
in each module namespace that holds it, under any name, which is where
its callers look it up: ``gdasum.train.forward`` and ``gdasum.summarize.forward`` both
become the traced ``model.forward``.  ``SegmentCostTable`` construction
is traced through its ``__init__`` and ``gdasum.cli.main`` as the span
``cli``.  Methods called once per DP cell (``SegmentCostTable.costs``)
are left alone, so tracing adds a few microseconds per call and none
inside the hot loops.  ``uninstall`` puts the originals back.

Every call records a span (name, start, end, parent) in memory; spans
are written out once, at the end of the run.  A span's self time is
its duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import time
from collections import defaultdict

TRACED_MODULES = ("data", "kts", "losses", "metrics", "model", "summarize", "train")


def _forward_flop(arguments, result):
    """Matrix-product FLOPs of one forward pass, from its shapes."""
    n = arguments["x"].shape[0]
    d, h, e = arguments["params"].dims
    return {"model.forward.flop": 2 * n * (4 * d * d + n * d + d * h + h + d * e)}


def _kts_counts(arguments, result):
    """Segment costs the DP evaluates: sum over k and t of (t - k + 1)."""
    n = arguments["x"].shape[0]
    max_segments = arguments.get("max_segments")
    kmax = min(math.ceil(n / 10) if max_segments is None else max_segments, n)
    evals = sum((n - k + 1) * (n - k + 2) // 2 for k in range(1, kmax + 1))
    return {"kts.cost_evaluations": evals, "kts.segments": len(result) + 1}


def _knapsack_cells(arguments, result):
    cells = len(arguments["values"]) * (int(arguments["budget"]) + 1)
    return {"summarize.knapsack_cells": cells}


COUNTERS = {
    "model.forward": _forward_flop,
    "kts.kts_changepoints": _kts_counts,
    "summarize.knapsack_select": _knapsack_cells,
}


class Tracer:
    """Records nested spans of gdasum calls while installed."""

    def __init__(self, gdasum):
        self.gdasum = gdasum
        self.spans = []  # [name, start, end, parent index]
        self.counts = defaultdict(float)
        self._stack = []
        self._patches = []

    def _wrap(self, name, fn):
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn) if counter is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            index = len(self.spans)
            span = [name, time.perf_counter(), None, parent]
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                arguments = signature.bind(*args, **kwargs).arguments
                for key, value in counter(arguments, result).items():
                    self.counts[key] += value
            return result

        return traced

    def install(self):
        pkg = self.gdasum
        by_short = {m: importlib.import_module(f"gdasum.{m}") for m in TRACED_MODULES}
        cli = importlib.import_module("gdasum.cli")
        traced = {}  # id of a public function -> (function, its traced wrapper)
        for short, mod in by_short.items():
            for attr, fn in vars(mod).items():
                if not attr.startswith("_") and inspect.isfunction(fn) and (
                    fn.__module__ == mod.__name__
                ):
                    traced[id(fn)] = (fn, self._wrap(f"{short}.{attr}", fn))
        for holder in [*by_short.values(), cli, pkg]:
            for attr, value in list(vars(holder).items()):
                if id(value) in traced:
                    self._patch(holder, attr, value, traced[id(value)][1])
        table = by_short["kts"].SegmentCostTable
        self._patch(table, "__init__", table.__init__,
                    self._wrap("kts.SegmentCostTable", table.__init__))
        self._patch(cli, "main", cli.main, self._wrap("cli", cli.main))

    def _patch(self, holder, attr, original, traced):
        setattr(holder, attr, traced)
        self._patches.append((holder, attr, original))

    def uninstall(self):
        for holder, attr, original in reversed(self._patches):
            setattr(holder, attr, original)
        self._patches.clear()

    def self_times(self) -> tuple[dict, dict]:
        """Per-name total self time and call count over all spans."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        self_s = defaultdict(float)
        calls = defaultdict(int)
        for (name, start, end, _), inner in zip(self.spans, child_time):
            self_s[name] += (end - start) - inner
            calls[name] += 1
        return self_s, calls

    def write(self, path):
        with open(path, "w") as fh:
            for index, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps(
                    {"id": index, "name": name, "start": start, "end": end, "parent": parent}
                ) + "\n")


# name -> (unit, better); values are per traced round
PER_LAYER = {
    "model.forward.self_s": ("s", "lower"),
    "model.forward.calls": ("count", "lower"),
    "model.forward.gflop_per_s": ("GFLOP/s", "higher"),
    "losses.total_loss.self_s": ("s", "lower"),
    "losses.backward.self_s": ("s", "lower"),
    "losses.dpp_kernel.self_s": ("s", "lower"),
    "losses.dpp_log_prob.self_s": ("s", "lower"),
    "losses.pairwise_sq_dists.self_s": ("s", "lower"),
    "losses.pairwise_sq_dists.calls": ("count", "lower"),
    "train.clip_gradients.self_s": ("s", "lower"),
    "train.adam_step.self_s": ("s", "lower"),
    "train.save_checkpoint.self_s": ("s", "lower"),
    "train.load_checkpoint.self_s": ("s", "lower"),
    "train.steps": ("count", "higher"),
    "kts.kts_changepoints.self_s": ("s", "lower"),
    "kts.SegmentCostTable.self_s": ("s", "lower"),
    "kts.cost_evaluations": ("count", "lower"),
    "kts.segments": ("count", "lower"),
    "summarize.shot_scores.self_s": ("s", "lower"),
    "summarize.knapsack_select.self_s": ("s", "lower"),
    "summarize.knapsack_cells": ("count", "lower"),
    "metrics.video_fscore.self_s": ("s", "lower"),
    "metrics.diversity_zeta.self_s": ("s", "lower"),
    "data.load_manifest.self_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "trace.overhead_pct": ("%", "lower"),
}


def per_layer_metrics(tracer: Tracer, rounds: int, overhead_pct: float) -> dict:
    """The per-layer metrics, averaged over ``rounds`` traced rounds."""
    self_s, calls = tracer.self_times()
    values = {}
    for key in PER_LAYER:
        layer, _, stat = key.rpartition(".")
        if stat == "self_s":
            values[key] = self_s.get(layer, 0.0) / rounds
        elif stat == "calls":
            values[key] = calls.get(layer, 0) / rounds
        else:
            values[key] = tracer.counts.get(key, 0) / rounds
    forward_s = self_s.get("model.forward", 0.0)
    flop = tracer.counts.get("model.forward.flop", 0.0)
    values["model.forward.gflop_per_s"] = flop / forward_s / 1e9 if forward_s else 0.0
    values["train.steps"] = calls.get("train.adam_step", 0) / rounds
    values["trace.overhead_pct"] = overhead_pct
    return {key: {"value": values[key], "unit": PER_LAYER[key][0]} for key in PER_LAYER}
