"""Spans around calls into lanekit, recorded from outside the library.

``Tracer.install`` replaces public functions at the module attribute where
lanekit (or a workload's op) looks them up, for example
``lanekit.pipeline.point_nms``; ``uninstall`` puts the originals back.  Each
call records a span (id, name, start, end, parent span, op id) and, for
some functions, counts taken from its arguments or return value.  Spans stay
in memory until the run ends.  A wrap target missing from lanekit (renamed
by a later change) is skipped, and the metrics that depend on it are
reported as absent.
"""

import importlib
import itertools
import os
import statistics
import threading
import time
from collections import defaultdict
from dataclasses import dataclass

import numpy as np


def _file_bytes(args, kwargs, result):
    return {"io.read_bytes": os.path.getsize(args[0])}


def _frame_bytes(args, kwargs, result):
    size = os.path.getsize(args[0])
    return {"io.frame_bytes": size, "io.read_bytes": size}


def _nms_counts(args, kwargs, result):
    return {"nms.proposals": len(args[0]), "nms.kept": len(result)}


def _terminal_counts(args, kwargs, result):
    starts, ends = result
    return {"graph.starts": len(starts), "graph.ends": len(ends),
            "graph.pairs": len(starts) * len(ends)}


def _feasible_counts(args, kwargs, result):
    costs = result.costs
    return {"matching.feasible": int(np.isfinite(costs).sum()), "matching.cells": costs.size}


def _match_name(args, kwargs):
    strongest = kwargs.get("strongest", args[3] if len(args) > 3 else False)
    repeats = kwargs.get("repeats_n", args[2] if len(args) > 2 else 1)
    return "matching.match_strongest" if strongest or repeats == 1 else "matching.match_dup"


@dataclass(frozen=True)
class Wrap:
    module: str
    attr: str
    span: object          # span name, or f(args, kwargs) -> name
    count: object = None  # f(args, kwargs, result) -> {counter: value}
    feeds: tuple = ()     # metrics lost when the target is missing


WRAPS = (
    Wrap("lanekit.cli", "load_prediction_frame", "io.load_frame", _frame_bytes,
         ("io.load_frame_ms", "io.frame_bytes")),
    Wrap("lanekit.cli", "save_lane_frame", "io.save_lanes", None, ("io.save_lanes_ms",)),
    Wrap("lanekit.cli", "load_lane_frame", "io.load_lanes", _file_bytes, ("io.load_lanes_ms",)),
    Wrap("lanekit.cli", "load_ground_truth", "io.load_gt", _file_bytes, ("io.load_gt_ms",)),
    Wrap("lanekit.cli", "run_pipeline", "pipeline.run", None,
         ("pipeline.run_ms", "pipeline.self_ms")),
    Wrap("lanekit.pipeline", "run_pipeline", "pipeline.run", None,
         ("pipeline.run_ms", "pipeline.self_ms")),
    Wrap("lanekit.pipeline", "infer_nms_thresholds", "pipeline.infer_thresholds", None,
         ("pipeline.infer_thresholds_ms",)),
    Wrap("lanekit.pipeline", "point_nms", "nms.point_nms", _nms_counts,
         ("nms.point_nms_ms", "nms.proposals", "nms.kept", "nms.keep_ratio")),
    Wrap("lanekit.nms", "build_nms_boxes", "nms.build_boxes", None, ("nms.build_boxes_ms",)),
    Wrap("lanekit.nms", "box_nms", "nms.box_nms", None, ("nms.box_nms_ms",)),
    Wrap("lanekit.pipeline", "extract_lanes", "graph.extract",
         lambda a, k, r: {"graph.lanes": len(r)},
         ("graph.extract_ms", "graph.self_ms", "graph.lanes", "graph.pair_yield")),
    Wrap("lanekit.graph", "threshold_adjacency", "graph.threshold",
         lambda a, k, r: {"graph.edges": len(r.edge_src)}, ("graph.threshold_ms", "graph.edges")),
    Wrap("lanekit.graph", "find_terminals", "graph.terminals", _terminal_counts,
         ("graph.terminals_ms", "graph.starts", "graph.ends", "graph.pair_yield")),
    Wrap("lanekit.graph", "aggregate_lane_attributes", "graph.aggregate", None,
         ("graph.aggregate_ms",)),
    Wrap("lanekit.cli", "evaluate", "metrics.evaluate", None,
         ("metrics.evaluate_ms", "metrics.self_ms")),
    Wrap("lanekit.metrics", "solve_assignment", "metrics.solve", None,
         ("metrics.solve_ms", "metrics.solve_calls")),
    Wrap("lanekit.matching", "match_keypoints", _match_name, None,
         ("matching.match_dup_ms", "matching.match_strongest_ms")),
    Wrap("lanekit.matching", "build_cost_matrix", "matching.build_cost", _feasible_counts,
         ("matching.build_cost_ms", "matching.feasible_ratio")),
    Wrap("lanekit.matching", "solve_assignment", "matching.solve", None, ("matching.solve_ms",)),
    Wrap("lanekit.matching", "linear_sum_assignment", "matching.lsa", None,
         ("matching.lsa_ms", "matching.lsa_calls")),
    Wrap("lanekit.matching", "build_connection_targets", "matching.targets", None,
         ("matching.targets_ms",)),
    Wrap("lanekit.connection_head", "adjacency_forward", "connection_head.forward",
         lambda a, k, r: {"connection_head.pairs": r.probs.size},
         ("connection_head.forward_ms", "connection_head.pairs")),
    Wrap("lanekit.geometry", "bilinear_sample", "geometry.sample", None, ("geometry.sample_ms",)),
)

# Spans whose self time (duration minus what child spans cover) is a metric.
SELF_TIME = {"pipeline.run": "pipeline.self_ms", "graph.extract": "graph.self_ms",
             "metrics.evaluate": "metrics.self_ms"}
# Metrics counted as the number of spans of that name in an op.
CALLS = {"metrics.solve_calls": "metrics.solve", "matching.lsa_calls": "matching.lsa"}
# Ratios of per-op count sums: metric -> (numerator, denominator).
RATIOS = {"nms.keep_ratio": ("nms.kept", "nms.proposals"),
          "graph.pair_yield": ("graph.lanes", "graph.pairs"),
          "matching.feasible_ratio": ("matching.feasible", "matching.cells")}
COUNTS = ("io.frame_bytes", "io.read_bytes", "nms.proposals", "nms.kept", "graph.edges",
          "graph.starts", "graph.ends", "graph.lanes", "connection_head.pairs")
OP_SPAN = "op"
# Metric prefixes that come from spans and counts.
LAYERS = ("io", "cli", "pipeline", "nms", "graph", "metrics", "matching", "connection_head",
          "geometry")


class Tracer:
    def __init__(self):
        self.spans = []        # (id, name, start, end, parent id, op id)
        self.counts = []       # (op id, counter, value)
        self.absent = set()    # metrics whose wrap target is missing
        self.op = None
        self._op_span = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._saved = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name, fn, args, kwargs):
        """Runs ``fn`` inside a span.  A call from a worker thread with no
        span of its own is parented to the op."""
        stack = self._stack()
        parent = stack[-1] if stack else self._op_span
        span_id = next(self._ids)
        stack.append(span_id)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((span_id, name, start, end, parent, self.op))

    def run_op(self, op_id, fn, *args):
        """Runs one op as the root span of its calls."""
        self.op = op_id
        stack = self._stack()
        span_id = next(self._ids)
        self._op_span = span_id
        stack.append(span_id)
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((span_id, OP_SPAN, start, end, None, op_id))
            self._op_span = None

    def _wrapper(self, wrap, original):
        def traced(*args, **kwargs):
            name = wrap.span(args, kwargs) if callable(wrap.span) else wrap.span
            result = self.call(name, original, args, kwargs)
            if wrap.count is not None:
                for counter, value in wrap.count(args, kwargs, result).items():
                    self.counts.append((self.op, counter, value))
            return result
        return traced

    def install(self):
        missing = defaultdict(list)
        for wrap in WRAPS:
            try:
                module = importlib.import_module(wrap.module)
            except ModuleNotFoundError:
                module = None
            original = getattr(module, wrap.attr, None)
            missing[wrap.feeds].append(original is None)
            if original is None:
                continue
            self._saved.append((module, wrap.attr, original))
            setattr(module, wrap.attr, self._wrapper(wrap, original))
        # A metric is absent only when every wrap that feeds it is missing.
        for feeds, gone in missing.items():
            if all(gone):
                self.absent.update(feeds)

    def uninstall(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()


def _covered(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of ``intervals``."""
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def per_op_values(tracer, op_ids, cli_self):
    """{metric: [value per op]} for every traced op in ``op_ids``."""
    ops = set(op_ids)
    children = defaultdict(list)
    for span_id, name, start, end, parent, op in tracer.spans:
        if op in ops and parent is not None:
            children[parent].append((start, end))
    times = defaultdict(lambda: defaultdict(float))
    calls = defaultdict(lambda: defaultdict(int))
    for span_id, name, start, end, parent, op in tracer.spans:
        if op not in ops:
            continue
        times[op][name + "_ms"] += (end - start) * 1e3
        calls[op][name] += 1
        self_metric = SELF_TIME.get(name) or ("cli.self_ms" if name == OP_SPAN and cli_self
                                              else None)
        if self_metric:
            own = (end - start) - _covered(children[span_id], start, end)
            times[op][self_metric] += own * 1e3
    counts = defaultdict(lambda: defaultdict(int))
    for op, counter, value in tracer.counts:
        if op in ops:
            counts[op][counter] += value

    time_names = {name for op in op_ids for name in times[op]}
    values = defaultdict(list)
    for op in op_ids:
        for name in time_names:
            values[name].append(times[op].get(name, 0.0))
        for metric, span in CALLS.items():
            values[metric].append(calls[op][span])
        for counter in COUNTS:
            values[counter].append(counts[op][counter])
        for metric, (num, den) in RATIOS.items():
            values[metric].append(counts[op][num] / counts[op][den] if counts[op][den] else 0.0)
    return values


def layer_metrics(tracer, op_ids, names, cli_self):
    """Median per op of every per-layer metric in ``names``; a layer the
    workload never calls reads 0, a metric whose wrap target is missing is
    left out."""
    values = per_op_values(tracer, op_ids, cli_self)
    out = {}
    for name in names:
        if name in tracer.absent:
            continue
        out[name] = float(statistics.median(values.get(name) or [0.0]))
    return out
