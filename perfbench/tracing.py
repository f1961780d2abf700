"""Span tracing for the benchmark's traced run, recorded from outside the library.

For the length of one traced op, each traced function is replaced by a
wrapper installed under the name its caller looks it up by: `overall_h` as
`optimizer.overall_h` (where `cpp_optimize` finds it), `sweep_optimize` as
`experiments.sweep_optimize` (where the trial loop finds it) and as
`optimizer.sweep_optimize` (where the benchmark calls it directly).  Spans
stay in memory and are written out when the run ends.  The process pool of
`experiments` is wrapped the same way, to count pool starts; no workload
runs with jobs > 1, so spans inside pool workers are not collected.
"""

import functools
import json
import math
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, List, NamedTuple, Sequence, Tuple

from ris_dps import analysis, experiments, optimizer
from ris_dps.geometry import ANGLE_EPS

OP = "bench.op"
POOL = "experiments.pool"


def lines_per_element(phase_set) -> int:
    """L: K separation lines per element, K+1 when one phase gap exceeds pi."""
    return phase_set.k + int(bool((phase_set.cyclic_gaps() > math.pi + ANGLE_EPS).any()))


def _lines(real, phase_set, *args, **kwargs) -> int:
    return real.n * lines_per_element(phase_set)


#: (module, attribute the caller looks up, span name, lines-solved counter)
WRAPPED = (
    (experiments, "run_scenario", "experiments.run_scenario", None),
    (experiments, "sample_realization", "channel.sample_realization", None),
    (experiments, "sweep_optimize", "optimizer.sweep_optimize", _lines),
    (optimizer, "sweep_optimize", "optimizer.sweep_optimize", _lines),
    (experiments, "cpp_optimize", "optimizer.cpp_optimize", None),
    (optimizer, "overall_h", "channel.overall_h", None),
    (experiments, "empty_regions", "analysis.empty_regions", _lines),
    (analysis, "separation_lines", "optimizer.separation_lines", None),
    (experiments, "measured_empty_ratio", "analysis.measured_empty_ratio", None),
)

SPAN_NAMES = (OP, POOL) + tuple(sorted({w[2] for w in WRAPPED}))

#: Per-layer metrics of the traced run: (name, unit, better, should move / on workload).
PER_LAYER = (
    ("optimizer.sweep_optimize.calls_per_op", "count", "lower",
     "count; a batched-trials change would lower it / curve_small_n"),
    ("optimizer.sweep_optimize.self_share", "ratio", "lower",
     "op_ms_p50, op_ms_p90 / solve_large_n; also ops_per_s / curve_small_n"),
    ("optimizer.sweep_optimize.ns_per_line", "ns", "lower",
     "op_ms_p50 / solve_large_n"),
    ("optimizer.cpp_optimize.self_share", "ratio", "lower",
     "ops_per_s / curve_small_n"),
    ("channel.overall_h.self_share", "ratio", "lower",
     "ops_per_s / curve_small_n"),
    ("channel.sample_realization.calls_per_op", "count", "lower",
     "count; a batched sampler would move it / curve_small_n"),
    ("channel.sample_realization.self_share", "ratio", "lower",
     "ops_per_s / curve_small_n and empty_ratio; setup_s only / solve_large_n"),
    ("optimizer.separation_lines.self_share", "ratio", "lower",
     "ops_per_s / empty_ratio"),
    ("analysis.empty_regions.self_share", "ratio", "lower",
     "ops_per_s / empty_ratio"),
    ("analysis.empty_regions.ns_per_line", "ns", "lower",
     "op_ms_p50 / empty_ratio"),
    ("analysis.measured_empty_ratio.self_share", "ratio", "lower",
     "ops_per_s / empty_ratio"),
    ("experiments.run_scenario.self_share", "ratio", "lower",
     "ops_per_s, op_ms_p50 / curve_small_n and empty_ratio (the trial loop)"),
    ("experiments.pool_starts_per_op", "count", "lower",
     "count of pool constructions; stays 0 / every workload (all run jobs=1)"),
    ("trace.overhead", "ratio", "lower",
     "traced op time over untraced op time, minus 1 / all"),
)


class Span(NamedTuple):
    name: str
    start: int  # perf_counter_ns
    end: int
    parent: int  # index of the enclosing span, -1 at the root
    op: int
    lines: int  # separation lines solved, N*L


class Tracer:
    """Collects spans while installed; counts are taken at the same boundaries."""

    def __init__(self):
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self._op = -1
        self._patches = [(mod, attr, getattr(mod, attr),
                          self._wrap(getattr(mod, attr), name, count))
                         for mod, attr, name, count in WRAPPED]
        self._patches.append((experiments, "ProcessPoolExecutor",
                              experiments.ProcessPoolExecutor,
                              self._pool_class(experiments.ProcessPoolExecutor)))

    def _open(self) -> int:
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, name: str, start: int, end: int, lines: int) -> None:
        self._stack.pop()
        parent = self._stack[-1] if self._stack else -1
        self.spans[idx] = Span(name, start, end, parent, self._op, lines)

    def _wrap(self, fn, name, count):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self._stack:  # outside an op: set-up or the gate
                return fn(*args, **kwargs)
            idx = self._open()
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                self._close(idx, name, start, end,
                            count(*args, **kwargs) if count else 0)
        return traced

    def _pool_class(self, base):
        tracer = self

        class TracedPool(base):
            """One span from construction to the end of `with`: a pool start."""

            def __init__(self, *args, **kwargs):
                self._span = tracer._open()
                self._start = time.perf_counter_ns()
                super().__init__(*args, **kwargs)

            def __exit__(self, *exc):
                try:
                    return super().__exit__(*exc)
                finally:
                    tracer._close(self._span, POOL, self._start,
                                  time.perf_counter_ns(), 0)

        return TracedPool

    @contextmanager
    def installed(self):
        """Route every traced lookup through its wrapper, and restore after."""
        try:
            for mod, attr, _, wrapped in self._patches:
                setattr(mod, attr, wrapped)
            yield
        finally:
            for mod, attr, original, _ in self._patches:
                setattr(mod, attr, original)

    @contextmanager
    def op(self, op_id: int):
        """Root span of one op; library spans are recorded only inside one."""
        self._op = op_id
        idx = self._open()
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            self._close(idx, OP, start, time.perf_counter_ns(), 0)
            self._op = -1

    def dump(self, path: Path, env: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"env": env, "fields": Span._fields,
                                    "spans": self.spans}))


def union_length(intervals: Sequence[Tuple[int, int]], lo: int, hi: int) -> int:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, cur_lo, cur_hi = 0, None, None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is not None and a <= cur_hi:
            cur_hi = max(cur_hi, b)
            continue
        if cur_hi is not None:
            total += cur_hi - cur_lo
        cur_lo, cur_hi = a, b
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: Sequence[Span]) -> List[int]:
    """Each span's duration minus the part of it its direct children cover."""
    children: Dict[int, list] = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    return [s.end - s.start - union_length(children[i], s.start, s.end)
            for i, s in enumerate(spans)]


def layer_totals(spans: Sequence[Span]) -> Dict[str, dict]:
    """Calls, self ns and lines solved per span name."""
    totals = {name: {"calls": 0, "self_ns": 0, "lines": 0} for name in SPAN_NAMES}
    for s, own in zip(spans, self_times(spans)):
        t = totals.setdefault(s.name, {"calls": 0, "self_ns": 0, "lines": 0})
        t["calls"] += 1
        t["self_ns"] += own
        t["lines"] += s.lines
    return totals


def layer_metrics(spans: Sequence[Span], untraced_ns: int, traced_ns: int) -> Dict[str, float]:
    """Every PER_LAYER metric from the spans of a traced run."""
    totals = layer_totals(spans)
    ops = totals[OP]["calls"]
    op_ns = sum(s.end - s.start for s in spans if s.name == OP)
    out = {}
    for name, _, _, _ in PER_LAYER:
        if name == "trace.overhead":
            out[name] = traced_ns / untraced_ns - 1.0
            continue
        if name == "experiments.pool_starts_per_op":
            out[name] = totals[POOL]["calls"] / ops
            continue
        layer, kind = name.rsplit(".", 1)
        t = totals[layer]
        if kind == "calls_per_op":
            out[name] = t["calls"] / ops
        elif kind == "self_share":
            out[name] = t["self_ns"] / op_ns
        elif kind == "ns_per_line":
            out[name] = t["self_ns"] / t["lines"] if t["lines"] else 0.0
        else:
            raise ValueError(f"unknown per-layer metric kind {kind!r}")
    return out
