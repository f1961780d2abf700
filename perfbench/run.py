"""The ris-dps benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Runs one workload (see workloads.py) as a single caller in a closed loop:
the next op is issued only when the previous one has returned.  A run makes
whole passes over a fixed set of at least 100 seeded inputs, at least
MIN_PASSES of them and until `--seconds` of op time.  Every op passes the
correctness gate outside the timed region, every later pass must repeat the
first bit for bit, and every run spot-checks the sweep against exhaustive
search.  The exit code is nonzero if any check failed.

With --trace 0 it prints the end-to-end metrics.  Times are reported at the
reference speed (see reference.py): each op's time is scaled by the time of
a fixed kernel run just before and just after it, which screens out the
host's speed swings.  The raw figures are printed beside them.  With --trace 1 it runs
each op untraced and traced in turn, checks that both give identical
results, prints the per-layer metrics and writes the spans to
perfbench/out/.  The last line of stdout is one JSON object.

Self-tests: python3 -m pytest perfbench/tests
"""

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from reference import REFERENCE_NS, Reference, at_reference_speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

#: End-to-end metrics of the untraced run: (name, unit, better, bound).
END_TO_END = (
    ("ops_per_s", "1/s", "higher", 0.2),
    ("op_ms_p50", "ms", "lower", 0.2),
    ("op_ms_p90", "ms", "lower", 0.2),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

MIN_PASSES = 2
PERCENTILES = (99.9, 99.0, 90.0, 50.0)
SETUP_PROBES = 9


def _rank(p: float, n: int) -> int:
    # rounded first, so that 99.9% of 10000 is rank 9990, not 9991
    return max(1, math.ceil(round(p * n / 100.0, 9)))


def nearest_rank(sorted_samples, p: float):
    """The p-th percentile by nearest rank: a sample, never interpolated."""
    return sorted_samples[_rank(p, len(sorted_samples)) - 1]


def tail_percentile(samples, min_beyond: int = 10):
    """Highest of PERCENTILES with at least min_beyond samples above its rank.

    Returns (percentile, value), or None when even the median has fewer.
    """
    ordered = sorted(samples)
    n = len(ordered)
    for p in PERCENTILES:
        if n - _rank(p, n) >= min_beyond:
            return p, nearest_rank(ordered, p)
    return None


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its largest finished child.

    Read before the set-up probes start, the only children would be pool
    workers; no workload runs with jobs > 1, so this is the process's own peak.
    """
    return (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024.0


class Tally:
    """Counts attempted and failed ops; the gate and the pass-to-pass check."""

    def __init__(self, workload, same_result):
        self.workload = workload
        self.same_result = same_result
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self._first = {}

    def record(self, i, inp, out, exc, extra=()) -> None:
        self.attempted += 1
        if exc is not None:
            errors = ["raised " + "".join(traceback.format_exception_only(exc)).strip()]
        else:
            errors = self.workload.check(inp, out)
            if not self.same_result(self._first.setdefault(i, out), out):
                errors.append(f"input {i}: result differs from its first pass")
        errors += list(extra)
        if errors:
            self.failed += 1
            self.errors += [f"op {self.attempted - 1}: {e}" for e in errors]


def _call(fn, inp):
    try:
        return fn(inp), None
    except Exception as exc:  # an op that raises is a failed op, not a crash
        traceback.print_exc(file=sys.stderr)
        return None, exc


def closed_loop(inputs, seconds: float, min_passes: int, step) -> None:
    """Whole passes over inputs: at least min_passes, and `seconds` of op time.

    Passes are never cut, so every run has the same mix of inputs; past
    min_passes the run stops at the pass boundary nearest to `seconds`.
    """
    spent = passes = 0
    while True:
        pass_ns = sum(step(i, inp) for i, inp in enumerate(inputs))
        spent += pass_ns
        passes += 1
        if passes >= min_passes and spent >= seconds * 1e9 - pass_ns / 2:
            return


def measure(workload, inputs, seconds: float, min_passes: int, same_result):
    """Untraced closed loop.

    Returns the tally and, per op, its time and the mean time of the
    reference kernel runs just before and just after it, in ns.
    """
    tally = Tally(workload, same_result)
    reference = Reference()
    samples = []

    def step(i, inp):
        start = time.perf_counter_ns()
        out, exc = _call(workload.run, inp)
        ns = time.perf_counter_ns() - start
        after = reference.time_ns()
        samples.append((ns, (kernel_ns[0] + after) / 2))
        kernel_ns[0] = after
        tally.record(i, inp, out, exc)
        return ns

    _call(workload.run, inputs[0])  # warm-up, not counted
    kernel_ns = [reference.time_ns()]  # the latest kernel time, before the next op
    closed_loop(inputs, seconds, min_passes, step)
    return tally, samples


def measure_traced(workload, inputs, seconds: float, tracer, same_result):
    """Each op untraced and traced in turn, order alternating.

    Returns the tally and the summed untraced and traced op times in ns.
    """
    tally = Tally(workload, same_result)
    totals = {"untraced": 0, "traced": 0}

    def untraced(inp):
        start = time.perf_counter_ns()
        res = _call(workload.run, inp)
        totals["untraced"] += time.perf_counter_ns() - start
        return res

    def traced(inp, op_id):
        start = time.perf_counter_ns()
        with tracer.installed(), tracer.op(op_id):
            res = _call(workload.run, inp)
        totals["traced"] += time.perf_counter_ns() - start
        return res

    def step(i, inp):
        before = totals["untraced"] + totals["traced"]
        op_id = tally.attempted
        if op_id % 2:
            out_t, exc_t = traced(inp, op_id)
            out, exc = untraced(inp)
        else:
            out, exc = untraced(inp)
            out_t, exc_t = traced(inp, op_id)
        extra = []
        if exc is None and exc_t is None and not same_result(out, out_t):
            extra.append("traced result differs from untraced")
        elif (exc is None) != (exc_t is None):
            extra.append("traced and untraced runs disagree on raising")
        tally.record(i, inp, out, exc, extra)
        return totals["untraced"] + totals["traced"] - before

    _call(workload.run, inputs[0])
    closed_loop(inputs, seconds, 1, step)
    return tally, totals["untraced"], totals["traced"]


def latency_metrics(op_ns) -> dict:
    """End-to-end timing metrics from per-op times in ns."""
    ordered = sorted(op_ns)
    return {"ops_per_s": len(ordered) / (sum(ordered) / 1e9),
            "op_ms_p50": nearest_rank(ordered, 50) / 1e6,
            "op_ms_p90": nearest_rank(ordered, 90) / 1e6}


def setup_seconds(workload: str, seed: int):
    """Median set-up time over fresh processes, at the reference speed and raw.

    The first process only warms the file and bytecode caches.
    """
    cmd = [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)]
    scaled, raw = [], []
    for _ in range(SETUP_PROBES + 1):
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                             check=True, cwd=ROOT)
        seconds, ref_ns = (float(x) for x in out.stdout.split()[-2:])
        scaled.append(at_reference_speed(seconds, ref_ns))
        raw.append(seconds)
    return statistics.median(scaled[1:]), statistics.median(raw[1:])


def git_describe() -> str:
    try:
        out = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return out.stdout.strip() if out.returncode == 0 else "unavailable"


def environment(args, workload, inputs, attempted: int) -> dict:
    import numpy

    return {"workload": workload.name, "seed": args.seed, "trace": args.trace,
            "seconds": args.seconds, "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "git_describe": git_describe(), "op_size": workload.size(inputs),
            "ops_per_run": attempted}


def run_untraced(args, workload, inputs, workloads):
    """End-to-end metrics; returns (tally, values, report lines)."""
    tally, samples = measure(workload, inputs, args.seconds, MIN_PASSES,
                             workloads.same_result)
    scaled = [at_reference_speed(ns, ref) for ns, ref in samples]
    values = latency_metrics(scaled)
    values["peak_rss_mb"] = peak_rss_mb()
    tally.errors += workloads.spot_check(args.seed)
    values["setup_s"], raw_setup_s = setup_seconds(workload.name, args.seed)

    n = len(samples)
    raw = latency_metrics([ns for ns, _ in samples])
    lines = [
        f"{n} ops in {n // len(inputs)} passes; op_ms_p90 has {n - _rank(90, n)} "
        f"samples beyond it; highest percentile with >=10 beyond: "
        f"p{tail_percentile(scaled)[0]:g}",
        f"reference kernel: median {statistics.median(r for _, r in samples) / 1e6:.4g} ms "
        f"against {REFERENCE_NS / 1e6:.4g} ms at the reference speed",
        f"raw: ops_per_s {raw['ops_per_s']:.6g} 1/s, op_ms_p50 {raw['op_ms_p50']:.6g} ms, "
        f"op_ms_p90 {raw['op_ms_p90']:.6g} ms, setup_s {raw_setup_s:.6g} s",
        f"error_rate {tally.failed / tally.attempted:.6g} "
        f"({tally.failed} of {tally.attempted} ops failed)",
    ]
    return tally, values, lines


def run_traced(args, workload, inputs, workloads, tracing):
    """Per-layer metrics; returns (tally, values, report lines, tracer)."""
    tracer = tracing.Tracer()
    tally, untraced_ns, traced_ns = measure_traced(
        workload, inputs, args.seconds, tracer, workloads.same_result)
    tally.errors += workloads.spot_check(args.seed)
    totals = tracing.layer_totals(tracer.spans)
    for layer in workload.layers:
        if totals[layer]["calls"] == 0:
            tally.errors.append(f"layer {layer} ran but recorded no calls")
    values = tracing.layer_metrics(tracer.spans, untraced_ns, traced_ns)

    ops = totals[tracing.OP]["calls"]
    op_ns = sum(s.end - s.start for s in tracer.spans if s.name == tracing.OP)
    lines = [f"{'span':36} {'calls/op':>10} {'self ms/op':>11} {'share':>7}"]
    for name, t in sorted(totals.items(), key=lambda kv: -kv[1]["self_ns"]):
        lines.append(f"{name:36} {t['calls'] / ops:10.2f} "
                     f"{t['self_ns'] / ops / 1e6:11.3f} {t['self_ns'] / op_ns:7.3f}")
    return tally, values, lines, tracer


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = _parse(argv)
    src = ROOT / "src"
    if not (src / "ris_dps" / "__init__.py").is_file():
        print(f"perfbench: no ris_dps sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    inputs = workload.setup(args.seed)

    if args.trace:
        tally, values, lines, tracer = run_traced(args, workload, inputs,
                                                  workloads, tracing)
        units = [(name, unit) for name, unit, _, _ in tracing.PER_LAYER]
    else:
        tally, values, lines = run_untraced(args, workload, inputs, workloads)
        units = [(name, unit) for name, unit, _, _ in END_TO_END]
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units}
    env = environment(args, workload, inputs, tally.attempted)
    lines[:0] = [f"perfbench {workload.name} seed={args.seed} trace={args.trace}: "
                 f"{workload.why}", "env " + json.dumps(env)]
    lines += [f"{name:44} {m['value']:.6g} {m['unit']}" for name, m in metrics.items()]
    if args.trace:
        dump = OUT / f"spans-{workload.name}-seed{args.seed}.json"
        tracer.dump(dump, env)
        lines.append(f"spans written to {dump.relative_to(ROOT)}")

    for e in tally.errors[:20]:
        print("perfbench: " + e, file=sys.stderr)
    print("\n".join(lines))
    print(json.dumps({"correct": not tally.errors, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0 if not tally.errors else 1


if __name__ == "__main__":
    sys.exit(main())
