"""Self-tests of the benchmark harness: python3 -m pytest perfbench/tests"""

import json
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from tracing import Span  # noqa: E402


@pytest.mark.parametrize("n, expected", [
    (20, 50.0), (99, 50.0), (100, 90.0), (999, 90.0), (1000, 99.0),
    (9999, 99.0), (10000, 99.9)])
def test_tail_percentile_is_highest_with_ten_beyond(n, expected):
    p, value = run.tail_percentile(range(1, n + 1))
    assert p == expected
    assert n - value >= 10  # samples strictly above the reported one
    assert run.tail_percentile(range(1, n + 1), min_beyond=n) is None


def test_nearest_rank_p90_of_one_hundred():
    assert run.nearest_rank(list(range(1, 101)), 90) == 90


def _span(name, start, end, parent, op=0, lines=0):
    return Span(name, start, end, parent, op, lines)


def test_self_time_subtracts_nested_children():
    spans = [
        _span("bench.op", 0, 100, -1),
        _span("a", 10, 40, 0),
        _span("b", 20, 30, 1),  # grandchild: counts against a, not the op
        _span("c", 50, 70, 0),
    ]
    assert tracing.self_times(spans) == [50, 20, 10, 20]


def test_self_time_counts_overlapping_children_once():
    spans = [
        _span("pool", 0, 100, -1),
        _span("w1", 5, 60, 0),  # two workers running at once
        _span("w2", 40, 80, 0),
        _span("w3", 90, 120, 0),  # clipped at the parent's end
    ]
    assert tracing.self_times(spans)[0] == 100 - 75 - 10


def test_layer_metrics_shares_and_rates():
    spans = [
        _span("bench.op", 0, 100, -1),
        _span("optimizer.sweep_optimize", 10, 50, 0, lines=20),
        _span("bench.op", 100, 200, -1, op=1),
        _span("experiments.pool", 110, 150, 2, op=1),
    ]
    m = tracing.layer_metrics(spans, untraced_ns=100, traced_ns=110)
    assert m["optimizer.sweep_optimize.calls_per_op"] == 0.5
    assert m["optimizer.sweep_optimize.self_share"] == 40 / 200
    assert m["optimizer.sweep_optimize.ns_per_line"] == 2.0
    assert m["experiments.pool_starts_per_op"] == 0.5
    assert m["analysis.empty_regions.ns_per_line"] == 0.0
    assert m["trace.overhead"] == pytest.approx(0.1)


def _small_sweep_inputs():
    budget = workloads.experiments.get_builtin("fig13")[0].budget
    return [(workloads.channel.sample_realization(budget, 50, (7, i)), ps)
            for i, ps in enumerate((workloads.LOPSIDED, workloads.UNIFORM3))]


def test_wrong_h_star_is_a_failed_op():
    honest = workloads.WORKLOADS["solve_large_n"]
    fake = replace(honest, run=lambda inp: replace(
        honest.run(inp), h_star=honest.run(inp).h_star * 1.01))
    inputs = _small_sweep_inputs()
    tally, samples = run.measure(fake, inputs, 1e-9, 1, workloads.same_result)
    assert tally.attempted == len(samples) == 2
    assert tally.failed == 2
    assert all("overall_h" in e for e in tally.errors)

    tally, _ = run.measure(honest, inputs, 1e-9, 1, workloads.same_result)
    assert (tally.attempted, tally.failed) == (2, 0)


def test_raising_op_is_a_failed_op():
    def boom(inp):
        raise RuntimeError("solver crashed")

    wl = replace(workloads.WORKLOADS["solve_large_n"], run=boom)
    tally, _ = run.measure(wl, _small_sweep_inputs(), 1e-9, 1, workloads.same_result)
    assert (tally.attempted, tally.failed) == (2, 2)


def test_result_that_changes_between_passes_is_a_failed_op():
    honest = workloads.WORKLOADS["solve_large_n"]
    calls = []

    def drifting(inp):
        calls.append(inp)
        res = honest.run(inp)
        # calls 1-3 are the warm-up and the first pass; the second pass drifts
        return replace(res, sector_index=res.sector_index + (len(calls) > 3))

    tally, samples = run.measure(replace(honest, run=drifting), _small_sweep_inputs(),
                                 1e-9, 2, workloads.same_result)
    assert len(samples) == 4
    assert (tally.attempted, tally.failed) == (4, 2)


def test_closed_loop_runs_whole_passes_until_time_and_min_passes():
    steps = []

    def step(i, inp):
        steps.append(i)
        return 10 ** 9  # one second per op

    run.closed_loop(range(3), seconds=7.0, min_passes=1, step=step)
    assert steps == [0, 1, 2] * 2  # 6 s; a third pass would end at 9 s, farther from 7
    steps.clear()
    run.closed_loop(range(3), seconds=1.0, min_passes=4, step=step)
    assert len(steps) == 12


def test_latency_metrics():
    m = run.latency_metrics([float(ms) * 1e6 for ms in range(10, 0, -1)])
    assert m["op_ms_p50"] == 5.0
    assert m["op_ms_p90"] == 9.0
    assert m["ops_per_s"] == pytest.approx(10 / 55e-3)


def test_times_scale_to_the_reference_speed():
    slow = 2 * reference.REFERENCE_NS
    assert reference.at_reference_speed(80e6, slow) == pytest.approx(40e6)
    assert reference.at_reference_speed(80e6, reference.REFERENCE_NS) == 80e6
    assert reference.Reference().time_ns() > 0


def test_every_pass_has_a_hundred_inputs():
    for wl in workloads.WORKLOADS.values():
        assert len(wl.setup(0)) >= 100, wl.name


def test_spot_check_passes_at_this_commit():
    assert workloads.spot_check(3) == []


def _tiny_curve():
    return [replace(s, trials=6) for s in workloads.WORKLOADS["curve_small_n"].setup(11)[:2]]


@pytest.mark.parametrize("name, inputs", [
    ("curve_small_n", _tiny_curve),
    ("empty_ratio", lambda: [tuple(replace(s, trials=2) for s in
                                   workloads.WORKLOADS["empty_ratio"].setup(5)[0])]),
    ("solve_large_n", _small_sweep_inputs),
])
def test_traced_run_matches_untraced_and_sees_every_layer(name, inputs):
    wl = workloads.WORKLOADS[name]
    tracer = tracing.Tracer()
    tally, untraced_ns, traced_ns = run.measure_traced(
        wl, inputs(), 1e-9, tracer, workloads.same_result)
    assert tally.errors == []
    totals = tracing.layer_totals(tracer.spans)
    assert all(totals[layer]["calls"] > 0 for layer in wl.layers)
    assert totals[tracing.POOL]["calls"] == 0
    # the library functions are restored once the traced op returns
    assert workloads.experiments.sweep_optimize is workloads.optimizer.sweep_optimize


def test_traced_run_counts_pool_starts():
    point = replace(_tiny_curve()[0], trials=4)
    tracer = tracing.Tracer()
    with tracer.installed(), tracer.op(0):
        workloads.experiments.run_scenario(point, jobs=2)
    assert tracing.layer_metrics(tracer.spans, 1, 1)["experiments.pool_starts_per_op"] == 1


def test_peak_rss_counts_a_pool_worker():
    script = (
        "import json, resource, sys; sys.path[:0] = sys.argv[1:3]\n"
        "import run, workloads\n"
        "workloads.experiments.run_scenario(workloads._curve_points(1)[0], jobs=2)\n"
        "own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024\n"
        "child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024\n"
        "print(json.dumps([run.peak_rss_mb(), own, child]))\n")
    out = subprocess.run([sys.executable, "-c", script, str(BENCH), str(ROOT / "src")],
                         capture_output=True, text=True, timeout=120, check=True)
    total, own, child = json.loads(out.stdout)
    assert child > 10.0  # a worker holds at least the interpreter and numpy
    assert total == pytest.approx(own + child)


def test_benchmark_json_matches_the_harness():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in doc["end_to_end"]] \
        == [tuple(m) for m in run.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] \
        == [m[:3] for m in tracing.PER_LAYER]
    assert {w["name"]: w["why"] for w in doc["workloads"]} \
        == {w.name: w.why for w in workloads.WORKLOADS.values()}
