"""The benchmark's workloads: seeded inputs, one op each, and the correctness gate.

Every workload is one caller in a closed loop over a fixed pass of at least
100 inputs, so that a single pass leaves 10 op latencies beyond p90.
Calls go into the library through module attributes (`experiments.run_scenario`,
`optimizer.sweep_optimize`) so that a traced run sees them.
"""

import functools
import math
from dataclasses import dataclass, replace
from typing import Callable, List

import numpy as np

from ris_dps import channel, experiments, optimizer
from ris_dps.channel import PhaseShiftSet
from tracing import lines_per_element

LOPSIDED = experiments.TWO_PHASE_SET  # {pi/6, 5*pi/6}: L=3 with off lines
UNIFORM3 = PhaseShiftSet.uniform(3)  # L=3 without off lines

CURVE_SEEDS = 2  # a pass is the 55-point fig13 grid under two scenario seeds
LARGE_N = 10_000
LARGE_OPS = 100  # ops alternate the two sets
RATIO_N = 200
RATIO_TRIALS = 4  # per set per op; keeps a 100-op pass near 4 s
RATIO_OPS = 100


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    setup: Callable[[int], list]  # seed -> one pass of op inputs
    run: Callable[[object], object]  # one op
    check: Callable[[object, object], List[str]]  # gate: failure messages
    size: Callable[[list], dict]  # op size, for the environment record
    layers: tuple  # spans the traced run must record


# --- correctness gate -------------------------------------------------------

# The references are pure functions of the input (and of the returned config),
# and inputs repeat every pass; caching them keeps the N=10^4 gate cheap.

@functools.lru_cache(maxsize=1024)
def _overall_amplitude(real, phase_set, config: bytes) -> float:
    return abs(channel.overall_h(real, phase_set, np.frombuffer(config, dtype=int)))


@functools.lru_cache(maxsize=1024)
def _cpp_amplitude(real, phase_set) -> float:
    return optimizer.cpp_optimize(real, phase_set).amplitude


def check_sweep(real, phase_set, res) -> List[str]:
    """Gate for one SweepResult against the library's own references."""
    errors = []
    config = np.asarray(res.config, dtype=int)
    if config.shape != (real.n,) or config.min() < 0 or config.max() > phase_set.k:
        errors.append(f"config outside 0..{phase_set.k} or of the wrong length")
        return errors
    amp = abs(res.h_star)
    scale = abs(real.h_d) + float(np.abs(real.v).sum())
    recomputed = _overall_amplitude(real, phase_set, config.tobytes())
    if abs(amp - recomputed) > 1e-9 * scale:
        errors.append(f"|h_star| {amp!r} != |overall_h(config)| {recomputed!r}")
    if amp > optimizer.continuous_upper_bound(real) * (1 + 1e-12):
        errors.append("|h_star| above the continuous upper bound")
    cpp = _cpp_amplitude(real, phase_set)
    if amp < cpp - 1e-9 * scale:
        errors.append(f"sweep |h| {amp!r} below CPP {cpp!r}")
    return errors


def check_rows(scenario, rows) -> List[str]:
    """Gate for the ResultRows of one run_scenario call."""
    if len(rows) != len(scenario.values):
        return [f"{len(rows)} rows for {len(scenario.values)} axis points"]
    errors = []
    for x, row in zip(scenario.values, rows):
        if row.x != (x if isinstance(x, tuple) else (x,)):
            errors.append(f"row x {row.x} for axis point {x}")
        for solver in scenario.solvers:
            mean, std = row.mean_se[solver], row.std_se[solver]
            if not (math.isfinite(mean) and mean >= 0 and math.isfinite(std) and std >= 0):
                errors.append(f"{solver} spectral efficiency {mean!r} +- {std!r}")
        sweep, cpp = row.mean_se.get("sweep"), row.mean_se.get("cpp")
        if sweep is not None and cpp is not None and sweep < cpp - 1e-9 * max(1.0, cpp):
            errors.append(f"mean_se_sweep {sweep!r} < mean_se_cpp {cpp!r}")
        if scenario.empty_ratio and not 0.0 <= row.empty_ratio <= 1.0:
            errors.append(f"empty_ratio {row.empty_ratio!r} outside [0, 1]")
    return errors


def same_result(a, b) -> bool:
    """Exact equality of op results; SweepResult compares field by field."""
    if isinstance(a, optimizer.SweepResult):
        return (isinstance(b, optimizer.SweepResult)
                and np.array_equal(a.config, b.config)
                and a.h_star == b.h_star and a.sector_index == b.sector_index)
    return a == b


def spot_check(seed: int, instances: int = 40) -> List[str]:
    """Sweep against exhaustive search on seeded instances with N <= 8, to 1e-12."""
    rng = np.random.default_rng((seed, 8))
    fixed = [LOPSIDED, UNIFORM3, PhaseShiftSet((0.0, math.pi)), PhaseShiftSet((0.0,))]
    errors = []
    for i in range(instances):
        n = int(rng.integers(1, 9))
        if i < len(fixed):
            phases = fixed[i]
        else:
            phases = PhaseShiftSet(np.sort(rng.choice(
                np.linspace(0.0, 2 * math.pi, 24, endpoint=False),
                size=int(rng.integers(1, 5)), replace=False)))
        v = rng.uniform(0.1, 2.0, n) * np.exp(1j * rng.uniform(0, 2 * math.pi, n))
        h_d = 0.0 if i % 5 == 0 else rng.uniform(0, 2) * np.exp(1j * rng.uniform(0, 2 * math.pi))
        real = channel.ChannelRealization(h_d, v)
        best = optimizer.sweep_optimize(real, phases)
        oracle = optimizer.exhaustive_optimize(real, phases)
        scale = abs(real.h_d) + float(np.abs(real.v).sum())
        if abs(best.amplitude - oracle.amplitude) > 1e-12 * scale:
            errors.append(f"spot check {i}: sweep {best.amplitude!r} "
                          f"!= exhaustive {oracle.amplitude!r}")
    return errors


def _seeds(seed: int, count: int) -> List[int]:
    return [int(s) for s in np.random.default_rng(seed).integers(0, 2 ** 32, size=count)]


# --- curve_small_n ------------------------------------------------------------

def _curve_points(seed: int) -> list:
    base = experiments.get_builtin("fig13")[0]
    return [replace(base, values=(x,), trials=100, seed=s)
            for s in _seeds(seed, CURVE_SEEDS) for x in base.values]


def _curve_size(points: list) -> dict:
    return {"N": points[0].n_elements,
            "L": sorted({lines_per_element(PhaseShiftSet.from_gaps(s.values[0]))
                         for s in points}),
            "trials_per_point": points[0].trials, "ops_per_pass": len(points),
            "jobs": 1}


def _run_curve(scenario):
    return experiments.run_scenario(scenario, jobs=1)


# --- solve_large_n ------------------------------------------------------------

def _large_inputs(seed: int) -> list:
    budget = experiments.get_builtin("fig13")[0].budget
    sets = (LOPSIDED, UNIFORM3)
    return [(channel.sample_realization(budget, LARGE_N, (seed, i)), sets[i % 2])
            for i in range(LARGE_OPS)]


def _run_large(inp):
    real, phase_set = inp
    return optimizer.sweep_optimize(real, phase_set)


def _check_large(inp, res) -> List[str]:
    return check_sweep(*inp, res)


def _large_size(inputs: list) -> dict:
    return {"N": LARGE_N, "L": sorted({lines_per_element(p) for _, p in inputs}),
            "trials_per_point": None, "ops_per_pass": len(inputs)}


# --- empty_ratio ----------------------------------------------------------------

def _ratio_inputs(seed: int) -> list:
    base = experiments.get_builtin("fig15_k3")[0]
    return [tuple(replace(base, values=(RATIO_N,), trials=RATIO_TRIALS,
                          phases=phases, seed=s)
                  for phases in (UNIFORM3, LOPSIDED))
            for s in _seeds(seed, RATIO_OPS)]


def _run_ratio(scenarios):
    return tuple(experiments.run_scenario(s) for s in scenarios)


def _check_ratio(scenarios, results) -> List[str]:
    return [e for s, rows in zip(scenarios, results) for e in check_rows(s, rows)]


def _ratio_size(inputs: list) -> dict:
    return {"N": RATIO_N, "L": sorted({lines_per_element(s.phases) for s in inputs[0]}),
            "trials_per_point": RATIO_TRIALS, "sets_per_op": len(inputs[0]),
            "ops_per_pass": len(inputs)}


WORKLOADS = {w.name: w for w in (
    Workload(
        name="curve_small_n",
        why="many small solves: the fig13 gap-pair grid at N=50 under two seeds, "
            "100 trials per point; the small-N side of any size-selected fast path "
            "and of batched trials",
        setup=_curve_points, run=_run_curve, check=check_rows, size=_curve_size,
        layers=("experiments.run_scenario", "channel.sample_realization",
                "optimizer.sweep_optimize", "optimizer.cpp_optimize",
                "channel.overall_h")),
    Workload(
        name="solve_large_n",
        why="sweep_optimize alone at N=10^4, lopsided and uniform K=3 sets "
            "alternating: line sort and candidate chain; sampling, runner, CPP and "
            "analysis stay idle",
        setup=_large_inputs, run=_run_large, check=_check_large,
        size=_large_size, layers=("optimizer.sweep_optimize",)),
    Workload(
        name="empty_ratio",
        why="the fig15 point at N=200 with empty_ratio on, uniform K=3 and lopsided"
            " sets per op: the only workload where the analysis layer runs",
        setup=_ratio_inputs, run=_run_ratio, check=_check_ratio,
        size=_ratio_size,
        layers=("experiments.run_scenario", "channel.sample_realization",
                "optimizer.sweep_optimize", "analysis.empty_regions",
                "optimizer.separation_lines", "analysis.measured_empty_ratio")),
)}
