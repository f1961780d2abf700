"""Acceptance suite: one test per release criterion, at full stated scale.

Each test prints a [PASS]/[FAIL] line (run with -s to see them on success)
and asserts the criterion at its tolerance.  The whole module is sized to
finish in a few minutes on a laptop.
"""

import io
import itertools
import math
import time

import numpy as np

from conftest import random_instance
from scalar_reference import (SortComparisons, sorted_line_order,
                              sweep_line_args)
from ris_dps import (OFF, ChannelRealization, LinkBudget, PhaseShiftSet,
                     arg_mod_2pi, circular_distance,
                     empty_ratio_upper_bound_approx, empty_regions,
                     exhaustive_optimize, measured_empty_ratio,
                     sample_realization, separation_lines, sweep_optimize)
from ris_dps.experiments import get_builtin, run_scenario, write_rows_csv

PI = math.pi
BUDGET = LinkBudget(-80.0, -60.0, -140.0, 100.0)
TWO_PHASES = PhaseShiftSet((PI / 6, 5 * PI / 6))


def report(name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_oracle_equivalence():
    # >= 500 random instances, N in 1..8, K in 1..3, arbitrary non-uniform
    # phase sets: sweep |h| equals the exhaustive |h| within 1e-12 relative
    rng = np.random.default_rng(20_001)
    t0 = time.time()
    worst = 0.0
    for _ in range(500):
        real, ps = random_instance(rng, int(rng.integers(1, 9)),
                                   int(rng.integers(1, 4)))
        sw = sweep_optimize(real, ps)
        ex = exhaustive_optimize(real, ps)
        worst = max(worst, abs(sw.amplitude - ex.amplitude) / ex.amplitude)
    elapsed = time.time() - t0
    report("oracle equivalence",
           worst <= 1e-12 and elapsed < 60.0,
           f"500 instances, worst relative gap {worst:.2e}, {elapsed:.1f}s")


def _dense_grid_best(real, ps):
    """Brute force over the 21-point amplitude grid and all phase combos."""
    beta = np.linspace(0.0, 1.0, 21)
    n = real.n
    shapes = [(1,) * i + (21,) + (1,) * (n - 1 - i) for i in range(n)]
    phases = np.asarray(ps.phases)
    best_power = 0.0
    for combo in itertools.product(range(ps.k), repeat=n):
        w = real.v * np.exp(1j * phases[list(combo)])
        h = np.asarray(real.h_d, dtype=complex)
        for i in range(n):
            h = h + (beta * w[i]).reshape(shapes[i])
        power = h.real ** 2 + h.imag ** 2
        best_power = max(best_power, float(power.max()))
    return math.sqrt(best_power)


def test_binary_amplitudes_suffice():
    # Over >= 100 instances with N <= 5, the dense amplitude grid
    # {0, 0.05, ..., 1}^N (phases brute-forced per grid point) never beats
    # the binary-amplitude exhaustive optimum by more than 1e-12.
    rng = np.random.default_rng(20_002)
    cases = ([(int(rng.integers(1, 4)), int(rng.integers(1, 4)))
              for _ in range(60)]
             + [(4, int(rng.integers(1, 4))) for _ in range(30)]
             + [(5, 1)] * 12 + [(5, 2)])
    worst = -math.inf
    for n, k in cases:
        real, ps = random_instance(rng, n, k)
        binary = exhaustive_optimize(real, ps).amplitude
        grid = _dense_grid_best(real, ps)
        worst = max(worst, grid - binary)
    report("binary amplitudes suffice",
           worst <= 1e-12,
           f"{len(cases)} instances, max grid-over-binary excess {worst:.2e}")


def test_empty_ratio_limits():
    # uniform K=2 at N=200 -> 0.60 +- 0.02; K=3 -> 0.62 +- 0.02 over 1000
    # trials; the closed-form evaluator is exact
    t0 = time.time()
    means = {}
    for k in (2, 3):
        ps = PhaseShiftSet.uniform(k)
        ratios = []
        for trial in range(1000):
            real = sample_realization(BUDGET, 200, (20_003 + k, trial))
            amp = sweep_optimize(real, ps).amplitude
            ratios.append(
                measured_empty_ratio(empty_regions(real, ps, amp)).measured_ratio)
        means[k] = float(np.mean(ratios))
    elapsed = time.time() - t0
    analytic_ok = (round(empty_ratio_upper_bound_approx(2), 4) == 0.6366
                   and round(empty_ratio_upper_bound_approx(3), 4) == 0.8270)
    ok = (abs(means[2] - 0.60) <= 0.02 and abs(means[3] - 0.62) <= 0.02
          and analytic_ok and elapsed < 300.0)
    report("empty-ratio limits", ok,
           f"measured K=2 {means[2]:.4f} (want 0.60+-0.02), "
           f"K=3 {means[3]:.4f} (want 0.62+-0.02), closed form "
           f"{empty_ratio_upper_bound_approx(2):.4f}/{empty_ratio_upper_bound_approx(3):.4f}, "
           f"{elapsed:.0f}s")


def test_exclusion_property():
    # over 200 realizations (N=50, {pi/6, 5pi/6, off}), arg(h*) stays
    # outside every empty region computed from that h*, after 1e-9 shrink
    violations = 0
    worst_margin = math.inf
    for trial in range(200):
        real = sample_realization(BUDGET, 50, (20_004, trial))
        res = sweep_optimize(real, TWO_PHASES)
        theta = arg_mod_2pi(res.h_star)
        regions = empty_regions(real, TWO_PHASES, res.amplitude)
        for center, half_width in zip(regions.lines.args.ravel(),
                                      regions.half_width.ravel()):
            margin = circular_distance(theta, center) - half_width
            worst_margin = min(worst_margin, margin)
            if margin <= -1e-9:
                violations += 1
    report("exclusion property", violations == 0,
           f"200 realizations x 150 regions, {violations} violations, "
           f"smallest margin {worst_margin:.2e} rad")


def test_gain_anchor():
    # fig11 at 1000 trials: mean gain in [10, 20] percent at 108 dB, and a
    # non-increasing gain curve over 100..130 dB (at most 2 noise upticks)
    scenario = get_builtin("fig11")[0]
    assert scenario.trials == 1000
    rows = run_scenario(scenario)
    gains = {row.x[0]: row.gain_pct for row in rows}
    anchor = gains[108]
    upticks = sum(
        1 for a, b in zip(rows, rows[1:]) if b.gain_pct > a.gain_pct + 1e-9)
    ok = 10.0 <= anchor <= 20.0 and upticks <= 2
    report("gain anchor", ok,
           f"gain at 108 dB = {anchor:.2f}% (want 10..20), "
           f"{upticks} monotonicity upticks over 100..130 dB")


def test_phase_gap_structure():
    # fig12: gain minimum at gap = pi within one grid step; fig13: minimum
    # within one grid step of (2pi/3, 2pi/3)
    fig12 = get_builtin("fig12")[0]
    fig12.trials = 400
    rows = run_scenario(fig12)
    min_gap = min(rows, key=lambda r: r.gain_pct).x[0]
    step12 = fig12.values[1] - fig12.values[0]
    ok12 = abs(min_gap - PI) <= step12 + 1e-9

    fig13 = get_builtin("fig13")[0]
    fig13.trials = 200
    rows13 = run_scenario(fig13)
    g1, g2 = min(rows13, key=lambda r: r.gain_pct).x
    step13 = PI / 6
    ok13 = (abs(g1 - 2 * PI / 3) <= step13 + 1e-9
            and abs(g2 - 2 * PI / 3) <= step13 + 1e-9)
    report("phase-gap structure", ok12 and ok13,
           f"fig12 min at gap={min_gap:.4f} (pi={PI:.4f}), "
           f"fig13 min at ({g1:.4f}, {g2:.4f}) (want ~{2 * PI / 3:.4f})")


def test_uniform_set_keeps_every_element_on():
    ps = PhaseShiftSet.uniform(3)
    off_count = 0
    for trial in range(500):
        real = sample_realization(BUDGET, 20, (20_006, trial))
        cfg = sweep_optimize(real, ps).config
        off_count += int(np.count_nonzero(cfg == OFF))
    report("uniform-set behavior", off_count == 0,
           f"500 realizations, {off_count} off elements (want 0)")


def test_operation_budget():
    # the candidate chain costs exactly N + 2*N*L vector additions; the
    # line sort, whose order the sweep's argsort gives, is a rotation plus
    # a min-heap merge with O(N*L*log L) comparisons, scaling linearly in
    # N: counted by the reference sort on the sweep's element order
    rng = np.random.default_rng(20_007)
    details = []
    ok = True
    for ps in (TWO_PHASES, PhaseShiftSet.uniform(2), PhaseShiftSet.uniform(3)):
        comps = {}
        l = None
        for n in (100, 1000):
            v = np.exp(1j * rng.uniform(0, 2 * PI, n))
            real = ChannelRealization(1e-3 + 0j, v)
            res = sweep_optimize(real, ps, instrument=True)
            l = separation_lines(real, ps).starting.size
            adds = res.counters.vector_additions
            ok &= adds == n + 2 * n * l
            counts = SortComparisons()
            sorted_line_order(sweep_line_args(real, ps), counts)
            heap = counts.heap
            ok &= heap <= 3.0 * n * l * max(1.0, math.log2(l))
            ok &= counts.rotation == n * l
            comps[n] = heap
        # linear in N: growing 10x the elements grows comparisons ~10x
        ok &= comps[1000] <= 12 * comps[100]
        details.append(f"L={l}: adds exact, heap {comps[100]}->{comps[1000]}")
    report("operation budget", ok, "; ".join(details))


def test_scenario_determinism():
    scenario = get_builtin("fig11")[0]
    scenario.trials = 50
    outputs = []
    for _ in range(2):
        rows = run_scenario(scenario)
        buf = io.StringIO()
        write_rows_csv(scenario, rows, buf)
        outputs.append(buf.getvalue().encode())
    report("determinism", outputs[0] == outputs[1],
           f"two runs, {len(outputs[0])} CSV bytes, byte-identical="
           f"{outputs[0] == outputs[1]}")
