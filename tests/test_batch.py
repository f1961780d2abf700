"""Batched trials: every row of a block equals the one-realization call.

The solvers, exhaustive search included, and the empty-region analysis
take a RealizationBatch and handle all its rows in one call; a
ChannelRealization is the one-row case, and the batch checks the values
of both.  These tests pin each batched row to the single call bit for
bit, on ties, zero-width sectors, gaps of exactly pi, K = 1, N = 1,
N = 0 and zero direct paths, pin the batch's error messages, and pin
run_scenario to a plain per-trial loop kept in this file.
"""

import io
import math

import numpy as np
import pytest
from hypothesis import example, given, settings

from conftest import COINCIDING_SETS, batches, coinciding_blocks
from scalar_reference import stack
from ris_dps import (ChannelRealization, LinkBudget, PhaseShiftSet,
                     RealizationBatch, continuous_upper_bound, cpp_optimize,
                     empty_regions, exhaustive_optimize, measured_empty_ratio,
                     overall_h, performance_gain, sample_realization,
                     sweep_optimize, write_regions_csv)
from ris_dps import experiments
from ris_dps.experiments import ResultRow, Scenario, run_scenario
from ris_dps.optimizer import exhaustive_fits

PI = math.pi


def _bits(x) -> bytes:
    """The bytes of a complex or float value, so that -0.0 != 0.0."""
    return np.asarray(x, dtype=complex).tobytes()


def _same_sweep_rows(batched, reals, ps):
    for t, real in enumerate(reals):
        one = sweep_optimize(real, ps)
        assert np.array_equal(batched.config[t], one.config)
        assert _bits(batched.h_star[t]) == _bits(one.h_star)
        assert batched.sector_index[t] == one.sector_index
        assert _bits(batched.amplitude[t]) == _bits(one.amplitude)


@settings(max_examples=300, deadline=None)
@given(batches())
@example(([ChannelRealization(0.5 + 0j, [])] * 2, PhaseShiftSet((0.0,))))
@example(([ChannelRealization(0j, [np.exp(6.02j)]),
           ChannelRealization(0j, [0.3 * np.exp(1.1j)])],
          PhaseShiftSet((4.6,))))
@example(([ChannelRealization(1j, [1j, 1j, -1j])] * 5,
          PhaseShiftSet((0.0, PI))))
def test_batch_rows_equal_single_calls(inst):
    reals, ps = inst
    batch = stack(reals)
    swept = sweep_optimize(batch, ps)
    assert swept.config.shape == (len(reals), batch.n)
    _same_sweep_rows(swept, reals, ps)
    channel = overall_h(batch, ps, swept.config)
    bound = continuous_upper_bound(batch)
    for t, real in enumerate(reals):
        assert _bits(channel[t]) == _bits(overall_h(real, ps, swept.config[t]))
        assert _bits(bound[t]) == _bits(continuous_upper_bound(real))
        # the one-realization formula; np.abs(h_d) may differ in the last bit
        reference = abs(real.h_d) + float(np.abs(real.v).sum())
        assert _bits(bound[t]) == _bits(reference)
    _same_exhaustive_and_empty_rows(reals, ps, swept.amplitude)
    if any(real.h_d == 0 for real in reals):
        with pytest.raises(ValueError, match="zero direct path"):
            cpp_optimize(batch, ps)
        return
    for always_on in (False, True):
        cpp = cpp_optimize(batch, ps, always_on=always_on)
        for t, real in enumerate(reals):
            one = cpp_optimize(real, ps, always_on=always_on)
            assert np.array_equal(cpp.config[t], one.config)
            assert _bits(cpp.h_star[t]) == _bits(one.h_star)


def _same_exhaustive_and_empty_rows(reals, ps, amplitudes, cap=2 ** 12):
    if exhaustive_fits(ps.k, reals[0].n, cap):
        found = exhaustive_optimize(stack(reals), ps, cap)
        for t, real in enumerate(reals):
            one = exhaustive_optimize(real, ps, cap)
            assert np.array_equal(found.config[t], one.config)
            assert _bits(found.h_star[t]) == _bits(one.h_star)
            assert _bits(found.amplitude[t]) == _bits(one.amplitude)
    # an optimum of 0 has no empty regions, and N = 0 no lines
    rows = [t for t, a in enumerate(amplitudes) if a > 0.0]
    if not rows or reals[0].n == 0:
        return
    regions = empty_regions(stack([reals[t] for t in rows]), ps,
                            amplitudes[rows])
    report = measured_empty_ratio(regions)
    for i, t in enumerate(rows):
        one = empty_regions(reals[t], ps, float(amplitudes[t]))
        assert _bits(regions.lines.args[i]) == _bits(one.lines.args)
        assert np.array_equal(regions.lines.starting, one.lines.starting)
        assert _bits(regions.half_width[i]) == _bits(one.half_width)
        single = measured_empty_ratio(one)
        for field in ("measured_ratio", "sum_ratio_ub", "overlap_fraction"):
            assert type(getattr(single, field)) is float
            assert _bits(getattr(report, field)[i]) == _bits(
                getattr(single, field))


def test_rows_with_coinciding_elements_equal_single_calls():
    # Coinciding elements tie in the element sort and give coinciding lines
    # (zero-width sectors), so their rows take the stable re-sort; the
    # other rows are tie-free and keep the default argsort's order.
    v, tied = coinciding_blocks()
    for ps in COINCIDING_SETS:
        for h_d, block in ((np.full(4, 0.3 + 0.2j), v), (np.zeros(4), tied)):
            reals = [ChannelRealization(h, row) for h, row in zip(h_d, block)]
            _same_sweep_rows(sweep_optimize(RealizationBatch(h_d, block), ps),
                             reals, ps)
        for real in (ChannelRealization(0.3 + 0.2j, v[2]),
                     ChannelRealization(0j, tied[0])):
            plain = sweep_optimize(real, ps)
            counted = sweep_optimize(real, ps, instrument=True)
            assert np.isnan(counted.candidates).any()  # zero-width sectors
            assert np.array_equal(counted.config, plain.config)
            assert _bits(counted.h_star) == _bits(plain.h_star)
            assert counted.sector_index == plain.sector_index


def test_one_realization_gives_scalar_fields():
    real = ChannelRealization(0.3 + 0.1j, np.exp(1j * np.array([0.2, 4.0])))
    ps = PhaseShiftSet((0.0, PI / 2))
    for res in (sweep_optimize(real, ps), cpp_optimize(real, ps)):
        assert res.config.shape == (2,)
        assert type(res.h_star) is complex
        assert type(res.amplitude) is float
    assert type(sweep_optimize(real, ps).sector_index) is int
    assert type(overall_h(real, ps, [1, 2])) is complex
    assert type(continuous_upper_bound(real)) is float


def test_stack_rejects_empty_and_unequal_sizes():
    with pytest.raises(ValueError, match="empty"):
        stack([])
    with pytest.raises(ValueError, match="unequal size"):
        stack([ChannelRealization(1, [1j]), ChannelRealization(1, [1j, 1])])


def test_batch_is_read_only_and_checked():
    batch = stack([ChannelRealization(1, [1j, 2]),
                   ChannelRealization(0, [1, 1])])
    assert (batch.trials, batch.n) == (2, 2)
    with pytest.raises(ValueError):
        batch.v[0, 0] = 5
    with pytest.raises(ValueError):
        batch.h_d[0] = 5
    with pytest.raises(ValueError, match="shape"):
        RealizationBatch(np.ones(2), np.ones((3, 4)))
    with pytest.raises(ValueError, match="finite"):
        RealizationBatch(np.ones(1), np.array([[1, np.nan]]))
    with pytest.raises(ValueError, match="nonzero"):
        RealizationBatch(np.ones(1), np.array([[1, 0]]))
    # one row: the messages of ChannelRealization, byte for byte
    with pytest.raises(ValueError) as one_row:
        RealizationBatch(np.array([1e308 + 0j]), np.array([[1e308 + 0j] * 2]))
    assert str(one_row.value) == ("the amplitude bound |h_d| + sum |v_n| "
                                  "must be finite, got inf")
    # several rows: the first faulty row is named
    v = np.ones((3, 4), dtype=complex)
    for bad, message in ((0j, "row 2: element coefficients must be nonzero: "
                               "1 zero, the first at index 1"),
                         (complex(np.nan, 0.0), "row 2: element coefficients "
                          "must be finite: 1 non-finite, the first at index "
                          "1 ((nan+0j))")):
        v[2, 1] = bad
        with pytest.raises(ValueError) as rows:
            RealizationBatch(np.ones(3), v)
        assert str(rows.value) == message
    with pytest.raises(ValueError, match=r"^row 1: direct path h_d must be "
                                         r"finite, got \(inf\+0j\)$"):
        RealizationBatch(np.array([1.0, np.inf]), np.ones((2, 1)))


def test_batch_regions_take_one_amplitude_per_row():
    batch = stack([ChannelRealization(1, [1j, 2]),
                   ChannelRealization(0.5, [1, 1j])])
    ps = PhaseShiftSet((PI / 6, 5 * PI / 6))
    regions = empty_regions(batch, ps, np.array([3.0, 2.0]))
    assert regions.half_width.shape == regions.lines.args.shape == (2, 3, 2)
    assert measured_empty_ratio(regions).measured_ratio.shape == (2,)
    with pytest.raises(ValueError, match="positive and finite, got 0.0"):
        empty_regions(batch, ps, np.array([3.0, 0.0]))
    with pytest.raises(ValueError):  # one amplitude per row
        empty_regions(batch, ps, np.ones(3))
    with pytest.raises(ValueError):  # and one for one realization
        empty_regions(ChannelRealization(1, [1j, 2]), ps, np.ones(2))
    with pytest.raises(ValueError, match="one realization's regions"):
        write_regions_csv(regions, io.StringIO())


def test_zero_trials_give_empty_fields():
    n = 3
    batch = sample_realization(LinkBudget(0.0, 0.0, 0.0, 100.0), n,
                               (7, range(0)))
    assert (batch.trials, batch.n) == (0, n)
    ps = PhaseShiftSet((0.0, PI / 3, 2 * PI / 3))  # a gap above pi: L = 4
    for result in (sweep_optimize(batch, ps), cpp_optimize(batch, ps),
                   exhaustive_optimize(batch, ps)):
        assert result.config.shape == (0, n)
        assert result.h_star.shape == result.amplitude.shape == (0,)
    assert sweep_optimize(batch, ps).sector_index.shape == (0,)
    assert continuous_upper_bound(batch).shape == (0,)
    regions = empty_regions(batch, ps, np.ones(0))
    assert regions.half_width.shape == regions.lines.args.shape == (0, 4, n)
    report = measured_empty_ratio(regions)
    for field in ("measured_ratio", "sum_ratio_ub", "overlap_fraction"):
        assert getattr(report, field).shape == (0,)


def test_instrument_rejects_a_batch():
    real = ChannelRealization(1, [1j, 2])
    batch = stack([real, real])
    with pytest.raises(ValueError, match="one realization"):
        sweep_optimize(batch, PhaseShiftSet((0.0, PI)), instrument=True)


def test_overall_h_checks_the_batch_config_shape():
    batch = stack([ChannelRealization(1, [1j, 2])] * 3)
    ps = PhaseShiftSet((0.0, PI))
    with pytest.raises(ValueError, match="shape"):
        overall_h(batch, ps, [1, 2])
    with pytest.raises(IndexError, match="out of range"):
        overall_h(batch, ps, [[1, 2]] * 2 + [[0, 3]])


# --- run_scenario against a plain per-trial loop -----------------------------

def _amplitudes(real, phases, solvers, cap):
    sweep = sweep_optimize(real, phases)
    amps = {"sweep": sweep.amplitude,
            "cpp": cpp_optimize(real, phases).amplitude,
            "cpp_always_on": cpp_optimize(real, phases,
                                          always_on=True).amplitude,
            "continuous_ub": continuous_upper_bound(real)}
    if "exhaustive" in solvers:
        amps["exhaustive"] = exhaustive_optimize(real, phases, cap).amplitude
    return amps


def _per_trial_rows(scenario):
    """What run_scenario must return, one trial and one solver at a time."""
    rows = []
    for x, (budget, n, phases, solvers) in zip(scenario.values,
                                               scenario.validate()):
        amps = {s: [] for s in solvers}
        ratios = []
        for trial in range(scenario.trials):
            real = sample_realization(budget, n, (scenario.seed, trial))
            found = _amplitudes(real, phases, solvers, scenario.exhaustive_cap)
            for s in solvers:
                amps[s].append(found[s])
            regions = empty_regions(real, phases, found["sweep"])
            ratios.append(measured_empty_ratio(regions).measured_ratio)
        snr_scale = 10.0 ** (budget.snr_budget_db / 10.0)
        mean_se, std_se = {}, {}
        for s in scenario.solvers:
            if s not in amps:
                mean_se[s] = std_se[s] = None
                continue
            se = np.log2(1.0 + snr_scale * np.asarray(amps[s]) ** 2)
            mean_se[s], std_se[s] = float(se.mean()), float(se.std())
        rows.append(ResultRow(
            x=(x,), mean_se=mean_se, std_se=std_se,
            gain_pct=performance_gain(mean_se["sweep"], mean_se["cpp"]),
            empty_ratio=float(np.mean(ratios))))
    return rows


@pytest.mark.parametrize("jobs", [1, 2])
def test_run_scenario_equals_a_per_trial_loop(monkeypatch, jobs):
    scenario = Scenario(
        name="oracle", budget=LinkBudget(-80.0, -60.0, -120.0, 100.0),
        n_elements=0, phases=PhaseShiftSet((PI / 6, 5 * PI / 6)),
        axis="n_elements", values=(1, 4, 9), trials=12, seed=5,
        solvers=("sweep", "cpp", "cpp_always_on", "exhaustive",
                 "continuous_ub"),
        empty_ratio=True, exhaustive_cap=3 ** 8)
    # K+1 = 3 lines per element: 13, 3 and 1 trials per block
    monkeypatch.setattr(experiments, "_BLOCK_LINES", 40)
    blocks = []
    if jobs == 1:  # a pool could not pickle the counting wrapper
        solve = experiments._solve_trial
        monkeypatch.setattr(experiments, "_solve_trial",
                            lambda *a: blocks.append(a[-1]) or solve(*a))
    rows = run_scenario(scenario, jobs=jobs)
    assert rows == _per_trial_rows(scenario)
    assert rows[2].mean_se["exhaustive"] is None  # 3**9 is over the cap
    if jobs == 1:
        assert [len(b) for b in blocks] == [12] + [3] * 4 + [1] * 12
