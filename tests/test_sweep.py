import hashlib
import itertools
import math

import numpy as np
import pytest

from conftest import random_instance
from scalar_reference import (angle_between, config_given_direction,
                              phase_of, unit_from_arg)
from ris_dps import (OFF, ChannelRealization, LinkBudget, PhaseShiftSet,
                     RealizationBatch, continuous_upper_bound, cpp_optimize,
                     exhaustive_optimize,
                     overall_h, sample_realization, separation_lines,
                     sweep_optimize)
from ris_dps.optimizer import DEFAULT_EXHAUSTIVE_CAP, exhaustive_fits

PI = math.pi


def test_empty_realization_returns_direct_path():
    real = ChannelRealization(0.7 - 0.1j, [])
    res = sweep_optimize(real, PhaseShiftSet((0.0,)))
    assert res.config.size == 0
    assert res.h_star == real.h_d


def test_dominant_direct_path_picks_nearest_phase():
    ps = PhaseShiftSet((PI / 6, 5 * PI / 6))
    real = ChannelRealization(10 + 0j, [1 + 0j])
    res = sweep_optimize(real, ps)
    assert list(res.config) == [1]
    # exhaustive over the 3 choices confirms
    best = max((abs(overall_h(real, ps, [c])), -c) for c in (0, 1, 2))
    assert res.amplitude == pytest.approx(best[0], rel=1e-12)


def test_matches_exhaustive_on_random_instances():
    rng = np.random.default_rng(101)
    for _ in range(150):
        real, ps = random_instance(rng, int(rng.integers(1, 9)),
                                   int(rng.integers(1, 4)))
        sw = sweep_optimize(real, ps)
        ex = exhaustive_optimize(real, ps)
        assert sw.amplitude == pytest.approx(ex.amplitude, rel=1e-12)
        # the returned configuration realizes the reported channel
        assert abs(overall_h(real, ps, sw.config)) == pytest.approx(
            sw.amplitude, rel=1e-9)


def test_uniform_set_never_turns_elements_off():
    ps = PhaseShiftSet.uniform(3)
    rng = np.random.default_rng(13)
    for _ in range(60):
        n = int(rng.integers(1, 20))
        v = np.exp(1j * rng.uniform(0, 2 * PI, n))
        real = ChannelRealization(rng.uniform(0, 2) + 0j, v)
        res = sweep_optimize(real, ps)
        assert np.all(res.config != OFF)


def test_amplitude_never_below_direct_path():
    rng = np.random.default_rng(19)
    for _ in range(50):
        real, ps = random_instance(rng, int(rng.integers(0, 7)) or 1, 2)
        res = sweep_optimize(real, ps)
        assert res.amplitude >= abs(real.h_d) - 1e-12 * abs(real.h_d)


def test_monotone_in_added_elements():
    rng = np.random.default_rng(31)
    ps = PhaseShiftSet((0.4, 2.2))
    v = rng.uniform(0.2, 1.5, 10) * np.exp(1j * rng.uniform(0, 2 * PI, 10))
    h_d = 0.8 + 0.3j
    prev = 0.0
    for n in range(1, 11):
        res = sweep_optimize(ChannelRealization(h_d, v[:n]), ps)
        assert res.amplitude >= prev * (1 - 1e-12)
        prev = res.amplitude


def test_sector_count_and_candidates():
    rng = np.random.default_rng(37)
    for k in (1, 2, 3):
        real, ps = random_instance(rng, 5, k)
        res = sweep_optimize(real, ps, instrument=True)
        l = ps.line_starting.size
        assert res.candidates.shape == (5 * l,)
        assert np.all(np.isfinite(res.candidates))
        assert res.candidates[res.sector_index] == pytest.approx(res.amplitude)
        assert res.amplitude == res.candidates.max()


def test_config_constant_within_sectors():
    rng = np.random.default_rng(41)
    real, ps = random_instance(rng, 4, 2)
    args = np.sort(separation_lines(real, ps), axis=None)
    for j in range(len(args)):
        lo = args[j - 1] if j > 0 else args[-1] - 2 * PI
        hi = args[j]
        if hi - lo < 1e-9:
            continue
        probes = lo + (hi - lo) * np.array([0.25, 0.5, 0.75])
        cfgs = [list(config_given_direction(real, ps, t % (2 * PI)))
                for t in probes]
        assert cfgs[0] == cfgs[1] == cfgs[2]


def test_incremental_chain_closes_on_itself():
    rng = np.random.default_rng(43)
    for n in (3, 8, 20):
        real, ps = random_instance(rng, n, 3)
        res = sweep_optimize(real, ps, instrument=True)
        start = res.candidates[0]
        assert abs(res.cycle_h) == pytest.approx(start, rel=1e-9)


def test_vector_addition_budget():
    rng = np.random.default_rng(47)
    for n, k in ((5, 1), (12, 2), (30, 3)):
        real, ps = random_instance(rng, n, k)
        res = sweep_optimize(real, ps, instrument=True)
        l = ps.line_starting.size
        assert res.counters.vector_additions == n + 2 * n * l


def test_verify_mode_agrees_with_plain_sweep():
    rng = np.random.default_rng(53)
    for _ in range(20):
        real, ps = random_instance(rng, int(rng.integers(2, 12)), 2)
        plain = sweep_optimize(real, ps)
        checked = sweep_optimize(real, ps, instrument=True)
        assert checked.counters.scratch_recomputes > 0
        assert checked.amplitude == plain.amplitude
        assert list(checked.config) == list(plain.config)


def test_verify_mode_tolerates_exact_cancellation_mid_sweep():
    # the direct path cancels the all-on contribution, so the candidate
    # chain passes through a channel of (numerically) zero amplitude; the
    # drift check must judge against the operand scale, not |h|
    ps = PhaseShiftSet((0.0,))
    v = np.array([0.1 + 0.2j, 0.3 + 0.7j, 0.25 + 0.45j])
    real = ChannelRealization(-((v[2] + v[0]) + v[1]), v)
    res = sweep_optimize(real, ps, instrument=True)
    assert np.nanmin(res.candidates) < 1e-12
    assert res.amplitude == pytest.approx(
        exhaustive_optimize(real, ps).amplitude, rel=1e-12)


def test_one_ulp_wide_first_sector():
    # the first (wrapping) sector runs from a line at 2*pi - 1 ulp to one
    # at 0.0, too narrow to probe the configuration at its midpoint
    v = [complex(-1.0, 1.2246467991473532e-16),
         complex(0.9659258262890681, -0.25881904510252157),
         complex(0.5000000000000001, -0.8660254037844386),
         complex(6.123233995736766e-17, 1.0)]
    real = ChannelRealization(0j, v)
    ps = PhaseShiftSet((0.0, PI / 6, PI / 4))
    res = sweep_optimize(real, ps, instrument=True)
    assert abs(overall_h(real, ps, res.config)) == pytest.approx(
        res.amplitude, rel=1e-12)
    assert res.amplitude == pytest.approx(
        exhaustive_optimize(real, ps).amplitude, rel=1e-12)


def test_no_optimal_candidate_sits_near_right_angle():
    # the chosen contribution of an on element never makes an angle within
    # 1e-6 of pi/2 with the optimal channel, on generic instances
    rng = np.random.default_rng(59)
    for _ in range(80):
        real, ps = random_instance(rng, int(rng.integers(1, 7)),
                                   int(rng.integers(1, 4)))
        res = exhaustive_optimize(real, ps)
        if abs(res.h_star) == 0.0:
            continue
        for n, c in enumerate(res.config):
            if c == OFF:
                continue
            f = real.v[n] * unit_from_arg(phase_of(ps, int(c)))
            assert abs(angle_between(f, res.h_star) - PI / 2) > 1e-6


def test_winning_choice_minimizes_angle_to_h_star():
    # Theorem of the per-element rule: at the optimum, each on element
    # applies the unique candidate closest to h*, and that angle < pi/2.
    rng = np.random.default_rng(61)
    for _ in range(40):
        real, ps = random_instance(rng, int(rng.integers(1, 7)), 3)
        res = exhaustive_optimize(real, ps)
        if abs(res.h_star) == 0.0:
            continue
        for n, c in enumerate(res.config):
            angles = [angle_between(real.v[n] * unit_from_arg(p), res.h_star)
                      for p in ps.phases]
            if c == OFF:
                assert min(angles) > PI / 2 - 1e-9
            else:
                assert angles[int(c) - 1] == min(angles)
                assert angles[int(c) - 1] < PI / 2 + 1e-9
                if angles[int(c) - 1] < PI / 2 - 1e-9:
                    # the closest candidate is then provably unique
                    near = sum(a - min(angles) < 1e-12 for a in angles)
                    assert near == 1


class TestExhaustive:
    def test_empty(self):
        real = ChannelRealization(2j, [])
        assert exhaustive_optimize(real, PhaseShiftSet((0.0,))).h_star == 2j

    def test_aligned_single_element(self):
        real = ChannelRealization(1 + 0j, [1 + 0j])
        res = exhaustive_optimize(real, PhaseShiftSet((0.0,)))
        assert list(res.config) == [1]
        assert res.amplitude == pytest.approx(2.0)

    def test_matches_plain_enumeration(self):
        rng = np.random.default_rng(67)
        real, ps = random_instance(rng, 2, 3)
        best_amp, best_cfg = -1.0, None
        for cfg in itertools.product(range(4), repeat=2):
            amp = abs(overall_h(real, ps, list(cfg)))
            if amp > best_amp:
                best_amp, best_cfg = amp, cfg
        res = exhaustive_optimize(real, ps)
        assert res.amplitude == pytest.approx(best_amp, rel=1e-12)
        assert tuple(res.config) == best_cfg

    @pytest.mark.parametrize("power", [600, -600])
    def test_scaled_rows_keep_their_optimum(self, power):
        # A row scaled by 2**600 squares past the float range and one
        # scaled by 2**-600 below it; both must keep the unscaled row's
        # configuration and, scaled exactly, its channel.
        rng = np.random.default_rng(71)
        reals, ps = zip(*(random_instance(rng, 5, 3) for _ in range(4)))
        ps = ps[0]
        batch = RealizationBatch(np.array([r.h_d for r in reals]),
                                 np.stack([r.v for r in reals]))
        s = math.ldexp(1.0, power)
        scaled = RealizationBatch(batch.h_d * s, batch.v * s)
        plain, big = exhaustive_optimize(batch, ps), exhaustive_optimize(
            scaled, ps)
        np.testing.assert_array_equal(big.config, plain.config)
        assert np.array_equal(big.h_star, plain.h_star * s)
        np.testing.assert_array_equal(
            big.config, sweep_optimize(scaled, ps).config)

    @pytest.mark.parametrize("h_d, v, config, h_star", [
        (0j, [1e-310], [1], 1e-310),
        (3 * 2.0 ** -1060, [4 * 2.0 ** -1060, -4j * 2.0 ** -1060], [1, 1],
         (7 - 4j) * 2.0 ** -1060),
    ])
    def test_subnormal_rows_keep_their_optimum(self, h_d, v, config, h_star):
        # A bound below 2**-1022: unscaled, every square is 0; the scale
        # 2**-e, e <= -1024, is not itself a float.  Phases 0 and pi keep
        # every sum exact, and ties break to the first phase.
        real = ChannelRealization(h_d, np.array(v))
        res = exhaustive_optimize(real, PhaseShiftSet.uniform(2))
        assert list(res.config) == config
        assert res.h_star == h_star

    def test_cap_enforced(self):
        real = ChannelRealization(1 + 0j, np.exp(1j * np.arange(10)))
        with pytest.raises(ValueError, match="cap"):
            exhaustive_optimize(real, PhaseShiftSet.uniform(3), max_configs=100)

    def test_fits_equals_the_power_test(self):
        for k, n, cap in itertools.product(range(1, 5), range(0, 14),
                                           (-1, 0, 1, 2, 3, 80, 81, 2 ** 24)):
            assert exhaustive_fits(k, n, cap) == ((k + 1) ** n <= cap)

    def test_fits_answers_a_huge_n_at_once(self):
        assert not exhaustive_fits(1, 10 ** 9, DEFAULT_EXHAUSTIVE_CAP)
        assert exhaustive_fits(1, 24, DEFAULT_EXHAUSTIVE_CAP)

    def test_cap_message_gives_the_power_not_its_digits(self):
        real = ChannelRealization(1 + 0j, np.exp(1j * np.arange(10 ** 4)))
        with pytest.raises(ValueError, match=r"^\(K\+1\)\^N = 3\^10000 "
                                             "exceeds the exhaustive cap "
                                             "16777216$"):
            exhaustive_optimize(real, PhaseShiftSet((0.0, PI)))


class TestCpp:
    def test_quantizes_the_continuous_solution_for_uniform_sets(self):
        # with always_on, cpp must equal direct quantization of the
        # continuous per-element alignment solution
        rng = np.random.default_rng(71)
        ps = PhaseShiftSet.uniform(4)
        phases = np.asarray(ps.phases)
        for _ in range(30):
            n = int(rng.integers(1, 12))
            v = rng.uniform(0.1, 2, n) * np.exp(1j * rng.uniform(0, 2 * PI, n))
            h_d = rng.uniform(0.1, 2) * np.exp(1j * rng.uniform(0, 2 * PI))
            real = ChannelRealization(h_d, v)
            res = cpp_optimize(real, ps, always_on=True)
            target = np.angle(h_d) % (2 * PI)
            for n_i, c in enumerate(res.config):
                want = (target - np.angle(v[n_i])) % (2 * PI)
                dist = np.abs((phases - want + PI) % (2 * PI) - PI)
                assert dist[int(c) - 1] == pytest.approx(dist.min())

    def test_off_versus_always_on(self):
        ps = PhaseShiftSet((PI / 6, 5 * PI / 6))
        # element angle pi/2 puts both candidates (at 2pi/3 and 4pi/3)
        # beyond pi/2 of the direct path
        real = ChannelRealization(1 + 0j, [unit_from_arg(PI / 2)])
        assert list(cpp_optimize(real, ps).config) == [OFF]
        assert list(cpp_optimize(real, ps, always_on=True).config) != [OFF]

    def test_zero_direct_path_rejected(self):
        real = ChannelRealization(0j, [1 + 0j])
        with pytest.raises(ValueError, match="sweep_optimize"):
            cpp_optimize(real, PhaseShiftSet((0.0,)))

    def test_empty_realization(self):
        real = ChannelRealization(1 + 1j, [])
        assert cpp_optimize(real, PhaseShiftSet((0.0,))).h_star == 1 + 1j

    def test_never_beats_sweep(self):
        rng = np.random.default_rng(73)
        for _ in range(40):
            real, ps = random_instance(rng, int(rng.integers(1, 10)), 2,
                                       hd_max=1.0)
            if abs(real.h_d) == 0.0:
                continue
            assert (cpp_optimize(real, ps).amplitude
                    <= sweep_optimize(real, ps).amplitude * (1 + 1e-12))


def test_continuous_upper_bound():
    real = ChannelRealization(3 + 0j, [1 + 0j, -2j])
    assert continuous_upper_bound(real) == pytest.approx(6.0)
    assert continuous_upper_bound(ChannelRealization(1j, [])) == 1.0

    rng = np.random.default_rng(79)
    for _ in range(30):
        real, ps = random_instance(rng, int(rng.integers(1, 8)), 3)
        assert sweep_optimize(real, ps).amplitude <= continuous_upper_bound(
            real) * (1 + 1e-12)


def test_sampled_realizations_solve_end_to_end():
    budget = LinkBudget(-80.0, -60.0, -140.0, 108.0)
    ps = PhaseShiftSet((PI / 6, 5 * PI / 6))
    real = sample_realization(budget, 50, (2024, 0))
    res = sweep_optimize(real, ps)
    base = cpp_optimize(real, ps)
    assert res.amplitude >= base.amplitude
    assert res.amplitude >= abs(real.h_d)


#: SHA-256 of sweep_optimize's config, h_star and sector_index bytes on
#: seeded blocks beyond the presets' N <= 200, under the benchmark's two
#: phase sets; angles free, or on a 1024-direction grid, so that elements
#: tie in the element sort and lines coincide.
LARGE_N_DIGESTS = {
    (1, 10_000, False, "lopsided"):
        "3a3e01ee676aff49c86665fab8add81f2caeb33085ebab283a5f5959219c4a42",
    (1, 10_000, False, "uniform3"):
        "f7e953c7159e3b91cfdd9b2537921a5a363c8e8e570f57e75cef192b647dc816",
    (1, 10_000, True, "lopsided"):
        "c466b48fcc85606be5f3575c180fee9d198d6184ad3c95d9b8b1cf6debec6026",
    (1, 10_000, True, "uniform3"):
        "27d7d3d34ae4239a991358959c3300a8b1a1002b4ba7bcc8719d552d542a3c9f",
    (20, 1_000, False, "lopsided"):
        "e61ef7fb88c2c5ac94f469a75cdd7be22b85e4e72768aa3358c3a7d0e3fe9c71",
    (20, 1_000, False, "uniform3"):
        "1f4de79d323971c57505a9a1018a6033838c5711bca13d703698483bc06a817d",
    (20, 1_000, True, "lopsided"):
        "72619a07f2111e8ff809c0ab527520bc68bc3d6bf10f6c7fa2cb658c93e13070",
    (20, 1_000, True, "uniform3"):
        "c79f86ee76d8bfa86a4b2e66eff3097bb1b2ba6ae3f8b2b26597cfeca9a71643",
}


def test_large_n_sweep_digests():
    sets = {"lopsided": PhaseShiftSet((PI / 6, 5 * PI / 6)),
            "uniform3": PhaseShiftSet.uniform(3)}
    for (t, n, grid, name), digest in LARGE_N_DIGESTS.items():
        rng = np.random.default_rng((t, n, grid))
        angles = rng.uniform(0.0, 2 * PI, (t, n))
        if grid:
            angles = np.floor(angles * (1024 / (2 * PI))) * (2 * PI / 1024)
        v = rng.uniform(0.1, 2.0, (t, n)) * np.exp(1j * angles)
        h_d = rng.uniform(0.0, 2.0, t) * np.exp(
            1j * rng.uniform(0.0, 2 * PI, t))
        res = sweep_optimize(RealizationBatch(h_d, v), sets[name])
        d = hashlib.sha256()
        for a in (res.config.astype(np.int64), res.h_star,
                  res.sector_index.astype(np.int64)):
            d.update(a.tobytes())
        assert d.hexdigest() == digest, (t, n, grid, name)
