import hashlib
import io
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import (GRID, choice_pairs, instances, phase_sets,
                      random_instance)
from scalar_reference import (empty_ratio_of_row, omega_large_gap,
                              omega_small_gap, union_of_row)
from ris_dps import (OFF, ChannelRealization, EmptyRatioReport, EmptyRegions,
                     PhaseShiftSet, RealizationBatch, arg_mod_2pi,
                     circular_distance, empty_ratio_upper_bound_approx,
                     empty_regions, measured_empty_ratio, sample_realization,
                     separation_lines, sweep_optimize, wrap_angle,
                     write_regions_csv)
from ris_dps import analysis
from ris_dps.analysis import _union_lengths
from ris_dps.experiments import TWO_PHASE_SET, get_builtin, regions_dump

PI = math.pi
TWO_PI = 2.0 * PI


def union_length(arcs) -> float:
    """The union pass on one row of (start, end) arcs."""
    arcs = np.asarray(arcs, dtype=float).reshape(-1, 2)
    return float(_union_lengths(arcs[None, :, 0], arcs[None, :, 1])[0])


def regions_at(centers, widths):
    """EmptyRegions of one-column lines at the given centers and widths."""
    return EmptyRegions(np.array(centers, dtype=float).reshape(1, -1),
                        np.array(widths, dtype=float).reshape(1, -1))


class TestOmega:
    def test_small_gap_examples(self):
        assert omega_small_gap(1.0, 0.3, 0.3, 1.0) == 0.0
        assert omega_small_gap(0.1, 0.0, PI / 3, 1.0) == pytest.approx(
            math.asin(0.05))
        assert omega_small_gap(1.0, 0.0, PI, 1.0) == pytest.approx(PI / 2)

    def test_small_gap_wraps_phase_pair(self):
        # wrap pair (5pi/6 -> pi/6+2pi) has gap 4pi/3 and is rejected;
        # a wrapped pair below pi is fine
        w = omega_small_gap(0.5, 5.5, 0.5, 2.0)
        gap = (0.5 - 5.5) % (2 * PI)
        assert w == pytest.approx(math.asin(0.5 * math.sin(gap / 2) / 2.0))
        with pytest.raises(ValueError, match="gap"):
            omega_small_gap(1.0, 5 * PI / 6, PI / 6, 1.0)

    def test_large_gap_examples(self):
        assert omega_large_gap(0.0, 1.0) == 0.0
        assert omega_large_gap(1.0, 1.0) == pytest.approx(PI / 6)
        assert omega_large_gap(2.0, 1.0) == pytest.approx(PI / 2)  # clamp

    def test_zero_h_star_rejected(self):
        with pytest.raises(ValueError):
            omega_small_gap(1.0, 0.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            omega_large_gap(1.0, 0.0)

    @pytest.mark.parametrize("h_star_amp", [math.nan, math.inf, -math.inf,
                                            -1.0])
    def test_non_finite_h_star_rejected(self, h_star_amp):
        real = ChannelRealization(1 + 0j, [1 + 0j])
        with pytest.raises(ValueError, match="positive and finite"):
            omega_small_gap(1.0, 0.0, 1.0, h_star_amp)
        with pytest.raises(ValueError, match="positive and finite"):
            omega_large_gap(1.0, h_star_amp)
        with pytest.raises(ValueError, match="positive and finite"):
            empty_regions(real, PhaseShiftSet((0.0,)), h_star_amp)

    def test_clamp_keeps_width_in_range(self):
        for ratio_amp in (0.1, 1.0, 10.0, 1e6):
            assert 0.0 <= omega_large_gap(ratio_amp, 1.0) <= PI / 2
            assert 0.0 <= omega_small_gap(ratio_amp, 0.0, 3.0, 1.0) <= PI / 2


class TestEmptyRegions:
    def test_two_phase_single_element(self):
        ps = PhaseShiftSet((PI / 6, 5 * PI / 6))
        real = ChannelRealization(1 + 0j, [1 + 0j])
        regions = empty_regions(real, ps, 4.0)
        assert regions.centers[:, 0] == pytest.approx(
            [PI / 2, 4 * PI / 3, 5 * PI / 3])
        # the line between the phases, then the two bracketing the off region
        assert ps.line_starting.tolist() == [1, 2, OFF]
        assert choice_pairs(ps) == [(1, 2), (2, OFF), (OFF, 1)]
        # widths follow the two formulas
        between, *off = regions.half_width[:, 0]
        assert between == pytest.approx(
            omega_small_gap(1.0, PI / 6, 5 * PI / 6, 4.0))
        assert off == pytest.approx([omega_large_gap(1.0, 4.0)] * 2)

    def test_region_count_scales_with_elements(self):
        ps = PhaseShiftSet((PI / 6, 5 * PI / 6))
        rng = np.random.default_rng(2)
        v = np.exp(1j * rng.uniform(0, 2 * PI, 50))
        real = ChannelRealization(1 + 0j, v)
        assert empty_regions(real, ps, 30.0).half_width.shape == (3, 50)

    def test_widths_vanish_for_large_h_star(self):
        ps = PhaseShiftSet.uniform(3)
        real = ChannelRealization(1 + 0j, [1 + 0j, 1j])
        assert (empty_regions(real, ps, 1e12).half_width < 1e-11).all()

    def test_rejects_nonpositive_h_star(self):
        real = ChannelRealization(1 + 0j, [1 + 0j])
        with pytest.raises(ValueError):
            empty_regions(real, PhaseShiftSet((0.0,)), 0.0)


class TestUnionMeasure:
    def test_no_regions(self):
        report = measured_empty_ratio(regions_at([], []))
        assert report.measured_ratio == 0.0
        assert report.sum_ratio_ub == 0.0
        assert report.overlap_fraction == 0.0

    def test_identical_arcs_full_overlap(self):
        report = measured_empty_ratio(regions_at([1.0, 1.0], [0.1, 0.1]))
        assert report.measured_ratio == pytest.approx(0.2 / (2 * PI))
        assert report.sum_ratio_ub == pytest.approx(0.4 / (2 * PI))
        assert report.overlap_fraction == pytest.approx(0.5)

    def test_wraparound_arc(self):
        assert union_length([(-0.1, 0.1)]) == pytest.approx(0.2)
        assert union_length([(2 * PI - 0.1, 2 * PI + 0.1),
                             (-0.1, 0.1)]) == pytest.approx(0.2)

    def test_disjoint_arcs_add(self):
        assert union_length([(0.0, 1.0), (2.0, 3.5)]) == pytest.approx(2.5)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.floats(0, 2 * PI), st.floats(0.0, PI / 2)),
                    min_size=0, max_size=25))
    def test_union_matches_dense_grid(self, arcs):
        intervals = [(c - w, c + w) for c, w in arcs]
        grid = np.linspace(0.0, 2 * PI, 100_000, endpoint=False)
        covered = np.zeros(grid.size, dtype=bool)
        for c, w in arcs:
            if w == 0.0:
                continue
            dist = np.abs((grid - c + PI) % (2 * PI) - PI)
            covered |= dist <= w
        mc_ratio = covered.mean()
        got_ratio = union_length(intervals) / (2 * PI)
        assert got_ratio == pytest.approx(mc_ratio, abs=1e-3)

    def test_measured_never_exceeds_summed(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            real, ps = random_instance(rng, int(rng.integers(1, 10)), 2)
            amp = sweep_optimize(real, ps).amplitude
            report = measured_empty_ratio(empty_regions(real, ps, amp))
            assert report.measured_ratio <= min(1.0, report.sum_ratio_ub) + 1e-12


def test_exclusion_property_small():
    # arg(h*) never falls inside a region computed from its own amplitude
    rng = np.random.default_rng(7)
    ps = PhaseShiftSet((PI / 6, 5 * PI / 6))
    for trial in range(50):
        v = 0.1 * np.exp(1j * rng.uniform(0, 2 * PI, 20))
        real = ChannelRealization(0.1 + 0j, v)
        res = sweep_optimize(real, ps)
        theta = arg_mod_2pi(res.h_star)
        regions = empty_regions(real, ps, res.amplitude)
        for center, half_width in zip(regions.centers.ravel(),
                                      regions.half_width.ravel()):
            assert circular_distance(theta, center) > half_width - 1e-9


def test_upper_bound_approximation_values():
    assert empty_ratio_upper_bound_approx(2) == pytest.approx(2 / PI)
    assert round(empty_ratio_upper_bound_approx(2), 4) == 0.6366
    assert round(empty_ratio_upper_bound_approx(3), 4) == 0.8270
    assert empty_ratio_upper_bound_approx(4) == pytest.approx(0.9003, abs=5e-5)
    with pytest.raises(ValueError):
        empty_ratio_upper_bound_approx(0)


def test_sum_ratio_tracks_closed_form_with_upper_bound_h():
    # sizing regions from the perfectly aligned channel reproduces the
    # closed-form limit as N grows
    budget_amp = 1.0
    ps = PhaseShiftSet.uniform(2)
    rng = np.random.default_rng(11)
    errors = []
    for n in (50, 100, 200):
        v = budget_amp * np.exp(1j * rng.uniform(0, 2 * PI, n))
        real = ChannelRealization(budget_amp + 0j, v)
        h_ub = budget_amp * (n + 1)
        report = measured_empty_ratio(empty_regions(real, ps, h_ub))
        errors.append(abs(report.sum_ratio_ub - empty_ratio_upper_bound_approx(2)))
    assert errors[-1] < 0.01
    assert errors == sorted(errors, reverse=True)


def test_regions_csv_format():
    ps = PhaseShiftSet((PI / 6, 5 * PI / 6))
    real = ChannelRealization(1 + 0j, [1 + 0j, 1j])
    regions = empty_regions(real, ps, 5.0)
    buf = io.StringIO()
    write_regions_csv(regions, ps, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "center_rad,half_width_rad,element,kind"
    assert len(lines) == 1 + regions.half_width.size
    first = lines[1].split(",")
    assert len(first) == 4
    float(first[0]), float(first[1])  # parseable numbers
    # rows go by element, then column: the line between the two phases,
    # then the two bordering the off region
    assert [row.split(",")[2:] for row in lines[1:4]] == [
        ["0", "between_phases"], ["0", "off_boundary"], ["0", "off_boundary"]]
    assert lines[4].split(",")[2] == "1"


@settings(max_examples=300, deadline=None)
@given(instances(), st.one_of(st.floats(0.05, 50.0),
                              st.sampled_from([1e-3, 0.5, 1.0])))
def test_array_widths_equal_scalar_omegas(inst, h_star_amp):
    # bit for bit on every line, the clamp at pi/2 included, and so is the
    # ratio report built from them
    real, ps = inst
    regions = empty_regions(real, ps, h_star_amp)
    np.testing.assert_array_equal(regions.centers, separation_lines(real, ps))
    cols = choice_pairs(ps)
    want = [[omega_large_gap(v, h_star_amp) if OFF in (s, e)
             else omega_small_gap(v, ps.phases[s - 1], ps.phases[e - 1],
                                  h_star_amp)
             for s, e in cols]
            for v in np.abs(real.v).tolist()]
    assert regions.half_width.T.tolist() == want  # (L, N) planes
    # the report adds by element, then column, as a loop over the lines
    # would
    flat = [w for row in want for w in row]
    intervals = [(c - w, c + w) for c, w in zip(
        regions.centers.T.ravel().tolist(), flat)]
    summed = 2.0 * sum(flat)
    union = union_by_sort_and_merge(intervals)
    assert measured_empty_ratio(regions) == EmptyRatioReport(
        union / TWO_PI, summed / TWO_PI,
        0.0 if summed == 0.0 else 1.0 - union / summed)


#: Unit phasors whose products with a float keep its magnitude exactly.
EXACT_UNITS = (1.0, -1.0, 1j, -1j)


@st.composite
def amplitude_rows(draw, n):
    """n coefficients of one row, whose |v_n| are one of: a * e^{i theta}
    (a few ulps apart, as the sampler draws them); lo one ulp below a power
    of two with hi at it; lo plus 0..span ulps inside one binade, span
    around n; or all drawn freely."""
    kind = draw(st.sampled_from(["phasor", "edge", "span", "free"]))
    scale = 2.0 ** draw(st.integers(-3, 3))
    if kind == "phasor":
        a = scale * draw(st.floats(1.0, 2.0, exclude_max=True))
        theta = np.array(draw(st.lists(st.floats(0.0, TWO_PI), min_size=n,
                                       max_size=n)))
        return a * np.exp(1j * theta)
    if kind == "free":
        amps = draw(st.lists(st.floats(0.1, 2.0), min_size=n, max_size=n))
    elif kind == "edge":
        pair = (math.nextafter(scale, 0.0), scale)
        amps = [pair[i % 2] for i in range(n)]
    else:
        span = max(0, n + draw(st.integers(-3, 2)))
        a = scale * draw(st.sampled_from([1.0, 1.25, 1.5]))
        steps = [0, span] + draw(st.lists(st.integers(0, span), min_size=n,
                                          max_size=n))
        amps = [a + k * math.ulp(a) for k in steps[:n]]
    amps = draw(st.permutations(amps))
    units = draw(st.lists(st.sampled_from(EXACT_UNITS), min_size=n,
                          max_size=n))
    return np.array(amps) * np.array(units)


@settings(max_examples=300, deadline=None)
@given(phase_sets(), st.sampled_from([None, 0, 1, 2, 5]),
       st.integers(1, 30), st.data())
def test_table_and_per_line_widths_equal_scalar_omegas(ps, t, n, data):
    # Both paths of empty_regions, bit for bit, and the one it takes: a
    # table of W amplitudes when every row's |v_n| lie in one binade and
    # W (one past the widest row's span in ulps) is below N.
    rows = 1 if t is None else t
    v = np.array([data.draw(amplitude_rows(n)) for _ in range(rows)],
                 dtype=complex).reshape(rows, n)
    h_star = np.array(data.draw(st.lists(
        st.one_of(st.floats(0.05, 50.0), st.sampled_from([1e-3, 1.0])),
        min_size=rows, max_size=rows)))
    real = (ChannelRealization(1 + 0j, v[0]) if t is None
            else RealizationBatch(np.ones(rows, dtype=complex), v))
    cols = choice_pairs(ps)
    amps = np.abs(v).tolist()
    want = [[[omega_large_gap(a, h) if OFF in (s, e)
              else omega_small_gap(a, ps.phases[s - 1], ps.phases[e - 1], h)
              for s, e in cols] for a in row]
            for row, h in zip(amps, h_star.tolist())]
    spans = [(hi - lo) / math.ulp(lo) if math.frexp(lo)[1] == math.frexp(hi)[1]
             else math.inf for lo, hi in ((min(r), max(r)) for r in amps)]
    w = max(spans, default=0.0) + 1.0
    asin, calls = math.asin, []

    def counted_asin(x):
        calls.append(x)
        return asin(x)

    with mock.patch.object(math, "asin", counted_asin):
        regions = empty_regions(real, ps, h_star[0] if t is None else h_star)
    got = regions.half_width if t is not None else regions.half_width[None]
    assert got.shape == (rows, len(cols), n)
    got = got.swapaxes(1, 2)  # by element, then column, as want
    assert _bits(got).tolist() == _bits(np.reshape(want, got.shape)).tolist()
    assert len(calls) == rows * (w if w < n else n) * len(cols)


def union_by_sort_and_merge(arcs):
    """Reference union length: one arc at a time, a sorted list, a merge."""
    segments = []
    for lo, hi in arcs:
        width = hi - lo
        if width <= 0.0:
            continue
        if width >= TWO_PI:
            return TWO_PI
        lo = wrap_angle(lo)
        hi = lo + width
        if hi > TWO_PI:
            segments.append((lo, TWO_PI))
            segments.append((0.0, hi - TWO_PI))
        else:
            segments.append((lo, hi))
    if not segments:
        return 0.0
    segments.sort()
    total = 0.0
    cur_lo, cur_hi = segments[0]
    for lo, hi in segments[1:]:
        if lo <= cur_hi:
            cur_hi = max(cur_hi, hi)
        else:
            total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
    total += cur_hi - cur_lo
    return min(total, TWO_PI)


@st.composite
def arc_lists(draw):
    start = st.one_of(st.sampled_from(GRID), st.floats(-4 * PI, 4 * PI))
    width = st.one_of(st.just(0.0), st.floats(-0.5, 0.6),
                      st.sampled_from([PI / 12, PI]))
    arcs = []
    for _ in range(draw(st.integers(0, 24))):
        # an arc may start exactly where the previous one ends
        touch = arcs and draw(st.booleans())
        lo = arcs[-1][1] if touch else draw(start)
        arcs.append((lo, lo + draw(width)))
    if arcs and draw(st.integers(0, 9)) == 0:
        lo = draw(start)
        arcs.insert(draw(st.integers(0, len(arcs))),
                    (lo, lo + draw(st.sampled_from([TWO_PI, 2.5 * PI]))))
    return arcs


@settings(max_examples=500, deadline=None)
@given(arc_lists())
@example([(TWO_PI - 0.1, TWO_PI + 0.1), (0.1, 0.3)])  # wraps, then touches
@example([(0.24, 3.69), (3.69, 4.39), (1.0, 1.0)])  # touching runs merge
@example([(3.0, 3.0 + TWO_PI)])
def test_union_equals_sort_and_merge(arcs):
    want = union_by_sort_and_merge(arcs)
    assert union_length(arcs) == want


def _bits(x):
    return np.asarray(x, dtype=float).view(np.uint64)


# Starts in and out of the wrap's fast range (-2*pi, 6*pi), and widths
# that drop the arc, are subnormal, reach 2*pi or pass it.
STARTS = st.one_of(st.sampled_from(GRID), st.floats(-4 * PI, 4 * PI),
                   st.sampled_from([-2 * TWO_PI, 3 * TWO_PI, 20.0, -1e3]))
WIDTHS = st.one_of(st.sampled_from([0.0, -0.0, -0.25, 5e-324, 1e-310,
                                    PI / 12, PI, TWO_PI, 2.5 * PI]),
                   st.floats(-0.5, 0.6), st.floats(0.0, 0.05))


@st.composite
def arc_blocks(draw):
    """(T, M) starts and ends: equal starts, touching arcs, arcs ending on
    2*pi, rows of one arc and rows whose arcs are all dropped among them."""
    t, m = draw(st.integers(1, 5)), draw(st.integers(0, 24))
    lo = np.empty((t, m))
    hi = np.empty((t, m))
    for r in range(t):
        dropped = draw(st.integers(0, 5)) == 0
        for j in range(m):
            kind = draw(st.integers(0 if j else 2, 6))
            start = (lo[r, j - 1] if kind == 0 else hi[r, j - 1] if kind == 1
                     else draw(STARTS))
            if kind == 2:  # ends on 2*pi, after the wrap too
                start = draw(st.sampled_from(GRID))
                end = TWO_PI
            else:
                end = start + draw(WIDTHS)
            lo[r, j], hi[r, j] = (start, start) if dropped else (start, end)
    return lo, hi


@settings(max_examples=400, deadline=None)
@given(arc_blocks())
@example((np.array([[TWO_PI - 0.1, 0.1, 3.0]]),
          np.array([[TWO_PI + 0.1, 0.3, 3.0 + TWO_PI]])))
@example((np.zeros((3, 0)), np.zeros((3, 0))))
@example((np.array([[1.0, 1.0], [30.0, 1.0]]), np.array([[1.5, 1.0],
                                                        [30.5, 1.0]])))
@example((np.array([[1.22, 1.57]]), np.array([[1.57, 4.5]])))  # touching
# ten runs whose lengths round: a pairwise sum of them differs
@example((np.array([[0.000836, 0.001904, 0.004294, 0.009891, 0.022525,
                     0.052115, 0.122009, 0.282342, 0.635757, 1.465723]]),
          np.array([[0.001848, 0.004269, 0.008876, 0.020418, 0.049597,
                     0.112003, 0.260489, 0.614577, 1.399986, 3.025207]])))
# a full arc whose two wrapped pieces leave a one-ulp gap between them:
# only the full-circle rule makes it 2*pi
@example((np.array([[-2.337948404185129e-15]]),
          np.array([[-2.337948404185129e-15 + TWO_PI]])))
# nested arcs: the order of the ends is not the order of the starts
@example((np.array([[1.0, 1.5, 1.2], [1.0, 1.2, 4.0]]),
          np.array([[3.0, 2.0, 1.4], [3.0, 1.4, 4.5]])))
# equal starts with different ends, then equal ends with different starts
@example((np.array([[2.0, 2.0, 5.0, 2.0], [1.0, 2.0, 3.5, 0.5]]),
          np.array([[2.5, 4.0, 5.5, 2.1], [3.0, 3.0, 4.0, 3.0]])))
# zero-width and dropped arcs at 0 beside the wrapped piece 0, which a
# piece starting at 0.1 extends
@example((np.array([[0.0, 0.0, TWO_PI - 0.2, -0.0, 0.1, 0.05]]),
          np.array([[0.0, -0.1, TWO_PI + 0.3, -0.0, 0.5, 0.05]])))
# dyadic arcs touching at one point, in and out of start order, and one
# nested in an arc it touches
@example((np.array([[0.5, 2.0, 1.0], [0.5, 0.75, 1.0]]),
          np.array([[1.0, 2.5, 2.0], [1.0, 0.875, 1.5]])))
def test_union_block_equals_rows(block):
    # one pass over the block has each row's bits from its own merge
    lo, hi = block
    want = [union_of_row(np.stack([a, b], axis=1)) for a, b in zip(lo, hi)]
    assert _bits(_union_lengths(lo, hi)).tolist() == _bits(want).tolist()
    for a, b, w in zip(lo, hi, want):
        assert _bits(union_length(np.stack([a, b], axis=1))) == _bits(w)


@pytest.mark.parametrize("scenario", get_builtin("fig15"),
                         ids=lambda s: s.name)
def test_union_of_runner_blocks_equals_rows(scenario):
    # a block of the runner's size at fig15's largest N, 109 rows of
    # 601-901 pieces, and its sweep optimum
    batch = sample_realization(scenario.budget, 200,
                               (scenario.seed, range(109)))
    regions = empty_regions(batch, scenario.phases, sweep_optimize(
        batch, scenario.phases).amplitude)
    centers = regions.centers.reshape(109, -1)
    widths = regions.half_width.reshape(109, -1)
    lo, hi = centers - widths, centers + widths
    want = [union_of_row(np.stack([a, b], axis=1)) for a, b in zip(lo, hi)]
    assert _bits(_union_lengths(lo, hi)).tolist() == _bits(want).tolist()


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 4), st.integers(0, 6), st.integers(1, 4),
       st.data())
def test_empty_ratio_block_equals_rows(t, n, l, data):
    # all three report fields, bit for bit, row by row
    centers = np.array(data.draw(st.lists(STARTS, min_size=t * n * l,
                                          max_size=t * n * l)))
    # a negative width is no input of measured_empty_ratio
    widths = np.array(data.draw(st.lists(
        WIDTHS.filter(lambda w: not w < 0.0), min_size=t * n * l,
        max_size=t * n * l)))
    if data.draw(st.booleans()) and centers.size:  # equal centers
        centers[:] = centers[0]
    # drawn by element, then column, and laid out as (T, L, N) planes
    report = measured_empty_ratio(EmptyRegions(
        centers.reshape(t, n, l).swapaxes(1, 2),
        widths.reshape(t, n, l).swapaxes(1, 2)))
    want = np.array([empty_ratio_of_row(c, w) for c, w in zip(
        centers.reshape(t, n * l), widths.reshape(t, n * l))]).reshape(t, 3)
    for i, field in enumerate(("measured_ratio", "sum_ratio_ub",
                               "overlap_fraction")):
        assert _bits(getattr(report, field)).tolist() == \
            _bits(want[:, i]).tolist()


#: Centers that tie often and arcs that wrap past 0 or 2*pi.
EDGE_CENTERS = st.one_of(
    st.sampled_from([0.0, 1e-3, 0.05, PI, TWO_PI - 0.05,
                     math.nextafter(TWO_PI, 0.0)]), STARTS)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 3), st.integers(1, 8), st.integers(1, 3),
       st.sampled_from(["free", "tied centers", "shared starts"]), st.data())
def test_union_ignores_the_order_of_a_rows_arcs(t, n, l, kind, data):
    # measured_empty_ratio merges the arcs in plane order, not by element
    # then column, so the union must not depend on their order in a row:
    # tied centers, tied starts, zero widths and wrapping arcs included
    m = n * l
    if kind == "shared starts":  # dyadic, so start + width - width = start
        starts = np.array(data.draw(st.lists(
            st.sampled_from([0.0, 0.5, 3.0, 6.25]), min_size=t * m,
            max_size=t * m)))
        widths = np.array(data.draw(st.lists(
            st.integers(0, 64), min_size=t * m, max_size=t * m))) / 64.0
        centers = starts + widths
    else:
        centers = np.array(data.draw(st.lists(
            EDGE_CENTERS, min_size=t * m, max_size=t * m)))
        widths = np.array(data.draw(st.lists(
            WIDTHS.filter(lambda w: not w < 0.0), min_size=t * m,
            max_size=t * m)))
    centers, widths = centers.reshape(t, m), widths.reshape(t, m)
    if kind == "tied centers":  # each row's centers tie in pairs
        centers[:, 1::2] = centers[:, :-1:2]
    perms = [data.draw(st.permutations(range(m))) for _ in range(t)]
    shuffled = [np.take_along_axis(a, np.array(perms), axis=1)
                for a in (centers, widths)]

    def ratio(centers, widths):
        planes = (len(centers), l, n)
        return measured_empty_ratio(EmptyRegions(
            centers.reshape(planes), widths.reshape(planes))).measured_ratio

    assert _bits(ratio(*shuffled)).tolist() == \
        _bits(ratio(centers, widths)).tolist()


@pytest.mark.parametrize("center, width", [
    (math.nan, 0.1), (0.5, math.nan), (math.inf, 0.1), (0.5, math.inf),
    (-math.inf, 0.1), (0.5, -0.2)])
def test_empty_ratio_rejects_a_bad_line(center, width):
    # a finite arc beside the bad one, so the union would run on the rest;
    # line (0, 1) is plane 1's element 0
    centers, widths = np.array([[1.0], [center]]), np.array([[0.1], [width]])
    _assert_names_line_0_1(centers, widths)
    # two bad lines, (0, 1) and (1, 0): the first by element, then column,
    # is named, though (1, 0) comes first in plane order
    centers = np.array([[1.0, center], [center, 2.0]])
    widths = np.array([[0.1, width], [width, 0.1]])
    _assert_names_line_0_1(centers, widths)


def _assert_names_line_0_1(centers, widths):
    """measured_empty_ratio names line (0, 1) of the (L, N) tables, alone
    and as row 1 of a batch; write_regions_csv names it before any row."""
    with pytest.raises(ValueError, match=r"^line \(0, 1\) needs a finite"):
        measured_empty_ratio(EmptyRegions(centers, widths))
    fh = io.StringIO()
    with pytest.raises(ValueError, match=r"^line \(0, 1\) needs a finite"):
        write_regions_csv(EmptyRegions(centers, widths),
                          PhaseShiftSet.uniform(2), fh)
    assert fh.getvalue() == ""
    # in a batch, the first bad line's row is named
    with pytest.raises(ValueError, match=r"^row 1: line \(0, 1\) needs"):
        measured_empty_ratio(EmptyRegions(
            np.stack([np.ones_like(centers), centers]),
            np.stack([np.full_like(widths, 0.1), widths])))


@pytest.mark.parametrize("centers, widths", [
    (np.ones((3, 2)), np.full((2, 3), 0.1)),  # paired by flat index before
    (np.ones((2, 3)), np.full((1, 2, 3), 0.1)),
    (np.ones(6), np.full(6, 0.1)),  # one line per element, but no planes
    (np.ones((1, 1, 2, 3)), np.full((1, 1, 2, 3), 0.1))])
def test_regions_reject_tables_of_another_shape(centers, widths):
    with pytest.raises(ValueError, match=r"one \(L, N\) or \(T, L, N\) shape"):
        EmptyRegions(centers, widths)


def test_regions_csv_rejects_a_set_of_another_l():
    # 6 columns of lines against a set of L = 3: each element's rows would
    # be cut to 3
    ps = PhaseShiftSet((PI / 6, 5 * PI / 6))
    regions = EmptyRegions(np.ones((6, 2)), np.full((6, 2), 0.1))
    with pytest.raises(ValueError, match="L = 3 columns, the regions 6"):
        write_regions_csv(regions, ps, io.StringIO())


@pytest.mark.parametrize("arcs", [
    [(-1e308, 1e308)], [(-1.7e308, 1.7e308)],
    [(0.0, 1.0), (-1e308, 1e308), (2.0, 2.5)],
    [(5.0, 5.5), (1.0, 1.2), (-1e308, 1e308), (1e308, -1e308)]])
def test_overflowing_arc_width_covers_the_circle(arcs):
    # hi - lo overflows to inf on finite ends; under the suite's
    # filterwarnings = error a RuntimeWarning would fail this call.
    assert union_length(arcs) == TWO_PI


@pytest.mark.parametrize("centers, widths, want", [
    ([[1e308, 1.0]], [[1e308, 0.1]], (1.0, math.inf, 1.0)),
    ([[-1e308, 1.0]], [[1e308, 0.1]], (1.0, math.inf, 1.0)),
    ([[-1.7976931348623157e308, 1.0]], [[1e300, 0.1]],
     (1.0, (2.0 * (1e300 + 0.1)) / TWO_PI, 1.0)),
    ([[1.0, 2.0]], [[1.7e308, 1.7e308]], (1.0, math.inf, 1.0))])
def test_finite_lines_that_overflow_cover_the_circle(centers, widths, want):
    # an arc end, the summed width or both pass the float range; under
    # the suite's filterwarnings = error a RuntimeWarning would fail, and
    # no start reaches the wrap as -inf, where it would turn into a NaN
    wrap = analysis.wrap_angles

    def finite_wrap(theta):
        assert np.isfinite(theta).all()
        return wrap(theta)

    regions = EmptyRegions(np.array(centers), np.array(widths))
    plain = EmptyRegions(np.array([[1.0, 3.0]]), np.array([[0.5, 0.25]]))
    with mock.patch.object(analysis, "wrap_angles", finite_wrap):
        report = measured_empty_ratio(regions)
        # in a batch, beside a row the circle does not cover
        batch = measured_empty_ratio(EmptyRegions(
            np.stack([regions.centers, plain.centers]),
            np.stack([regions.half_width, plain.half_width])))
    fields = ("measured_ratio", "sum_ratio_ub", "overlap_fraction")
    assert tuple(getattr(report, f) for f in fields) == want
    assert [getattr(batch, f).tolist() for f in fields] == [
        [w, getattr(measured_empty_ratio(plain), f)]
        for w, f in zip(want, fields)]


@pytest.mark.parametrize("sampled", [True, False])
def test_a_tiny_h_star_gives_quarter_turn_widths(sampled):
    # v / h* passes the float range at a subnormal h*: the ratio is 1, and
    # every width pi/2, with no warning; sampled amplitudes take the
    # binade table, distinct ones one arcsine per line
    budget = get_builtin("fig15_k3")[0].budget
    batch = sample_realization(budget, 6, (7, range(2)))
    if not sampled:
        batch = RealizationBatch(batch.h_d, batch.v * [[1, 2, 3, 4, 5, 6]])
    regions = empty_regions(batch, PhaseShiftSet.uniform(3), 1e-320)
    assert (regions.half_width == PI / 2).all()


@pytest.mark.parametrize("trials, h_star_amp, shape", [
    (3, np.ones(2), r"\(3,\), got \(2,\)"),
    (3, np.ones((3, 1)), r"\(3,\), got \(3, 1\)"),
    (None, np.ones(2), r"\(\), got \(2,\)")])
def test_empty_regions_names_a_mis_shaped_h_star(trials, h_star_amp, shape):
    budget = get_builtin("fig15_k3")[0].budget
    real = sample_realization(budget, 4, 7 if trials is None
                              else (7, range(trials)))
    with pytest.raises(ValueError, match=r"^h_star_amp needs shape " + shape):
        empty_regions(real, PhaseShiftSet.uniform(3), h_star_amp)


#: SHA-256 of empty_regions' half-width bytes, sized from the sweep
#: optimum: seeded sampled blocks beyond the presets' N <= 200 under the
#: benchmark's two phase sets, and a block whose amplitudes all differ.
WIDTH_DIGESTS = {
    ("sampled", 20, 1_000, "lopsided"):
        "61ecddd904f8a6f617b44e80faad7bbea590fd997200be8b846726edf0f9063c",
    ("sampled", 20, 1_000, "uniform3"):
        "7e045f5a6ee3961bd6ee12d38d80ad33567017fc22f369c2024aef091595b9bd",
    ("sampled", 1, 10_000, "lopsided"):
        "78a278da4f5c4ad18154e34bbd6cdc76a6ecbba9900e289647d648aa9c8317bc",
    ("sampled", 1, 10_000, "uniform3"):
        "bccfbc390f68244004d62663a0139067a4e7ca60cbc2f0f6f96db55f4941b0ae",
    ("distinct", 3, 400, "uniform3"):
        "54c046f3911822924ccd0156781d8aa8f7c553b821dbe3bd228b4194d8df970d",
}
#: SHA-256 of the fig14 preset's regions CSV.
FIG14_DIGEST = (
    "4d1819d20aff6047ac89fd8fa843210847c7d4ba38b0838d80f8afdfbc168177")


def test_width_digests():
    sets = {"lopsided": TWO_PHASE_SET, "uniform3": PhaseShiftSet.uniform(3)}
    budget = get_builtin("fig15_k3")[0].budget
    for (kind, t, n, name), digest in WIDTH_DIGESTS.items():
        if kind == "sampled":
            batch = sample_realization(budget, n, (2023, range(t)))
        else:
            rng = np.random.default_rng((t, n))
            batch = RealizationBatch(np.ones(t, dtype=complex), rng.uniform(
                0.1, 2.0, (t, n)) * np.exp(1j * rng.uniform(0, TWO_PI, (t, n))))
        ps = sets[name]
        regions = empty_regions(batch, ps, sweep_optimize(batch, ps).amplitude)
        # hashed by element, then column: the (T, N, L) view of the planes
        widths = np.ascontiguousarray(regions.half_width.swapaxes(1, 2))
        assert widths.shape[:2] == (t, n)
        assert hashlib.sha256(widths.tobytes()).hexdigest() == \
            digest, (kind, t, n, name)
    buf = io.StringIO()
    fig14 = get_builtin("fig14")[0]
    write_regions_csv(regions_dump(fig14), fig14.phases, buf)
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == FIG14_DIGEST
