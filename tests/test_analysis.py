import io
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import GRID, instances, random_instance
from scalar_reference import (empty_ratio_of_row, omega_large_gap,
                              omega_small_gap, union_of_row)
from ris_dps import (OFF, ChannelRealization, EmptyRatioReport, EmptyRegions,
                     LineTable, PhaseShiftSet, arg_mod_2pi,
                     circle_union_length, circular_distance,
                     empty_ratio_upper_bound_approx,
                     empty_regions, measured_empty_ratio, separation_lines,
                     sweep_optimize, wrap_angle, write_regions_csv)
from ris_dps.analysis import _union_lengths

PI = math.pi
TWO_PI = 2.0 * PI


def regions_at(centers, widths):
    """EmptyRegions of one-column lines at the given centers and widths."""
    table = LineTable(np.array(centers, dtype=float).reshape(-1, 1),
                      np.array([1]), np.array([2]))
    return EmptyRegions(table, np.array(widths, dtype=float).reshape(-1, 1))


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
        lines = regions.lines
        assert lines.args[0] == pytest.approx([PI / 2, 4 * PI / 3, 5 * PI / 3])
        # the line between the phases, then the two bracketing the off region
        assert lines.starting.tolist() == [1, 2, OFF]
        assert lines.ending.tolist() == [2, OFF, 1]
        # widths follow the two formulas
        between, *off = regions.half_width[0]
        assert between == pytest.approx(
            omega_small_gap(1.0, PI / 6, 5 * PI / 6, 4.0))
        assert off == pytest.approx([omega_large_gap(1.0, 4.0)] * 2)

    def test_region_count_scales_with_elements(self):
        ps = PhaseShiftSet((PI / 6, 5 * PI / 6))
        rng = np.random.default_rng(2)
        v = np.exp(1j * rng.uniform(0, 2 * PI, 50))
        real = ChannelRealization(1 + 0j, v)
        assert empty_regions(real, ps, 30.0).half_width.shape == (50, 3)

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
        assert circle_union_length([(-0.1, 0.1)]) == pytest.approx(0.2)
        assert circle_union_length([(2 * PI - 0.1, 2 * PI + 0.1),
                                    (-0.1, 0.1)]) == pytest.approx(0.2)

    def test_disjoint_arcs_add(self):
        assert circle_union_length([(0.0, 1.0), (2.0, 3.5)]) == pytest.approx(2.5)

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
        got_ratio = circle_union_length(intervals) / (2 * PI)
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
        for center, half_width in zip(regions.lines.args.ravel(),
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
    write_regions_csv(regions, buf)
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
    lines = regions.lines
    np.testing.assert_array_equal(lines.args, separation_lines(real, ps).args)
    cols = list(zip(lines.starting.tolist(), lines.ending.tolist()))
    want = [[omega_large_gap(v, h_star_amp) if OFF in (s, e)
             else omega_small_gap(v, ps.phases[s - 1], ps.phases[e - 1],
                                  h_star_amp)
             for s, e in cols]
            for v in np.abs(real.v).tolist()]
    assert regions.half_width.tolist() == want
    # the report adds in line order, as a loop over the lines would
    flat = [w for row in want for w in row]
    intervals = [(c - w, c + w) for c, w in zip(lines.args.ravel().tolist(),
                                                flat)]
    summed = 2.0 * sum(flat)
    union = union_by_sort_and_merge(intervals)
    assert measured_empty_ratio(regions) == EmptyRatioReport(
        union / TWO_PI, summed / TWO_PI,
        0.0 if summed == 0.0 else 1.0 - union / summed)


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
    assert circle_union_length(arcs) == want
    assert circle_union_length(np.array(arcs).reshape(-1, 2)) == want


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
def test_union_block_equals_rows(block):
    # one pass over the block has each row's bits from its own merge
    lo, hi = block
    want = [union_of_row(np.stack([a, b], axis=1)) for a, b in zip(lo, hi)]
    assert _bits(_union_lengths(lo, hi)).tolist() == _bits(want).tolist()
    for a, b, w in zip(lo, hi, want):
        assert _bits(circle_union_length(np.stack([a, b], axis=1))) == \
            _bits(w)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 4), st.integers(0, 6), st.integers(1, 4),
       st.data())
def test_empty_ratio_block_equals_rows(t, n, l, data):
    # all three report fields, bit for bit, row by row
    centers = np.array(data.draw(st.lists(STARTS, min_size=t * n * l,
                                          max_size=t * n * l)))
    widths = np.array(data.draw(st.lists(WIDTHS, min_size=t * n * l,
                                         max_size=t * n * l)))
    if data.draw(st.booleans()) and centers.size:  # equal centers
        centers[:] = centers[0]
    table = LineTable(centers.reshape(t, n, l), np.arange(1, l + 1),
                      np.arange(2, l + 2))
    report = measured_empty_ratio(EmptyRegions(table,
                                               widths.reshape(t, n, l)))
    want = np.array([empty_ratio_of_row(c, w) for c, w in zip(
        centers.reshape(t, n * l), widths.reshape(t, n * l))]).reshape(t, 3)
    for i, field in enumerate(("measured_ratio", "sum_ratio_ub",
                               "overlap_fraction")):
        assert _bits(getattr(report, field)).tolist() == \
            _bits(want[:, i]).tolist()


@pytest.mark.parametrize("arcs, index", [
    ([(1.0, math.nan)], 0), ([(math.nan, 1.0)], 0),
    ([(math.inf, math.inf)], 0), ([(0.0, math.inf)], 0),
    ([(0.0, 1.0), (2.0, 3.0), (-math.inf, 0.5)], 2)])
def test_union_rejects_non_finite_arcs(arcs, index):
    with pytest.raises(ValueError, match=f"^arc {index} must have finite "
                                         "ends"):
        circle_union_length(arcs)


@pytest.mark.parametrize("arcs", [
    [(-1e308, 1e308)], [(-1.7e308, 1.7e308)],
    [(0.0, 1.0), (-1e308, 1e308), (2.0, 2.5)],
    [(5.0, 5.5), (1.0, 1.2), (-1e308, 1e308), (1e308, -1e308)]])
def test_overflowing_arc_width_covers_the_circle(arcs):
    # hi - lo overflows to inf on finite ends; under the suite's
    # filterwarnings = error a RuntimeWarning would fail this call.
    assert circle_union_length(arcs) == TWO_PI
