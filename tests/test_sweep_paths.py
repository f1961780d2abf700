"""The array sweep against its counted reference, on adversarial instances.

The sweep orders the elements and the separation lines with a row sorter
that gives a stable argsort's order: one value sort of keys that pack each
value's bits with its index, then a stable argsort of the rows that come
out unsorted.  These properties pin the row sorter to the stable argsort,
the line order to the paper's rotation + min-heap merge
(tests/scalar_reference.py) on the sweep's own element order, the read-out
of the winning and every checkpoint configuration to the position-table
read-out there, the column-by-column contribution table, first lines and
per-element rule to their broadcast forms there, and the instrumented
sweep to the plain sweep's result, including on ties, zero-width sectors,
gaps of exactly pi, K = 1, N = 1 and a zero direct path.
"""

import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ris_dps.optimizer as optimizer
from conftest import (COINCIDING_SETS, GRID, batches, coinciding_blocks,
                      instances)
from scalar_reference import (broadcast_contributions, config_before,
                              config_toward, first_lines_by_argmin,
                              line_positions, sorted_line_order, stack,
                              sweep_line_args)
from ris_dps import (ANGLE_EPS, OFF, ChannelRealization, PhaseShiftSet,
                     RealizationBatch, exhaustive_optimize, sweep_optimize)

PI = math.pi
TWO_PI = 2.0 * PI
_V, _TIED = coinciding_blocks()


@settings(max_examples=300, deadline=None)
@given(st.one_of(instances(), instances(max_n=16)))
@example((ChannelRealization(0j, [1 + 0j]), PhaseShiftSet((0.0,))))
@example((ChannelRealization(1 + 0j, [1j, 1j, -1j]), PhaseShiftSet((0.0, PI))))
@example((ChannelRealization(0.5j, [1 + 1j, 1 + 1j]), PhaseShiftSet((0.0, PI))))
@example((ChannelRealization(0j, [1j, 1j, np.exp(0.3j)]),
          PhaseShiftSet((0.0, PI))))
@example((ChannelRealization(0.3 + 0.2j, _V[2]), COINCIDING_SETS[0]))
@example((ChannelRealization(0.3 + 0.2j, _V[2]), COINCIDING_SETS[1]))
@example((ChannelRealization(0j, _TIED[0]), COINCIDING_SETS[0]))
@example((ChannelRealization(0j, _TIED[0]), COINCIDING_SETS[1]))
def test_argsort_order_matches_heap_merge(inst):
    real, ps = inst
    args = sweep_line_args(real, ps)
    flat, _ = optimizer._argsort_line_order(args)
    rows, cols = np.divmod(flat, args.shape[1])
    ref_rows, ref_cols = sorted_line_order(args)
    np.testing.assert_array_equal(rows, ref_rows)
    np.testing.assert_array_equal(cols, ref_cols)


def _ulp_run(x: float, perm) -> list:
    """len(perm) values, each one ulp above the one before, in the order
    perm: their sort keys collide once the index takes their low bits."""
    run = [x]
    for _ in perm[1:]:
        run.append(float(np.nextafter(run[-1], math.inf)))
    return [run[i] for i in perm]


@st.composite
def _sort_batches(draw):
    """(T, n) rows: some from a 3-4 value pool with 0.0 and -0.0, so ties
    are common, some of distinct values, some of values one ulp apart."""
    pool = [0.0, -0.0] + draw(st.lists(
        st.floats(-10.0, 10.0, allow_nan=False), min_size=1, max_size=2))
    n = draw(st.integers(1, 8))
    row = st.one_of(
        st.lists(st.sampled_from(pool), min_size=n, max_size=n),
        st.lists(st.floats(-10.0, 10.0, allow_nan=False), min_size=n,
                 max_size=n, unique=True),
        st.builds(_ulp_run, st.floats(0.0, 10.0),
                  st.permutations(range(n))))
    return np.array(draw(st.lists(row, min_size=1, max_size=5)), dtype=float)


def _wide_row() -> np.ndarray:
    """2**17 + 3 random angles, so the index takes 18 bits of each key.

    The first 100 lie one ulp above the last 100, so their keys collide
    with a higher index on the smaller value, and the row needs the
    fix-up.
    """
    row = np.random.default_rng(17).uniform(0.0, TWO_PI, 2 ** 17 + 3)
    row[:100] = np.nextafter(row[-100:], math.inf)
    return row[None, :]


@settings(max_examples=300, deadline=None)
@given(_sort_batches())
@example(np.array([[0.0], [-0.0]]))
@example(np.array([[1.0, -0.0, 0.0, 1.0], [3.0, 2.0, 1.0, 0.0],
                   [0.0, -0.0, 2.0, -1.0]]))
@example(np.array([_ulp_run(PI, [3, 1, 0, 2, 4]),
                   _ulp_run(1.0, [4, 3, 2, 1, 0]),
                   _ulp_run(0.0, [0, 1, 2, 3, 4])]))
@example(_wide_row())
def test_row_sorter_matches_stable_argsort(a):
    for rows in (a, a[0]):
        idx, srt = optimizer._argsort_rows(rows)
        ref = np.argsort(rows, axis=-1, kind="stable")
        np.testing.assert_array_equal(idx, ref)
        # bytes, so that a -0.0 where the stable sort has 0.0 fails
        assert srt.tobytes() == np.take_along_axis(rows, ref, -1).tobytes()


@settings(max_examples=300, deadline=None)
@given(st.one_of(instances(), instances(max_n=16)))
@example((ChannelRealization(0j, [1 + 0j]), PhaseShiftSet((0.0,))))
@example((ChannelRealization(1 + 0j, [1j, 1j, -1j]), PhaseShiftSet((0.0, PI))))
@example((ChannelRealization(0j, [1j, 1j, np.exp(0.3j)]),
          PhaseShiftSet((0.0, PI))))
@example((ChannelRealization(0.3 + 0.2j, _V[2]), COINCIDING_SETS[0]))
@example((ChannelRealization(0.3 + 0.2j, _V[2]), COINCIDING_SETS[1]))
@example((ChannelRealization(0j, _TIED[0]), COINCIDING_SETS[0]))
@example((ChannelRealization(0j, _TIED[0]), COINCIDING_SETS[1]))
@example((ChannelRealization(0.2j, _V[0]),  # lines tied within a row
          PhaseShiftSet((0.0, 1e-16, 2e-16))))
def test_readout_matches_position_table(inst):
    real, ps = inst
    checkpoints = []

    def record(h_d, vv, units, cfg, h_incremental, scale):
        checkpoints.append(cfg)

    with mock.patch.object(optimizer, "_check_drift", record):
        res = sweep_optimize(real, ps, instrument=True)
    args = sweep_line_args(real, ps)
    n, l = args.shape
    position = line_positions(optimizer._argsort_line_order(args)[0], n, l)
    _, col_start, col_end = optimizer._column_templates(ps)
    order, _ = optimizer._argsort_rows(real.element_angles())
    winner = np.empty(n, dtype=int)
    winner[order] = config_before(position, res.sector_index, col_start,
                                  col_end)
    np.testing.assert_array_equal(res.config, winner)
    recheck = max(1, math.ceil(n / 4))
    stops = range(recheck, n * l + 1, recheck)
    assert len(checkpoints) == len(stops)
    for stop, cfg in zip(stops, checkpoints):
        np.testing.assert_array_equal(
            cfg, config_before(position, stop, col_start, col_end))


def _assert_same(a, b):
    assert np.array_equal(a.config, b.config)
    assert a.h_star == b.h_star
    assert a.sector_index == b.sector_index


@settings(max_examples=300, deadline=None)
@given(instances())
@example((ChannelRealization(0j, [1 + 0j]), PhaseShiftSet((0.0,))))
@example((ChannelRealization(0.5j, [1 + 1j, 1 + 1j]), PhaseShiftSet((0.0, PI))))
def test_sweep_flags_do_not_change_the_result(inst):
    real, ps = inst
    plain = sweep_optimize(real, ps)
    counted = sweep_optimize(real, ps, instrument=True)
    _assert_same(counted, plain)
    best = counted.candidates[counted.sector_index]
    assert best == np.nanmax(counted.candidates)
    # np.abs and abs() of one complex may differ in the last bit
    assert best == pytest.approx(counted.amplitude, rel=1e-15)
    if real.n <= 8:
        oracle = exhaustive_optimize(real, ps)
        scale = abs(real.h_d) + float(np.abs(real.v).sum())
        assert abs(plain.amplitude - oracle.amplitude) <= 1e-12 * scale


def test_repeated_elements_give_zero_width_sectors():
    real = ChannelRealization(0j, [1j, 1j, np.exp(0.3j)])
    ps = PhaseShiftSet((0.0, PI))
    plain = sweep_optimize(real, ps)
    counted = sweep_optimize(real, ps, instrument=True)
    assert np.isnan(counted.candidates).sum() == 2  # one per coinciding pair
    _assert_same(counted, plain)


def test_verify_raises_on_drift(monkeypatch):
    rng = np.random.default_rng(5)
    v = rng.uniform(0.5, 1.5, 12) * np.exp(1j * rng.uniform(0, TWO_PI, 12))
    real = ChannelRealization(0.3 + 0j, v)
    ps = PhaseShiftSet((PI / 6, 5 * PI / 6))
    checked = sweep_optimize(real, ps, instrument=True)
    # 36 crossings, checked every ceil(12/4) = 3
    assert checked.counters.scratch_recomputes == 12

    original = optimizer._check_drift
    calls = []

    def skewed(h_d, vv, units, cfg, h_incremental, scale):
        calls.append(scale)
        if len(calls) == 2:
            h_incremental += 1e-6 * scale
        original(h_d, vv, units, cfg, h_incremental, scale)

    monkeypatch.setattr(optimizer, "_check_drift", skewed)
    with pytest.raises(RuntimeError, match="drifted"):
        sweep_optimize(real, ps, instrument=True)
    assert len(calls) == 2


def _bits(a: np.ndarray) -> np.ndarray:
    return a.view(np.uint64)


def _carved_contributions(vv, units, choices, before=0, after=0):
    """_contributions filled into a table carved out of a NaN block, as the
    sweep carves its tables, with `before` and `after` values around it;
    returns (table, block)."""
    size = vv.size * choices.size
    block = np.full(before + size + after, np.nan, dtype=complex)
    g = block[before:before + size].reshape(vv.shape + choices.shape)
    optimizer._contributions(vv, units, choices, g)
    return g, block


@pytest.mark.parametrize("scale", [1.0, 1e-7])
def test_column_products_match_the_broadcast(scale):
    # Every row of a block, and every block, must take the bits of the
    # broadcast product: a change in how NumPy rounds one layout of its
    # complex multiply loop fails here by name.  A table carved out of a
    # larger block at an offset, as the sweep's g_end is, must take the
    # same bits and leave the rest of the block alone.
    rng = np.random.default_rng(41)
    units = np.zeros(4, dtype=complex)
    units[1:] = np.exp(1j * rng.uniform(0.0, TWO_PI, 3))
    choices = np.array([2, OFF, 1, 3])
    for t in (1, 2, 3, 7, 100):
        for n in (*range(1, 40), 63, 64, 65, 200, 1001, 10_000):
            vv = scale * (rng.normal(size=(t, n))
                          + 1j * rng.normal(size=(t, n)))
            g, _ = _carved_contributions(vv, units, choices)
            assert np.array_equal(
                _bits(g), _bits(broadcast_contributions(vv, units, choices)))
            m = n * choices.size
            carved, block = _carved_contributions(
                vv, units, choices, t * m, t * (3 * m + 1))
            assert np.array_equal(_bits(carved), _bits(g))
            assert np.isnan(block[:t * m]).all()
            assert np.isnan(block[2 * t * m:]).all()
            for row in range(t):
                one, _ = _carved_contributions(vv[row:row + 1], units, choices)
                assert np.array_equal(_bits(one[0]), _bits(g[row]))


@pytest.mark.parametrize("t, n, phase_set, l", [
    (100, 50, PhaseShiftSet((0.0, PI / 6, PI / 3)), 4),
    (1, 10_000, PhaseShiftSet.uniform(3), 3),
    (4, 200, PhaseShiftSet((PI / 6, 5 * PI / 6)), 3)])
def test_sweep_peak_stays_below_twice_its_complex_block(t, n, phase_set, l):
    # The per-line complex tables are one block of T*(5m + 1) values, the
    # call's largest allocation.  glibc trims its heap when the free top
    # exceeds twice the largest mmapped chunk freed, so a call whose peak
    # stays below twice the block reuses its heap on the next call instead
    # of faulting it in again.
    rng = np.random.default_rng(7)
    v = rng.uniform(0.1, 2.0, (t, n)) * np.exp(
        1j * rng.uniform(0.0, TWO_PI, (t, n)))
    batch = RealizationBatch(rng.normal(size=t) + 1j * rng.normal(size=t), v)
    assert optimizer._column_templates(phase_set)[0].size == l
    block = 16 * t * (5 * n * l + 1)
    sweep_optimize(batch, phase_set)
    tracemalloc.start()
    try:
        sweep_optimize(batch, phase_set)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert block <= peak < 2 * block


@st.composite
def _blocks(draw):
    """(batch, phase set): an instance as a one-row block, or a batch."""
    if draw(st.booleans()):
        real, ps = draw(instances())
        return stack([real]), ps
    reals, ps = draw(batches())
    return stack(reals), ps


def _coinciding(v, ps):
    return RealizationBatch(np.full(v.shape[0], 0.3 + 0.2j), v), ps


_TIED_ROW_SET = PhaseShiftSet((0.0, 1e-16, 2e-16))
# This element's first two lines under this set share its least argument.
_FIRST_TIED = (0.9462216835710058 - 0.3235189724576463j,
               PhaseShiftSet((0.5, 0.5 + 1e-16, 0.5 + 2e-16)))


@settings(max_examples=300, deadline=None)
@given(_blocks())
@example((stack([ChannelRealization(0j, [1 + 0j])]), PhaseShiftSet((0.0,))))
@example((stack([ChannelRealization(0.2j, _V[0])]), _TIED_ROW_SET))
@example((stack([ChannelRealization(0.2j, [1j, _FIRST_TIED[0], -1 + 0j])]),
          _FIRST_TIED[1]))
@example(_coinciding(_V, COINCIDING_SETS[0]))
@example(_coinciding(_V, COINCIDING_SETS[1]))
@example(_coinciding(_TIED, COINCIDING_SETS[0]))
@example(_coinciding(_TIED, COINCIDING_SETS[1]))
@example(_coinciding(_V, _TIED_ROW_SET))
def test_first_lines_match_argmin(block):
    batch, ps = block
    offsets, col_start, _ = optimizer._column_templates(ps)
    _, vv, args, _, _ = optimizer._sorted_lines(batch, offsets)
    units = np.zeros(ps.k + 1, dtype=complex)
    units[1:] = np.exp(1j * np.asarray(ps.phases))
    g_start, _ = _carved_contributions(vv, units, col_start)
    cfg0, h0 = optimizer._first_lines(args, g_start, col_start, batch.h_d)
    ref_cfg0, ref_h0 = first_lines_by_argmin(args, g_start, col_start,
                                             batch.h_d)
    np.testing.assert_array_equal(cfg0, ref_cfg0)
    assert np.array_equal(_bits(h0), _bits(ref_h0))


def _toward(batch, ps, theta):
    """(element angles (T, N), phases, theta (T,)) for the per-element
    rule."""
    return batch.element_angles(), np.asarray(ps.phases), np.array(theta)


@st.composite
def _directions(draw):
    """_toward on the rows of _blocks, at directions on or off the grid."""
    batch, ps = draw(_blocks())
    theta = draw(st.lists(
        st.one_of(st.sampled_from(GRID),
                  st.floats(0.0, TWO_PI, exclude_max=True)),
        min_size=batch.trials, max_size=batch.trials))
    return _toward(batch, ps, theta)


_ON_THE_THRESHOLD = PI / 2 + ANGLE_EPS


@settings(max_examples=300, deadline=None)
@given(_directions())
# both phases exactly 1.0 from theta
@example((np.array([[0.0]]), np.array([1.0, 3.0]), np.array([2.0])))
# the nearest candidate on the on/off threshold, and one ulp either side
@example((np.array([[_ON_THE_THRESHOLD,
                     np.nextafter(_ON_THE_THRESHOLD, 0.0),
                     np.nextafter(_ON_THE_THRESHOLD, 4.0)]]),
          np.array([0.0, PI / 2]), np.array([0.0])))
@example((np.array([[0.3]]), np.array([0.0]), np.array([2.0])))
@example(_toward(stack([ChannelRealization(0.2j, _V[0])]), _TIED_ROW_SET,
                 [1.0]))
@example(_toward(*_coinciding(_V, COINCIDING_SETS[0]), [0.0, 1.0, 2.0, 3.0]))
@example(_toward(*_coinciding(_V, COINCIDING_SETS[1]), [0.0, 1.0, 2.0, 3.0]))
@example(_toward(*_coinciding(_TIED, COINCIDING_SETS[0]), GRID[:4]))
@example(_toward(*_coinciding(_TIED, COINCIDING_SETS[1]), GRID[4:8]))
def test_config_for_direction_matches_broadcast(case):
    angles, phases, theta = case
    for always_on in (False, True):
        np.testing.assert_array_equal(
            optimizer._config_for_direction(angles, phases, theta,
                                            always_on=always_on),
            config_toward(angles, phases, theta, always_on=always_on))
