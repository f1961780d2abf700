"""The array sweep against its counted reference, on adversarial instances.

The sweep orders the separation lines, and the elements before them,
with one sorter that gives a stable argsort's order: one value sort of
keys that pack each value's bits with its rank, then a stable argsort of
the rows that come out unsorted.  The sweep stores its line tables plane
by plane, (T, L, N), and a line's rank is its row-major index padded to a
power-of-two column count; the element sort is the one-plane case, whose
rank is the element index.  These properties pin the element sort to the
stable argsort, the line order, read as row-major (element, column), to
the paper's rotation + min-heap merge (tests/scalar_reference.py) on the
sweep's own element order and on plane tables of one to four columns, the
phase set's tables to the scalar recipe, built once and read-only, the
plane table to separation_lines' table and each line to the scalar wrap,
each element's lines to their cyclic column order, the read-out of the winning
and every checkpoint configuration to the position-table read-out there,
the column-by-column contribution table, first lines and per-element rule
to their broadcast forms there, the zero-width mask to the read-out of a
configuration that realizes h_star, and the instrumented sweep to the
plain sweep's result, including on ties, zero-width sectors, gaps of
exactly pi, K = 1, N = 1 and a zero direct path.
"""

import math
import pickle
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ris_dps.optimizer as optimizer
from conftest import (COINCIDING_SETS, GRID, batches, coinciding_blocks,
                      instances, phase_sets, random_phase_set)
from scalar_reference import (broadcast_contributions, column_factors,
                              column_templates, config_before, config_toward,
                              first_lines_by_argmin, line_positions,
                              sorted_line_order, stack, sweep_line_args)
from ris_dps import (ANGLE_EPS, OFF, ChannelRealization, PhaseShiftSet,
                     RealizationBatch, exhaustive_optimize, overall_h,
                     separation_lines, sweep_optimize)
from ris_dps.geometry import wrap_angle

PI = math.pi
TWO_PI = 2.0 * PI
_V, _TIED = coinciding_blocks()


def _planes(args: np.ndarray) -> np.ndarray:
    """An (..., N, L) line table as the sweep's (..., L, N) plane table."""
    return np.ascontiguousarray(np.swapaxes(args, -1, -2))


def _row_major(pos: np.ndarray, n: int, l: int) -> np.ndarray:
    """Row-major line indices (element * L + column) of the line sort's
    flat positions pos (R, N*L) into R (L, N) plane tables."""
    plane = pos - np.arange(len(pos))[:, None] * (n * l)
    cols, rows = np.divmod(plane, n)
    return rows * l + cols


def _line_order_matches_heap_merge(args: np.ndarray) -> None:
    """The line sort of the (N, L) table args, as a plane table, equals
    the rotation + heap merge read as row-major (element, column).  It is
    sorted as rows 0 and 2 of a block, so each row's positions must start
    at its own table."""
    n, l = args.shape
    block = np.stack([args, args[::-1], args])
    flat = _row_major(optimizer._argsort_planes(_planes(block))[0], n, l)
    ref_rows, ref_cols = sorted_line_order(args)
    for row in (flat[0], flat[2]):
        np.testing.assert_array_equal(row, ref_rows * l + ref_cols)


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
    _line_order_matches_heap_merge(sweep_line_args(real, ps))


def _padded_bits(n: int, l: int) -> bool:
    """Whether the padded rank of an (N, L) table takes one more bit than
    its row-major index: N*L < 2**b <= N*Lp, b the index's bit count."""
    lp = 1 << (l - 1).bit_length()
    return ((n - 1) * lp + l - 1).bit_length() > (n * l - 1).bit_length()


#: Element counts below 50 whose padded 3-column rank takes one more bit.
_PADDED_N = [n for n in range(1, 50) if _padded_bits(n, 3)]


def _line_table(angles, offsets) -> np.ndarray:
    """The (N, L) table _line_args builds from sorted angles."""
    return np.ascontiguousarray(optimizer._line_args(
        np.array(angles, dtype=float), np.array(offsets, dtype=float)).T)


#: The largest element angle: element_angles wraps 2*pi to 0.
_LAST_BELOW_TWO_PI = float(np.nextafter(TWO_PI, 0.0))


@st.composite
def _line_tables(draw):
    """(N, L) line tables of 1-4 columns over sorted element angles, as
    _line_args builds them: angles and offsets on a grid (ties), off it,
    and one ulp apart; N drawn small or where the padded rank takes one
    more bit."""
    l = draw(st.integers(1, 4))
    n = draw(st.one_of(st.integers(1, 12), st.sampled_from(_PADDED_N)))
    angle = st.one_of(st.sampled_from(GRID),
                      st.floats(0.0, TWO_PI, exclude_max=True))
    angles = sorted(draw(st.lists(angle, min_size=n, max_size=n)))
    for i in draw(st.lists(st.integers(1, n), max_size=3)):
        # the next angle one ulp above this one, if still below 2*pi
        if i < n and angles[i - 1] < _LAST_BELOW_TWO_PI:
            angles[i] = float(np.nextafter(angles[i - 1], TWO_PI))
    angles.sort()
    offsets = draw(st.lists(st.one_of(angle, st.just(1.0),
                                      st.just(float(np.nextafter(1.0, 2.0)))),
                            min_size=l, max_size=l))
    return _line_table(angles, offsets)


#: Two lines one ulp apart, 1.5 (line (1, 0), rank 2) and 1.5 + 2**-52
#: (line (0, 1), rank 1): their keys collide in the two rank bits, so
#: the higher value sorts first and the row takes the stable fix-up.
_FIXUP_TABLE = _line_table([0.5, 1.5], [0.0, 1.0 + 2.0 ** -52])


@settings(max_examples=300, deadline=None)
@given(_line_tables())
@example(_line_table([0.3], [2.0]))  # L = 1, N = 1
@example(_line_table([0.0, 0.0, 1.0], [0.0]))
@example(_line_table([0.0, 1.0, 1.0, 3.0], [0.0, PI]))
@example(_line_table(GRID[:5], [0.0, 1.0, 1.0]))  # N = 5, L = 3: one bit more
@example(_line_table(sorted(GRID[::2] * 2)[:9], [1.0, 0.5, 1.0]))  # N = 9
@example(_line_table(GRID[:10], [0.0, PI / 2, PI, 3 * PI / 2]))
@example(_FIXUP_TABLE)
# the last angle below 2*pi, whose line wraps below the first row's
@example(_line_table([0.0, 0.0, _LAST_BELOW_TWO_PI], [PI / 6]))
def test_padded_line_order_matches_heap_merge(args):
    _line_order_matches_heap_merge(args)


def test_colliding_ranks_take_the_stable_fixup():
    with mock.patch.object(np, "argsort", wraps=np.argsort) as spy:
        _line_order_matches_heap_merge(_FIXUP_TABLE)
    assert spy.call_count == 1


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
    # The element sort: each row as a one-plane table.
    for rows in (a, a[0]):
        pos, srt = optimizer._argsort_planes(rows[..., None, :])
        pos, srt = pos.reshape(rows.shape), srt.reshape(rows.shape)
        ref = np.argsort(rows, axis=-1, kind="stable")
        k = rows.shape[-1]
        starts = np.arange(0, rows.size, k).reshape(rows.shape[:-1] + (1,))
        np.testing.assert_array_equal(pos - starts, ref)
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
def test_readout_matches_position_table(inst):
    real, ps = inst
    checkpoints = []

    def record(h_d, vv, units, cfg, h_incremental, scale):
        checkpoints.append(cfg)

    with mock.patch.object(optimizer, "_check_drift", record):
        res = sweep_optimize(real, ps, instrument=True)
    args = sweep_line_args(real, ps)
    n, l = args.shape
    position = line_positions(
        _row_major(optimizer._argsort_planes(_planes(args))[0], n, l)[0],
        n, l)
    col_start = ps.line_starting
    col_end = np.roll(col_start, -1)
    order = optimizer._argsort_planes(real.element_angles()[None, None])[0][0]
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


@st.composite
def _faint_twins(draw):
    """(batch, phase set): T = 1-5 rows of elements of amplitude near 1 on
    grid angles, each row with the same number of faint twins: elements
    of amplitude 1e-17 at a drawn element's angle, in drawn places."""
    ps = draw(phase_sets())
    t = draw(st.integers(1, 5))
    n = draw(st.integers(1, 6))
    k = draw(st.integers(1, n))
    h_d, v = [], []
    for _ in range(t):
        angles = draw(st.lists(st.sampled_from(GRID), min_size=n, max_size=n))
        angles += [angles[i] for i in draw(st.lists(
            st.integers(0, n - 1), min_size=k, max_size=k))]
        amps = draw(st.lists(st.floats(0.5, 2.0), min_size=n, max_size=n))
        amps += [1e-17] * k
        perm = draw(st.permutations(range(n + k)))
        v.append([amps[i] * np.exp(1j * angles[i]) for i in perm])
        h_d.append(draw(st.sampled_from((0.0, 0.5, 1.0)))
                   * np.exp(1j * draw(st.sampled_from(GRID))))
    return RealizationBatch(h_d, v), ps


@settings(max_examples=300, deadline=None)
@given(_faint_twins())
@example((RealizationBatch([0j], [[1.0, 1e-17]]), PhaseShiftSet((PI / 2,))))
def test_zero_width_sectors_are_never_read_out(block):
    # A zero-width sector lies between coinciding lines, with one twin
    # crossed and the other not; the read-out, which crosses every line
    # below the winning line's argument, would give the sector before the
    # pair.  In exact arithmetic a zero-width sector's candidate lies
    # strictly below the optimum, so ordinary coinciding elements never
    # tempt the argmax there.  A faint twin's contribution is below the
    # rounding of |h|, so the sector between it and its bright twin ties
    # the sector past both, and only the zero-width mask keeps the argmax
    # off it: every row's configuration must then realize h_star.
    batch, ps = block
    res = sweep_optimize(batch, ps)
    scale = np.abs(batch.h_d) + np.abs(batch.v).sum(axis=1)
    assert (np.abs(overall_h(batch, ps, res.config) - res.h_star)
            <= 1e-12 * scale).all()


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
    g = block[before:before + size].reshape(vv.shape[:-1] + choices.shape
                                            + vv.shape[-1:])
    optimizer._contributions(vv, units, choices, g)
    return g, block


@pytest.mark.parametrize("scale", [1.0, 1e-7])
def test_column_products_match_the_broadcast(scale):
    # Every row of a block, and every block, must take the bits of the
    # broadcast product: a change in how NumPy rounds one layout of its
    # complex multiply loop fails here by name.  A table carved out of a
    # larger block at an offset must take the same bits and leave the
    # rest of the block alone, and so must the first L planes of a
    # (T, L + 1, N) table, which the sweep fills.
    rng = np.random.default_rng(41)
    units = np.zeros(4, dtype=complex)
    units[1:] = np.exp(1j * rng.uniform(0.0, TWO_PI, 3))
    choices = np.array([2, OFF, 1, 3])
    for t in (1, 2, 3, 7, 100):
        for n in (*range(1, 40), 63, 64, 65, 200, 1001, 10_000):
            vv = scale * (rng.normal(size=(t, n))
                          + 1j * rng.normal(size=(t, n)))
            g, _ = _carved_contributions(vv, units, choices)
            ref = broadcast_contributions(vv, units, choices)
            assert np.array_equal(_bits(_planes(ref)), _bits(g))
            # one (T, N) plane either side: at odd T*N the table starts
            # off a 64-byte boundary
            carved, block = _carved_contributions(
                vv, units, choices, t * n, t * n)
            assert np.array_equal(_bits(carved), _bits(g))
            assert np.isnan(block[:t * n]).all()
            assert np.isnan(block[t * n + g.size:]).all()
            del carved, block  # the wider table below reuses their memory
            wide = np.full((t, choices.size + 1, n), np.nan, dtype=complex)
            optimizer._contributions(vv, units, choices, wide[:, :-1])
            assert np.array_equal(_bits(wide[:, :-1]), _bits(g))
            assert np.isnan(wide[:, -1]).all()
            for row in range(t):
                one, _ = _carved_contributions(vv[row:row + 1], units, choices)
                assert np.array_equal(_bits(one[0]), _bits(g[row]))


#: Signed parts: zeros of both signs, subnormal, huge and plain values.
PARTS = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e300,
                                   -1e300, -1.0]),
                  st.floats(-10.0, 10.0))


@settings(max_examples=300, deadline=None)
@given(st.one_of(phase_sets(), st.builds(
           lambda seed, k: random_phase_set(np.random.default_rng(seed), k),
           st.integers(0, 2 ** 32 - 1), st.integers(1, 4))),
       st.integers(0, 8), st.integers(1, 5), st.data())
def test_every_choice_table_equals_the_per_row_products(ps, n, t, data):
    # exhaustive search reads each element's contribution under every
    # choice from _contributions(v, units, arange(K + 1), g): each row
    # keeps the bits of the per-row table it once built, an explicit +0j
    # column for OFF beside v * units[1:], +0.0 in both parts
    k = ps.k
    parts = data.draw(st.lists(PARTS, min_size=2 * t * n,
                               max_size=2 * t * n))
    v = np.empty((t, n), dtype=complex)
    v.real.flat, v.imag.flat = parts[::2], parts[1::2]
    g = np.full((t, k + 1, n), np.nan, dtype=complex)
    optimizer._contributions(v, ps.units, np.arange(k + 1), g)
    for row in range(t):
        choices = np.concatenate([np.zeros((n, 1), dtype=complex),
                                  v[row][:, None] * ps.units[None, 1:]],
                                 axis=1)
        assert np.array_equal(_bits(g[row]), _bits(_planes(choices)))
    assert (_bits(g[:, OFF]) == 0).all()


@pytest.mark.parametrize("t, n, phase_set, l", [
    (100, 50, PhaseShiftSet((0.0, PI / 6, PI / 3)), 4),
    (1, 10_000, PhaseShiftSet.uniform(3), 3),
    (4, 200, PhaseShiftSet((PI / 6, 5 * PI / 6)), 3)])
def test_sweep_peak_stays_below_twice_its_complex_block(t, n, phase_set, l):
    # The per-line complex tables are one block of T*(4m + N + 1) values
    # (a (T, L + 1, N) contribution table, a (T, m) gather buffer and the
    # (T, 2m + 1) steps), the call's largest allocation.  glibc trims its
    # heap when the free top exceeds twice the largest mmapped chunk
    # freed, so a call whose peak stays below twice the block reuses its
    # heap on the next call instead of faulting it in again.
    rng = np.random.default_rng(7)
    v = rng.uniform(0.1, 2.0, (t, n)) * np.exp(
        1j * rng.uniform(0.0, TWO_PI, (t, n)))
    batch = RealizationBatch(rng.normal(size=t) + 1j * rng.normal(size=t), v)
    assert phase_set.line_offsets.size == l
    block = 16 * t * (4 * n * l + n + 1)
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


def _sorted_elements(batch, offsets):
    """The sort stage of sweep_optimize, also on N = 0 blocks, where the
    sweep returns before it: (order, vv, args), the positions in
    batch.v.ravel() of each row's elements sorted by angle, their
    coefficients in that order, and the (T, L, N) line table with the
    elements in that order."""
    order, angles = optimizer._argsort_planes(batch.element_angles()[:, None])
    return (order, batch.v.take(order),
            optimizer._line_args(angles, offsets))


def _coinciding(v, ps):
    return RealizationBatch(np.full(v.shape[0], 0.3 + 0.2j), v), ps


# Phases 1e-16 apart, which tie an element's lines within its row; no
# PhaseShiftSet holds them (test_channel.py), but the per-element rule
# takes a raw phase array.
_TIED_ROW_PHASES = np.array([0.0, 1e-16, 2e-16])


@settings(max_examples=300, deadline=None)
@given(_blocks())
@example((stack([ChannelRealization(0j, [1 + 0j])]), PhaseShiftSet((0.0,))))
@example(_coinciding(_V, COINCIDING_SETS[0]))
@example(_coinciding(_V, COINCIDING_SETS[1]))
@example(_coinciding(_TIED, COINCIDING_SETS[0]))
@example(_coinciding(_TIED, COINCIDING_SETS[1]))
def test_first_lines_match_argmin(block):
    batch, ps = block
    offsets, col_start = ps.line_offsets, ps.line_starting
    _, vv, args = _sorted_elements(batch, offsets)
    units = np.zeros(ps.k + 1, dtype=complex)
    units[1:] = np.exp(1j * np.asarray(ps.phases))
    g_start, _ = _carved_contributions(vv, units, col_start)
    first, h0 = optimizer._first_lines(args, g_start, batch.h_d)
    ref_cfg0, ref_h0 = first_lines_by_argmin(
        np.swapaxes(args, 1, 2), np.swapaxes(g_start, 1, 2), col_start,
        batch.h_d)
    np.testing.assert_array_equal(col_start[first], ref_cfg0)
    assert np.array_equal(_bits(h0), _bits(ref_h0))


@settings(max_examples=300, deadline=None)
@given(_blocks())
@example((stack([ChannelRealization(0j, [1 + 0j])]), PhaseShiftSet((0.0,))))
@example(_coinciding(_V, COINCIDING_SETS[0]))
@example(_coinciding(_TIED, COINCIDING_SETS[1]))
def test_plane_table_is_the_line_table(block):
    # The sweep's (T, L, N) arguments, put back through the element
    # order, are separation_lines' (T, L, N) table.
    batch, ps = block
    offsets = ps.line_offsets
    order, _, args = _sorted_elements(batch, offsets)
    t, l, n = args.shape
    if n == 0:  # the sweep returns before it sorts no lines
        with pytest.raises(ValueError, match="at least one element"):
            separation_lines(batch, ps)
        return
    back = np.empty((t, n, l))
    back.reshape(t * n, l)[order.ravel()] = _planes(args).reshape(t * n, l)
    assert _planes(back).tobytes() == \
        separation_lines(batch, ps).tobytes()


#: Element angles: on the grid, off it, and the largest, just below 2*pi.
_ANGLES = st.one_of(st.sampled_from(GRID),
                    st.floats(0.0, TWO_PI, exclude_max=True),
                    st.just(_LAST_BELOW_TWO_PI))


@st.composite
def _angle_rows(draw):
    """(T, N) element angles, T = 1..3 and N = 0..6."""
    t, n = draw(st.integers(1, 3)), draw(st.integers(0, 6))
    rows = draw(st.lists(st.lists(_ANGLES, min_size=n, max_size=n),
                         min_size=t, max_size=t))
    return np.array(rows, dtype=float).reshape(t, n)


@settings(max_examples=300, deadline=None)
@given(_angle_rows(),
       # column offsets run up to 3.5*pi (K = 1, its phase below 2*pi)
       st.lists(st.one_of(st.sampled_from(GRID), st.floats(0.0, 3.5 * PI),
                          st.just(3.5 * PI)), min_size=1, max_size=4))
@example(np.array([[0.0, _LAST_BELOW_TWO_PI]]), [0.0, PI, 3.5 * PI])
def test_line_args_match_the_scalar_wrap(angles, offsets):
    args = optimizer._line_args(angles, np.array(offsets))
    expected = [[[wrap_angle(float(a) + float(o)) for a in row]
                 for o in offsets] for row in angles]
    assert args.tobytes() == np.array(expected, dtype=float).tobytes()
    assert args.shape == angles.shape[:1] + (len(offsets),) + angles.shape[1:]


def _phase_set_or_none(phases):
    try:
        return PhaseShiftSet(sorted(phases))
    except ValueError:
        return None


#: K = 1; gaps of pi +- 0.5e-9 (one line) and pi +- 2e-9 (an off region
#: 2e-9 wide); the narrowest gaps a PhaseShiftSet takes, last to first too.
_EDGE_SETS = [PhaseShiftSet(p) for p in (
    (0.0,), (_LAST_BELOW_TWO_PI,), (0.0, PI - 0.5e-9), (0.0, PI + 0.5e-9),
    (1.0, 1.0 + PI - 2e-9), (1.0, 1.0 + PI + 2e-9), (0.0, 1.5e-9),
    (2.0, 2.0 + 1.5e-9, 5.0), (0.0, 3.0, TWO_PI - 1.51e-9))]


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    phase_sets(), st.sampled_from(_EDGE_SETS),
    st.sets(st.floats(0.0, TWO_PI, exclude_max=True), min_size=1,
            max_size=5).map(_phase_set_or_none).filter(
                lambda ps: ps is not None)),
    st.lists(_ANGLES, min_size=1, max_size=8))
@example(_EDGE_SETS[0], [0.0, _LAST_BELOW_TWO_PI])
@example(_EDGE_SETS[1], [0.0, _LAST_BELOW_TWO_PI])
@example(_EDGE_SETS[2], [0.0, _LAST_BELOW_TWO_PI])
@example(_EDGE_SETS[3], [0.0, _LAST_BELOW_TWO_PI])
@example(_EDGE_SETS[4], [0.0, _LAST_BELOW_TWO_PI])
@example(_EDGE_SETS[5], [0.0, _LAST_BELOW_TWO_PI])
@example(_EDGE_SETS[6], [0.0, _LAST_BELOW_TWO_PI])
@example(_EDGE_SETS[7], [0.0, _LAST_BELOW_TWO_PI])
@example(_EDGE_SETS[8], [0.0, _LAST_BELOW_TWO_PI])
def test_lines_ascend_cyclically_from_the_first(ps, angles):
    # Both count read-outs rely on it: the first line's column is the
    # count of lines at or above column 0's, and an element that has
    # crossed k lines holds column (first + k) mod L's starting choice.
    offsets = ps.line_offsets
    args = optimizer._line_args(np.array(angles), offsets)
    l, n = args.shape
    first = args.argmin(axis=0)
    cyclic = np.take_along_axis(args, (first + np.arange(l)[:, None]) % l,
                                axis=0)
    assert (np.diff(cyclic, axis=0) > 0.0).all()
    counted, _ = optimizer._first_lines(
        args[None], np.zeros((1, l, n), complex), np.zeros(1, complex))
    np.testing.assert_array_equal(counted[0], first)


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    phase_sets(), st.sampled_from(_EDGE_SETS),
    st.builds(lambda seed, k: random_phase_set(np.random.default_rng(seed), k),
              st.integers(0, 2 ** 32 - 1), st.integers(1, 6))))
@example(PhaseShiftSet((0.0, PI)))  # a gap of exactly pi
def test_set_tables_are_the_reference_recipe_built_once(ps):
    offsets, starting = column_templates(ps)
    assert ps.line_offsets.tobytes() == offsets.tobytes()
    assert ps.line_starting.tobytes() == starting.tobytes()
    # a line's ending choice is the next column's starting choice
    assert ps.line_ending.tobytes() == np.roll(starting, -1).tobytes()
    assert ps.line_factors.tobytes() == column_factors(ps).tobytes()
    units = np.concatenate(([0j], np.exp(1j * np.asarray(ps.phases))))
    assert ps.units.tobytes() == units.tobytes()
    # Read-only, also after a trip to a worker process: the solvers share
    # the set's arrays.
    back = pickle.loads(pickle.dumps(ps))
    assert back == ps
    for name in ("units", "line_offsets", "line_starting", "line_ending",
                 "line_factors"):
        for table in (getattr(ps, name), getattr(back, name)):
            assert table.tobytes() == getattr(ps, name).tobytes()
            with pytest.raises(ValueError, match="read-only"):
                table[0] = table[0]


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
@example((stack([ChannelRealization(0.2j, _V[0])]).element_angles(),
          _TIED_ROW_PHASES, np.array([1.0])))
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
