"""The array sweep against its counted reference, on adversarial instances.

The sweep orders the elements and the separation lines with a row sorter
that gives a stable argsort's order: one value sort of keys that pack each
value's bits with its index, then a stable argsort of the rows that come
out unsorted.  These properties pin the row sorter to the stable argsort,
the line order to the paper's rotation + min-heap merge
(tests/scalar_reference.py) on the sweep's own element order, the read-out
of the winning and every checkpoint configuration to the position-table
read-out there, and the instrumented sweep to the plain sweep's result,
including on ties, zero-width sectors, gaps of exactly pi, K = 1, N = 1
and a zero direct path.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ris_dps.optimizer as optimizer
from conftest import COINCIDING_SETS, coinciding_blocks, instances
from scalar_reference import (config_before, line_positions,
                              sorted_line_order, sweep_line_args)
from ris_dps import (ChannelRealization, PhaseShiftSet, exhaustive_optimize,
                     sweep_optimize)

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
