"""The array sweep against its counted reference, on adversarial instances.

The plain sweep orders the separation lines with one stable argsort; the
instrumented sweep runs the rotation + min-heap merge instead.  These
properties pin the two to the same order and the same result, including on
ties, zero-width sectors, gaps of exactly pi, K = 1, N = 1 and a zero
direct path.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings

import ris_dps.optimizer as optimizer
from conftest import instances
from ris_dps import (ChannelRealization, PhaseShiftSet, exhaustive_optimize,
                     separation_lines, sweep_optimize)

PI = math.pi
TWO_PI = 2.0 * PI


def _angle_sorted(real):
    """The realization with its elements in angle order (the sorter's input)."""
    order = np.argsort(real.element_angles(), kind="stable")
    return ChannelRealization(real.h_d, real.v[order])


@settings(max_examples=300, deadline=None)
@given(instances(max_n=16))
@example((ChannelRealization(0j, [1 + 0j]), PhaseShiftSet((0.0,))))
@example((ChannelRealization(1 + 0j, [1j, 1j, -1j]), PhaseShiftSet((0.0, PI))))
def test_argsort_order_matches_heap_merge(inst):
    real, ps = inst
    args = separation_lines(_angle_sorted(real), ps).args
    rows, cols = optimizer._argsort_line_order(args)
    ref_rows, ref_cols = optimizer._sorted_line_order(args, None)
    np.testing.assert_array_equal(rows, ref_rows)
    np.testing.assert_array_equal(cols, ref_cols)


def _assert_same(a, b):
    assert np.array_equal(a.config, b.config)
    assert a.h_star == b.h_star
    assert a.sector_index == b.sector_index
    np.testing.assert_array_equal(a.candidates, b.candidates)  # NaN-aware


@settings(max_examples=300, deadline=None)
@given(instances())
@example((ChannelRealization(0j, [1 + 0j]), PhaseShiftSet((0.0,))))
@example((ChannelRealization(0.5j, [1 + 1j, 1 + 1j]), PhaseShiftSet((0.0, PI))))
def test_sweep_flags_do_not_change_the_result(inst):
    real, ps = inst
    plain = sweep_optimize(real, ps, with_candidates=True)
    for flags in ({"instrument": True},
                  {"verify": True, "with_candidates": True},
                  {"instrument": True, "verify": True}):
        _assert_same(sweep_optimize(real, ps, **flags), plain)
    if real.n <= 8:
        oracle = exhaustive_optimize(real, ps)
        scale = abs(real.h_d) + float(np.abs(real.v).sum())
        assert abs(plain.amplitude - oracle.amplitude) <= 1e-12 * scale


def test_repeated_elements_give_zero_width_sectors():
    real = ChannelRealization(0j, [1j, 1j, np.exp(0.3j)])
    ps = PhaseShiftSet((0.0, PI))
    plain = sweep_optimize(real, ps, with_candidates=True)
    counted = sweep_optimize(real, ps, instrument=True, verify=True)
    assert np.isnan(plain.candidates).sum() == 2  # one per coinciding pair
    _assert_same(counted, plain)


def test_verify_raises_on_drift(monkeypatch):
    rng = np.random.default_rng(5)
    v = rng.uniform(0.5, 1.5, 12) * np.exp(1j * rng.uniform(0, TWO_PI, 12))
    real = ChannelRealization(0.3 + 0j, v)
    ps = PhaseShiftSet((PI / 6, 5 * PI / 6))
    checked = sweep_optimize(real, ps, verify=True, instrument=True)
    # 36 crossings, checked every ceil(12/4) = 3
    assert checked.counters.scratch_recomputes == 12

    original = optimizer._check_drift
    calls = []

    def skewed(h_d, table, cfg, h_incremental, scale):
        calls.append(scale)
        if len(calls) == 2:
            h_incremental += 1e-6 * scale
        original(h_d, table, cfg, h_incremental, scale)

    monkeypatch.setattr(optimizer, "_check_drift", skewed)
    with pytest.raises(RuntimeError, match="drifted"):
        sweep_optimize(real, ps, verify=True)
    assert len(calls) == 2
