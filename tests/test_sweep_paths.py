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
from hypothesis import strategies as st

import ris_dps.optimizer as optimizer
from ris_dps import (ChannelRealization, PhaseShiftSet, exhaustive_optimize,
                     separation_lines, sort_separation_lines, sweep_optimize)

PI = math.pi
TWO_PI = 2.0 * PI
GRID = [i * TWO_PI / 24 for i in range(24)]

FIXED_SETS = (
    (0.0,),                           # K = 1
    (0.0, PI),                        # a gap of exactly pi
    (0.0, 2 * PI / 3, 4 * PI / 3),    # uniform, no off lines
    (PI / 6, 5 * PI / 6),             # lopsided, one gap above pi
    (0.0, PI / 2, PI),                # a gap of exactly pi after two small ones
)


@st.composite
def phase_sets(draw):
    if draw(st.booleans()):
        return PhaseShiftSet(draw(st.sampled_from(FIXED_SETS)))
    # grid phases: gaps of exactly pi and coinciding lines across elements
    picks = draw(st.lists(st.sampled_from(GRID), min_size=1, max_size=4,
                          unique=True))
    return PhaseShiftSet(sorted(picks))


@st.composite
def instances(draw, max_n=10):
    ps = draw(phase_sets())
    n = draw(st.integers(1, max_n))
    angle = st.one_of(st.sampled_from(GRID), st.floats(0.0, TWO_PI,
                                                       exclude_max=True))
    angles = draw(st.lists(angle, min_size=n, max_size=n))
    if draw(st.booleans()):
        # repeated elements: identical lines, hence zero-width sectors
        angles = [angles[i // 2] for i in range(n)]
    amps = draw(st.one_of(
        st.just([1.0] * n),
        st.lists(st.floats(0.1, 2.0), min_size=n, max_size=n)))
    v = np.asarray(amps) * np.exp(1j * np.asarray(angles))
    h_d = 0j
    if draw(st.booleans()):
        a = draw(st.sampled_from(GRID))
        h_d = draw(st.floats(0.01, 2.0)) * complex(math.cos(a), math.sin(a))
    return ChannelRealization(h_d, v), ps


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
    matrix = separation_lines(_angle_sorted(real), ps)
    args = np.array([[ln.argument for ln in row] for row in matrix])
    rows, cols = optimizer._argsort_line_order(args)
    assert sort_separation_lines(matrix) == [
        matrix[r][c] for r, c in zip(rows, cols)]


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
