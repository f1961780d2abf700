import math

import numpy as np
import pytest

from conftest import random_instance
from scalar_reference import (SortComparisons, config_given_direction,
                              sorted_line_order)
from ris_dps import OFF, ChannelRealization, PhaseShiftSet, separation_lines

PI = math.pi


class TestConfigGivenDirection:
    def setup_method(self):
        self.ps = PhaseShiftSet((PI / 6, 5 * PI / 6))
        self.real = ChannelRealization(1 + 0j, [1 + 0j])

    def test_on_when_candidate_within_quarter_turn(self):
        cfg = config_given_direction(self.real, self.ps, 0.0)
        assert list(cfg) == [1]

    def test_off_when_every_candidate_beyond_quarter_turn(self):
        cfg = config_given_direction(self.real, self.ps, 3 * PI / 2)
        assert list(cfg) == [OFF]

    def test_single_phase_opposite_direction_is_off(self):
        real = ChannelRealization(1 + 0j, [1 + 0j])
        cfg = config_given_direction(real, PhaseShiftSet((0.0,)), PI)
        assert list(cfg) == [OFF]

    def test_tie_resolves_to_lowest_phase_index(self):
        # two candidates symmetric about the probe direction
        ps = PhaseShiftSet((PI / 4, 3 * PI / 4))
        real = ChannelRealization(1 + 0j, [1 + 0j])
        cfg = config_given_direction(real, ps, PI / 2)
        assert list(cfg) == [1]

    def test_empty_realization(self):
        real = ChannelRealization(1 + 0j, [])
        assert config_given_direction(real, self.ps, 1.0).size == 0


class TestSeparationLines:
    def test_two_phase_example(self):
        ps = PhaseShiftSet((PI / 6, 5 * PI / 6))
        real = ChannelRealization(1 + 0j, [1 + 0j])
        table = separation_lines(real, ps)
        assert table.args[:, 0] == pytest.approx(
            [PI / 2, 4 * PI / 3, 5 * PI / 3])
        assert table._choice_pairs() == [(1, 2), (2, OFF), (OFF, 1)]
        with pytest.raises(TypeError):
            table[0]  # a record, not the old list of rows

    def test_uniform_three_phase_example(self):
        ps = PhaseShiftSet.uniform(3)
        real = ChannelRealization(1 + 0j, [1 + 0j])
        table = separation_lines(real, ps)
        assert table.args[:, 0] == pytest.approx([PI / 3, PI, 5 * PI / 3])
        assert all(OFF not in col for col in table._choice_pairs())

    def test_single_phase_brackets_off_half_plane(self):
        ps = PhaseShiftSet((0.0,))
        real = ChannelRealization(1 + 0j, [1 + 0j])
        table = separation_lines(real, ps)
        assert table.args[:, 0] == pytest.approx([PI / 2, 3 * PI / 2])
        assert table._choice_pairs() == [(1, OFF), (OFF, 1)]

    def test_gap_of_exactly_pi_collapses_off_sector(self):
        ps = PhaseShiftSet.uniform(2)  # gaps are exactly pi
        real = ChannelRealization(1 + 0j, [np.exp(0.4j)])
        table = separation_lines(real, ps)
        assert table.args.shape == (2, 1)  # (L, N): one plane per column
        assert table.args[:, 0] == pytest.approx(
            [0.4 + PI / 2, 0.4 + 3 * PI / 2])
        assert table._choice_pairs() == [(1, 2), (2, 1)]

    def test_column_count_shared_across_elements(self):
        rng = np.random.default_rng(5)
        for k in (1, 2, 3, 4):
            real, ps = random_instance(rng, 6, k)
            table = separation_lines(real, ps)
            l, n = table.args.shape
            assert n == 6
            assert l in (k, k + 1)
            assert table.starting.shape == (l,)
            assert len(table._choice_pairs()) == l

    def test_line_arguments_offset_by_element_angle(self):
        ps = PhaseShiftSet((PI / 6, 5 * PI / 6))
        real = ChannelRealization(1 + 0j, [1 + 0j, np.exp(1.1j)])
        base, shifted = separation_lines(real, ps).args.T
        assert shifted == pytest.approx((base + 1.1) % (2 * PI))

    def test_empty_realization_rejected(self):
        with pytest.raises(ValueError):
            separation_lines(ChannelRealization(1 + 0j, []), PhaseShiftSet((0.0,)))


def sorted_args(columns, counts=None):
    """Run the reference sort on an N x L matrix given column by column.

    Returns the (argument, row, column) of every line in sorted order.
    """
    args = np.array(columns, dtype=float).T
    rows, cols = sorted_line_order(args, counts)
    return [(args[r, c], r, c) for r, c in zip(rows.tolist(), cols.tolist())]


class TestSortSeparationLines:
    """The rotation + min-heap merge, the counted reference line order."""

    def test_single_break_rotation(self):
        out = [a for a, _, _ in sorted_args([[5.0, 6.0, 1.0, 2.0]])]
        assert out == [1.0, 2.0, 5.0, 6.0]

    def test_two_column_heap_merge(self):
        out = [a for a, _, _ in sorted_args([[0.1, 0.5], [0.2, 0.6]])]
        assert out == [0.1, 0.2, 0.5, 0.6]

    def test_matches_comparison_sort(self):
        rng = np.random.default_rng(17)
        for _ in range(40):
            n = int(rng.integers(1, 30))
            l = int(rng.integers(1, 5))
            va = np.sort(rng.uniform(0, 2 * PI, n))
            offsets = rng.uniform(0, 2 * PI, l)
            args = (va[:, None] + offsets[None, :]) % (2 * PI)
            out = sorted_args(args.T)
            assert [a for a, _, _ in out] == sorted(np.ravel(args).tolist())
            # every line comes out exactly once, with its own argument
            assert sorted((r, c) for _, r, c in out) == [
                (r, c) for r in range(n) for c in range(l)]
            assert all(args[r, c] == a for a, r, c in out)

    def test_equal_arguments_ordered_by_element_then_column(self):
        out = sorted_args([[1.0, 1.0, 2.0], [3.0, 3.0, 3.0]])
        assert out == sorted(out)

    def test_seam_ties_ordered_by_element(self):
        # the last row wrapped onto the first row's argument
        out = [(a, r) for a, r, _ in sorted_args([[3.0, 4.0, 0.5, 3.0]])]
        assert out == [(0.5, 2), (3.0, 0), (3.0, 3), (4.0, 1)]

    def test_unsorted_rows_rejected(self):
        with pytest.raises(ValueError, match="not sorted"):
            sorted_args([[5.0, 1.0, 6.0, 2.0]])

    def test_comparison_counter(self):
        rng = np.random.default_rng(23)
        va = np.sort(rng.uniform(0, 2 * PI, 64))
        offsets = rng.uniform(0, 2 * PI, 3)
        args = (va[:, None] + offsets[None, :]) % (2 * PI)
        counts = SortComparisons()
        assert sorted_args(args.T) == sorted_args(args.T, counts)
        assert counts.heap > 0
        assert counts.rotation == 64 * 3
