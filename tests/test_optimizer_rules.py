import math

import numpy as np
import pytest

from conftest import random_instance
from ris_dps import (OFF, ChannelRealization, PhaseShiftSet, SeparationLine,
                     SweepCounters, config_given_direction, overall_h,
                     separation_lines, sort_separation_lines, update_h)

PI = math.pi


def line_args(row):
    return [ln.argument for ln in row]


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
        (row,) = separation_lines(real, ps)
        assert line_args(row) == pytest.approx([PI / 2, 4 * PI / 3, 5 * PI / 3])
        assert (row[0].starting, row[0].ending) == (1, 2)
        assert (row[1].starting, row[1].ending) == (2, OFF)
        assert (row[2].starting, row[2].ending) == (OFF, 1)

    def test_uniform_three_phase_example(self):
        ps = PhaseShiftSet.uniform(3)
        real = ChannelRealization(1 + 0j, [1 + 0j])
        (row,) = separation_lines(real, ps)
        assert line_args(row) == pytest.approx([PI / 3, PI, 5 * PI / 3])
        assert all(ln.starting != OFF and ln.ending != OFF for ln in row)

    def test_single_phase_brackets_off_half_plane(self):
        ps = PhaseShiftSet((0.0,))
        real = ChannelRealization(1 + 0j, [1 + 0j])
        (row,) = separation_lines(real, ps)
        assert line_args(row) == pytest.approx([PI / 2, 3 * PI / 2])
        assert (row[0].starting, row[0].ending) == (1, OFF)
        assert (row[1].starting, row[1].ending) == (OFF, 1)

    def test_gap_of_exactly_pi_collapses_off_sector(self):
        ps = PhaseShiftSet.uniform(2)  # gaps are exactly pi
        real = ChannelRealization(1 + 0j, [np.exp(0.4j)])
        (row,) = separation_lines(real, ps)
        assert len(row) == 2
        assert line_args(row) == pytest.approx([0.4 + PI / 2, 0.4 + 3 * PI / 2])
        assert (row[0].starting, row[0].ending) == (1, 2)
        assert (row[1].starting, row[1].ending) == (2, 1)

    def test_column_count_shared_across_elements(self):
        rng = np.random.default_rng(5)
        for k in (1, 2, 3, 4):
            real, ps = random_instance(rng, 6, k)
            rows = separation_lines(real, ps)
            widths = {len(r) for r in rows}
            assert len(rows) == 6
            assert len(widths) == 1
            assert widths.pop() in (k, k + 1)

    def test_line_arguments_offset_by_element_angle(self):
        ps = PhaseShiftSet((PI / 6, 5 * PI / 6))
        real = ChannelRealization(1 + 0j, [1 + 0j, np.exp(1.1j)])
        rows = separation_lines(real, ps)
        base = np.array(line_args(rows[0]))
        shifted = np.array(line_args(rows[1]))
        assert shifted == pytest.approx((base + 1.1) % (2 * PI))

    def test_empty_realization_rejected(self):
        with pytest.raises(ValueError):
            separation_lines(ChannelRealization(1 + 0j, []), PhaseShiftSet((0.0,)))


def synthetic_matrix(columns):
    """Build an N x L SeparationLine matrix from per-column argument lists."""
    n = len(columns[0])
    return [
        [SeparationLine(columns[c][r], r, 1, 2) for c in range(len(columns))]
        for r in range(n)
    ]


class TestSortSeparationLines:
    def test_single_break_rotation(self):
        matrix = synthetic_matrix([[5.0, 6.0, 1.0, 2.0]])
        out = [ln.argument for ln in sort_separation_lines(matrix)]
        assert out == [1.0, 2.0, 5.0, 6.0]

    def test_two_column_heap_merge(self):
        matrix = synthetic_matrix([[0.1, 0.5], [0.2, 0.6]])
        out = [ln.argument for ln in sort_separation_lines(matrix)]
        assert out == [0.1, 0.2, 0.5, 0.6]

    def test_matches_comparison_sort(self):
        rng = np.random.default_rng(17)
        for _ in range(40):
            n = int(rng.integers(1, 30))
            l = int(rng.integers(1, 5))
            va = np.sort(rng.uniform(0, 2 * PI, n))
            offsets = rng.uniform(0, 2 * PI, l)
            args = (va[:, None] + offsets[None, :]) % (2 * PI)
            matrix = synthetic_matrix([args[:, c].tolist() for c in range(l)])
            out = sort_separation_lines(matrix)
            got = [ln.argument for ln in out]
            assert got == sorted(np.ravel(args).tolist())
            # output is a permutation of the input lines
            assert sorted((ln.element, ln.argument) for ln in out) == sorted(
                (r, args[r, c]) for r in range(n) for c in range(l))

    def test_equal_arguments_ordered_by_element_then_column(self):
        matrix = synthetic_matrix([[1.0, 1.0, 2.0], [3.0, 3.0, 3.0]])
        out = sort_separation_lines(matrix)
        keys = [(ln.argument, ln.element) for ln in out]
        assert keys == sorted(keys)

    def test_seam_ties_ordered_by_element(self):
        # the last row wrapped onto the first row's argument
        matrix = synthetic_matrix([[3.0, 4.0, 0.5, 3.0]])
        out = [(ln.argument, ln.element) for ln in sort_separation_lines(matrix)]
        assert out == [(0.5, 2), (3.0, 0), (3.0, 3), (4.0, 1)]

    def test_unsorted_rows_rejected(self):
        matrix = synthetic_matrix([[5.0, 1.0, 6.0, 2.0]])
        with pytest.raises(ValueError, match="not sorted"):
            sort_separation_lines(matrix)

    def test_ragged_matrix_rejected(self):
        matrix = synthetic_matrix([[1.0, 2.0]])
        matrix[1].pop()
        with pytest.raises(ValueError, match="rectangular"):
            sort_separation_lines(matrix)

    def test_comparison_counter(self):
        rng = np.random.default_rng(23)
        va = np.sort(rng.uniform(0, 2 * PI, 64))
        offsets = rng.uniform(0, 2 * PI, 3)
        args = (va[:, None] + offsets[None, :]) % (2 * PI)
        matrix = synthetic_matrix([args[:, c].tolist() for c in range(3)])
        counters = SweepCounters()
        plain = sort_separation_lines(matrix)
        counted = sort_separation_lines(matrix, counters)
        assert [ln.argument for ln in plain] == [ln.argument for ln in counted]
        assert counters.heap_comparisons > 0
        assert counters.rotation_comparisons == 64 * 3


class TestUpdateH:
    def test_off_endpoints(self):
        ps = PhaseShiftSet((PI / 6, 5 * PI / 6))
        real = ChannelRealization(2 + 0j, [1 + 0j])
        (row,) = separation_lines(real, ps)
        h = 1 + 1j
        into_off = row[1]  # starting ON(2), ending OFF
        assert update_h(h, into_off, real, ps) == pytest.approx(
            h - np.exp(5j * PI / 6))
        out_of_off = row[2]  # starting OFF, ending ON(1)
        assert update_h(h, out_of_off, real, ps) == pytest.approx(
            h + np.exp(1j * PI / 6))

    def test_matches_full_recomputation(self):
        rng = np.random.default_rng(29)
        for _ in range(25):
            real, ps = random_instance(rng, int(rng.integers(2, 7)),
                                       int(rng.integers(1, 4)))
            rows = separation_lines(real, ps)
            n = real.n
            ln = rows[int(rng.integers(0, n))][
                int(rng.integers(0, len(rows[0])))]
            cfg = rng.integers(0, ps.k + 1, size=n)
            cfg[ln.element] = ln.starting
            h_before = overall_h(real, ps, cfg)
            cfg[ln.element] = ln.ending
            h_after = overall_h(real, ps, cfg)
            assert update_h(h_before, ln, real, ps) == pytest.approx(
                h_after, rel=1e-12, abs=1e-12)
