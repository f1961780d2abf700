"""Scalar references the array paths of ris_dps are pinned to.

The library computes on whole arrays; these one-value-at-a-time forms
state the same rules the way the paper does, and the tests compare the
array results against them (bit for bit where the docstrings of overall_h
and empty_regions say so):

    unit_from_arg                     the unit vector of a direction
    phase_of, f_vector, realize_g     one element's contribution
    angle_between                     the angle the per-element rule uses
    config_given_direction            the per-element rule at a direction
    omega_small_gap, omega_large_gap  one empty-region half-width
    stack                             realizations as the rows of a batch
    sorted_line_order                 the paper's counted line sort
    column_templates                  the separation-line recipe of a set
    column_factors                    each column's empty-region factor
    sweep_line_args                   the line table in the sweep's row order
    line_positions, config_before     the sweep's read-out by sweep position
    broadcast_contributions           the contribution table as one product
    first_lines_by_argmin             each element's first line by argmin
    config_toward                     the per-element rule as one table
    sector_oracle                     the optimum as the best sector midpoint
    union_of_row, empty_ratio_of_row  the empty ratio one row at a time
"""

import heapq
import math
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ris_dps import (ANGLE_EPS, OFF, TWO_PI, ChannelRealization,
                     PhaseShiftSet, RealizationBatch, arg_mod_2pi,
                     separation_lines, wrap_angle)
from ris_dps.analysis import _check_h_star
from ris_dps.geometry import wrap_angles
from ris_dps.optimizer import HALF_PI, _argsort_planes, _config_for_direction


def unit_from_arg(theta: float) -> complex:
    """Unit-amplitude complex number with argument theta mod 2*pi."""
    return complex(math.cos(theta), math.sin(theta))


def phase_of(phase_set: PhaseShiftSet, index: int) -> float:
    """Phase shift for a 1-based index."""
    if not 1 <= index <= phase_set.k:
        raise IndexError(f"phase index {index} out of range 1..{phase_set.k}")
    return phase_set.phases[index - 1]


def f_vector(v_n: complex, phase_set: PhaseShiftSet, i: int) -> complex:
    """Candidate contribution of an element applying phase index i.

    Rotates v_n counterclockwise by the i-th phase shift; the amplitude is
    preserved.

    Args:
        v_n: concatenated channel coefficient of the element.
        phase_set: available phase shifts.
        i: 1-based phase index.

    Raises:
        IndexError: if i is outside 1..K.
    """
    return complex(v_n) * unit_from_arg(phase_of(phase_set, i))


def realize_g(v_n: complex, phase_set: PhaseShiftSet, choice: int) -> complex:
    """Contribution of one element under a choice: 0j if off, else f_vector."""
    if choice == OFF:
        return 0j
    return f_vector(v_n, phase_set, choice)


def angle_between(a: complex, b: complex) -> float:
    """Unsigned angle between two nonzero vectors, in [0, pi].

    Of the two angles the vectors form, returns the one not larger
    than pi; symmetric in its arguments.

    Raises:
        ValueError: if either vector has zero amplitude.
    """
    d = abs(arg_mod_2pi(a) - arg_mod_2pi(b))
    return min(d, TWO_PI - d)


def config_given_direction(real: ChannelRealization, phase_set: PhaseShiftSet,
                           theta: float) -> np.ndarray:
    """Optimal per-element choices when the optimal channel's direction is known.

    Independently for each element, picks the candidate vector with the
    smallest angle to the direction; the element applies it if that angle
    is below pi/2 and is switched off if the angle exceeds pi/2.  Within
    +-ANGLE_EPS of pi/2 the element is kept on: the optimum provably never
    sits exactly on the threshold, and preferring "on" keeps behavior
    continuous with the interior-on region.  Ties among equally close
    candidates resolve to the lowest phase index.

    Args:
        theta: assumed direction of the optimal channel, radians.

    Returns:
        int array of per-element choices (0 = off, i = phase index).
    """
    if real.n == 0:
        return np.zeros(0, dtype=int)
    return _config_for_direction(real.element_angles(),
                                 np.asarray(phase_set.phases),
                                 wrap_angle(float(theta)))


def _arcsin_clamped(ratio: float) -> float:
    # The width derivation assumes |h*| large; for tiny |h*| the ratio can
    # pass 1, meaning the whole half-plane is excluded.
    return math.asin(min(ratio, 1.0))


def omega_small_gap(v_amp: float, phi_lo: float, phi_hi: float,
                    h_star_amp: float) -> float:
    """Empty-region half-width for a line between two applied phases.

    The swap across the line changes the channel by a vector of length
    2*|v_n|*|sin(gap/2)|, so the half-width is
    arcsin(|v_n|*|sin(gap/2)| / |h*|), clamped at pi/2.

    Args:
        v_amp: |v_n| of the owning element.
        phi_lo, phi_hi: the two phases, counterclockwise gap
            (phi_hi - phi_lo) mod 2*pi at most pi.
        h_star_amp: amplitude of the optimal channel.

    Raises:
        ValueError: if h_star_amp is not positive and finite, or the gap
            exceeds pi.
    """
    _check_h_star(h_star_amp)
    gap = (phi_hi - phi_lo) % TWO_PI
    if gap > math.pi + ANGLE_EPS:
        raise ValueError("phase gap exceeds pi; the off region applies there")
    return _arcsin_clamped(v_amp * abs(math.sin(gap / 2.0)) / h_star_amp)


def omega_large_gap(v_amp: float, h_star_amp: float) -> float:
    """Empty-region half-width for a line bordering the off region.

    The swap toggles the element, changing the channel by a vector of
    length |v_n|: arcsin(|v_n| / (2*|h*|)), clamped at pi/2.  Applies to
    both lines bracketing an off region.

    Raises:
        ValueError: if h_star_amp is not positive and finite.
    """
    _check_h_star(h_star_amp)
    return _arcsin_clamped(v_amp / (2.0 * h_star_amp))


def stack(reals) -> RealizationBatch:
    """One batch row per realization, in order.

    Raises:
        ValueError: for no realizations or unequal element counts.
    """
    if not reals:
        raise ValueError("cannot stack an empty list of realizations")
    counts = {r.n for r in reals}
    if len(counts) > 1:
        raise ValueError(f"cannot stack realizations of unequal size: "
                         f"N in {sorted(counts)}")
    return RealizationBatch(np.array([r.h_d for r in reals], dtype=complex),
                            np.stack([r.v for r in reals]))


@dataclass
class SortComparisons:
    """Comparisons made by sorted_line_order."""

    heap: int = 0
    rotation: int = 0


class _CountingKey:
    """Heap key that counts how many times the heap compares it."""

    __slots__ = ("key", "counts")

    def __init__(self, key, counts: SortComparisons):
        self.key = key
        self.counts = counts

    def __lt__(self, other):
        self.counts.heap += 1
        return self.key < other.key


def column_rotation(col: np.ndarray) -> np.ndarray:
    """Row order that rotates a single-break cyclic column into sorted order.

    Rows past the break whose argument wrapped onto the first row's (a
    rounding tie at the seam) follow the equal rows before the break, so
    equal arguments stay in row order.

    Raises ValueError if the column has more than one cyclic descent,
    which means the matrix rows were not sorted by element angle.
    """
    desc = np.nonzero(np.diff(col) < 0)[0]
    if desc.size > 1 or (desc.size == 1 and col[-1] > col[0]):
        raise ValueError(
            "separation-line rows are not sorted by element angle")
    n = col.size
    if not desc.size:
        return np.arange(n)
    start = int(desc[0]) + 1
    tied_tail = n - int(np.searchsorted(col[start:], col[0])) - start
    tied_head = int(np.searchsorted(col[:start], col[0], side="right"))
    return np.concatenate([np.arange(start, n - tied_tail),
                           np.arange(0, tied_head),
                           np.arange(n - tied_tail, n),
                           np.arange(tied_head, start)])


def sorted_line_order(args: np.ndarray,
                      counts: Optional[SortComparisons] = None):
    """Order the N x L argument matrix ascending, ties by (row, column).

    The paper's line sort: each column is rotated into sorted order
    around its single break (O(N) per column), then the L sorted runs are
    merged with a min-heap (O(N*L*log L) comparisons).  The rows must be
    in element-angle order (see sweep_line_args); a column more than one
    rotation away from sorted raises ValueError.  With counts, the heap's
    comparisons and the N*L in-column checks are added to it.  Returns
    (rows, cols) index arrays of length N*L.
    """
    n, l = args.shape
    col_orders = [column_rotation(args[:, c]) for c in range(l)]
    if counts is not None:
        # N-1 in-column comparisons plus the wraparound check, per column.
        counts.rotation += n * l

    arglist = args.tolist()
    pos = [0] * l

    def entry(c: int):
        r = int(col_orders[c][pos[c]])
        key = (arglist[r][c], r, c)
        return _CountingKey(key, counts) if counts is not None else key

    heap = [entry(c) for c in range(l)]
    heapq.heapify(heap)
    rows = np.empty(n * l, dtype=int)
    cols = np.empty(n * l, dtype=int)
    for out in range(n * l):
        item = heapq.heappop(heap)
        _, r, c = item.key if counts is not None else item
        rows[out] = r
        cols[out] = c
        pos[c] += 1
        if pos[c] < n:
            heapq.heappush(heap, entry(c))
    return rows, cols


def column_templates(phase_set: PhaseShiftSet):
    """Per-column separation-line recipe shared by all elements.

    For element n, column c's line sits at (angle(v_n) + offsets[c]) mod
    2*pi with the given starting choice.  One line bisects each phase gap
    below pi; a gap above pi contributes an off region bracketed by two
    lines; a gap of exactly pi (within tolerance) collapses the zero-width
    off region into a single boundary.  A line's ending choice is the next
    column's starting choice.  Returns (offsets, starting), (L,) each.
    """
    phases = phase_set.phases
    gaps = phase_set.cyclic_gaps()
    offsets: List[float] = []
    starting: List[int] = []
    for i in range(phase_set.k):
        phi_lo = phases[i]
        phi_hi = phi_lo + gaps[i]  # next phase, unwrapped past 2*pi
        starting.append(i + 1)
        if gaps[i] < math.pi - ANGLE_EPS:
            offsets.append((phi_lo + phi_hi) / 2.0)
        else:
            offsets.append(phi_lo + HALF_PI)
        if gaps[i] > math.pi + ANGLE_EPS:
            offsets.append(phi_hi - HALF_PI)
            starting.append(OFF)
    return np.asarray(offsets), np.asarray(starting, dtype=int)


def column_factors(phase_set: PhaseShiftSet) -> np.ndarray:
    """Each column's empty-region width factor, (L,): |sin(gap/2)| between
    its starting and ending phases, 0.5 for a line bordering the off
    region.  A line's ending choice is the next column's starting choice.
    """
    phases = phase_set.phases
    start = column_templates(phase_set)[1].tolist()
    return np.array([
        0.5 if OFF in (s, e)
        else abs(math.sin(((phases[e - 1] - phases[s - 1]) % TWO_PI) / 2.0))
        for s, e in zip(start, start[1:] + start[:1])])


def sweep_line_args(real: ChannelRealization,
                    phase_set: PhaseShiftSet) -> np.ndarray:
    """The (N, L) line arguments with the elements in the sweep's order:
    separation_lines' (L, N) plane table, transposed.

    The elements are ordered by the sweep's own sorter (a stable argsort
    of their angles, as one plane), so these are the arguments
    sweep_optimize sorts.
    """
    order = _argsort_planes(real.element_angles()[None, None])[0][0]
    return separation_lines(ChannelRealization(real.h_d, real.v[order]),
                            phase_set).T


def line_positions(flat: np.ndarray, n: int, l: int) -> np.ndarray:
    """Each line's place in sweep order, as an (..., N, L) table.

    flat (..., N*L) lists the row-major line indices in sweep order, as
    the sweep's line sort returns them.
    """
    *lead, m = flat.shape
    position = np.empty((*lead, n, l), dtype=int)
    np.put_along_axis(position.reshape(*lead, m), flat, np.arange(m),
                      axis=-1)
    return position


def config_before(position: np.ndarray, stop, col_start: np.ndarray,
                  col_end: np.ndarray) -> np.ndarray:
    """Each element's choice in sector `stop`, just before line `stop`.

    Every element holds the ending choice of its last crossing before
    line `stop` in sweep order, or, if it has not crossed yet, the
    starting choice of its first line.  position (..., N, L) is
    line_positions' table; stop is a scalar or has its leading shape.
    """
    cfg0 = col_start[position.argmin(axis=-1)]
    crossed = position < np.asarray(stop)[..., None, None]
    last = np.where(crossed, position, -1).argmax(axis=-1)
    return np.where(crossed.any(axis=-1), col_end[last], cfg0)


def broadcast_contributions(vv: np.ndarray, units: np.ndarray,
                            choices: np.ndarray) -> np.ndarray:
    """vv (T, N) times units[choices] (L,) as a (T*N, 1) x (1, L)
    broadcast product, reshaped to (T, N, L), with +0.0 in every off
    column."""
    t, n = vv.shape
    g = (vv.reshape(-1, 1) * units[choices]).reshape(t, n, choices.size)
    g[:, :, choices == OFF] = 0.0
    return g


def first_lines_by_argmin(args: np.ndarray, g_start: np.ndarray,
                          col_start: np.ndarray, h_d: np.ndarray):
    """(cfg0, h0): each element's starting choice at its line of least
    (argument, column), found by argmin over the (T, N, L) table, and
    h_d plus the sum of those lines' starting contributions."""
    first = args.argmin(axis=2)
    t, n = first.shape
    cfg0 = col_start[first]
    h0 = h_d + g_start[np.arange(t)[:, None], np.arange(n), first].sum(axis=1)
    return cfg0, h0


def config_toward(element_angles: np.ndarray, phases: np.ndarray, theta,
                  always_on: bool = False) -> np.ndarray:
    """The per-element rule toward theta as one (..., N, K) broadcast.

    Angles (..., N), theta (...).  The angle of every candidate to the
    direction, then argmin over the phases (first occurrence: lowest
    phase index), off past pi/2 + ANGLE_EPS unless always_on.
    """
    theta = np.asarray(theta)[..., None, None]
    x = wrap_angles(element_angles[..., None] + phases - theta)
    ang = np.minimum(x, TWO_PI - x)
    best = np.argmin(ang, axis=-1)
    if always_on:
        return best + 1
    smallest = np.take_along_axis(ang, best[..., None], axis=-1)[..., 0]
    return np.where(smallest < math.pi / 2 + ANGLE_EPS, best + 1, OFF)


def sector_oracle(real: ChannelRealization,
                  phase_set: PhaseShiftSet) -> complex:
    """The paper's optimum as the best of its sector candidates, with no
    part of the sweep's sorts or chain.

    The N*L sorted line arguments split the circle into sectors, the last
    one wrapping past 2*pi.  Toward each sector's midpoint the
    per-element rule (_config_for_direction) gives the sector's
    candidate, whose channel is summed from scratch; the candidate of
    largest |h| wins.  A sector narrower than 1e-9 is skipped: its
    midpoint may not resolve between its lines.  On instances whose
    distinct lines lie further apart, such a sector only separates lines
    that coincide but round apart, and holds no direction.  O(N**2 * L)
    per realization.
    """
    lines = np.sort(separation_lines(real, phase_set).ravel())
    ends = np.append(lines[1:], lines[0] + TWO_PI)
    wide = ends - lines >= 1e-9
    mid = (lines[wide] + ends[wide]) / 2.0
    cfg = _config_for_direction(
        np.broadcast_to(real.element_angles(), (mid.size, real.n)),
        np.asarray(phase_set.phases), mid)
    units = np.array([0j] + [unit_from_arg(p) for p in phase_set.phases])
    h = real.h_d + (real.v * units[cfg]).sum(axis=1)
    return complex(h[np.argmax(np.abs(h))])


def union_of_row(arcs) -> float:
    """Union length of one row's (start, end) arcs on the circle, by one
    sort and merge of that row's pieces: an arc of width <= 0 is
    dropped, one of width >= 2*pi covers the circle, and one reaching
    past 2*pi after the wrap is split into two pieces there."""
    arcs = np.asarray(arcs, dtype=float).reshape(-1, 2)
    width = arcs[:, 1] - arcs[:, 0]
    keep = width > 0.0
    if (width[keep] >= TWO_PI).any():
        return TWO_PI
    lo = wrap_angles(arcs[keep, 0])
    hi = lo + width[keep]
    over = hi > TWO_PI
    lo = np.concatenate([lo, np.zeros(np.count_nonzero(over))])
    hi = np.concatenate([np.where(over, TWO_PI, hi), hi[over] - TWO_PI])
    if not lo.size:
        return 0.0
    order = np.argsort(lo)
    lo, reach = lo[order], np.maximum.accumulate(hi[order])
    opens = np.flatnonzero(lo[1:] > reach[:-1]) + 1
    run_lo = lo[np.concatenate([[0], opens])]
    run_hi = reach[np.concatenate([opens - 1, [lo.size - 1]])]
    return min(float(np.cumsum(run_hi - run_lo)[-1]), TWO_PI)


def empty_ratio_of_row(centers, widths):
    """(measured_ratio, sum_ratio_ub, overlap_fraction) of one row of
    empty regions: the union of its arcs by union_of_row, and its widths
    added left to right."""
    centers = np.asarray(centers, dtype=float)
    widths = np.asarray(widths, dtype=float)
    union = union_of_row(np.stack([centers - widths, centers + widths],
                                  axis=1))
    summed = 2.0 * float(np.cumsum(widths)[-1]) if widths.size else 0.0
    overlap = 0.0 if summed == 0.0 else 1.0 - union / summed
    return union / TWO_PI, summed / TWO_PI, overlap
