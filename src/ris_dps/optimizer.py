"""Reflection-configuration solvers.

The sweep solver finds the provably optimal configuration in time linear
in the number of elements: as the assumed direction of the optimal overall
channel rotates once around the circle, each element's best choice changes
only at that element's separation lines.  Sorting all N*L lines (L is K or
K+1, fixed by the phase-set gaps) splits the circle into N*L sectors; the
candidate channel for each sector follows from the previous one by a
single subtract/add, so one pass over the sorted lines evaluates every
sector.

The sweep is one array program over the N x L line table: one stable
argsort orders the lines, a cumulative sum forms the candidate chain, and
the winning configuration is read off the last crossing of each element.
The rotation + min-heap merge (O(N*L*log L) comparisons) stays as the
counted reference sort that ``sweep_optimize(..., instrument=True)`` runs;
both give the same order and the same result.
"""

import heapq
import math
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .channel import (OFF, ChannelRealization, LinkBudget, PhaseShiftSet,
                      overall_h)
from .geometry import ANGLE_EPS, TWO_PI, arg_mod_2pi, wrap_angle, wrap_angles

HALF_PI = math.pi / 2.0

#: Default ceiling on (K+1)**N for the exhaustive solver.
DEFAULT_EXHAUSTIVE_CAP = 2 ** 24


@dataclass(frozen=True)
class LineTable:
    """All N*L separation lines of a realization, as arrays.

    Line (n, c) is the direction at which element n's optimal choice
    changes from starting[c] to ending[c] as the direction of the optimal
    channel rotates counterclockwise across it.

    Attributes:
        args: (N, L) line directions in [0, 2*pi), rows in element order.
        starting: (L,) each column's choice just before its line.
        ending: (L,) each column's choice just past its line.
    """

    args: np.ndarray
    starting: np.ndarray
    ending: np.ndarray


@dataclass
class SweepCounters:
    """Operation counts recorded by an instrumented sweep."""

    vector_additions: int = 0
    heap_comparisons: int = 0
    rotation_comparisons: int = 0
    scratch_recomputes: int = 0


@dataclass
class SweepResult:
    """Solver output: a configuration and the channel it realizes.

    ``candidates`` holds per-sector |h| diagnostics when requested (NaN
    marks zero-width sectors that were crossed without being evaluated);
    ``counters`` and ``cycle_h`` are filled by instrumented sweeps.
    """

    config: np.ndarray
    h_star: complex
    sector_index: Optional[int] = None
    candidates: Optional[np.ndarray] = None
    counters: Optional[SweepCounters] = None
    cycle_h: Optional[complex] = None

    @property
    def amplitude(self) -> float:
        return abs(self.h_star)

    def to_json(self, budget: Optional[LinkBudget] = None) -> dict:
        doc = {
            "schema_version": 1,
            "config": [int(c) for c in self.config],
            "h_star": {"re": self.h_star.real, "im": self.h_star.imag},
            "amplitude": self.amplitude,
        }
        if budget is not None:
            from .metrics import capacity

            report = capacity(self.h_star, budget)
            doc["snr_linear"] = report.snr_linear
            doc["spectral_efficiency"] = report.spectral_efficiency
            doc["capacity_bps"] = report.capacity_bps
        return doc


def _column_templates(phase_set: PhaseShiftSet):
    """Per-column separation-line recipe shared by all elements.

    For element n, column c's line sits at (angle(v_n) + offsets[c]) mod
    2*pi with the given starting/ending choices.  One line bisects each
    phase gap below pi; a gap above pi contributes an off region bracketed
    by two lines; a gap of exactly pi (within tolerance) collapses the
    zero-width off region into a single boundary.
    """
    phases = phase_set.phases
    gaps = phase_set.cyclic_gaps()
    offsets: List[float] = []
    starting: List[int] = []
    ending: List[int] = []
    for i in range(phase_set.k):
        phi_lo = phases[i]
        phi_hi = phi_lo + gaps[i]  # next phase, unwrapped past 2*pi
        on_lo = i + 1
        on_hi = (i + 1) % phase_set.k + 1
        if gaps[i] < math.pi - ANGLE_EPS:
            offsets.append((phi_lo + phi_hi) / 2.0)
            starting.append(on_lo)
            ending.append(on_hi)
        elif gaps[i] > math.pi + ANGLE_EPS:
            offsets.append(phi_lo + HALF_PI)
            starting.append(on_lo)
            ending.append(OFF)
            offsets.append(phi_hi - HALF_PI)
            starting.append(OFF)
            ending.append(on_hi)
        else:
            offsets.append(phi_lo + HALF_PI)
            starting.append(on_lo)
            ending.append(on_hi)
    return (np.asarray(offsets), np.asarray(starting, dtype=int),
            np.asarray(ending, dtype=int))


def separation_lines(real: ChannelRealization,
                     phase_set: PhaseShiftSet) -> LineTable:
    """All separation lines, one row per element, L columns.

    L is K when every cyclic phase gap is at most pi and K+1 when one gap
    exceeds pi; it is identical across elements because the gaps depend
    only on the shared phase set.
    """
    if real.n < 1:
        raise ValueError("need at least one element")
    offsets, starting, ending = _column_templates(phase_set)
    args = wrap_angles(real.element_angles()[:, None] + offsets[None, :])
    return LineTable(args, starting, ending)


class _CountingKey:
    """Heap key that counts how many times the heap compares it."""

    __slots__ = ("key", "counters")

    def __init__(self, key, counters):
        self.key = key
        self.counters = counters

    def __lt__(self, other):
        self.counters.heap_comparisons += 1
        return self.key < other.key


def _column_rotation(col: np.ndarray) -> np.ndarray:
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


def _sorted_line_order(args: np.ndarray, counters: Optional[SweepCounters]):
    """Order the N x L argument matrix ascending, ties by (row, column).

    Each column is rotated into sorted order around its single break
    (O(N) per column), then the L sorted runs are merged with a min-heap.
    The rows must be in element-angle order, as sweep_optimize puts them;
    a column more than one rotation away from sorted raises ValueError.
    Returns (rows, cols) index arrays of length N*L.
    """
    n, l = args.shape
    col_orders = [_column_rotation(args[:, c]) for c in range(l)]
    if counters is not None:
        # N-1 in-column comparisons plus the wraparound check, per column.
        counters.rotation_comparisons += n * l

    arglist = args.tolist()
    pos = [0] * l

    def entry(c: int):
        r = int(col_orders[c][pos[c]])
        key = (arglist[r][c], r, c)
        return _CountingKey(key, counters) if counters is not None else key

    heap = [entry(c) for c in range(l)]
    heapq.heapify(heap)
    rows = np.empty(n * l, dtype=int)
    cols = np.empty(n * l, dtype=int)
    for out in range(n * l):
        item = heapq.heappop(heap)
        _, r, c = item.key if counters is not None else item
        rows[out] = r
        cols[out] = c
        pos[c] += 1
        if pos[c] < n:
            heapq.heappush(heap, entry(c))
    return rows, cols


def _candidate_angles(element_angles: np.ndarray, phases: np.ndarray,
                      theta: float) -> np.ndarray:
    """Angle between each candidate vector and the direction theta; (N, K)."""
    x = (element_angles[:, None] + phases[None, :] - theta) % TWO_PI
    return np.minimum(x, TWO_PI - x)


def _config_for_direction(element_angles: np.ndarray, phases: np.ndarray,
                          theta: float, always_on: bool = False) -> np.ndarray:
    ang = _candidate_angles(element_angles, phases, theta)
    best = np.argmin(ang, axis=1)  # first occurrence: lowest phase index
    if always_on:
        return best + 1
    n = element_angles.size
    smallest = ang[np.arange(n), best]
    return np.where(smallest < HALF_PI + ANGLE_EPS, best + 1, OFF)


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


def _argsort_line_order(args: np.ndarray):
    """Order the N x L argument matrix ascending, ties by (row, column).

    One stable argsort of the row-major flattened matrix: row-major order
    makes the flat index break ties by (row, column), exactly the rule of
    the rotation + heap merge in _sorted_line_order.  Returns (rows, cols)
    index arrays of length N*L.
    """
    flat = np.argsort(args, axis=None, kind="stable")
    return np.divmod(flat, args.shape[1])


def _apply_crossings(cfg: np.ndarray, rows: np.ndarray,
                     choices: np.ndarray) -> None:
    """Give each crossed element the ending choice of its last crossing.

    rows/choices list consecutive crossings in sweep order; an element
    crossed more than once keeps its latest choice.
    """
    if rows.size:
        elems, last = np.unique(rows[::-1], return_index=True)
        cfg[elems] = choices[::-1][last]


def sweep_optimize(real: ChannelRealization, phase_set: PhaseShiftSet, *,
                   instrument: bool = False, verify: bool = False,
                   with_candidates: bool = False) -> SweepResult:
    """Optimal configuration by sweeping the N*L separation-line sectors.

    Elements are sorted by angle once and the lines are put in ascending
    order by one stable argsort of the N x L line table.  The first
    sector's candidate channel is built from each element's starting
    choice at its first line (N vector additions); each subsequent sector
    costs two vector additions, so the candidate chain (one cumulative
    sum) takes N + 2*N*L additions.  The configuration of the winning sector is
    reconstructed from the last crossing of each element before it and
    mapped back to the input element order.

    Args:
        instrument: order the lines with the counted reference sort (the
            rotation + min-heap merge, O(N*L*log L) comparisons) and
            attach its operation counters and the full-cycle channel
            (which must agree with the starting one up to float drift).
            The result is identical to the uninstrumented sweep.
        verify: recompute the channel from scratch every ceil(N/4)
            crossings and raise RuntimeError if the incremental value has
            drifted by more than 1e-9 relative to the summed vector scale
            (the channel itself can pass through zero mid-sweep).
        with_candidates: attach the per-sector |h| diagnostics.

    Returns:
        SweepResult with |h_star| maximal over all sectors; ties break to
        the lowest sector index.
    """
    counters = SweepCounters()
    n = real.n
    if n == 0:
        return SweepResult(
            config=np.zeros(0, dtype=int), h_star=real.h_d, sector_index=0,
            candidates=np.array([abs(real.h_d)]) if (with_candidates or instrument) else None,
            counters=counters if instrument else None,
            cycle_h=real.h_d if instrument else None)

    phases = np.asarray(phase_set.phases)
    angles = real.element_angles()
    order = np.argsort(angles, kind="stable")  # ties keep input order
    va = angles[order]
    vv = real.v[order]

    offsets, col_start, col_end = _column_templates(phase_set)
    l = offsets.size
    args = wrap_angles(va[:, None] + offsets[None, :])
    if instrument:
        rows, cols = _sorted_line_order(args, counters)
    else:
        rows, cols = _argsort_line_order(args)
    m = n * l
    sorted_args = args[rows, cols]

    # Contribution of every element under every choice (column 0: off),
    # and the start/end contribution of every sorted line.
    g_table = np.zeros((n, phases.size + 1), dtype=complex)
    g_table[:, 1:] = vv[:, None] * np.exp(1j * phases)[None, :]
    end_choice = col_end[cols]
    g_start = g_table[rows, col_start[cols]]
    g_end = g_table[rows, end_choice]

    # The first sector lies between the last and the first sorted lines
    # (wrapping), so each element starts in the starting choice of its
    # first line.  Reading it off the table keeps the chain consistent even
    # when that sector is narrower than the angle tolerance.
    position = np.empty((n, l), dtype=int)
    position[rows, cols] = np.arange(m)
    cfg0 = col_start[position.argmin(axis=1)]
    h0 = complex(real.h_d + g_table[np.arange(n), cfg0].sum())

    # chain[j] is the candidate of sector j (chain[m]: back in sector 0).
    # add.accumulate is a sequential left fold, so each entry is exactly
    # chain[j] - g_start[j] + g_end[j].
    steps = np.empty(2 * m + 1, dtype=complex)
    steps[0] = h0
    steps[1::2] = -g_start
    steps[2::2] = g_end
    chain = np.cumsum(steps)[::2]
    counters.vector_additions += n + 2 * m

    if verify:
        recheck = max(1, math.ceil(n / 4))
        # Drift is judged against the scale of the summed vectors; the
        # channel itself can pass arbitrarily close to zero mid-sweep.
        drift_scale = abs(real.h_d) + float(np.abs(vv).sum())
        cfg_run = cfg0.copy()
        done = 0
        for stop in range(recheck, m + 1, recheck):
            _apply_crossings(cfg_run, rows[done:stop], end_choice[done:stop])
            done = stop
            counters.scratch_recomputes += 1
            _check_drift(real.h_d, g_table, cfg_run, complex(chain[stop]),
                         drift_scale)

    # Zero-width sectors (equal consecutive arguments) are crossed without
    # being evaluated.
    valid = np.ones(m, dtype=bool)
    valid[1:] = sorted_args[1:] != sorted_args[:-1]
    amp = np.abs(chain[:m])
    amp[~valid] = -math.inf
    best = int(np.argmax(amp))  # first max: lowest sector index

    cfg = cfg0.copy()
    _apply_crossings(cfg, rows[:best], end_choice[:best])
    config = np.empty(n, dtype=int)
    config[order] = cfg

    candidates = None
    if with_candidates or instrument:
        candidates = np.where(valid, amp, math.nan)
    return SweepResult(
        config=config, h_star=complex(chain[best]), sector_index=best,
        candidates=candidates,
        counters=counters if instrument else None,
        cycle_h=complex(chain[m]) if instrument else None)


def _check_drift(h_d: complex, g_table: np.ndarray, cfg: np.ndarray,
                 h_incremental: complex, scale: float) -> None:
    fresh = h_d + g_table[np.arange(cfg.size), cfg].sum()
    if scale > 0.0 and abs(fresh - h_incremental) > 1e-9 * scale:
        raise RuntimeError(
            f"incremental channel drifted: {h_incremental} vs {fresh}")


def exhaustive_optimize(real: ChannelRealization, phase_set: PhaseShiftSet,
                        max_configs: int = DEFAULT_EXHAUSTIVE_CAP) -> SweepResult:
    """Brute force over all (K+1)**N configurations.

    Ties in |h| break to the lexicographically smallest configuration
    (off before phase 1 before phase 2 ...).

    Raises:
        ValueError: if (K+1)**N exceeds max_configs.
    """
    n, k = real.n, phase_set.k
    total = (k + 1) ** n
    if total > max_configs:
        raise ValueError(
            f"(K+1)^N = {total} exceeds the exhaustive cap {max_configs}")
    if n == 0:
        return SweepResult(config=np.zeros(0, dtype=int), h_star=real.h_d)

    phases = np.asarray(phase_set.phases)
    f_table = real.v[:, None] * np.exp(1j * phases)[None, :]
    choices = np.concatenate([np.zeros((n, 1), dtype=complex), f_table], axis=1)
    h = np.asarray(real.h_d, dtype=complex)
    for idx in range(n):
        shape = (1,) * idx + (k + 1,) + (1,) * (n - 1 - idx)
        h = h + choices[idx].reshape(shape)
    power = (h.real ** 2 + h.imag ** 2).ravel()
    best = int(np.argmax(power))  # first max: lexicographically smallest
    config = np.array(np.unravel_index(best, (k + 1,) * n), dtype=int)
    return SweepResult(config=config, h_star=complex(h.ravel()[best]))


def cpp_optimize(real: ChannelRealization, phase_set: PhaseShiftSet,
                 always_on: bool = False) -> SweepResult:
    """Closest-point-projection baseline: aim every element at the direct path.

    Fixes the target direction at the direct path's argument and applies
    the per-element rule there.  By default an element whose best
    candidate exceeds a pi/2 angle to the direct path is switched off;
    with always_on=True the minimum-angle phase is applied unconditionally
    (the classic quantization baseline for uniform sets).

    Raises:
        ValueError: if the direct path has zero amplitude (the projection
            direction is undefined; use sweep_optimize instead).
    """
    if abs(real.h_d) == 0.0:
        raise ValueError(
            "zero direct path: projection direction undefined; use sweep_optimize")
    theta = arg_mod_2pi(real.h_d)
    if real.n == 0:
        return SweepResult(config=np.zeros(0, dtype=int), h_star=real.h_d)
    cfg = _config_for_direction(real.element_angles(),
                                np.asarray(phase_set.phases), theta,
                                always_on=always_on)
    return SweepResult(config=cfg, h_star=overall_h(real, phase_set, cfg))


def continuous_upper_bound(real: ChannelRealization) -> float:
    """|h| when every path aligns perfectly with a continuous phase shift."""
    return abs(real.h_d) + float(np.abs(real.v).sum())
