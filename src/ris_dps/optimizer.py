"""Reflection-configuration solvers.

The sweep solver finds the provably optimal configuration in time linear
in the number of elements: as the assumed direction of the optimal overall
channel rotates once around the circle, each element's best choice changes
only at that element's separation lines.  Sorting all N*L lines (L is K or
K+1, fixed by the phase-set gaps) splits the circle into N*L sectors; the
candidate channel for each sector follows from the previous one by a
single subtract/add, so one pass over the sorted lines evaluates every
sector.

The sweep is one array program over the N x L line table: one argsort
orders the lines, a cumulative sum forms the candidate chain, and the
winning configuration is read off the last crossing of each element.
Both sorts (elements by angle, lines by argument) give the order of a
stable argsort: NumPy's default (SIMD) argsort sorts every row, and only
a row with two equal values, where the orders can differ, is sorted again
stably.  Every solver runs on a (T, N) block of realizations (a
RealizationBatch) with the same kernel; a single ChannelRealization is
the one-row block.  The rotation + min-heap merge (O(N*L*log L)
comparisons) stays as the counted reference sort:
``sweep_optimize(..., instrument=True)`` runs it beside the argsort, not
instead of it, and checks that both give the same order, so the result
never depends on the switch.
"""

import heapq
import math
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .channel import OFF, LinkBudget, PhaseShiftSet, as_batch, overall_h
from .geometry import ANGLE_EPS, TWO_PI, arg_mod_2pi, wrap_angles

HALF_PI = math.pi / 2.0

#: Default ceiling on (K+1)**N for the exhaustive solver.
DEFAULT_EXHAUSTIVE_CAP = 2 ** 24


@dataclass(frozen=True)
class LineTable:
    """All N*L separation lines of a realization, or of a batch, as arrays.

    Line (n, c) is the direction at which element n's optimal choice
    changes from starting[c] to ending[c] as the direction of the optimal
    channel rotates counterclockwise across it.

    Attributes:
        args: (N, L) line directions in [0, 2*pi), rows in element order;
            (T, N, L) for a RealizationBatch.
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

    For a RealizationBatch every field has a leading trials axis: config
    (T, N), h_star a (T,) complex array, sector_index a (T,) int array.
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
    def amplitude(self):
        """|h_star|; for a batch, np.hypot per row, which has abs()'s bits."""
        if isinstance(self.h_star, complex):
            return abs(self.h_star)
        return np.hypot(self.h_star.real, self.h_star.imag)

    def to_json(self, budget: Optional[LinkBudget] = None) -> dict:
        """One realization's result as a JSON-ready dict.

        Raises:
            ValueError: for a batch result (one row per realization).
        """
        if np.ndim(self.h_star):
            raise ValueError(
                "to_json serializes one realization's result; this one "
                f"holds a batch of {np.size(self.h_star)} rows")
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


def separation_lines(real, phase_set: PhaseShiftSet) -> LineTable:
    """All separation lines, one row per element, L columns.

    L is K when every cyclic phase gap is at most pi and K+1 when one gap
    exceeds pi; it is identical across elements because the gaps depend
    only on the shared phase set.  A RealizationBatch gives (T, N, L) args.
    """
    if real.n < 1:
        raise ValueError("need at least one element")
    offsets, starting, ending = _column_templates(phase_set)
    args = wrap_angles(real.element_angles()[..., None] + offsets)
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


def _config_for_direction(element_angles: np.ndarray, phases: np.ndarray,
                          theta, always_on: bool = False) -> np.ndarray:
    """Per-element choices toward theta; angles (..., N), theta (...)."""
    theta = np.asarray(theta)[..., None, None]
    # angle between each candidate vector and the direction; (..., N, K)
    x = (element_angles[..., None] + phases - theta) % TWO_PI
    ang = np.minimum(x, TWO_PI - x)
    best = np.argmin(ang, axis=-1)  # first occurrence: lowest phase index
    if always_on:
        return best + 1
    smallest = np.take_along_axis(ang, best[..., None], axis=-1)[..., 0]
    return np.where(smallest < HALF_PI + ANGLE_EPS, best + 1, OFF)


def _argsort_rows(a: np.ndarray):
    """np.argsort(a, axis=-1, kind="stable") and a sorted along that axis.

    On a row without two equal values the ascending order is unique, so
    NumPy's default argsort (a SIMD sort, several times faster than the
    stable one) returns the stable indices.  Only rows where two sorted
    neighbours compare equal (-0.0 == 0.0 counts) are sorted again with
    kind="stable".  Returns (indices, sorted values), the same arrays as
    the stable argsort and its gather.
    """
    idx = np.argsort(a, axis=-1)
    srt = np.take_along_axis(a, idx, axis=-1)
    tied = (srt[..., 1:] == srt[..., :-1]).any(axis=-1)
    if tied.any():
        redo = np.argsort(a[tied], axis=-1, kind="stable")
        idx[tied] = redo
        srt[tied] = np.take_along_axis(a[tied], redo, axis=-1)
    return idx, srt


def _argsort_line_order(args: np.ndarray):
    """Order each (N, L) argument matrix ascending, ties by (row, column).

    A stable argsort of the row-major flattened matrix (by _argsort_rows):
    row-major order makes the flat index break ties by (row, column),
    exactly the rule of the rotation + heap merge in _sorted_line_order.
    args may carry leading batch axes.  Returns (flat, sorted_args), both
    of length N*L along the last axis: flat = row * L + column of each
    line in sweep order, and the arguments in that order.
    """
    return _argsort_rows(args.reshape(*args.shape[:-2], -1))


def _config_before(position: np.ndarray, stop, col_end: np.ndarray,
                   cfg0: np.ndarray) -> np.ndarray:
    """Each element's choice in sector `stop`, just before line `stop`.

    Every element holds the ending choice of its last crossing before line
    `stop` in sweep order, or its starting choice cfg0 if it has not
    crossed yet.  position (..., N, L) gives each line's place in sweep
    order; stop is a scalar or has the leading shape of cfg0 (..., N).
    """
    crossed = position < np.asarray(stop)[..., None, None]
    last = np.where(crossed, position, -1).argmax(axis=-1)
    return np.where(crossed.any(axis=-1), col_end[last], cfg0)


def _sorted_lines(batch, offsets: np.ndarray,
                  counters: Optional[SweepCounters]):
    """Each row's elements in angle order and its lines in sweep order.

    Both sorts go through _argsort_rows, so they give a stable argsort's
    order and hand back the sorted values the sweep needs anyway.  Returns
    (order, vv, flat, rows, cols, valid), all with a leading trials axis:
    order sorts the elements by angle (stably) and vv holds their
    coefficients in that order; rows/cols give the (element, column) of
    each line in ascending order of argument, and flat = rows * L + cols
    its index in the row-major line table; valid is False where a line
    sits at the same argument as the one before it, so the sector between
    them has zero width.  With counters, row 0 is also ordered by the
    counted reference sort, which must agree.
    """
    order, angles = _argsort_rows(batch.element_angles())
    vv = np.take_along_axis(batch.v, order, axis=1)
    args = wrap_angles(angles[:, :, None] + offsets)
    flat, sorted_args = _argsort_line_order(args)
    rows, cols = np.divmod(flat, offsets.size)
    if counters is not None and not np.array_equal(
            _sorted_line_order(args[0], counters), (rows[0], cols[0])):
        raise RuntimeError("line order differs from the reference sort")
    valid = np.ones(flat.shape, dtype=bool)
    valid[:, 1:] = sorted_args[:, 1:] != sorted_args[:, :-1]
    return order, vv, flat, rows, cols, valid


def _result(single: bool, config: np.ndarray, h_star: np.ndarray,
               sector_index: Optional[np.ndarray] = None) -> SweepResult:
    """A block result; row 0 as plain Python scalars for one realization."""
    if not single:
        return SweepResult(config=config, h_star=h_star,
                           sector_index=sector_index)
    return SweepResult(
        config=config[0], h_star=complex(h_star[0]),
        sector_index=None if sector_index is None else int(sector_index[0]))


def sweep_optimize(real, phase_set: PhaseShiftSet, *,
                   instrument: bool = False) -> SweepResult:
    """Optimal configuration by sweeping the N*L separation-line sectors.

    Elements are sorted by angle once and the lines are put in ascending
    order by one argsort of the N x L line table.  Both sorts give a
    stable argsort's order: the default (SIMD) argsort sorts every row,
    and only a row with two equal values is sorted again stably.  The
    first sector's candidate channel is built from each element's starting
    choice at its first line (N vector additions); each subsequent sector
    costs two vector additions, gathered by flat index from the
    element-by-choice table, so the candidate chain (one cumulative sum)
    takes N + 2*N*L additions.  The configuration of the winning sector is
    read off each element's last crossing before it and mapped back to
    the input element order.  A RealizationBatch is solved as one
    block, every row exactly as the single call would solve it.

    Args:
        real: a ChannelRealization, or a RealizationBatch for one result
            per row.
        instrument: observe the sweep without changing its result (one
            realization only; a batch raises ValueError).  The counted
            reference sort (the rotation + min-heap merge,
            O(N*L*log L) comparisons) runs beside the argsort, and the
            channel is recomputed from scratch every ceil(N/4) crossings;
            RuntimeError is raised if the two orders differ or if the
            incremental channel has drifted by more than 1e-9 relative to
            the summed vector scale (the channel itself can pass through
            zero mid-sweep).  The operation counters, the per-sector |h|
            diagnostics and the full-cycle channel (which must agree with
            the starting one up to float drift) are attached.

    Returns:
        SweepResult with |h_star| maximal over all sectors; ties break to
        the lowest sector index.
    """
    batch, single = as_batch(real)
    if instrument and not single:
        raise ValueError("instrument=True observes one realization, "
                         "not a batch")
    counters = SweepCounters()
    t, n = batch.trials, batch.n
    if n == 0:
        result = _result(single, np.zeros((t, 0), dtype=int), batch.h_d,
                         np.zeros(t, dtype=int))
        if instrument:
            result.candidates = np.array([abs(real.h_d)])
            result.counters = counters
            result.cycle_h = real.h_d
        return result

    phases = np.asarray(phase_set.phases)
    offsets, col_start, col_end = _column_templates(phase_set)
    l = offsets.size
    m = n * l
    order, vv, flat, rows, cols, valid = _sorted_lines(
        batch, offsets, counters if instrument else None)
    trial = np.arange(t)[:, None]

    # Contribution of every element under every choice (column 0: off).
    # The product is taken as a (T*N, 1) x (1, K) broadcast: numpy's complex
    # multiply may round differently by operand layout, and this layout
    # gives every row the bits of the one-realization product.
    g_table = np.zeros((t, n, phases.size + 1), dtype=complex)
    g_table[:, :, 1:] = (vv.reshape(-1, 1)
                         * np.exp(1j * phases)[None, :]).reshape(t, n, -1)

    # The first sector lies between the last and the first sorted lines
    # (wrapping), so each element starts in the starting choice of its
    # first line.  Reading it off the table keeps the chain consistent even
    # when that sector is narrower than the angle tolerance.
    position = np.empty((t, n, l), dtype=int)
    np.put_along_axis(position.reshape(t, m), flat, np.arange(m), axis=1)
    cfg0 = col_start[position.argmin(axis=2)]
    h0 = batch.h_d + g_table[trial, np.arange(n), cfg0].sum(axis=1)

    # chain[:, j] is the candidate of sector j (chain[:, m]: back in sector
    # 0).  Each line j takes its element's start contribution out and puts
    # its end contribution in; add.accumulate is a sequential left fold, so
    # each entry is exactly chain[:, j] - g_start[:, j] + g_end[:, j].
    # Both gathers index the flat g_table, where entry (trial, row, choice)
    # sits at (trial * N + row) * (K + 1) + choice.  One index array serves
    # both, rewritten in place: each fresh (T, N*L) temporary costs page
    # faults at N = 10^4.
    g_flat = g_table.ravel()
    line_base = (trial * n + rows) * (phases.size + 1)
    steps = np.empty((t, 2 * m + 1), dtype=complex)
    steps[:, 0] = h0
    index = col_start[cols]
    index += line_base
    np.negative(np.take(g_flat, index), out=steps[:, 1::2])
    np.add(col_end[cols], line_base, out=index)
    steps[:, 2::2] = np.take(g_flat, index)
    chain = np.cumsum(steps, axis=1, out=steps)[:, ::2]
    counters.vector_additions += n + 2 * m

    if instrument:
        recheck = max(1, math.ceil(n / 4))
        # Drift is judged against the scale of the summed vectors; the
        # channel itself can pass arbitrarily close to zero mid-sweep.
        drift_scale = abs(real.h_d) + float(np.abs(vv[0]).sum())
        for stop in range(recheck, m + 1, recheck):
            counters.scratch_recomputes += 1
            _check_drift(real.h_d, g_table[0],
                         _config_before(position[0], stop, col_end, cfg0[0]),
                         complex(chain[0, stop]), drift_scale)

    # Zero-width sectors are crossed without being evaluated.
    amp = np.abs(chain[:, :m])
    amp[~valid] = -math.inf
    best = amp.argmax(axis=1)  # first max: lowest sector index

    # Read out before allocating config: allocated first, config left the
    # heap in a state that cost ~1 ms more per call at N = 10^4.
    cfg = _config_before(position, best, col_end, cfg0)
    config = np.empty((t, n), dtype=int)
    np.put_along_axis(config, order, cfg, axis=1)

    result = _result(single, config, chain[np.arange(t), best], best)
    if instrument:
        result.candidates = np.where(valid[0], amp[0], math.nan)
        result.counters = counters
        result.cycle_h = complex(chain[0, m])
    return result


def _check_drift(h_d: complex, g_table: np.ndarray, cfg: np.ndarray,
                 h_incremental: complex, scale: float) -> None:
    fresh = h_d + g_table[np.arange(cfg.size), cfg].sum()
    if scale > 0.0 and abs(fresh - h_incremental) > 1e-9 * scale:
        raise RuntimeError(
            f"incremental channel drifted: {h_incremental} vs {fresh}")


def exhaustive_fits(k: int, n: int, cap: int) -> bool:
    """Whether (K+1)**N <= cap, for K >= 1, without forming a huge power.

    (K+1)**N >= 2**N > cap once N reaches cap.bit_length().
    """
    return n < cap.bit_length() and (k + 1) ** n <= cap


def exhaustive_optimize(real, phase_set: PhaseShiftSet,
                        max_configs: int = DEFAULT_EXHAUSTIVE_CAP) -> SweepResult:
    """Brute force over all (K+1)**N configurations.

    Ties in |h| break to the lexicographically smallest configuration
    (off before phase 1 before phase 2 ...), row by row for a batch.

    Raises:
        ValueError: if (K+1)**N exceeds max_configs.
    """
    batch, single = as_batch(real)
    n, k = batch.n, phase_set.k
    if not exhaustive_fits(k, n, max_configs):
        raise ValueError(
            f"(K+1)^N = {k + 1}^{n} exceeds the exhaustive cap {max_configs}")
    units = np.exp(1j * np.asarray(phase_set.phases))[None, :]
    config = np.zeros((batch.trials, n), dtype=int)
    h_star = np.empty_like(batch.h_d)
    for t in range(batch.trials):  # a block table would hold T*(K+1)**N
        choices = np.concatenate([np.zeros((n, 1), dtype=complex),
                                  batch.v[t][:, None] * units], axis=1)
        h = np.asarray(batch.h_d[t])
        for idx in range(n):
            shape = (1,) * idx + (k + 1,) + (1,) * (n - 1 - idx)
            h = h + choices[idx].reshape(shape)
        power = (h.real ** 2 + h.imag ** 2).ravel()
        best = int(np.argmax(power))  # first max: lexicographically smallest
        config[t] = np.unravel_index(best, (k + 1,) * n)
        h_star[t] = h.ravel()[best]
    return _result(single, config, h_star)


def cpp_optimize(real, phase_set: PhaseShiftSet,
                 always_on: bool = False) -> SweepResult:
    """Closest-point-projection baseline: aim every element at the direct path.

    Fixes the target direction at the direct path's argument and applies
    the per-element rule there.  By default an element whose best
    candidate exceeds a pi/2 angle to the direct path is switched off;
    with always_on=True the minimum-angle phase is applied unconditionally
    (the classic quantization baseline for uniform sets).  A
    RealizationBatch is solved as one block, one result per row.

    Raises:
        ValueError: if a direct path has zero amplitude (the projection
            direction is undefined; use sweep_optimize instead).
    """
    batch, single = as_batch(real)
    if (batch.h_d == 0).any():
        raise ValueError(
            "zero direct path: projection direction undefined; use sweep_optimize")
    theta = [arg_mod_2pi(h) for h in batch.h_d.tolist()]
    cfg = _config_for_direction(batch.element_angles(),
                                np.asarray(phase_set.phases), theta,
                                always_on=always_on)
    return _result(single, cfg, overall_h(batch, phase_set, cfg))


def continuous_upper_bound(real):
    """|h| when every path aligns perfectly with a continuous phase shift.

    A float for one realization, a (T,) array for a RealizationBatch.
    """
    batch, single = as_batch(real)
    bound = (np.hypot(batch.h_d.real, batch.h_d.imag)
             + np.abs(batch.v).sum(axis=1))
    return float(bound[0]) if single else bound
