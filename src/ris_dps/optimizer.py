"""Reflection-configuration solvers.

The sweep solver finds the provably optimal configuration in time linear
in the number of elements: as the assumed direction of the optimal overall
channel rotates once around the circle, each element's best choice changes
only at that element's separation lines.  Sorting all N*L lines (L is K or
K+1, fixed by the phase-set gaps) splits the circle into N*L sectors; the
candidate channel for each sector follows from the previous one by a
single subtract/add, so one pass over the sorted lines evaluates every
sector.

The sweep is one array program over the line table, stored plane by
plane as (T, L, N), so every per-column pass (line arguments,
contributions, first lines, read-out) reads or writes one contiguous
(T, N) plane.  One sort orders the lines, a cumulative sum of
contributions gathered by line position from one table forms the
candidate chain (a line's ending choice is the next column's starting
choice), and the winning configuration is read off line counts: an
element meets its lines in cyclic column order, so one that has crossed
k of its L lines, counting from its first, holds the starting choice of
column (first + k) mod L.  One sorter serves both sorts (elements by
angle, lines by argument): it gives the order of a stable argsort, as
flat positions that one take or put applies to a whole block, by one value sort of keys that carry each
value's rank in their low bits and a stable argsort of the rare row that
comes out unsorted.  A line's rank is its row-major index with the
column count padded to a power of two, n*Lp + c, so the sorted ranks map
to plane positions with a mask, a shift and a multiply; the element sort
is the one-plane case, whose rank is the element index itself.  Every
solver runs on a (T, N) block of realizations (a RealizationBatch) with
the same kernel; a single ChannelRealization is the one-row block.  The
line sort gives the order of the paper's column rotation and min-heap
merge (O(N*L*log L) comparisons), ties by element and then column.
``sweep_optimize(..., instrument=True)`` observes that one kernel, so the
result never depends on the switch.
"""

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

    Line (n, c) is where element n's optimal choice changes from
    starting[c] to the next column's, starting[(c + 1) % L], as the
    direction of the optimal channel rotates counterclockwise across it.

    Attributes:
        args: (L, N) line directions in [0, 2*pi), plane c holding column
            c's line of every element in element order; (T, L, N) for a
            RealizationBatch.
        starting: (L,) each column's choice just before its line.
    """

    args: np.ndarray
    starting: np.ndarray

    def _choice_pairs(self):
        """Each column's (starting, ending) choices, as Python ints."""
        start = self.starting.tolist()
        return list(zip(start, start[1:] + start[:1]))


@dataclass
class SweepCounters:
    """Operation counts recorded by an instrumented sweep."""

    vector_additions: int = 0
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


def separation_lines(real, phase_set: PhaseShiftSet) -> LineTable:
    """All separation lines: L columns, one plane of N lines each.

    L is K when every cyclic phase gap is at most pi and K+1 when one gap
    exceeds pi; it is identical across elements because the gaps depend
    only on the shared phase set.  args is the sweep's plane table (see
    _line_args), (L, N), or (T, L, N) for a RealizationBatch.
    """
    if real.n < 1:
        raise ValueError("need at least one element")
    offsets, starting = _column_templates(phase_set)
    return LineTable(_line_args(real.element_angles(), offsets), starting)


def _line_args(angles: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Wrapped line arguments (..., L, N) of element angles (..., N).

    Plane c is angles + offsets[c], one add per column into a contiguous
    plane (each add rounds once, as a broadcast add does).
    """
    args = np.empty(angles.shape[:-1] + offsets.shape + angles.shape[-1:])
    for c, offset in enumerate(offsets):
        np.add(angles, offset, out=args[..., c, :])
    return wrap_angles(args)


def _config_for_direction(element_angles: np.ndarray, phases: np.ndarray,
                          theta, always_on: bool = False) -> np.ndarray:
    """Per-element choices toward theta; angles (..., N), theta (...).

    Row c of a (K, ..., N) table holds the angle between each element's
    candidate under phase c and the direction: (angle + phase) - theta,
    two roundings as in a broadcast, then wrapped.  A loop over the rows
    keeps each element's nearest phase; its strict < leaves a tie to the
    lowest phase index.
    """
    theta = np.asarray(theta)[..., None]
    x = np.empty(phases.shape + element_angles.shape)
    for c, phase in enumerate(phases):
        np.add(element_angles, phase, out=x[c])
        x[c] -= theta
    x = wrap_angles(x)
    # A float modulo can return exactly 2*pi, which the wrap maps to 0;
    # both give an angle of +0.0, so ang keeps the modulo's bits.
    ang = np.minimum(x, TWO_PI - x, out=x)
    smallest = ang[0]
    best = np.ones(smallest.shape, dtype=int)
    for c in range(1, phases.size):
        closer = ang[c] < smallest
        np.minimum(smallest, ang[c], out=smallest)
        np.putmask(best, closer, c + 1)
    if always_on:
        return best
    return np.where(smallest < HALF_PI + ANGLE_EPS, best, OFF)


def _gather_sorted(a: np.ndarray, pos: np.ndarray) -> np.ndarray:
    """a's values at the flat positions pos (R, m), rows put into order.

    A row whose gathered values are not non-decreasing is put right by a
    stable argsort of those values, which are nearly sorted, and pos is
    permuted with it; equal values keep their order, which _argsort_planes
    made their rank order.  pos must lie in range: take's "clip" mode then
    gathers without buffering.  Returns the sorted values.
    """
    srt = a.take(pos, mode="clip")
    bad = (srt[:, 1:] < srt[:, :-1]).any(axis=1)
    if bad.any():
        fix = np.argsort(srt[bad], axis=1, kind="stable")
        pos[bad] = np.take_along_axis(pos[bad], fix, axis=1)
        srt[bad] = np.take_along_axis(srt[bad], fix, axis=1)
    return srt


def _argsort_planes(a: np.ndarray):
    """Order each (L, N) plane table of a (..., L, N) ascending, ties by
    (element, column): the order of a stable argsort of the row-major
    (N, L) table, as flat positions.

    Plane c of a holds column c's values, as _line_args builds it; the
    elements sorted by angle are the one-plane case, a[..., None, :].
    Each value's IEEE bits (after adding +0.0, which turns -0.0 into
    +0.0) order the non-negative floats as unsigned integers do.  The low
    bits of each key are replaced by the value's rank, its row-major index
    r = n*Lp + c, Lp being L rounded up to a power of two, so one value
    sort of the keys (NumPy's SIMD sort) carries the ranks along and equal
    values come out by (element, column), the rule of the paper's rotation
    + heap merge.  Keys that differed only in the replaced bits, and
    negative values, can come out of value order; _gather_sorted puts
    their rows right.  The sorted ranks become plane positions c*N + n,
    plus the table's start in a.ravel(), in the keys' own buffer; for one
    plane the rank is the element index n and is its position already.
    Returns (pos, sorted values), (R, N*L) each for the R tables: every
    value's position in a.ravel() in sorted order, and the values in that
    order.
    """
    l, n = a.shape[-2:]
    m = n * l
    shift = (l - 1).bit_length()
    rank = np.arange(n, dtype=np.uint64)
    if l > 1:
        rank = (rank << shift) | np.arange(l, dtype=np.uint64)[:, None]
    bits = ((n - 1) << shift | (l - 1)).bit_length()
    mask = np.uint64((1 << bits) - 1)
    keys = (a + 0.0).view(np.uint64)
    keys &= ~mask
    keys |= rank
    del rank
    keys = keys.reshape(math.prod(a.shape[:-2]), m)
    keys.sort(axis=-1)
    keys &= mask
    if l > 1:
        column = keys & ((1 << shift) - 1)
        keys >>= shift
        column *= n
        keys += column
        del column
    keys += np.arange(len(keys), dtype=np.uint64)[:, None] * m
    pos = keys.view(np.intp)
    return pos, _gather_sorted(a, pos)


def _contributions(vv: np.ndarray, units: np.ndarray, choices: np.ndarray,
                   g: np.ndarray) -> None:
    """Fill g (T, L, N) with each element's contribution per column's choice.

    Plane c is vv * units[choices[c]], one product per column into the
    table's contiguous plane; an off choice contributes exactly +0.0,
    which a product with 0j need not give.  NumPy's complex multiply
    loops round each product as fma(ar, br, -ai*bi) whatever the operand
    layout, so every row has the bits of the one-realization product and
    of the (T*N, 1) x (1, L) broadcast product
    (test_sweep_paths.py::test_column_products_match_the_broadcast pins
    this).
    """
    for c, choice in enumerate(choices):
        if choice == OFF:
            g[..., c, :] = 0.0
        else:
            np.multiply(vv, units[choice], out=g[..., c, :])


def _first_lines(args: np.ndarray, g_start: np.ndarray, h_d: np.ndarray):
    """Each element's first line, of least (argument, column).

    A loop over the (T, L, N) tables' planes whose strict < keeps the
    lower column of two equal arguments, as argmin does, carrying each
    element's starting contribution along.  Returns (first, h0): the
    column of each element's first line, (T, N), and the direct path plus
    the sum of those lines' starting contributions, (T,), summed over a
    contiguous (T, N) array as a gather of them would be.
    """
    first_arg = args[:, 0].copy()
    first = np.zeros(first_arg.shape, dtype=np.intp)
    g0 = g_start[:, 0].copy()
    for c in range(1, args.shape[1]):
        lower = args[:, c] < first_arg
        np.copyto(first_arg, args[:, c], where=lower)
        np.copyto(first, c, where=lower)
        np.copyto(g0, g_start[:, c], where=lower)
    return first, h_d + g0.sum(axis=1)


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
    order by one sort of the line table; one sorter gives both a stable
    argsort's order (see _argsort_planes), the element sort as its
    one-plane case.  The first sector's candidate channel is built from
    each element's starting choice at its first line (N vector
    additions); each subsequent sector costs two vector additions,
    gathered by line position from one (L + 1, N) plane table of
    contributions: a line's starting contribution in its column's plane,
    its ending one in the next plane.  The candidate chain (one
    cumulative sum) takes N + 2*N*L additions.  In the winning sector,
    an element whose first line is in column `first` and that has
    crossed k lines (those of smaller argument than the winning line)
    holds column (first + k) mod L's starting choice; that configuration
    is mapped back to the input element order.
    A RealizationBatch is solved as one block, every row exactly as the
    single call would solve it.

    Args:
        real: a ChannelRealization, or a RealizationBatch for one result
            per row.
        instrument: observe the sweep without changing its result (one
            realization only; a batch raises ValueError).  The channel
            is recomputed from scratch every ceil(N/4) crossings, and
            RuntimeError is raised if the incremental channel has drifted
            by more than 1e-9 relative to the summed vector scale (the
            channel itself can pass through zero mid-sweep).  The
            operation counters (vector additions and scratch recomputes),
            the per-sector |h| diagnostics and the full-cycle channel
            (which must agree with the starting one up to float drift) are
            attached.

    Returns:
        SweepResult with |h_star| maximal over all sectors; ties break to
        the lowest sector index.
    """
    batch, single = as_batch(real)
    if instrument and not single:
        raise ValueError("instrument=True observes one realization, "
                         "not a batch")
    t, n = batch.trials, batch.n
    if n == 0:
        result = _result(single, np.zeros((t, 0), dtype=int), batch.h_d,
                         np.zeros(t, dtype=int))
        if instrument:
            result.candidates = np.array([abs(real.h_d)])
            result.counters = SweepCounters()
            result.cycle_h = real.h_d
        return result

    offsets, col_start = _column_templates(phase_set)
    l = offsets.size
    m = n * l
    order, angles = _argsort_planes(batch.element_angles()[:, None])
    vv = batch.v.take(order, mode="clip")
    args = _line_args(angles, offsets)
    pos, sorted_args = _argsort_planes(args)

    # The per-line complex tables are views of one allocation of
    # T*(4m + N + 1) values (64 bytes a line and 16 an element), in
    # order: the contribution table g (T, L + 1, N), a (T, m) gather
    # buffer and the steps (T, 2m + 1).  It is the call's largest
    # allocation, and freeing it sets glibc's trim threshold to twice its
    # size.  The rest of the call's peak stays below the block, so the
    # heap is not trimmed when the call returns and the next call reuses
    # its pages instead of faulting them in.
    tg = t * (m + n)
    block = np.empty(t * (4 * m + n + 1), dtype=complex)
    g = block[:tg].reshape(t, l + 1, n)
    gathered = block[tg:tg + t * m].reshape(t, m)
    steps = block[tg + t * m:].reshape(t, 2 * m + 1)

    # Plane c of g holds every element's contribution under column c's
    # starting choice (see _contributions for the rounding this relies
    # on).  A line's ending choice is the next column's starting choice,
    # so plane L repeats plane 0.
    units = phase_set.units
    _contributions(vv, units, col_start, g[:, :l])
    g[:, l] = g[:, 0]

    # The first sector lies between the last and the first sorted lines
    # (wrapping), so each element starts in the starting choice of its
    # first line, the one of least (argument, column).  Reading it off the
    # table keeps the chain consistent even when that sector is narrower
    # than the angle tolerance.  Its lines follow in cyclic column order,
    # distinct, since PhaseShiftSet keeps its phases ANGLE_EPS apart.
    first, h0 = _first_lines(args, g, batch.h_d)

    # chain[:, j] is the candidate of sector j (chain[:, m]: back in sector
    # 0).  Each line j takes its element's start contribution out and puts
    # its end contribution in; add.accumulate is a sequential left fold, so
    # each entry is exactly chain[:, j] - start + end.  Row t of g starts
    # t*N values later in g.ravel() than row t of args in args.ravel(),
    # so pos moves by t*N; a line's start is then g.ravel()[pos], its end
    # N values on.  Row 0 does not move: the checkpoints below read
    # pos[0] in args.  pos is in range, so take's "clip" mode writes
    # straight into the buffer, where "raise" would buffer the output.
    pos += np.arange(0, t * n, n)[:, None]
    steps[:, 0] = h0
    np.take(block[:tg], pos, out=gathered, mode="clip")
    np.negative(gathered, out=steps[:, 1::2])
    np.take(block[n:tg], pos, out=gathered, mode="clip")
    steps[:, 2::2] = gathered
    chain = np.cumsum(steps, axis=1, out=steps)[:, ::2]

    if instrument:
        recheck = max(1, math.ceil(n / 4))
        stops = range(recheck, m + 1, recheck)
        counters = SweepCounters(n + 2 * m, len(stops))
        # Drift is judged against the scale of the summed vectors; the
        # channel itself can pass arbitrarily close to zero mid-sweep.
        drift_scale = abs(real.h_d) + float(np.abs(vv[0]).sum())
        for stop in stops:
            # The lines crossed at a checkpoint are the first `stop` in
            # sweep order; row 0's positions are c*N + n, so % n gives
            # each crossed line's element.
            crossed = np.bincount(pos[0, :stop] % n, minlength=n)
            _check_drift(real.h_d, vv[0], units,
                         col_start[(first[0] + crossed) % l],
                         complex(chain[0, stop]), drift_scale)

    # Zero-width sectors (a line at its predecessor's argument) are skipped.
    amp = np.abs(chain[:, :m])
    amp[:, 1:][sorted_args[:, 1:] == sorted_args[:, :-1]] = -math.inf
    best = amp.argmax(axis=1)  # first max: lowest sector index

    # Sector 0 is valid, so best is too: no line before line best shares
    # its argument, and the lines crossed before it are exactly those of
    # smaller argument.
    a_best = sorted_args[np.arange(t), best]
    crossed = (args < a_best[:, None, None]).sum(axis=1)
    cfg = col_start[(first + crossed) % l]
    config = np.empty((t, n), dtype=int)
    config.put(order, cfg, mode="clip")

    result = _result(single, config, chain[np.arange(t), best], best)
    if instrument:
        result.candidates = np.where(np.isneginf(amp[0]), math.nan, amp[0])
        result.counters = counters
        result.cycle_h = complex(chain[0, m])
    return result


def _check_drift(h_d: complex, vv: np.ndarray, units: np.ndarray,
                 cfg: np.ndarray, h_incremental: complex,
                 scale: float) -> None:
    fresh = h_d + (vv * units[cfg]).sum()
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
    units = phase_set.units[None, 1:]
    config = np.zeros((batch.trials, n), dtype=int)
    h_star = np.empty_like(batch.h_d)
    # A square overflows past ~1e154 and loses bits below ~1e-154, so each
    # row compares its candidates scaled by 2**-e, e the exponent of its
    # bound |h_d| + sum |v_n|: exact, and every |h| then lies below 1.
    exponents = np.frexp(continuous_upper_bound(batch))[1]
    for t in range(batch.trials):  # a block table would hold T*(K+1)**N
        # Off is an explicit +0j column: v * units[OFF] can give -0.0.
        choices = np.concatenate([np.zeros((n, 1), dtype=complex),
                                  batch.v[t][:, None] * units], axis=1)
        h = np.asarray(batch.h_d[t])
        for idx in range(n):
            shape = (1,) * idx + (k + 1,) + (1,) * (n - 1 - idx)
            h = h + choices[idx].reshape(shape)
        re = np.ldexp(h.real, -exponents[t])
        im = np.ldexp(h.imag, -exponents[t])
        power = (re ** 2 + im ** 2).ravel()
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
