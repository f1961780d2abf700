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
plane as (T, L, N), so a broadcast over the planes or a pass over one
column writes contiguous (T, N) planes.  One sort orders the lines, a
cumulative sum of contributions gathered by line position from one
table forms the candidate chain (a line's ending choice is the next
column's starting choice), and every configuration is read off line
counts: an element meets its lines in cyclic column order, so its first
line is in the column that counts its lines at or above column 0's, and
one that has crossed k of its L lines, counting from its first, holds
the starting choice of column (first + k) mod L.  One sorter serves
both sorts (elements by angle, lines by argument): it gives the order of
a stable argsort, as flat positions that one take or put applies to a
whole block, by one value sort of keys that carry each value's rank in
their low bits and a stable argsort of the rare row that comes out
unsorted.  A line's rank is its row-major index with the
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
from typing import Optional

import numpy as np

from .channel import OFF, PhaseShiftSet, as_batch, overall_h
from .geometry import ANGLE_EPS, TWO_PI, arg_mod_2pi, wrap_angles

HALF_PI = math.pi / 2.0

#: Default ceiling on (K+1)**N for the exhaustive solver.
DEFAULT_EXHAUSTIVE_CAP = 2 ** 24


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


def separation_lines(real, phase_set: PhaseShiftSet) -> np.ndarray:
    """All N*L separation-line arguments in [0, 2*pi), as the sweep's
    plane table (_line_args): (L, N), plane c holding column c's line of
    every element in element order; (T, L, N) for a RealizationBatch.

    Line (n, c) is where element n's choice changes from
    phase_set.line_starting[c] to line_ending[c] as the direction of the
    optimal channel rotates counterclockwise across it.
    """
    if real.n < 1:
        raise ValueError("need at least one element")
    return _line_args(real.element_angles(), phase_set.line_offsets)


def _line_args(angles: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Wrapped line arguments (..., L, N) of element angles (..., N):
    plane c is angles + offsets[c], one broadcast add (one rounding)."""
    return wrap_angles(angles[..., None, :] + offsets[:, None])


def _config_for_direction(element_angles: np.ndarray, phases: np.ndarray,
                          theta, always_on: bool = False) -> np.ndarray:
    """Per-element choices toward theta; angles (..., N), theta (...).

    Row c of a (K, ..., N) table holds (angle + phase c) - theta, one
    broadcast add and one subtract, wrapped: the angle between each
    element's candidate and the direction.  A loop over the rows keeps
    each element's nearest phase, its strict < leaving a tie to the
    lowest index; argmin(axis=0) took 1.7-2.5x as long at T = 100, N = 50.
    The sweep's read-out does not serve: its lines share neither CPP's
    ties to the lowest phase nor its ANGLE_EPS band at the off test.
    """
    x = element_angles + phases.reshape((-1,) + (1,) * element_angles.ndim)
    x -= np.asarray(theta)[..., None]
    x = wrap_angles(x)
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
    this).  A broadcast into the sweep's strided view of its block makes
    NumPy buffer the product (~100 KB at T = 4, N = 200, K = 3), past
    the sweep's peak bound, so the loop writes one plane at a time.
    """
    for c, choice in enumerate(choices):
        if choice == OFF:
            g[..., c, :] = 0.0
        else:
            np.multiply(vv, units[choice], out=g[..., c, :])


def _first_lines(args: np.ndarray, g: np.ndarray, h_d: np.ndarray):
    """Each element's first line, of least (argument, column).

    An element's lines ascend within one turn (its column offsets ascend
    and span less than 2*pi), so the columns from the wrap onward lie
    below column 0's line and the rest at or above it: first counts the
    latter, L of them being column 0.  Returns (first, h0): first (T, N),
    and h_d plus the first lines' starting contributions, one take from
    the table g, (T, L, N) or (T, L + 1, N), summed over a (T, N) array.
    """
    t, l, n = args.shape
    first = np.add.reduce(args >= args[:, :1], axis=1, dtype=np.intp)
    np.putmask(first, first == l, 0)
    pos = first * n + np.arange(n)
    pos += np.arange(t)[:, None] * (g.shape[1] * n)
    return first, h_d + g.take(pos).sum(axis=1)


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
    cumulative sum) takes N + 2*N*L additions.  The winning sector's
    configuration is read off line counts (see the module docstring) and
    mapped back to the input element order.  A RealizationBatch is
    solved as one block, every row exactly as the single call would.

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

    col_start = phase_set.line_starting
    l = col_start.size
    doubled = np.tile(col_start, 2)  # doubled[j] == col_start[j % L], j < 2L
    m = n * l
    order, angles = _argsort_planes(batch.element_angles()[:, None])
    vv = batch.v.take(order, mode="clip")
    args = _line_args(angles, phase_set.line_offsets)
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
    # first line (see _first_lines; PhaseShiftSet keeps an element's lines
    # distinct).  Reading it off the table keeps the chain consistent even
    # when that sector is narrower than the angle tolerance.
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
    # Complex negation flips both parts' signs: as floats, ~4x faster.
    np.negative(gathered.view(float), out=gathered.view(float))
    steps[:, 1::2] = gathered
    np.take(block[n:tg], pos, out=gathered, mode="clip")
    steps[:, 2::2] = gathered
    chain = np.cumsum(steps, axis=1, out=steps)[:, ::2]

    if instrument:
        recheck = max(1, math.ceil(n / 4))
        stops = range(recheck, m + 1, recheck)
        counters = SweepCounters(n + 2 * m, len(stops))
        drift_scale = continuous_upper_bound(real)
        for stop in stops:
            # The lines crossed at a checkpoint are the first `stop` in
            # sweep order; row 0's positions are c*N + n, so % n gives
            # each crossed line's element.
            crossed = np.bincount(pos[0, :stop] % n, minlength=n)
            _check_drift(real.h_d, vv[0], units, doubled[first[0] + crossed],
                         complex(chain[0, stop]), drift_scale)

    # Zero-width sectors (a line at its predecessor's argument) are skipped.
    amp = np.abs(chain[:, :m])
    np.putmask(amp[:, 1:], sorted_args[:, 1:] == sorted_args[:, :-1],
               -math.inf)
    best = amp.argmax(axis=1)  # first max: lowest sector index

    # Sector 0 is valid, so best is too: no line before line best shares
    # its argument, and the lines crossed before it are exactly those of
    # smaller argument.
    a_best = sorted_args[np.arange(t), best]
    crossed = first + np.add.reduce(args < a_best[:, None, None], axis=1,
                                    dtype=np.intp)
    config = np.empty((t, n), dtype=int)
    config.put(order, doubled[crossed], mode="clip")

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

    A float for one realization; for a RealizationBatch, the read-only
    (T,) bounds |h_d| + sum |v_n| that the batch kept when checked.
    """
    batch, single = as_batch(real)
    return float(batch._bound[0]) if single else batch._bound
