"""Reflection-configuration solvers.

The sweep solver finds the provably optimal configuration in time linear
in the number of elements: as the assumed direction of the optimal overall
channel rotates once around the circle, each element's best choice changes
only at that element's separation lines.  Sorting all N*L lines (L is K or
K+1, fixed by the phase-set gaps) splits the circle into N*L sectors; the
candidate channel for each sector follows from the previous one by a
single subtract/add, so one pass over the sorted lines evaluates every
sector.

The sweep is one array program over the N x L line table: one sort
orders the lines, a cumulative sum of contributions gathered by line
index forms the candidate chain, and the winning configuration is read
off the line arguments, as each element's last line below the winning
line's argument.  Both sorts (elements by angle, lines by argument) give
the order of a stable argsort: one value sort of keys that carry each
value's index in their low bits, and a stable argsort of the rare row
that comes out unsorted.  Every solver runs on a (T, N) block of
realizations (a RealizationBatch) with the same kernel; a single
ChannelRealization is the one-row block.  The line sort gives the order
of the paper's column rotation and min-heap merge (O(N*L*log L)
comparisons), ties by element and then column.
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
    only on the shared phase set.  A RealizationBatch gives (T, N, L) args,
    built as the sweep builds them (see _line_args).
    """
    if real.n < 1:
        raise ValueError("need at least one element")
    offsets, starting, ending = _column_templates(phase_set)
    return LineTable(_line_args(real.element_angles(), offsets), starting,
                     ending)


def _line_args(angles: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Wrapped line arguments (..., N, L) of element angles (..., N).

    Column c is angles + offsets[c], one add per column into the table's
    strided column (each add rounds once, as a broadcast add does).
    """
    args = np.empty(angles.shape + offsets.shape)
    for c, offset in enumerate(offsets):
        np.add(angles, offset, out=args[..., c])
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


def _argsort_rows(a: np.ndarray):
    """np.argsort(a, axis=-1, kind="stable") and a sorted along that axis.

    Each value's IEEE bits (after adding +0.0, which turns -0.0 into +0.0)
    order the non-negative floats as unsigned integers do.  The low
    ceil(log2 k) bits of each key, k the row length, are replaced by the
    value's column, so one value sort of the keys (NumPy's SIMD sort)
    carries the indices along, and equal values come out in index order.
    A row whose values, gathered in that order, are not non-decreasing
    (keys that differed only in the replaced bits, or negative values) is
    put right by a stable argsort of the gathered values, which are
    nearly sorted.  Returns (indices, sorted values), the same arrays as
    the stable argsort and its gather.
    """
    bits = max(a.shape[-1] - 1, 0).bit_length()
    mask = np.uint64((1 << bits) - 1)
    keys = (a + 0.0).view(np.uint64)
    keys &= ~mask
    keys |= np.arange(a.shape[-1], dtype=np.uint64)
    keys.sort(axis=-1)
    keys &= mask
    idx = keys.view(np.intp)
    srt = np.take_along_axis(a, idx, axis=-1)
    bad = (srt[..., 1:] < srt[..., :-1]).any(axis=-1)
    if bad.any():
        fix = np.argsort(srt[bad], axis=-1, kind="stable")
        idx[bad] = np.take_along_axis(idx[bad], fix, axis=-1)
        srt[bad] = np.take_along_axis(srt[bad], fix, axis=-1)
    return idx, srt


def _argsort_line_order(args: np.ndarray):
    """Order each (N, L) argument matrix ascending, ties by (row, column).

    A stable argsort of the row-major flattened matrix (by _argsort_rows):
    row-major order makes the flat index break ties by (row, column),
    exactly the rule of the paper's rotation + heap merge.
    args may carry leading batch axes.  Returns (flat, sorted_args), both
    of length N*L along the last axis: flat = row * L + column of each
    line in sweep order, and the arguments in that order.
    """
    *lead, n, l = args.shape
    return _argsort_rows(args.reshape(*lead, n * l))


def _config_before(args: np.ndarray, crossed: np.ndarray,
                   col_end: np.ndarray, cfg0: np.ndarray) -> np.ndarray:
    """Each element's choice once the lines marked in `crossed` are behind.

    crossed (..., N, L) must mark a prefix of the sweep order, the lines
    before some point in ascending (argument, flat index) order.  Every
    element then holds the ending choice of its crossed line of largest
    (argument, column), which it crossed last, or its starting choice
    cfg0 (..., N) if it has crossed none.
    """
    cfg = cfg0.copy()
    latest = np.full(cfg0.shape, -1.0)
    for c in range(args.shape[-1]):
        # >=: of two equal arguments, the higher column is crossed later
        later = crossed[..., c] & (args[..., c] >= latest)
        np.copyto(latest, args[..., c], where=later)
        np.copyto(cfg, col_end[c], where=later)
    return cfg


def _sorted_lines(batch, offsets: np.ndarray):
    """Each row's elements in angle order and its lines in sweep order.

    Both sorts go through _argsort_rows, so they give a stable argsort's
    order.  Returns (order, vv, args, flat, valid), all with a leading
    trials axis: order sorts the elements by angle (stably) and vv holds
    their coefficients in that order; args (T, N, L) is the line table
    with its rows in that order; flat gives the row-major index
    (element * L + column) of each line in ascending order of argument;
    valid is False where a line sits at the same argument as the one
    before it, so the sector between them has zero width.
    """
    order, angles = _argsort_rows(batch.element_angles())
    vv = np.take_along_axis(batch.v, order, axis=1)
    args = _line_args(angles, offsets)
    flat, sorted_args = _argsort_line_order(args)
    valid = np.ones(flat.shape, dtype=bool)
    np.not_equal(sorted_args[:, 1:], sorted_args[:, :-1], out=valid[:, 1:])
    return order, vv, args, flat, valid


def _contributions(vv: np.ndarray, units: np.ndarray, choices: np.ndarray,
                   g: np.ndarray) -> None:
    """Fill g (T, N, L) with each element's contribution per column's choice.

    Column c is vv * units[choices[c]], one product per column into the
    table's strided column; an off choice contributes exactly +0.0,
    which a product with 0j need not give.  NumPy's complex multiply
    loops round each product as fma(ar, br, -ai*bi) whatever the operand
    layout, so every row has the bits of the one-realization product and
    of the (T*N, 1) x (1, L) broadcast product
    (test_sweep_paths.py::test_column_products_match_the_broadcast pins
    this).
    """
    for c, choice in enumerate(choices):
        if choice == OFF:
            g[..., c] = 0.0
        else:
            np.multiply(vv, units[choice], out=g[..., c])


def _first_lines(args: np.ndarray, g_start: np.ndarray,
                 col_start: np.ndarray, h_d: np.ndarray):
    """Each element's first line, of least (argument, column).

    A loop over the columns whose strict < keeps the lower column of two
    equal arguments, as argmin does, carrying each element's starting
    choice and contribution along.  Returns (cfg0, h0): each element's
    starting choice at its first line, (T, N), and the direct path plus
    the sum of those lines' starting contributions, (T,), summed over a
    contiguous (T, N) array as a gather of them would be.
    """
    first_arg = args[:, :, 0].copy()
    cfg0 = np.full(first_arg.shape, col_start[0])
    g0 = g_start[:, :, 0].copy()
    for c in range(1, args.shape[2]):
        lower = args[:, :, c] < first_arg
        np.copyto(first_arg, args[:, :, c], where=lower)
        np.copyto(cfg0, col_start[c], where=lower)
        np.copyto(g0, g_start[:, :, c], where=lower)
    return cfg0, h_d + g0.sum(axis=1)


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
    order by one sort of the N x L line table; both sorts give a stable
    argsort's order (see _argsort_rows).  The first sector's candidate
    channel is built from each element's starting choice at its first
    line (N vector additions); each subsequent sector costs two vector
    additions, gathered by line index from the (N, L) tables of every
    line's starting and ending contribution, so the candidate chain (one
    cumulative sum) takes N + 2*N*L additions.  In the winning sector,
    each element holds the ending choice of its last line of smaller
    argument than the winning line, or its starting choice if it has
    none; that configuration is mapped back to the input element order.
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

    offsets, col_start, col_end = _column_templates(phase_set)
    l = offsets.size
    m = n * l
    order, vv, args, flat, valid = _sorted_lines(batch, offsets)
    trial = np.arange(t)[:, None]

    # The per-line complex tables are views of one allocation of
    # T*(5m + 1) values (80 bytes a line), in order: g_start and g_end
    # (T, N, L), a (T, m) gather buffer and the steps (T, 2m + 1).  It is
    # the call's largest allocation, and freeing it sets glibc's trim
    # threshold to twice its size.  The rest of the call's peak stays
    # below the block, so the heap is not trimmed when the call returns
    # and the next call reuses its pages instead of faulting them in.
    tm = t * m
    block = np.empty(t * (5 * m + 1), dtype=complex)
    g_start = block[:tm].reshape(t, n, l)
    g_end = block[tm:2 * tm].reshape(t, n, l)
    gathered = block[2 * tm:3 * tm].reshape(t, m)
    steps = block[3 * tm:].reshape(t, 2 * m + 1)

    # Contribution of every element under each line's starting and ending
    # choice, from units[choice] (0 for off), built column by column (see
    # _contributions for the rounding this relies on).
    units = np.zeros(phase_set.k + 1, dtype=complex)
    units[1:] = np.exp(1j * np.asarray(phase_set.phases))
    _contributions(vv, units, col_start, g_start)
    _contributions(vv, units, col_end, g_end)

    # The first sector lies between the last and the first sorted lines
    # (wrapping), so each element starts in the starting choice of its
    # first line, the one of least (argument, column).  Reading it off the
    # table keeps the chain consistent even when that sector is narrower
    # than the angle tolerance.
    cfg0, h0 = _first_lines(args, g_start, col_start, batch.h_d)

    # chain[:, j] is the candidate of sector j (chain[:, m]: back in sector
    # 0).  Each line j takes its element's start contribution out and puts
    # its end contribution in; add.accumulate is a sequential left fold, so
    # each entry is exactly chain[:, j] - g_start[:, j] + g_end[:, j].
    # From here on flat indexes the flattened (T, N, L) tables; it is in
    # range, so take's "clip" mode writes straight into the buffer, where
    # "raise" would buffer the output.
    flat += trial * m
    steps[:, 0] = h0
    np.take(g_start, flat, out=gathered, mode="clip")
    np.negative(gathered, out=steps[:, 1::2])
    np.take(g_end, flat, out=gathered, mode="clip")
    steps[:, 2::2] = gathered
    chain = np.cumsum(steps, axis=1, out=steps)[:, ::2]
    counters.vector_additions += n + 2 * m

    if instrument:
        recheck = max(1, math.ceil(n / 4))
        # Drift is judged against the scale of the summed vectors; the
        # channel itself can pass arbitrarily close to zero mid-sweep.
        drift_scale = abs(real.h_d) + float(np.abs(vv[0]).sum())
        lines = np.arange(m).reshape(n, l)
        for stop in range(recheck, m + 1, recheck):
            counters.scratch_recomputes += 1
            # A checkpoint can fall inside a run of equal arguments, so the
            # lines before it are those of smaller (argument, flat index).
            if stop < m:
                at = flat[0, stop]
                a_stop = args[0].flat[at]
                crossed = (args[0] < a_stop) | ((args[0] == a_stop)
                                                & (lines < at))
            else:
                crossed = np.ones((n, l), dtype=bool)
            _check_drift(real.h_d, vv[0], units,
                         _config_before(args[0], crossed, col_end, cfg0[0]),
                         complex(chain[0, stop]), drift_scale)

    # Zero-width sectors are crossed without being evaluated.
    amp = np.abs(chain[:, :m])
    amp[~valid] = -math.inf
    best = amp.argmax(axis=1)  # first max: lowest sector index

    # Sector 0 is valid, so best is too: no line before line best shares
    # its argument, and the lines crossed before it are exactly those of
    # smaller argument.
    a_best = args.take(flat[np.arange(t), best])
    cfg = _config_before(args, args < a_best[:, None, None], col_end, cfg0)
    config = np.empty((t, n), dtype=int)
    np.put_along_axis(config, order, cfg, axis=1)

    result = _result(single, config, chain[np.arange(t), best], best)
    if instrument:
        result.candidates = np.where(valid[0], amp[0], math.nan)
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
