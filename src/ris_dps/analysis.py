"""Empty-region analytics.

Around every separation line there is an arc that the argument of the
optimal channel provably avoids: close enough to the line, swapping the
owning element's starting choice for its ending choice would lengthen the
channel, contradicting optimality.  This module computes those arcs, the
fraction of the circle their union covers, and the closed-form large-N
approximation of the summed-width upper bound.
"""

import csv
import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .channel import OFF, PhaseShiftSet
from .geometry import TWO_PI, wrap_angles
from .optimizer import separation_lines


@dataclass(frozen=True)
class EmptyRegions:
    """Arcs around every separation line that cannot contain arg(h*).

    The arc around line (n, c) is centered on centers[c, n] and has
    half-width half_width[c, n]: both (L, N), or (T, L, N) for a batch;
    any other pair of shapes raises ValueError.
    """

    centers: np.ndarray
    half_width: np.ndarray

    def __post_init__(self):
        shape, widths = np.shape(self.centers), np.shape(self.half_width)
        if shape != widths or len(shape) not in (2, 3):
            raise ValueError(
                f"centers and half_width need one (L, N) or (T, L, N) "
                f"shape, got {shape} and {widths}")


@dataclass(frozen=True)
class EmptyRatioReport:
    """Coverage of the circle by the empty-region union; (T,) for a batch.

    sum_ratio_ub is the summed-width upper bound (may exceed 1);
    overlap_fraction is the share of the summed width lost to overlap.
    """

    measured_ratio: Union[float, np.ndarray]
    sum_ratio_ub: Union[float, np.ndarray]
    overlap_fraction: Union[float, np.ndarray]


def _check_h_star(h_star_amp) -> None:
    h = np.asarray(h_star_amp, dtype=float)
    bad = h[~((h > 0.0) & (h < math.inf))]  # NaN fails both
    if bad.size:
        raise ValueError(f"h_star_amp must be positive and finite, "
                         f"got {float(bad[0])!r}")


def empty_regions(real, phase_set: PhaseShiftSet, h_star_amp) -> EmptyRegions:
    """The empty region of every separation line, in the lines' layout:
    the centers are separation_lines' table, and column c's widths scale
    with phase_set.line_factors[c].

    Each width has the bits of the scalar omega_small_gap /
    omega_large_gap in tests/scalar_reference.py: the ratio is formed in
    their order ((v * 0.5) / h equals v / (2h)), and the arcsine stays
    math.asin, since np.arcsin can differ in the last bit.

    A width depends only on (row, |v_n|, column), and a sampled block's
    |v_n| lie a few ulps apart.  When each row's least and greatest |v_n|,
    lo and hi, share a binade, every |v_n| is lo + k * spacing(lo) for a
    whole k: |v_n| - lo is exact (Sterbenz), and so is its quotient by a
    power of two.  If the widest row spans W - 1 ulps and W < N, the
    arcsines are taken of each row's W amplitudes lo + j * spacing(lo),
    j < W, exactly the |v_n| they stand for, and gathered by k; otherwise
    the block takes one arcsine per line.

    Args:
        h_star_amp: amplitude of the optimal channel, (T,) for a
            RealizationBatch; pass the sweep optimum, or the continuous
            upper bound for the conservative (narrowest-region) variant.

    Raises:
        ValueError: if h_star_amp is not positive and finite, or does not
            broadcast to (T,) (to () for one realization).
    """
    trials = np.shape(real.h_d)
    try:
        h_star = np.broadcast_to(h_star_amp, trials)[..., None, None]
    except ValueError:
        raise ValueError(f"h_star_amp needs shape {trials}, got "
                         f"{np.shape(h_star_amp)}") from None
    _check_h_star(h_star)
    centers = separation_lines(real, phase_set)
    factors = phase_set.line_factors[:, None]
    amps, index = np.abs(real.v), None
    if amps.size:
        lo = amps.min(axis=-1, keepdims=True)
        hi = amps.max(axis=-1, keepdims=True)
        ulp = np.spacing(lo)  # a row is in one binade iff hi has it too
        w = (int(((hi - lo) / ulp).max()) + 1
             if (np.spacing(hi) == ulp).all() else amps.shape[-1])
        if w < amps.shape[-1]:
            index = ((amps - lo) / ulp).astype(np.intp)[..., None, :]  # k
            amps = lo + np.arange(w) * ulp
    with np.errstate(over="ignore"):  # a ratio past the float range is 1
        ratio = np.minimum(amps[..., None, :] * factors / h_star, 1.0)
    half_width = np.fromiter(map(math.asin, ratio.ravel().tolist()), float,
                             ratio.size).reshape(ratio.shape)
    if index is not None:  # one flat take from each (row, column)'s start
        starts = np.arange(0, ratio.size, w).reshape(ratio.shape[:-1] + (1,))
        half_width = half_width.take(index + starts, mode="clip")
    return EmptyRegions(centers, half_width)


def _union_lengths(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Union length of the arcs of each row, (T,) from (T, M) starts and ends.

    Each row gets the bits of sorting its pieces by start, merging
    overlapping pieces into runs and adding the run lengths left to
    right.  An arc of width <= 0 is dropped (it becomes the piece (0, 0));
    one of width >= 2*pi covers the circle, and its row's starts, which
    may hold an overflowed -inf, are set to 0.  Every other arc starts at
    its wrapped start and is cut at 2*pi; the pieces left over past 2*pi
    all start at 0, so one piece (0, the farthest of their ends) stands
    for them.  Each of the M + 1 pieces ends at or after its start, so a
    row's starts S and ends E are sorted each on its own.  If
    S[i] > E[i-1], the i pieces that end first start before S[i], as at
    most i pieces do: they are the i that start first, and E[i-1] is
    their reach.  If not, those i reach at least E[i-1].  So S[i] > E[i-1]
    opens a run exactly when a merge in start order would, and E at a
    run's close is its reach.  The sorted starts ascend, so a running max
    of the runs' opening starts is each run's start.  A run's length sits
    at its last position and 0.0 everywhere else, so one cumsum adds the
    runs in order: a non-negative sum plus +0.0 keeps its bits.
    """
    t, m = lo.shape
    with np.errstate(over="ignore"):  # an overflowing width is >= 2*pi
        width = hi - lo
    full = (width >= TWO_PI).any(axis=1)
    if full.any():
        lo = np.where(full[:, None], 0.0, lo)
    keep = width > 0.0
    start = wrap_angles(lo)
    end = start + width
    starts = np.zeros((t, m + 1))
    ends = np.zeros((t, m + 1))
    np.copyto(starts[:, 1:], start, where=keep)
    np.copyto(ends[:, 1:], np.minimum(end, TWO_PI), where=keep)
    ends[:, 0] = np.max(end - TWO_PI, axis=1, initial=0.0,
                        where=end > TWO_PI)
    starts.sort(axis=1)
    ends.sort(axis=1)
    # A piece starting past everything before it opens a new run.
    opens = np.ones((t, m + 1), dtype=bool)
    np.greater(starts[:, 1:], ends[:, :-1], out=opens[:, 1:])
    first = np.maximum.accumulate(np.where(opens, starts, 0.0), axis=1)
    closes = np.ones_like(opens)
    closes[:, :-1] = opens[:, 1:]
    runs = np.where(closes, ends - first, 0.0)
    total = np.minimum(np.cumsum(runs, axis=1)[:, -1], TWO_PI)
    total[full] = TWO_PI
    return total


def _check_lines(regions: EmptyRegions) -> None:
    """Raise ValueError naming the first line (n, c), by element, then
    column, and its row in a batch, with a non-finite center or a negative
    or non-finite width."""
    centers, widths = regions.centers, regions.half_width
    bad = ~(np.isfinite(centers) & (widths >= 0.0) & (widths < math.inf))
    if bad.any():
        *row, i, c = np.argwhere(bad.swapaxes(-1, -2))[0]
        at = (*row, c, i)
        raise ValueError(
            f"{f'row {row[0]}: ' if row else ''}line ({i}, {c}) "
            f"needs a finite center and a finite half-width >= 0, got "
            f"{float(centers[at])!r} and {float(widths[at])!r}")


def measured_empty_ratio(regions: EmptyRegions) -> EmptyRatioReport:
    """Union coverage of the circle, the summed-width bound, and their gap.

    One union pass takes every row of a batch; each row's fields have the
    bits of sorting and merging its arcs, in any order, and of adding its
    widths by element, then column, as a loop does (np.sum adds pairwise).

    Raises:
        ValueError: naming the first line (n, c), and its row in a batch,
            with a non-finite center or a negative or non-finite width.
    """
    _check_lines(regions)
    *trials, l, n = regions.half_width.shape
    widths = regions.half_width.reshape(math.prod(trials), l * n)
    centers = regions.centers.reshape(widths.shape)
    by_element = regions.half_width.swapaxes(-1, -2).reshape(widths.shape)
    # Finite lines may pass the float range: an arc with an infinite end
    # covers the circle, and the summed width may be inf.
    with np.errstate(over="ignore"):
        union = _union_lengths(centers - widths, centers + widths)
        summed = 2.0 * (np.cumsum(by_element, axis=1)[:, -1] if n * l
                        else np.zeros(len(widths)))
    # A summed width of 0 leaves the quotient 1.0: an overlap of 0.0.
    overlap = 1.0 - np.divide(union, summed, out=np.ones_like(union),
                              where=summed != 0.0)
    fields = (union / TWO_PI, summed / TWO_PI, overlap)
    return EmptyRatioReport(*(fields if trials
                              else (float(f[0]) for f in fields)))


def empty_ratio_upper_bound_approx(k: int) -> float:
    """Large-N closed form of the summed-width upper bound: K*sin(pi/K)/pi.

    Assumes K uniform-ish gaps and the perfectly aligned |h*|; exact for
    the approximation chain, an upper bound in simulation.
    """
    if k < 1:
        raise ValueError("need at least one phase shift")
    return k * math.sin(math.pi / k) / math.pi


def write_regions_csv(regions: EmptyRegions, phase_set: PhaseShiftSet,
                      fh) -> None:
    """Dump regions as CSV rows (center_rad, half_width_rad, element, kind).

    kind is "off_boundary" for a line bordering the off region, else
    "between_phases", read off phase_set's line_starting and line_ending;
    rows go by element, then column.  One realization's regions only, of
    phase_set's L columns, with every line as measured_empty_ratio takes
    it: else ValueError, before any row is written.
    """
    if regions.centers.ndim != 2:
        raise ValueError("write_regions_csv writes one realization's regions")
    l = phase_set.line_starting.size
    if l != len(regions.centers):
        raise ValueError(f"the phase set has L = {l} columns, the regions "
                         f"{len(regions.centers)}")
    _check_lines(regions)
    kinds = ["off_boundary" if OFF in pair else "between_phases"
             for pair in zip(phase_set.line_starting.tolist(),
                             phase_set.line_ending.tolist())]
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(["center_rad", "half_width_rad", "element", "kind"])
    for element, (centers, widths) in enumerate(
            zip(regions.centers.T.tolist(), regions.half_width.T.tolist())):
        writer.writerows([repr(c), repr(w), element, kind]
                         for c, w, kind in zip(centers, widths, kinds))
