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
from typing import Sequence, Tuple, Union

import numpy as np

from .channel import OFF, PhaseShiftSet
from .geometry import TWO_PI, wrap_angles
from .optimizer import LineTable, separation_lines


@dataclass(frozen=True)
class EmptyRegions:
    """Arcs around every separation line that cannot contain arg(h*).

    The arc around line (n, c) is centered on lines.args[n, c] and has
    half-width half_width[n, c]: both (N, L), or (T, N, L) for a batch.
    """

    lines: LineTable
    half_width: np.ndarray


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
    """The empty region of every separation line of the realization.

    Each width has the bits of the scalar omega_small_gap /
    omega_large_gap in tests/scalar_reference.py: the ratio is formed in
    their order ((v * 0.5) / h equals v / (2h)), and the arcsine stays
    math.asin, since np.arcsin can differ in the last bit.

    Args:
        h_star_amp: amplitude of the optimal channel, (T,) for a
            RealizationBatch; pass the sweep optimum, or the continuous
            upper bound for the conservative (narrowest-region) variant.
    """
    h_star = np.broadcast_to(h_star_amp, np.shape(real.h_d))[..., None, None]
    _check_h_star(h_star)
    lines = separation_lines(real, phase_set)
    phases = phase_set.phases
    # Per column: |sin(gap/2)| between two phases, 0.5 at the off region.
    factors = np.array([
        0.5 if OFF in (s, e)
        else abs(math.sin(((phases[e - 1] - phases[s - 1]) % TWO_PI) / 2.0))
        for s, e in zip(lines.starting.tolist(), lines.ending.tolist())])
    ratio = np.minimum(np.abs(real.v)[..., None] * factors / h_star, 1.0)
    half_width = np.fromiter(map(math.asin, ratio.ravel().tolist()), float,
                             ratio.size)
    return EmptyRegions(lines, half_width.reshape(ratio.shape))


def _running_total(x: np.ndarray) -> float:
    # Left to right, as a Python loop adds; np.sum adds pairwise.
    return float(np.cumsum(x)[-1]) if x.size else 0.0


def circle_union_length(arcs: Union[np.ndarray,
                                    Sequence[Tuple[float, float]]]) -> float:
    """Total length of the union of arcs on the circle.

    Arcs are (start, end) pairs, or an (M, 2) array of them, with end >=
    start; they may wrap past 2*pi and are reduced modulo 2*pi.  An arc
    that reaches past 2*pi after reduction is split there; the pieces are
    sorted by start, overlapping pieces merge into runs, and the run
    lengths are added in order.
    """
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
    # A piece starting past everything before it opens a new run.
    opens = np.flatnonzero(lo[1:] > reach[:-1]) + 1
    run_lo = lo[np.concatenate([[0], opens])]
    run_hi = reach[np.concatenate([opens - 1, [lo.size - 1]])]
    return min(_running_total(run_hi - run_lo), TWO_PI)


def measured_empty_ratio(regions: EmptyRegions) -> EmptyRatioReport:
    """Union coverage of the circle, the summed-width bound, and their gap."""
    trials = regions.half_width.shape[:-2]
    widths = regions.half_width.reshape(math.prod(trials), -1)
    fields = []
    for centers, row in zip(regions.lines.args.reshape(widths.shape), widths):
        union = circle_union_length(
            np.stack([centers - row, centers + row], axis=1))
        summed = 2.0 * _running_total(row)
        overlap = 0.0 if summed == 0.0 else 1.0 - union / summed
        fields.append((union / TWO_PI, summed / TWO_PI, overlap))
    return EmptyRatioReport(*(np.array(fields).T if trials else fields[0]))


def empty_ratio_upper_bound_approx(k: int) -> float:
    """Large-N closed form of the summed-width upper bound: K*sin(pi/K)/pi.

    Assumes K uniform-ish gaps and the perfectly aligned |h*|; exact for
    the approximation chain, an upper bound in simulation.
    """
    if k < 1:
        raise ValueError("need at least one phase shift")
    return k * math.sin(math.pi / k) / math.pi


def write_regions_csv(regions: EmptyRegions, fh) -> None:
    """Dump regions as CSV rows (center_rad, half_width_rad, element, kind).

    kind is "off_boundary" for a line bordering the off region, else
    "between_phases"; rows go by element, then column.  One realization's
    regions only: a batch's raise ValueError.
    """
    lines = regions.lines
    if lines.args.ndim != 2:
        raise ValueError("write_regions_csv writes one realization's regions")
    kinds = ["off_boundary" if OFF in (s, e) else "between_phases"
             for s, e in zip(lines.starting.tolist(), lines.ending.tolist())]
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(["center_rad", "half_width_rad", "element", "kind"])
    for element, (centers, widths) in enumerate(
            zip(lines.args.tolist(), regions.half_width.tolist())):
        writer.writerows([repr(c), repr(w), element, kind]
                         for c, w, kind in zip(centers, widths, kinds))
