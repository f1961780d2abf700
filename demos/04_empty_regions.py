"""Where the optimal channel's direction can never point.

Each separation line carries an arc that the argument of the optimal
channel provably avoids.  For one draw with 50 elements the 150 arcs are
computed from the sweep optimum, their union measured (measured_empty_ratio
gives it as a share of the circle), and the direction of h* checked
against every arc.  Averaged over many draws, the union covers about 60%
of the circle for a uniform two-phase set.

If matplotlib is importable the single-draw picture is saved as a polar
plot next to this script.
"""

import os

import numpy as np

from ris_dps import (TWO_PI, LinkBudget, PhaseShiftSet, arg_mod_2pi,
                     circular_distance, empty_ratio_upper_bound_approx,
                     empty_regions, measured_empty_ratio, sample_realization,
                     sweep_optimize)

budget = LinkBudget(-80.0, -60.0, -140.0, 100.0)
phases = PhaseShiftSet((np.pi / 6, 5 * np.pi / 6))

real = sample_realization(budget, 50, (7, 0))
res = sweep_optimize(real, phases)
regions = empty_regions(real, phases, res.amplitude)
report = measured_empty_ratio(regions)
theta_star = arg_mod_2pi(res.h_star)
# one arc per separation line: its center and half-width
centers = regions.centers.ravel()
widths = regions.half_width.ravel()

print(f"one draw, N=50, K=2 (plus off): {centers.size} separation lines")
union = report.measured_ratio * TWO_PI  # the union's length in radians
print(f"union of empty regions: {union:.3f} rad, "
      f"{report.measured_ratio:.1%} of the circle")
print(f"summed widths (upper bound): {report.sum_ratio_ub:.1%}, "
      f"overlap eats {report.overlap_fraction:.1%} of that")
inside = sum(circular_distance(theta_star, c) < w
             for c, w in zip(centers, widths))
print(f"arg(h*) = {theta_star:.4f} rad sits inside {inside} regions (must be 0)")

print("\nuniform sets, 300 draws at N=200:")
draws = sample_realization(budget, 200, (8, range(300)))  # one block
for k in (2, 3):
    uniform = PhaseShiftSet.uniform(k)
    amp = sweep_optimize(draws, uniform).amplitude
    ratios = measured_empty_ratio(
        empty_regions(draws, uniform, amp)).measured_ratio
    print(f"  K={k}: measured {np.mean(ratios):.3f}, closed-form bound "
          f"{empty_ratio_upper_bound_approx(k):.3f}")

try:
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    print("\nmatplotlib not available; skipping the polar plot")
else:
    fig, ax = plt.subplots(subplot_kw={"projection": "polar"}, figsize=(7, 7))
    for c, w in zip(centers, widths):
        arc = np.linspace(c - w, c + w, 16)
        ax.fill_between(arc, 0.9, 1.0, color="tab:orange", alpha=0.35, lw=0)
        ax.plot([c, c], [0.9, 1.0], color="k", lw=0.6)
    ax.plot([theta_star, theta_star], [0.0, 1.0], color="tab:blue", lw=2,
            label="arg(h*)")
    ax.set_rticks([])
    ax.set_title("empty regions around the 150 separation lines")
    ax.legend(loc="lower left")
    out = os.path.join(os.path.dirname(__file__) or ".", "empty_regions.png")
    fig.savefig(out, dpi=120, bbox_inches="tight")
    print(f"\nsaved polar plot to {out}")
