"""Optimal RIS configuration with arbitrary non-uniform discrete phase shifts.

Library layout:
    geometry     angle utilities on complex channel coefficients
    channel      phase-shift sets, link budgets, random realizations and
                 batches of them
    optimizer    the linear-time sweep, plus exhaustive/CPP baselines
    metrics      capacity and performance-gain metrics
    analysis     empty-region widths and circle-coverage measurements
    experiments  seeded scenario runner behind the ris-dps CLI
"""

__version__ = "0.1.0"

from .analysis import (EmptyRatioReport, EmptyRegions,
                       empty_ratio_upper_bound_approx, empty_regions,
                       measured_empty_ratio, write_regions_csv)
from .channel import (OFF, ChannelRealization, LinkBudget, PhaseShiftSet,
                      RealizationBatch, overall_h, sample_realization)
from .geometry import (ANGLE_EPS, TWO_PI, arg_mod_2pi, circular_distance,
                       wrap_angle)
from .experiments import (ResultRow, Scenario, builtin_scenarios, get_builtin,
                          regions_dump, run_scenario, write_meta_json,
                          write_rows_csv)
from .metrics import CapacityReport, capacity, performance_gain
from .optimizer import (DEFAULT_EXHAUSTIVE_CAP, SweepCounters, SweepResult,
                        continuous_upper_bound, cpp_optimize,
                        exhaustive_optimize, separation_lines, sweep_optimize)

__all__ = [
    "ANGLE_EPS", "TWO_PI", "OFF", "DEFAULT_EXHAUSTIVE_CAP", "__version__",
    "arg_mod_2pi", "circular_distance", "wrap_angle",
    "ChannelRealization", "LinkBudget", "PhaseShiftSet", "RealizationBatch",
    "overall_h", "sample_realization",
    "SweepCounters", "SweepResult",
    "continuous_upper_bound", "cpp_optimize",
    "exhaustive_optimize", "separation_lines", "sweep_optimize",
    "CapacityReport", "capacity", "performance_gain",
    "EmptyRatioReport", "EmptyRegions", "empty_ratio_upper_bound_approx",
    "empty_regions", "measured_empty_ratio", "write_regions_csv",
    "ResultRow", "Scenario", "builtin_scenarios", "get_builtin",
    "regions_dump", "run_scenario", "write_meta_json", "write_rows_csv",
]
