"""Scenario runner reproducing the simulation study at desk scale.

A Scenario fixes a link budget, a phase-shift set (or a gap-parameterized
family), the solvers to compare, and a sweep axis; run_scenario samples
`trials` seeded realizations per axis point, solves each with every
requested solver, and aggregates spectral-efficiency statistics into
ResultRows.  A task is one block of trials: one sample_realization call
draws its range of trials as a RealizationBatch for every point of the
run, and one call of each solver and of the empty ratio takes it at each
point, bit-identical to sampling and solving the trials one at a time.
The tasks are mapped in this process or over one worker pool.  Output is
CSV plus a JSON metadata sidecar; the CSV is a pure function of (scenario,
seed) so repeated runs are byte-identical.
"""

import json
import math
import numbers
import os
from dataclasses import dataclass, replace
from datetime import datetime, timezone
from functools import partial
from typing import Dict, List, Optional, Sequence

import numpy as np

from .analysis import empty_regions, measured_empty_ratio
from .channel import (LinkBudget, PhaseShiftSet, check_json_keys,
                      check_schema, json_bool, json_int, json_list,
                      json_number, json_numbers, json_str, sample_realization)
from .metrics import performance_gain
from .optimizer import (DEFAULT_EXHAUSTIVE_CAP, SweepResult,
                        continuous_upper_bound, cpp_optimize, exhaustive_fits,
                        exhaustive_optimize, sweep_optimize)

SCHEMA_VERSION = 1

#: Canonical solver order for result columns.
SOLVERS = ("sweep", "cpp", "cpp_always_on", "exhaustive", "continuous_ub")

AXES = ("n_elements", "gain_direct_db", "snr_budget_db", "phase_gap",
        "phase_gap_pair")

#: Top-level keys of a scenario JSON document.
SCENARIO_KEYS = ("schema_version", "name", "budget", "n_elements", "phases",
                 "sweep", "trials", "seed", "solvers", "empty_ratio", "mode",
                 "exhaustive_cap")

_PI = math.pi

#: Upper bound on the separation lines solved in one block of trials; it
#: bounds the block's memory on 1000-trial points.
_BLOCK_LINES = 2 ** 16

#: Most separation lines, N*(K+1), one trial may have (the exhaustive
#: cap's figure); the sampler and the sweep hold every line of a trial.
_MAX_TRIAL_LINES = 2 ** 24


@dataclass
class Scenario:
    """One experiment: an axis of points, each averaged over seeded trials.

    For the gap axes the phase set is rebuilt per point ({0, gap} or
    {0, g1, g1+g2}) and the `phases` field is unused.  mode "regions"
    dumps the empty regions of a single realization instead of a curve.
    """

    name: str
    budget: LinkBudget
    n_elements: int
    phases: Optional[PhaseShiftSet]
    axis: str
    values: tuple
    trials: int
    seed: int
    solvers: tuple
    empty_ratio: bool = False
    mode: str = "curve"
    exhaustive_cap: int = DEFAULT_EXHAUSTIVE_CAP

    def validate(self) -> List[tuple]:
        """Check the scenario and return its plan, one point per axis value.

        A point is (budget, n, phases, solvers): the link budget, element
        count and phase set there, and the requested solvers that run
        there (exhaustive only where (K+1)^N <= exhaustive_cap).  A
        regions-mode scenario has no axis and returns [].
        """
        # The name is the stem of the CSV and sidecar written under --out.
        if self.name in ("", ".", "..") or any(
                sep and sep in self.name for sep in ("/", os.sep, os.altsep)):
            raise ValueError(f"name must be a plain file stem, without a "
                             f"path separator, got {self.name!r}")
        if "\0" in self.name:  # open() would refuse it after the run
            raise ValueError(f"name must not hold a NUL character, "
                             f"got {self.name!r}")
        if not 1 <= self.trials <= 2 ** 32:  # the sampler's trial indices
            raise ValueError(f"trials must be between 1 and 2**32, "
                             f"got {self.trials!r}")
        for name in ("seed", "n_elements"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be a non-negative integer, "
                                 f"got {getattr(self, name)!r}")
        # (K+1)^N complex sums per exhaustive table: 2**24 is ~270 MB
        if not 1 <= self.exhaustive_cap <= DEFAULT_EXHAUSTIVE_CAP:
            raise ValueError(f"exhaustive_cap must be between 1 and 2**24, "
                             f"got {self.exhaustive_cap!r}")
        if self.mode not in ("curve", "regions"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode == "regions":
            if self.phases is None:
                raise ValueError("regions mode needs an explicit phase set")
            if self.n_elements < 1:
                raise ValueError("regions mode needs at least one element")
            check_trial_lines(self.n_elements, self.phases)
            return []
        if self.axis not in AXES:
            raise ValueError(f"unknown sweep axis {self.axis!r}")
        if not self.values:
            raise ValueError("sweep values must be non-empty")
        unknown = set(self.solvers) - set(SOLVERS)
        if unknown or not self.solvers:
            raise ValueError(f"solvers must be a non-empty subset of {SOLVERS}")
        repeated = [s for s in SOLVERS if self.solvers.count(s) > 1]
        if repeated:
            raise ValueError(f"solvers must name each solver once, got "
                             f"{', '.join(map(repr, repeated))} more than "
                             "once")
        if self.empty_ratio and "sweep" not in self.solvers:
            raise ValueError("empty_ratio needs the sweep solver")
        gap_axis = self.axis in ("phase_gap", "phase_gap_pair")
        if not gap_axis and self.phases is None:
            raise ValueError(f"axis {self.axis!r} needs an explicit phase set")
        plan = []
        for i, x in enumerate(self.values):
            what = f"sweep.values[{i}]"
            budget, n, phases = self.budget, self.n_elements, self.phases
            if self.axis == "n_elements":
                if (isinstance(x, bool) or not isinstance(x, numbers.Integral)
                        or x < 0):
                    raise ValueError(f"{what} must be a non-negative "
                                     f"integer, got {x!r}")
                n = int(x)
            elif self.axis == "phase_gap_pair":
                if not isinstance(x, tuple) or len(x) != 2:
                    raise ValueError(f"{what} must be a pair of numbers, "
                                     f"got {x!r}")
                coords = [json_number(g, f"{what}[{j}]")
                          for j, g in enumerate(x)]
            else:
                coords = [json_number(x, what)]
            if self.empty_ratio and n == 0:  # a ratio of no lines
                field = what if self.axis == "n_elements" else "n_elements"
                raise ValueError(f"{field} must be at least 1 with "
                                 "empty_ratio on, got 0")
            try:  # a bad gap, trial size or budget
                if gap_axis:
                    phases = PhaseShiftSet.from_gaps(coords)
                elif self.axis != "n_elements":  # a LinkBudget field
                    budget = replace(budget, **{self.axis: coords[0]})
                check_trial_lines(n, phases)
                _check_capacity(budget, n)
            except ValueError as exc:
                raise ValueError(f"{what}: {exc}") from exc
            if budget.element_amplitude != self.budget.element_amplitude:
                raise ValueError(f"{what}: every point must keep the element "
                                 "amplitude, as each block is drawn once")
            plan.append((budget, n, phases, tuple(
                s for s in self.solvers if s != "exhaustive"
                or exhaustive_fits(phases.k, n, self.exhaustive_cap))))
        if "exhaustive" in self.solvers and not any(
                "exhaustive" in point[3] for point in plan):
            raise ValueError(
                "exhaustive requested but every point exceeds the cap")
        return plan

    def to_json(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "name": self.name,
            "budget": self.budget.to_json(),
            "n_elements": self.n_elements,
            "phases": list(self.phases.phases) if self.phases else None,
            "sweep": {"axis": self.axis,
                      "values": [list(v) if isinstance(v, tuple) else v
                                 for v in self.values]},
            "trials": self.trials,
            "seed": self.seed,
            "solvers": list(self.solvers),
            "empty_ratio": self.empty_ratio,
            "mode": self.mode,
            "exhaustive_cap": self.exhaustive_cap,
        }

    @classmethod
    def from_json(cls, doc: dict) -> "Scenario":
        check_schema(doc, "scenario", SCHEMA_VERSION)
        required = ("name", "budget", "seed")
        check_json_keys(doc, "scenario", required,
                        [k for k in SCENARIO_KEYS if k not in required])
        sweep = doc.get("sweep", {})
        check_json_keys(sweep, "sweep", (), ("axis", "values"))
        values = tuple(tuple(v) if isinstance(v, list) else v
                       for v in json_list(sweep.get("values", []),
                                          "sweep.values"))
        phases = doc.get("phases")
        scenario = cls(
            name=json_str(doc["name"], "name"),
            budget=LinkBudget.from_json(doc["budget"]),
            n_elements=json_int(doc.get("n_elements", 0), "n_elements"),
            phases=PhaseShiftSet(json_numbers(phases, "phases"))
            if phases is not None else None,
            axis=json_str(sweep.get("axis", "n_elements"), "sweep.axis"),
            values=values,
            trials=json_int(doc.get("trials", 1000), "trials"),
            seed=json_int(doc["seed"], "seed"),
            solvers=tuple(json_str(x, f"solvers[{i}]") for i, x in enumerate(
                json_list(doc.get("solvers", ["sweep", "cpp"]), "solvers"))),
            empty_ratio=json_bool(doc.get("empty_ratio", False), "empty_ratio"),
            mode=json_str(doc.get("mode", "curve"), "mode"),
            exhaustive_cap=json_int(doc.get("exhaustive_cap",
                                            DEFAULT_EXHAUSTIVE_CAP),
                                    "exhaustive_cap"),
        )
        scenario.validate()
        return scenario


def check_trial_lines(n: int, phases: PhaseShiftSet) -> None:
    """Raise ValueError if one trial has more than _MAX_TRIAL_LINES lines.

    The scenarios and the CLI's solve and regions check every trial with
    it before anything the size of its lines is allocated.
    """
    lines = n * (phases.k + 1)
    if lines > _MAX_TRIAL_LINES:
        raise ValueError(
            f"n_elements = {n} gives N*(K+1) = {lines} separation lines "
            f"per trial at K = {phases.k}, more than 2**24")


def _check_capacity(budget: LinkBudget, n: int) -> None:
    """Raise ValueError if a capacity at this budget and N can overflow.

    run_scenario forms 10^(snr_budget_db/10) * |h|^2 for amplitudes |h| up
    to |h_d| + N*|v|; that product must stay finite.
    """
    bound = budget.direct_amplitude + n * budget.element_amplitude
    snr = 10.0 ** (budget.snr_budget_db / 10.0)
    if not math.isfinite(snr * (bound * bound)):
        raise ValueError(
            f"the capacity overflows: 10^(snr_budget_db/10) * "
            f"(|h_d| + N*|v|)^2 is not finite at snr_budget_db = "
            f"{budget.snr_budget_db!r}, gain_direct_db = "
            f"{budget.gain_direct_db!r}, gain_tx_ris_db + gain_ris_rx_db = "
            f"{budget.gain_tx_ris_db + budget.gain_ris_rx_db!r} and N = {n}")


@dataclass
class ResultRow:
    """Aggregated statistics at one axis point.

    x carries one coordinate (two for the gap-pair axis); mean/std are
    spectral efficiencies in bit/s/Hz keyed by solver, with None where a
    solver was skipped (exhaustive over its cap).
    """

    x: tuple
    mean_se: Dict[str, Optional[float]]
    std_se: Dict[str, Optional[float]]
    gain_pct: Optional[float]
    empty_ratio: Optional[float]


def solve(solver: str, real, phase_set: PhaseShiftSet,
          exhaustive_cap: int = DEFAULT_EXHAUSTIVE_CAP) -> SweepResult:
    """The SweepResult of the named configuration solver (any of SOLVERS
    but continuous_ub, which bounds |h| without a configuration).

    The solvers are looked up as this module's globals at call time, so a
    wrapper set on them here sees every call.
    """
    if solver == "sweep":
        return sweep_optimize(real, phase_set)
    if solver in ("cpp", "cpp_always_on"):
        return cpp_optimize(real, phase_set,
                            always_on=solver == "cpp_always_on")
    if solver == "exhaustive":
        return exhaustive_optimize(real, phase_set, exhaustive_cap)
    raise ValueError(f"unknown solver {solver!r}")


def _solve_block(scenario: Scenario, plan: Sequence[tuple], trials: range
                 ) -> List[Dict[str, np.ndarray]]:
    """Per point of the plan, the block's (T,) columns: |h| per solver,
    and "empty_ratio".  The block is drawn once, at the plan's largest N;
    a point takes the draw's first N columns (a trial's draw at N) and its
    own direct path, or the draw as is, and one call of each solver and of
    the empty ratio solves every row."""
    n_max = max(point[1] for point in plan)
    drawn = sample_realization(plan[0][0], n_max, (scenario.seed, trials))
    columns = []
    for budget, n, phases, solvers in plan:
        batch = drawn
        if (n, budget.direct_path) != (n_max, plan[0][0].direct_path):
            batch = replace(drawn, v=drawn.v[:, :n], h_d=np.full(
                len(trials), budget.direct_path))
        cols = {s: continuous_upper_bound(batch) if s == "continuous_ub"
                else solve(s, batch, phases, scenario.exhaustive_cap).amplitude
                for s in solvers}
        if scenario.empty_ratio:
            cols["empty_ratio"] = measured_empty_ratio(
                empty_regions(batch, phases, cols["sweep"])).measured_ratio
        columns.append(cols)
    return columns


def __getattr__(name: str):
    """`ProcessPoolExecutor`, imported on first use (PEP 562).

    The pool loads multiprocessing, which only run_scenario at jobs > 1
    needs.  A class bound as this module's ProcessPoolExecutor replaces it.
    """
    if name == "ProcessPoolExecutor":
        from concurrent.futures import ProcessPoolExecutor
        return ProcessPoolExecutor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def run_scenario(scenario: Scenario, jobs: int = 1) -> List[ResultRow]:
    """Run every axis point of a curve scenario.

    Trials are deterministic per (scenario seed, trial index), shared
    across axis points, and aggregated in trial order.  They are cut into
    near-equal blocks of at most _BLOCK_LINES separation lines at the
    run's widest point, their count a multiple of the workers where the
    trials allow, and each block is one task serving every point.  The
    workers are `jobs`, capped at the CPUs this process may use; the
    tasks are mapped in this process or, when two blocks can run at once,
    over one pool of min(workers, blocks) processes.  The result is
    independent of `jobs`.  The channel does not depend on the SNR
    budget, so an snr_budget_db axis solves its first point only.
    """
    plan = scenario.validate()
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    if scenario.mode != "curve":
        raise ValueError("run_scenario handles curve scenarios; "
                         "use regions_dump for regions mode")
    solved = plan[:1] if scenario.axis == "snr_budget_db" else plan
    lines = max(n * phases.line_offsets.size for _, n, phases, _ in solved)
    size = max(1, _BLOCK_LINES // max(1, lines))
    if jobs > 1:  # a worker past the usable CPUs would only wait for one
        affinity = getattr(os, "sched_getaffinity", None)
        jobs = min(jobs, len(affinity(0)) if affinity else os.cpu_count() or 1)
    t = scenario.trials
    count = min(t, -(-t // (size * jobs)) * jobs)
    blocks = [range(t * i // count, t * (i + 1) // count) for i in range(count)]
    worker = partial(_solve_block, scenario, solved)
    if min(jobs, count) > 1:
        pool_class = (globals().get("ProcessPoolExecutor")
                      or __getattr__("ProcessPoolExecutor"))
        with pool_class(max_workers=min(jobs, count)) as pool:
            results = list(pool.map(worker, blocks))
    else:
        results = list(map(worker, blocks))
    rows = []
    for i, (x, (budget, *_)) in enumerate(zip(scenario.values, plan)):
        part = [r[min(i, len(solved) - 1)] for r in results]  # snr: point 0
        cols = {k: np.concatenate([r[k] for r in part]) for k in part[0]}
        snr_scale = 10.0 ** (budget.snr_budget_db / 10.0)
        mean_se = dict.fromkeys(scenario.solvers)  # None: exhaustive over
        std_se = dict.fromkeys(scenario.solvers)  # its cap at this point
        for solver in cols.keys() & scenario.solvers:
            se = np.log2(1.0 + snr_scale * cols[solver] ** 2)
            mean_se[solver], std_se[solver] = float(se.mean()), float(se.std())
        gain = None
        if mean_se.get("sweep") is not None and mean_se.get("cpp") is not None:
            if mean_se["cpp"] <= 0.0:
                raise ValueError(
                    f"sweep.values[{i}] = {x!r}: every cpp capacity rounds "
                    f"to 0 at snr_budget_db = {budget.snr_budget_db!r} dB, "
                    f"so gain_pct is undefined")
            gain = performance_gain(mean_se["sweep"], mean_se["cpp"])
        ratio = (float(np.mean(cols["empty_ratio"])) if scenario.empty_ratio
                 else None)
        rows.append(ResultRow(
            x=x if isinstance(x, tuple) else (x,),
            mean_se=mean_se, std_se=std_se, gain_pct=gain, empty_ratio=ratio))
    return rows


def regions_dump(scenario: Scenario):
    """Empty regions of one seeded realization, as an EmptyRegions record."""
    scenario.validate()
    if scenario.mode != "regions":
        raise ValueError("scenario is not in regions mode")
    real = sample_realization(scenario.budget, scenario.n_elements,
                              (scenario.seed, 0))
    h_star = sweep_optimize(real, scenario.phases).amplitude
    return empty_regions(real, scenario.phases, h_star)


def _fmt(value: Optional[float]) -> str:
    return "" if value is None else repr(float(value))


def write_rows_csv(scenario: Scenario, rows: Sequence[ResultRow], fh) -> None:
    """Write the aggregated rows as CSV with a scenario-dependent header."""
    two_d = scenario.axis == "phase_gap_pair"
    header = ["x", "x2"] if two_d else ["x"]
    solvers = [s for s in SOLVERS if s in scenario.solvers]
    for s in solvers:
        header += [f"mean_se_{s}", f"std_se_{s}"]
    with_gain = "sweep" in solvers and "cpp" in solvers
    if with_gain:
        header.append("gain_pct")
    if scenario.empty_ratio:
        header.append("empty_ratio")
    fh.write(",".join(header) + "\n")
    for row in rows:
        cells = [_fmt(c) for c in row.x]
        for s in solvers:
            cells += [_fmt(row.mean_se[s]), _fmt(row.std_se[s])]
        if with_gain:
            cells.append(_fmt(row.gain_pct))
        if scenario.empty_ratio:
            cells.append(_fmt(row.empty_ratio))
        fh.write(",".join(cells) + "\n")


def _git_describe() -> Optional[str]:
    """`git describe` of the checkout holding this package, or None."""
    import subprocess

    try:
        out = subprocess.run(["git", "describe", "--always", "--dirty"],
                             cwd=os.path.dirname(os.path.abspath(__file__)),
                             capture_output=True, text=True, timeout=5)
    except (OSError, subprocess.TimeoutExpired):
        return None
    if out.returncode != 0:
        return None
    return out.stdout.strip() or None


def write_meta_json(scenario: Scenario, fh, jobs: int = 1) -> None:
    """Sidecar metadata: the scenario, seed, git describe, timestamp."""
    from . import __version__

    json.dump({
        "scenario": scenario.to_json(),
        "seed": scenario.seed,
        "git_describe": _git_describe(),
        "generated_at": datetime.now(timezone.utc).isoformat(),
        "package_version": __version__,
        "jobs": jobs,
    }, fh, indent=2)
    fh.write("\n")


#: The link budget of every preset.
_BASE_BUDGET = LinkBudget(gain_tx_ris_db=-80.0, gain_ris_rx_db=-60.0,
                          gain_direct_db=-140.0, snr_budget_db=100.0)


#: The two-phase set used by the capacity and gain studies.
TWO_PHASE_SET = PhaseShiftSet((_PI / 6.0, 5.0 * _PI / 6.0))


def builtin_scenarios() -> List[Scenario]:
    """Desk-scale presets mirroring the simulation study's figures."""
    pi = _PI
    gap_grid = [k * pi / 12.0 for k in range(1, 24)]
    pair_grid = tuple((a * pi / 6.0, b * pi / 6.0)
                      for a in range(1, 11) for b in range(1, 12 - a))
    return [
        Scenario(name="fig9", budget=_BASE_BUDGET, n_elements=0,
                 phases=TWO_PHASE_SET, axis="n_elements",
                 values=(1, 2, 3, 4, 5, 6, 7, 8, 12, 16, 24, 32, 48, 64),
                 trials=1000, seed=1009,
                 solvers=("sweep", "cpp", "exhaustive"),
                 exhaustive_cap=3 ** 8),
        Scenario(name="fig10", budget=_BASE_BUDGET, n_elements=50,
                 phases=TWO_PHASE_SET, axis="gain_direct_db",
                 values=tuple(range(-140, -99, 5)),
                 trials=1000, seed=1010, solvers=("sweep", "cpp")),
        Scenario(name="fig11", budget=_BASE_BUDGET, n_elements=50,
                 phases=TWO_PHASE_SET, axis="snr_budget_db",
                 values=tuple(range(100, 131, 2)),
                 trials=1000, seed=1011, solvers=("sweep", "cpp")),
        Scenario(name="fig12", budget=_BASE_BUDGET, n_elements=50,
                 phases=None, axis="phase_gap", values=tuple(gap_grid),
                 trials=1000, seed=1012, solvers=("sweep", "cpp")),
        Scenario(name="fig13", budget=_BASE_BUDGET, n_elements=50,
                 phases=None, axis="phase_gap_pair", values=pair_grid,
                 trials=1000, seed=1013, solvers=("sweep", "cpp")),
        Scenario(name="fig14", budget=_BASE_BUDGET, n_elements=50,
                 phases=TWO_PHASE_SET, axis="n_elements", values=(),
                 trials=1, seed=1014, solvers=("sweep",), mode="regions"),
        Scenario(name="fig15_k2", budget=_BASE_BUDGET, n_elements=0,
                 phases=PhaseShiftSet.uniform(2), axis="n_elements",
                 values=(25, 50, 100, 150, 200), trials=1000, seed=1015,
                 solvers=("sweep",), empty_ratio=True),
        Scenario(name="fig15_k3", budget=_BASE_BUDGET, n_elements=0,
                 phases=PhaseShiftSet.uniform(3), axis="n_elements",
                 values=(25, 50, 100, 150, 200), trials=1000, seed=1015,
                 solvers=("sweep",), empty_ratio=True),
    ]


def get_builtin(name: str) -> List[Scenario]:
    """Presets under a name; "fig15" expands to both uniform sets.

    Raises:
        KeyError: if the name matches no preset.
    """
    presets = {s.name: s for s in builtin_scenarios()}
    if name in presets:
        return [presets[name]]
    if name == "fig15":
        return [presets["fig15_k2"], presets["fig15_k3"]]
    raise KeyError(f"unknown preset {name!r}; "
                   f"available: {', '.join(list(presets) + ['fig15'])}")
