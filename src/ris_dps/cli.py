"""Command-line experiment runner.

Subcommands:
    run      execute a scenario (JSON file or builtin preset) into CSV + meta
    solve    solve one saved realization with a chosen solver
    regions  dump the empty regions of one saved realization as CSV
"""

import argparse
import json
import math
import os
import re
import sys
from contextlib import contextmanager
from typing import List, Optional

from .analysis import empty_regions, write_regions_csv
from .channel import ChannelRealization, LinkBudget, PhaseShiftSet
from .experiments import (SOLVERS, Scenario, check_trial_lines, get_builtin,
                          regions_dump, run_scenario, solve, write_meta_json,
                          write_rows_csv)
from .optimizer import continuous_upper_bound, sweep_optimize

_PHASE_TOKEN = re.compile(r"^(\d+(?:\.\d+)?)?\s*pi(?:\s*/\s*(\d+(?:\.\d+)?))?$")


def parse_phases(text: str) -> PhaseShiftSet:
    """Parse a comma-separated phase list; items are radians or pi fractions.

    Accepts plain floats and tokens like "pi/6", "5pi/6", "1.5pi".
    """
    values = []
    for raw in text.split(","):
        token = raw.strip().lower()
        if not token:
            continue
        m = _PHASE_TOKEN.match(token)
        if m:
            num = float(m.group(1)) if m.group(1) else 1.0
            den = float(m.group(2)) if m.group(2) else 1.0
            if den == 0.0:
                raise ValueError(
                    f"cannot parse phase {raw.strip()!r}: zero denominator")
            values.append(num * math.pi / den)
        else:
            try:
                values.append(float(token))
            except ValueError:
                raise ValueError(f"cannot parse phase {raw.strip()!r}")
    return PhaseShiftSet(values)


def _positive_int(text: str) -> int:
    """argparse type: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


@contextmanager
def _naming(path: Optional[str]):
    """A ValueError raised inside names the file `path`, if there is one."""
    try:
        yield
    except ValueError as exc:
        if path is None:
            raise
        raise ValueError(f"{path}: {exc}") from exc


def _read_json(path: str, parse):
    """parse() of a JSON file's document; a ValueError names the file."""
    with open(path) as fh, _naming(path):
        return parse(json.load(fh))


def _cmd_run(args) -> int:
    # a directory named like a preset (a previous --out) is not a scenario
    path = args.scenario if os.path.isfile(args.scenario) else None
    scenarios = ([_read_json(path, Scenario.from_json)] if path
                 else get_builtin(args.scenario))
    for scenario in scenarios:
        if args.seed is not None:
            scenario.seed = args.seed
        if args.fast:
            scenario.trials = min(scenario.trials, 100)
        if args.trials is not None:
            scenario.trials = args.trials
        scenario.validate()  # the file passed at load; a fault is an option
    # every scenario is valid before --out is made, so a fault leaves none
    os.makedirs(args.out, exist_ok=True)
    for scenario in scenarios:
        with _naming(path):  # a preset has no file to name
            csv_path = os.path.join(args.out, f"{scenario.name}.csv")
            meta_path = os.path.join(args.out, f"{scenario.name}.meta.json")
            print(f"running {scenario.name} "
                  f"({scenario.trials} trials, seed {scenario.seed})",
                  file=sys.stderr)
            if scenario.mode == "regions":
                regions = regions_dump(scenario)
                with open(csv_path, "w") as fh:
                    write_regions_csv(regions, scenario.phases, fh)
            else:
                rows = run_scenario(scenario, jobs=args.jobs)
                with open(csv_path, "w") as fh:
                    write_rows_csv(scenario, rows, fh)
            with open(meta_path, "w") as fh:
                write_meta_json(scenario, fh, jobs=args.jobs)
            print(f"wrote {csv_path}", file=sys.stderr)
    return 0


def _cmd_solve(args) -> int:
    if not 0.0 < args.bandwidth_hz < math.inf:  # checked even with no budget
        raise ValueError("--bandwidth-hz must be positive and finite")
    real = _read_json(args.input, ChannelRealization.from_json)
    phases = parse_phases(args.phases)
    with _naming(args.input):
        check_trial_lines(real.n, phases)
        result = solve(args.solver, real, phases)
    budget = None
    if args.snr_budget_db is not None:
        budget = LinkBudget(0.0, 0.0, 0.0, args.snr_budget_db,
                            args.bandwidth_hz)
    doc = result.to_json(budget)
    doc["solver"] = args.solver
    out = json.dumps(doc, indent=2) + "\n"
    if args.out:
        os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
        with open(args.out, "w") as fh:
            fh.write(out)
    else:
        sys.stdout.write(out)
    return 0


def _cmd_regions(args) -> int:
    real = _read_json(args.input, ChannelRealization.from_json)
    phases = parse_phases(args.phases)
    with _naming(args.input):
        check_trial_lines(real.n, phases)
        if args.use_upper_bound:
            h_amp = continuous_upper_bound(real)
        else:
            h_amp = sweep_optimize(real, phases).amplitude
        regions = empty_regions(real, phases, h_amp)
    if args.out:
        os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
        with open(args.out, "w") as fh:
            write_regions_csv(regions, phases, fh)
    else:
        write_regions_csv(regions, phases, sys.stdout)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ris-dps",
        description="Optimal RIS configuration with arbitrary discrete "
                    "phase shifts: experiment runner and one-shot solvers.")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a scenario file or preset")
    run_p.add_argument("--scenario", required=True,
                       help="scenario JSON file or preset name (fig9..fig15)")
    run_p.add_argument("--out", required=True, help="output directory")
    run_p.add_argument("--seed", type=int, default=None,
                       help="override the scenario seed")
    run_p.add_argument("--trials", type=int, default=None,
                       help="override the trial count")
    run_p.add_argument("--fast", action="store_true",
                       help="cap trials at 100 for quick runs")
    run_p.add_argument("--jobs", type=_positive_int, default=1,
                       help="worker processes for the trial blocks (at "
                            "least 1)")
    run_p.set_defaults(func=_cmd_run)

    solve_p = sub.add_parser("solve", help="solve one saved realization")
    solve_p.add_argument("--input", required=True,
                         help="realization JSON file")
    solve_p.add_argument("--phases", required=True,
                         help="comma-separated phases, e.g. 'pi/6,5pi/6'")
    solve_p.add_argument("--solver", required=True,
                         choices=[s for s in SOLVERS if s != "continuous_ub"])
    solve_p.add_argument("--snr-budget-db", type=float, default=None,
                         help="include capacity at this SNR budget")
    solve_p.add_argument("--bandwidth-hz", type=float, default=1.0)
    solve_p.add_argument("--out", default=None,
                         help="write JSON here instead of stdout")
    solve_p.set_defaults(func=_cmd_solve)

    regions_p = sub.add_parser("regions",
                               help="empty regions of one realization")
    regions_p.add_argument("--input", required=True)
    regions_p.add_argument("--phases", required=True)
    regions_p.add_argument("--use-upper-bound", action="store_true",
                           help="size regions from the continuous upper "
                                "bound instead of the sweep optimum")
    regions_p.add_argument("--out", default=None,
                           help="write CSV here instead of stdout")
    regions_p.set_defaults(func=_cmd_regions)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError, OSError) as exc:
        # str() of a KeyError is the repr of its message, quotes and all
        text = exc.args[0] if isinstance(exc, KeyError) else exc
        print(f"ris-dps: error: {text}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
