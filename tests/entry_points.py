"""Run the entry points of ris_dps under a profile hook and list what ran.

    python tests/entry_points.py WORKDIR

The hook is set before ris_dps is imported, so calls made at import time
count too.  Then, in WORKDIR, it runs:
- the acceptance test functions;
- the four demos, through runpy;
- the CLI: solve with each solver and regions with and without
  --use-upper-bound, on a sampled realization saved by its to_json;
  run --trials 2 of every preset, run of one scenario file (the
  .meta.json scenario of a preset run) and one run at --jobs 2, as a
  host with two usable CPUs runs it;
- one op of each benchmark workload, with its check, and the benchmark's
  spot check.

It writes WORKDIR/ran.json: the library's directory and the [file name,
first line] of every library code object that was called.  Calls made in
the --jobs 2 worker processes are not seen.
"""

import contextlib
import io
import json
import os
import runpy
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_called = set()


def _record(frame, event, arg):
    if event == "call":
        _called.add(frame.f_code)


def _cli(argv):
    from ris_dps.cli import main

    if main(argv) != 0:
        raise RuntimeError(f"ris-dps {' '.join(argv)} failed")


def run_acceptance():
    import test_acceptance

    for name, test in vars(test_acceptance).items():
        if name.startswith("test_"):
            test()


def run_demos():
    for demo in sorted((ROOT / "demos").glob("*.py")):
        runpy.run_path(str(demo), run_name="__main__")


def run_cli():
    from ris_dps import sample_realization
    from ris_dps.experiments import SOLVERS, builtin_scenarios, get_builtin

    # the saved realization that solve and regions read, written as a user
    # writes one: ChannelRealization.to_json of a sampled draw
    real = sample_realization(get_builtin("fig10")[0].budget, 6, (123, 0))
    Path("real.json").write_text(json.dumps(real.to_json()))
    one = ["--input", "real.json", "--phases", "pi/6,5pi/6"]
    for solver in (s for s in SOLVERS if s != "continuous_ub"):  # a bound
        _cli(["solve", *one, "--solver", solver, "--snr-budget-db", "100"])
    _cli(["regions", *one])
    _cli(["regions", *one, "--use-upper-bound"])
    for scenario in builtin_scenarios():
        _cli(["run", "--scenario", scenario.name, "--trials", "2",
              "--out", "presets"])
    meta = json.loads(Path("presets/fig11.meta.json").read_text())
    Path("scenario.json").write_text(json.dumps(meta["scenario"]))
    _cli(["run", "--scenario", "scenario.json", "--out", "from_file"])
    # a pool of two workers, whatever CPUs the host lets this process use
    os.sched_getaffinity = lambda pid: {0, 1}
    _cli(["run", "--scenario", "fig10", "--trials", "2", "--jobs", "2",
          "--out", "jobs"])


def run_benchmark(seed=5):
    import workloads

    for workload in workloads.WORKLOADS.values():
        inputs = workload.setup(seed)
        errors = workload.check(inputs[0], workload.run(inputs[0]))
        if errors:
            raise RuntimeError(f"{workload.name}: {errors}")
    errors = workloads.spot_check(seed)
    if errors:
        raise RuntimeError(f"spot check: {errors}")


def main(workdir):
    os.chdir(workdir)
    sys.path[:0] = [str(ROOT / "tests"), str(ROOT / "perfbench")]
    threading.setprofile(_record)
    sys.setprofile(_record)
    import ris_dps

    with contextlib.redirect_stdout(io.StringIO()):
        run_acceptance()
        run_demos()
        run_cli()
        run_benchmark()
    sys.setprofile(None)
    threading.setprofile(None)
    library = os.path.dirname(os.path.realpath(ris_dps.__file__))
    ran = sorted({(os.path.basename(code.co_filename), code.co_firstlineno)
                  for code in _called
                  if os.path.dirname(os.path.realpath(code.co_filename))
                  == library})
    Path("ran.json").write_text(json.dumps({"library": library, "ran": ran}))


if __name__ == "__main__":
    main(sys.argv[1])
