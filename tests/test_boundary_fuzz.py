"""Mutated scenario and realization documents at the file boundary.

Hypothesis mutates valid documents: a value replaced by one of the wrong
type, a NaN, an infinity, a huge or tiny number, an empty array or a
path-like name; a key dropped; an unknown key added; an array emptied.
Every mutated document either loads or is rejected with a ValueError,
and `ris-dps solve` on a mutated realization file either succeeds or
prints one `ris-dps: error:` line: no other exception and no traceback
reaches the user.  The argv of `solve`, `regions` and `run` is mutated
too (phase lists, solver names, SNR budgets, bandwidths, job and trial
counts, seeds, output paths): each call exits 0, 1 with one error line,
or 2 from argparse, and writes only where its --out points; a bad SNR
budget or bandwidth never exits 0.
"""

import copy
import io
import json
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from ris_dps import (ChannelRealization, LinkBudget, Scenario,
                     sample_realization)
from ris_dps.cli import main
from ris_dps.experiments import SOLVERS, get_builtin

_SCENARIO = get_builtin("fig13")[0].to_json()
_REALIZATION = sample_realization(LinkBudget(-80.0, -60.0, -140.0, 100.0), 4,
                                  (5, 0)).to_json()

_NAMES = ["", ".", "..", "../..", "/tmp/x", "a/b", "a\\b", "~", "C:\\x",
          "x\x00y", "fig13", "sweep", "n_elements", "re", "im"]
_NUMBERS = st.one_of(
    st.integers(-2 ** 70, 2 ** 70),
    st.sampled_from([0, 1, -1, 2 ** 24 + 1, 10 ** 400, -10 ** 400]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([1e308, -1e308, 5e-324, 0.0, -0.0, 1e-300]))
_SCALARS = st.one_of(st.none(), st.booleans(), _NUMBERS,
                     st.sampled_from(_NAMES), st.text(max_size=6))
_VALUES = st.recursive(
    _SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.one_of(st.sampled_from(_NAMES),
                                  st.text(max_size=4)), inner, max_size=3)),
    max_leaves=6)


def _paths(doc, prefix=()):
    """The path (keys and indices) of every node of a JSON document."""
    yield prefix
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from _paths(value, prefix + (key,))
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            yield from _paths(value, prefix + (i,))


def _node(doc, path):
    for step in path:
        doc = doc[step]
    return doc


@st.composite
def _mutated(draw, base):
    """base with one to three mutations, each at a node drawn anew."""
    doc = copy.deepcopy(base)
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(doc))))
        node = _node(doc, path)
        kind = draw(st.sampled_from(["replace", "drop", "add", "empty"]))
        if kind == "add" and isinstance(node, dict):
            node[draw(st.one_of(st.sampled_from(_NAMES),
                                st.text(max_size=4)))] = draw(_VALUES)
        elif kind == "empty" and isinstance(node, (dict, list)):
            node.clear()
        elif kind == "drop" and path:
            del _node(doc, path[:-1])[path[-1]]
        elif not path:
            doc = draw(_VALUES)
        else:
            _node(doc, path[:-1])[path[-1]] = draw(_VALUES)
    return doc


def _loads_or_value_error(parse, doc) -> None:
    try:
        parse(doc)
    except ValueError:
        pass


_FUZZ = settings(max_examples=300, deadline=None,
                 suppress_health_check=[HealthCheck.too_slow])


@_FUZZ
@given(_mutated(_SCENARIO))
@example({**_SCENARIO, "sweep": {"axis": "n_elements", "values": [[1, 2]]}})
@example({**_SCENARIO, "sweep": {"axis": "gap_1", "values": [{"a": 1}]}})
@example({**_SCENARIO, "n_elements": 10 ** 400})
@example({**_SCENARIO, "name": "../.."})
@example([_SCENARIO])
def test_scenario_documents_load_or_raise_value_error(doc):
    _loads_or_value_error(Scenario.from_json, doc)


@_FUZZ
@given(_mutated(_REALIZATION))
@example({**_REALIZATION, "v": []})
@example({**_REALIZATION, "h_d": {"re": 1e308, "im": 1e308}})
@example({**_REALIZATION, "v": [{"re": 1e308, "im": 0.0}] * 3})
def test_realization_documents_load_or_raise_value_error(doc):
    _loads_or_value_error(ChannelRealization.from_json, doc)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_mutated(_REALIZATION),
       st.sampled_from(["sweep", "cpp", "cpp_always_on", "exhaustive"]),
       st.sampled_from([[], ["--snr-budget-db", "140"],
                        ["--snr-budget-db", "1e400"],
                        ["--snr-budget-db", "nan"]]))
@example({**_REALIZATION, "v": []}, "sweep", [])
@example({**_REALIZATION, "h_d": {"re": 0.0, "im": 0.0}}, "cpp", [])
@example({**_REALIZATION, "v": [{"re": 1e-300, "im": 0.0}] * 4}, "sweep",
         ["--snr-budget-db", "140"])
@example({**_REALIZATION, "h_d": {"re": 0.0, "im": 0.0},
          "v": [{"re": 1e-310, "im": 0.0}]}, "exhaustive", [])
def test_solve_on_a_mutated_file_succeeds_or_prints_one_error(doc, solver,
                                                              extra):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "real.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            rc = main(["solve", "--input", path, "--phases", "pi/6,5pi/6",
                       "--solver", solver, *extra])
        assert os.listdir(tmp) == ["real.json"]
    if rc == 0:
        assert err.getvalue() == ""
        assert "amplitude" in json.loads(out.getvalue())
    else:
        assert rc == 1
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("ris-dps: error: ")
        assert "Traceback" not in err.getvalue()
        assert out.getvalue() == ""


def _exit_code(argv) -> tuple:
    """(exit code, stdout, stderr) of cli.main; argparse exits with 2."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
    return rc, out.getvalue(), err.getvalue()


def _files(root) -> set:
    """Every file under root, relative to it."""
    return {os.path.relpath(os.path.join(d, f), root)
            for d, _, names in os.walk(root) for f in names}


@st.composite
def _options(draw, options):
    """One value per option: a valid one, except at up to two options,
    which take one of their mutated values.  None leaves an option out."""
    chosen = {key: draw(st.sampled_from(good))
              for key, (good, _) in options.items()}
    for key in draw(st.sets(st.sampled_from(sorted(options)), max_size=2)):
        chosen[key] = draw(st.sampled_from(options[key][1]))
    return chosen


#: Paths are relative to a temporary root that holds real.json and the
#: plain file "taken".
_SOLVE = {
    "--input": (["real.json"], ["missing.json", "taken"]),
    "--phases": (["pi/6,5pi/6", "0,pi/2,pi", "0.3"],
                 ["pi/0", "", " , ", "1e400", "1,0.5", "pi,pi", "7", "-1",
                  "nan", "x"]),
    "--solver": ([s for s in SOLVERS if s != "continuous_ub"],
                 ["continuous_ub", "nosuch"]),
    "--snr-budget-db": ([None, "140", "-20"], ["1e400", "nan", "inf", "x"]),
    "--bandwidth-hz": ([None, "1", "2e7"], ["0", "-5", "nan", "inf", "x"]),
    "--out": ([None, "out", "a/b/out"], [".", "taken", "taken/out"]),
}
#: The options of solve that regions does not take.
_SOLVE_ONLY = ("--solver", "--snr-budget-db", "--bandwidth-hz")
_RUN = {
    "--scenario": (["fig11", "fig14"], ["nosuch"]),
    "--jobs": (["1", "2"], ["0", "-1", "x"]),
    "--trials": (["2", "1"], ["0", "-3", "4294967297", "1e3"]),
    "--seed": ([None, "0", str(2 ** 70), str(10 ** 40)], ["-5", "x"]),
    "--out": (["out", "a/b/out", "."], ["taken", "taken/out"]),
}
_ARGV = settings(max_examples=100, deadline=None,
                 suppress_health_check=[HealthCheck.too_slow])


def _argv(tmp, command, options) -> list:
    """The command's argv, with its --input and --out paths under tmp."""
    argv = [command]
    for key, value in options.items():
        if value is not None:
            argv += [key, os.path.join(tmp, value)
                     if key in ("--input", "--out") else value]
    return argv


def _check_exit(rc, err) -> None:
    """Exit 0, 1 with exactly one error line, or argparse's 2."""
    assert rc in (0, 1, 2)
    assert "Traceback" not in err
    errors = [ln for ln in err.splitlines() if ln.startswith("ris-dps: error:")]
    assert len(errors) == (1 if rc == 1 else 0)


@_ARGV
@given(st.sampled_from(["solve", "regions"]), _options(_SOLVE), st.booleans())
@example("solve", {"--input": "real.json", "--phases": "pi/6,5pi/6",
                   "--solver": "continuous_ub", "--snr-budget-db": None,
                   "--bandwidth-hz": None, "--out": None}, False)
@example("solve", {"--input": "real.json", "--phases": "pi/6,5pi/6",
                   "--solver": "sweep", "--snr-budget-db": None,
                   "--bandwidth-hz": "nan", "--out": "out"}, False)
@example("regions", {"--input": "real.json", "--phases": "pi/0",
                     "--solver": "sweep", "--snr-budget-db": "140",
                     "--bandwidth-hz": "2e7", "--out": "a/b/out"}, True)
@example("solve", {"--input": "real.json", "--phases": "0.3",
                   "--solver": "cpp", "--snr-budget-db": "-20",
                   "--bandwidth-hz": "1", "--out": "a/b/out"}, False)
def test_solve_and_regions_argv_exit_cleanly(command, options, upper_bound):
    if command == "regions":
        for key in _SOLVE_ONLY:
            del options[key]
    with tempfile.TemporaryDirectory() as tmp:
        with open(os.path.join(tmp, "real.json"), "w") as fh:
            json.dump(_REALIZATION, fh)
        with open(os.path.join(tmp, "taken"), "w") as fh:
            fh.write("kept\n")
        argv = _argv(tmp, command, options)
        if command == "regions" and upper_bound:
            argv.append("--use-upper-bound")
        rc, out, err = _exit_code(argv)
        written = _files(tmp) - {"real.json", "taken"}
    _check_exit(rc, err)
    if all(value in _SOLVE[key][0] for key, value in options.items()):
        assert rc == 0  # only valid values: missing --out parents are made
    if any(options.get(key) not in _SOLVE[key][0]
           for key in ("--snr-budget-db", "--bandwidth-hz")):
        assert rc != 0  # a bad budget or bandwidth is refused
    if options.get("--solver") == "continuous_ub":
        assert rc == 2  # a bound, not a configuration solver
    target = options["--out"]
    if rc == 0 and target not in (None, "taken"):
        assert written == {os.path.normpath(target)}
    else:
        assert written == set()
    assert bool(out) == (rc == 0 and target is None)


@_ARGV
@given(_options(_RUN))
@example({"--scenario": "nosuch", "--jobs": "1", "--trials": "2",
          "--seed": None, "--out": "out"})
@example({"--scenario": "fig11", "--jobs": "2", "--trials": "2",
          "--seed": str(2 ** 70), "--out": "a/b/out"})
def test_run_argv_exits_cleanly_and_writes_only_under_out(options):
    with tempfile.TemporaryDirectory() as tmp:
        with open(os.path.join(tmp, "taken"), "w") as fh:
            fh.write("kept\n")
        rc, out, err = _exit_code(_argv(tmp, "run", options))
        written = _files(tmp) - {"taken"}
    _check_exit(rc, err)
    assert out == ""
    if rc == 0:
        stem = os.path.join(options["--out"], options["--scenario"])
        assert written == {os.path.normpath(stem + ext)
                           for ext in (".csv", ".meta.json")}
    else:
        assert written == set()
