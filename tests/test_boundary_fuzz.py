"""Mutated scenario and realization documents at the file boundary.

Hypothesis mutates valid documents: a value replaced by one of the wrong
type, a NaN, an infinity, a huge or tiny number, an empty array or a
path-like name; a key dropped; an unknown key added; an array emptied.
Every mutated document either loads or is rejected with a ValueError,
and `ris-dps solve` on a mutated realization file either succeeds or
prints one `ris-dps: error:` line: no other exception and no traceback
reaches the user.
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
from ris_dps.experiments import get_builtin

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
