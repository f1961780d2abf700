import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
from functools import partial

import pytest

from conftest import child_env
from ris_dps import LinkBudget, PhaseShiftSet, experiments
from ris_dps.experiments import (Scenario, builtin_scenarios, get_builtin,
                                 regions_dump, run_scenario, write_meta_json,
                                 write_rows_csv)

PI = math.pi

BUDGET = LinkBudget(-80.0, -60.0, -140.0, 100.0)
TWO_PHASES = PhaseShiftSet((PI / 6, 5 * PI / 6))


def tiny_scenario(**overrides):
    base = dict(name="tiny", budget=BUDGET, n_elements=4, phases=TWO_PHASES,
                axis="n_elements", values=(2, 4), trials=8, seed=99,
                solvers=("sweep", "cpp", "exhaustive"))
    base.update(overrides)
    return Scenario(**base)


class TestScenarioValidation:
    def test_valid(self):
        tiny_scenario().validate()

    def test_bad_trials(self):
        with pytest.raises(ValueError):
            tiny_scenario(trials=0).validate()
        # trial indices run to 2**32 - 1, the sampler's limit
        tiny_scenario(trials=2 ** 32).validate()
        with pytest.raises(ValueError, match="trials must be between 1 and "
                                             r"2\*\*32, got 4294967297"):
            tiny_scenario(trials=2 ** 32 + 1).validate()

    def test_bad_solver(self):
        with pytest.raises(ValueError, match="solvers"):
            tiny_scenario(solvers=("sweep", "annealing")).validate()

    @pytest.mark.parametrize("solvers, repeated", [
        (("sweep", "sweep"), "sweep"),
        (("cpp", "sweep", "cpp", "cpp"), "cpp")])
    def test_repeated_solver(self, solvers, repeated):
        message = f"solvers must name each solver once, got '{repeated}' more"
        with pytest.raises(ValueError, match=message):
            tiny_scenario(solvers=solvers).validate()
        doc = {**tiny_scenario().to_json(), "solvers": list(solvers)}
        with pytest.raises(ValueError, match=message):
            Scenario.from_json(doc)

    @pytest.mark.parametrize("name", [
        "/tmp/x", "../..", "", ".", "..", "a/b",
        *(f"a{sep}b" for sep in (os.sep, os.altsep) if sep and sep != "/")])
    @pytest.mark.parametrize("mode", ["curve", "regions"])
    def test_name_is_a_file_stem(self, name, mode):
        message = (f"^name must be a plain file stem.*"
                   f"got {re.escape(repr(name))}$")
        with pytest.raises(ValueError, match=message):
            tiny_scenario(name=name, mode=mode).validate()
        tiny_scenario(name="fig15_k2.v2 run", mode=mode).validate()

    @pytest.mark.parametrize("mode", ["curve", "regions"])
    def test_name_without_nul(self, mode):
        # rejected before the run, not by open() once it is over
        with pytest.raises(ValueError, match=r"^name must not hold a NUL "
                                             r"character, got 'a\\x00b'$"):
            tiny_scenario(name="a\0b", mode=mode).validate()
        doc = {**tiny_scenario(mode=mode).to_json(), "name": "a\0b"}
        with pytest.raises(ValueError, match="^name must not hold a NUL"):
            Scenario.from_json(doc)

    def test_empty_values(self):
        with pytest.raises(ValueError):
            tiny_scenario(values=()).validate()

    def test_empty_ratio_needs_sweep(self):
        with pytest.raises(ValueError, match="sweep"):
            tiny_scenario(solvers=("cpp",), empty_ratio=True).validate()

    def test_gap_axis_checks_gap_values(self):
        with pytest.raises(ValueError):
            tiny_scenario(axis="phase_gap", values=(2 * PI,),
                          phases=None).validate()
        tiny_scenario(axis="phase_gap", values=(PI / 3,), phases=None).validate()

    @pytest.mark.parametrize("axis, values, bad", [
        ("phase_gap", (1.0, 5e-10), "sweep.values[1]: phases 0 and 1"),
        ("phase_gap", (2 * PI - 1e-12,), "sweep.values[0]: phases 1 and 0"),
        ("phase_gap_pair", ((1.0, 1.0), (1.0, 1e-10)),
         "sweep.values[1]: phases 1 and 2")])
    def test_gap_axis_keeps_phases_angle_eps_apart(self, axis, values, bad):
        scenario = tiny_scenario(axis=axis, values=values, phases=None)
        with pytest.raises(ValueError) as info:
            scenario.validate()
        assert str(info.value).startswith(
            bad.replace(": phases", ": phases must lie at least ANGLE_EPS "
                        "= 1e-09 rad apart, cyclically: phases"))

    def test_missing_phases(self):
        with pytest.raises(ValueError, match="phase set"):
            tiny_scenario(phases=None).validate()

    def test_exhaustive_cap_must_admit_a_point(self):
        with pytest.raises(ValueError, match="cap"):
            tiny_scenario(values=(30, 40), exhaustive_cap=3 ** 8).validate()

    @pytest.mark.parametrize("value", [2.7, True, -1, "3", (2, 3)])
    def test_element_counts_are_non_negative_integers(self, value):
        with pytest.raises(ValueError, match=r"sweep.values\[1\] must be a "
                                             "non-negative integer"):
            tiny_scenario(values=(2, value)).validate()

    def test_element_count_is_checked_off_its_axis(self):
        with pytest.raises(ValueError, match="n_elements must be a "
                                             "non-negative integer, got -4"):
            tiny_scenario(axis="snr_budget_db", values=(90.0,),
                          n_elements=-4).validate()

    def test_unknown_axis(self):
        with pytest.raises(ValueError, match="axis"):
            tiny_scenario(axis="temperature").validate()


def test_scenario_json_roundtrip():
    s = tiny_scenario(empty_ratio=True, solvers=("sweep", "cpp"))
    doc = json.loads(json.dumps(s.to_json()))
    back = Scenario.from_json(doc)
    assert back == s
    with pytest.raises(ValueError, match="schema_version"):
        Scenario.from_json({**doc, "schema_version": 99})


def test_scenario_json_rejects_unknown_keys():
    doc = json.loads(json.dumps(tiny_scenario().to_json()))
    del doc["trials"]
    with pytest.raises(ValueError, match="'trails'"):
        Scenario.from_json({**doc, "trails": 5})
    with pytest.raises(ValueError, match="'colour', 'extra'"):
        Scenario.from_json({**doc, "extra": 1, "colour": "red"})


def test_scenario_json_rejects_nested_typos_and_names_missing_fields():
    doc = json.loads(json.dumps(tiny_scenario().to_json()))
    budget = {**doc["budget"]}
    budget["gain_direct_dB"] = budget.pop("gain_direct_db")
    with pytest.raises(ValueError, match="unknown budget.*'gain_direct_dB'"):
        Scenario.from_json({**doc, "budget": budget})
    with pytest.raises(ValueError, match="unknown sweep key.*'value'"):
        Scenario.from_json({**doc, "sweep": {"axis": "n_elements",
                                             "value": [2]}})
    del budget["gain_direct_dB"], budget["bandwidth_hz"]
    with pytest.raises(ValueError, match="budget is missing "
                                         "'gain_direct_db', 'bandwidth_hz'"):
        Scenario.from_json({**doc, "budget": budget})
    with pytest.raises(ValueError, match="scenario is missing 'seed'"):
        Scenario.from_json({k: v for k, v in doc.items() if k != "seed"})
    with pytest.raises(ValueError, match="budget must be a JSON object"):
        Scenario.from_json({**doc, "budget": 5})


def test_scenario_json_names_unconvertible_fields():
    doc = json.loads(json.dumps(tiny_scenario().to_json()))
    with pytest.raises(ValueError, match="scenario must be a JSON object"):
        Scenario.from_json([1, 2])
    budget = {**doc["budget"], "gain_tx_ris_db": "abc"}
    with pytest.raises(ValueError, match="budget.gain_tx_ris_db must be a "
                                         "number, got 'abc'"):
        Scenario.from_json({**doc, "budget": budget})
    with pytest.raises(ValueError, match=r"phases\[1\] must be a number"):
        Scenario.from_json({**doc, "phases": [0.5, None]})
    for key, value in (("phases", "abc"), ("solvers", "sweep"),
                       ("sweep", {"axis": "n_elements", "values": 4})):
        with pytest.raises(ValueError, match="must be a JSON array"):
            Scenario.from_json({**doc, key: value})


@pytest.mark.parametrize("key,value,message", [
    ("empty_ratio", "no", "empty_ratio must be true or false, got 'no'"),
    ("empty_ratio", 0, "empty_ratio must be true or false, got 0"),
    ("solvers", [["sweep"]], r"solvers\[0\] must be a string, got \['sweep'\]"),
    ("name", 7, "name must be a string, got 7"),
    ("mode", None, "mode must be a string, got None"),
    ("sweep", {"axis": 3, "values": [2]}, "sweep.axis must be a string"),
    ("sweep", {"axis": "n_elements", "values": [2.7]},
     r"sweep.values\[0\] must be a non-negative integer, got 2.7"),
    ("seed", -1, "seed must be a non-negative integer, got -1"),
    ("n_elements", -4, "n_elements must be a non-negative integer, got -4"),
    ("sweep", {"axis": "snr_budget_db", "values": [90.0, 4000.0]},
     r"sweep.values\[1\]: snr_budget_db = 4000.0 dB is out of range"),
    ("sweep", {"axis": "gain_direct_db", "values": [7000.0]},
     r"sweep.values\[0\]: gain_direct_db = 7000.0 dB is out of range"),
    ("sweep", {"axis": "gain_direct_db", "values": [0.0, -7000.0]},
     r"sweep.values\[1\]: gain_direct_db = -7000.0 dB is out of range"),
    ("sweep", {"axis": "snr_budget_db", "values": ["90", True]},
     r"sweep.values\[0\] must be a number, got '90'"),
    ("sweep", {"axis": "snr_budget_db", "values": [90.0, True]},
     r"sweep.values\[1\] must be a number, got True"),
    ("sweep", {"axis": "gain_direct_db", "values": [None]},
     r"sweep.values\[0\] must be a number, got None"),
    ("sweep", {"axis": "phase_gap", "values": [1.0, "2.0"]},
     r"sweep.values\[1\] must be a number, got '2.0'"),
    ("sweep", {"axis": "phase_gap_pair", "values": [[1.0, False]]},
     r"sweep.values\[0\]\[1\] must be a number, got False"),
    ("sweep", {"axis": "phase_gap_pair", "values": [[1.0, 1.0, 1.0]]},
     r"sweep.values\[0\] must be a pair of numbers, got \(1.0, 1.0, 1.0\)"),
    ("sweep", {"axis": "phase_gap_pair", "values": [1.0]},
     r"sweep.values\[0\] must be a pair of numbers, got 1.0"),
    ("sweep", {"axis": "gain_direct_db", "values": [-140.0, 3100.0]},
     r"sweep.values\[1\]: the capacity overflows: .* is not finite at "
     r"snr_budget_db = 100.0, gain_direct_db = 3100.0,"),
    ("budget", {"gain_tx_ris_db": 1500.0, "gain_ris_rx_db": 1600.0,
                "gain_direct_db": -140.0, "snr_budget_db": 0.0,
                "bandwidth_hz": 1.0},
     r"sweep.values\[0\]: the capacity overflows: .*gain_tx_ris_db \+ "
     r"gain_ris_rx_db = 3100.0 and N = 2"),
    ("trials", 2 ** 32 + 1,
     r"trials must be between 1 and 2\*\*32, got 4294967297"),
    ("exhaustive_cap", 0,
     r"exhaustive_cap must be between 1 and 2\*\*24, got 0"),
    ("exhaustive_cap", 4 ** 20,
     r"exhaustive_cap must be between 1 and 2\*\*24, got 1099511627776")])
def test_scenario_json_checks_types(key, value, message):
    doc = json.loads(json.dumps(tiny_scenario().to_json()))
    with pytest.raises(ValueError, match=message):
        Scenario.from_json({**doc, key: value})


def test_scenario_json_rejects_an_empty_ratio_of_no_elements():
    doc = {**json.loads(json.dumps(tiny_scenario().to_json())),
           "solvers": ["sweep"], "empty_ratio": True}
    with pytest.raises(ValueError, match=r"^sweep.values\[1\] must be at "
                                         "least 1 with empty_ratio on, got 0$"):
        Scenario.from_json({**doc, "sweep": {"axis": "n_elements",
                                             "values": [3, 0]}})
    with pytest.raises(ValueError, match="^n_elements must be at least 1 "
                                         "with empty_ratio on, got 0$"):
        Scenario.from_json({**doc, "n_elements": 0, "sweep": {
            "axis": "snr_budget_db", "values": [90.0]}})
    # without the ratio, N = 0 is a valid point
    Scenario.from_json({**doc, "empty_ratio": False,
                        "sweep": {"axis": "n_elements", "values": [0]}})


@pytest.mark.parametrize("value,message", [
    (0, "phases must be a JSON array, got 0"),
    (False, "phases must be a JSON array, got False"),
    ("", "phases must be a JSON array, got ''"),
    ({}, "phases must be a JSON array, got {}"),
    ([], "phase-shift set needs at least one phase")])
def test_scenario_json_phases_are_null_or_an_array(value, message):
    # a gap-axis scenario builds its own sets, and to_json writes null there
    doc = json.loads(json.dumps(tiny_scenario(
        axis="phase_gap", values=(PI / 3,), phases=None).to_json()))
    assert doc["phases"] is None
    assert Scenario.from_json(doc).phases is None
    del doc["phases"]
    assert Scenario.from_json(doc).phases is None
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        Scenario.from_json({**doc, "phases": value})


@pytest.mark.parametrize("value", [0, False, "", [], None])
def test_scenario_json_sweep_is_an_object(value):
    doc = json.loads(json.dumps(tiny_scenario().to_json()))
    with pytest.raises(ValueError, match=re.escape(
            f"sweep must be a JSON object, got {value!r}")):
        Scenario.from_json({**doc, "sweep": value})
    # an absent sweep is the n_elements axis with no values
    regions = tiny_scenario(mode="regions").to_json()
    del regions["sweep"]
    assert Scenario.from_json(regions).values == ()


@pytest.mark.parametrize("key,value", [
    ("seed", 1.9), ("n_elements", 4.7), ("trials", True), ("trials", 8.0),
    ("exhaustive_cap", "64"), ("seed", None)])
def test_scenario_json_integer_fields_are_not_truncated(key, value):
    doc = json.loads(json.dumps(tiny_scenario().to_json()))
    with pytest.raises(ValueError,
                       match=f"{key} must be an integer, got {value!r}"):
        Scenario.from_json({**doc, key: value})


def test_run_scenario_rows():
    rows = run_scenario(tiny_scenario())
    assert [row.x for row in rows] == [(2,), (4,)]
    for row in rows:
        assert set(row.mean_se) == {"sweep", "cpp", "exhaustive"}
        # sweep is optimal: never below cpp, equal to exhaustive
        assert row.gain_pct >= -1e-9
        assert row.mean_se["sweep"] == pytest.approx(
            row.mean_se["exhaustive"], rel=1e-12)
        assert row.std_se["sweep"] >= 0.0


def test_exhaustive_skipped_beyond_cap():
    s = tiny_scenario(values=(2, 12), exhaustive_cap=3 ** 8)
    rows = run_scenario(s)
    assert rows[0].mean_se["exhaustive"] is not None
    assert rows[1].mean_se["exhaustive"] is None


def test_deterministic_rows_and_csv():
    s = tiny_scenario()
    rows_a = run_scenario(s)
    rows_b = run_scenario(s)
    assert rows_a == rows_b
    bufs = []
    for rows in (rows_a, rows_b):
        buf = io.StringIO()
        write_rows_csv(s, rows, buf)
        bufs.append(buf.getvalue())
    assert bufs[0] == bufs[1]


def test_jobs_do_not_change_results(monkeypatch):
    s = tiny_scenario(values=(3,), trials=6)
    assert run_scenario(s, jobs=1) == run_scenario(s, jobs=2)
    # several blocks a point, across points: an snr_budget_db axis solves
    # point 0 only, and 3**5 is over the exhaustive cap at N = 5
    monkeypatch.setattr(experiments, "_BLOCK_LINES", 24)
    snr = tiny_scenario(axis="snr_budget_db", values=(100.0, 110.0, 90.0),
                        trials=7)
    capped = tiny_scenario(values=(2, 5, 4), trials=7, exhaustive_cap=3 ** 4)
    for s in (snr, capped):
        assert run_scenario(s, jobs=1) == run_scenario(s, jobs=2)
    assert run_scenario(capped)[1].mean_se["exhaustive"] is None


class RecordingPool:
    """Stands in for ProcessPoolExecutor; starts no process."""

    def __init__(self, made, max_workers):
        made.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *items):
        return map(fn, *items)


def usable_cpus(monkeypatch, count):
    """The host's usable CPUs as run_scenario reads them: `count` of them."""
    monkeypatch.setattr(os, "sched_getaffinity",
                        lambda pid: set(range(count)), raising=False)


def test_pool_is_capped_at_the_block_count(monkeypatch):
    made = []
    s = tiny_scenario(values=(4,), trials=6)
    serial = run_scenario(s, jobs=1)
    usable_cpus(monkeypatch, 8)
    monkeypatch.setattr(experiments, "ProcessPoolExecutor",
                        partial(RecordingPool, made))
    # N=4 and L=3: 12 lines a trial, at most 2 trials a block; the block
    # count is a multiple of jobs up to one a trial: 6 blocks at jobs=8
    # and 4 at jobs=2
    monkeypatch.setattr(experiments, "_BLOCK_LINES", 24)
    assert run_scenario(s, jobs=8) == serial
    assert run_scenario(s, jobs=2) == serial
    assert made == [6, 2]
    with pytest.raises(ValueError, match="jobs"):
        run_scenario(s, jobs=0)


def test_one_pool_serves_every_point_of_a_run(monkeypatch):
    made = []
    s = tiny_scenario(values=(2, 3, 4), trials=4)
    serial = run_scenario(s, jobs=1)
    usable_cpus(monkeypatch, 8)
    monkeypatch.setattr(experiments, "ProcessPoolExecutor",
                        partial(RecordingPool, made))
    # L=3 lines an element and 24 lines a block: 2 trials a block at the
    # widest point, N = 4; at jobs=8 the 4 trials make 4 blocks, each
    # serving all 3 points
    monkeypatch.setattr(experiments, "_BLOCK_LINES", 24)
    assert run_scenario(s, jobs=1) == serial
    assert made == []
    assert run_scenario(s, jobs=8) == serial
    assert made == [4]


def test_workers_are_capped_at_the_usable_cpus(monkeypatch):
    made, draws = [], []
    s = tiny_scenario(values=(4,), trials=6)
    serial = run_scenario(s, jobs=1)
    draw = experiments.sample_realization
    monkeypatch.setattr(experiments, "sample_realization",
                        lambda *a: draws.append(a[-1][1]) or draw(*a))
    monkeypatch.setattr(experiments, "ProcessPoolExecutor",
                        partial(RecordingPool, made))
    # N=4 and L=3: 12 lines a trial, at most 2 trials a block
    monkeypatch.setattr(experiments, "_BLOCK_LINES", 24)

    def cut(jobs):
        draws.clear()
        assert run_scenario(s, jobs=jobs) == serial
        return [len(r) for r in draws]

    # 3 CPUs: 3 workers at jobs=8, and 3 blocks, a multiple of them
    usable_cpus(monkeypatch, 3)
    assert cut(8) == [2, 2, 2] and made == [3]
    # one CPU: no pool, and the blocks of jobs=1
    usable_cpus(monkeypatch, 1)
    assert cut(2) == [2, 2, 2] and made == [3]
    # no affinity mask: os.cpu_count(), and 1 where it is unknown
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    assert cut(8) == [1, 2, 1, 2] and made == [3, 4]
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert cut(8) == [2, 2, 2] and made == [3, 4]

    # jobs=1 never asks for the CPU count
    def unreachable(*args):
        raise AssertionError("jobs=1 read the CPU count")

    monkeypatch.setattr(os, "sched_getaffinity", unreachable, raising=False)
    monkeypatch.setattr(os, "cpu_count", unreachable)
    assert cut(1) == [2, 2, 2] and made == [3, 4]


def test_a_block_is_drawn_once_for_every_point(monkeypatch):
    s = tiny_scenario(axis="phase_gap", values=(PI / 2, PI, 3 * PI / 2),
                      phases=None, solvers=("sweep", "cpp"), trials=7)
    rows = run_scenario(s)
    draws = []
    draw = experiments.sample_realization
    monkeypatch.setattr(experiments, "sample_realization",
                        lambda *a: draws.append(a[-1][1]) or draw(*a))
    # N=4 and L=3 at 3*pi/2: 12 lines a trial, 2 trials a block, 4 blocks
    monkeypatch.setattr(experiments, "_BLOCK_LINES", 24)
    assert run_scenario(s) == rows
    assert draws == [range(0, 1), range(1, 3), range(3, 5), range(5, 7)]


def test_every_point_keeps_the_element_amplitude(monkeypatch):
    # an axis of a hop gain would change |v_n|, which a block draws once
    monkeypatch.setattr(experiments, "AXES",
                        experiments.AXES + ("gain_tx_ris_db",))
    s = tiny_scenario(axis="gain_tx_ris_db", solvers=("sweep",),
                      values=(BUDGET.gain_tx_ris_db, -70.0))
    with pytest.raises(ValueError, match=r"^sweep.values\[1\]: every point "
                                         r"must keep the element amplitude"):
        s.validate()


def test_empty_ratio_column():
    s = tiny_scenario(solvers=("sweep",), empty_ratio=True, values=(6,))
    (row,) = run_scenario(s)
    assert 0.0 < row.empty_ratio < 1.0
    assert row.gain_pct is None


def test_snr_axis_reuses_realizations():
    # the channel is independent of the SNR budget, so the per-trial
    # amplitudes (hence gains) must come from the same realizations
    s = tiny_scenario(axis="snr_budget_db", values=(100.0, 100.0),
                      solvers=("sweep", "cpp"), n_elements=5)
    rows = run_scenario(s)
    assert rows[0].mean_se == rows[1].mean_se


_BIG = 10 ** 9
_ON_THE_CAP = 2 ** 24 // 3  # N*(K+1) = 2**24 - 1 with TWO_PHASES (K = 2)


@pytest.mark.parametrize("overrides, message", [
    (dict(values=(4, _BIG)), r"^sweep.values\[1\]: n_elements = 1000000000 "
                             r"gives N\*\(K\+1\) = 3000000000 separation "
                             r"lines per trial at K = 2, more than 2\*\*24$"),
    (dict(values=(_ON_THE_CAP, _ON_THE_CAP + 1)),
     r"^sweep.values\[1\]: n_elements = 5592406 gives N\*\(K\+1\) = "
     r"16777218 "),
    (dict(values=(10 ** 400,)), r"^sweep.values\[0\]: n_elements = 1000"),
    (dict(axis="phase_gap", values=(PI / 2, PI), n_elements=_BIG),
     r"^sweep.values\[0\]: n_elements = 1000000000 gives N\*\(K\+1\) = "
     r"3000000000 separation lines per trial at K = 2, more than 2\*\*24$"),
    (dict(axis="snr_budget_db", values=(90.0,), n_elements=_BIG,
          solvers=("sweep",)), r"^sweep.values\[0\]: n_elements = "),
    (dict(mode="regions", n_elements=_BIG, solvers=("sweep",)),
     r"^n_elements = 1000000000 gives N\*\(K\+1\) = 3000000000 "),
], ids=["axis", "one-past-the-cap", "int-beyond-float", "fixed-on-gap-axis",
        "fixed-on-snr-axis", "regions"])
def test_trial_size_is_bounded_before_sampling(monkeypatch, overrides,
                                               message):
    def unreachable(*args, **kwargs):
        raise AssertionError("the sampler ran")

    monkeypatch.setattr(experiments, "sample_realization", unreachable)
    s = tiny_scenario(**{"solvers": ("sweep", "cpp"), **overrides})
    run = regions_dump if s.mode == "regions" else run_scenario
    for call in (s.validate, lambda: run(s),
                 lambda: Scenario.from_json(json.loads(
                     json.dumps(s.to_json())))):
        with pytest.raises(ValueError, match=message):
            call()


def test_a_trial_on_the_line_cap_passes():
    plan = tiny_scenario(values=(_ON_THE_CAP,), solvers=("sweep",)).validate()
    assert plan[0][1] * (plan[0][2].k + 1) == 2 ** 24 - 1


def test_capacity_underflow_names_the_point():
    s = tiny_scenario(axis="snr_budget_db", values=(100.0, -300.0),
                      solvers=("sweep", "cpp"))
    with pytest.raises(ValueError, match=r"sweep.values\[1\] = -300.0: every "
                                         r"cpp capacity rounds to 0 at "
                                         r"snr_budget_db = -300.0 dB"):
        run_scenario(s)


def test_phase_gap_axis_builds_pair_sets():
    s = tiny_scenario(axis="phase_gap", values=(PI / 2, PI), phases=None,
                      solvers=("sweep", "cpp"), n_elements=6, trials=5)
    rows = run_scenario(s)
    assert len(rows) == 2
    s2 = tiny_scenario(axis="phase_gap_pair",
                       values=((2 * PI / 3, 2 * PI / 3),), phases=None,
                       solvers=("sweep", "cpp"), n_elements=6, trials=5)
    (row,) = run_scenario(s2)
    assert len(row.x) == 2


def test_csv_header_layout():
    s = tiny_scenario(solvers=("sweep", "cpp", "exhaustive"))
    rows = run_scenario(s)
    buf = io.StringIO()
    write_rows_csv(s, rows, buf)
    header = buf.getvalue().splitlines()[0].split(",")
    assert header == ["x", "mean_se_sweep", "std_se_sweep", "mean_se_cpp",
                      "std_se_cpp", "mean_se_exhaustive", "std_se_exhaustive",
                      "gain_pct"]

    s2 = tiny_scenario(axis="phase_gap_pair", values=((PI / 2, PI / 2),),
                       phases=None, solvers=("sweep", "cpp"), trials=2,
                       empty_ratio=True)
    buf = io.StringIO()
    write_rows_csv(s2, run_scenario(s2), buf)
    header = buf.getvalue().splitlines()[0].split(",")
    assert header[:2] == ["x", "x2"]
    assert header[-2:] == ["gain_pct", "empty_ratio"]


def test_meta_sidecar():
    s = tiny_scenario()
    buf = io.StringIO()
    write_meta_json(s, buf, jobs=3)
    doc = json.loads(buf.getvalue())
    assert doc["seed"] == 99
    assert doc["jobs"] == 3
    assert doc["scenario"]["name"] == "tiny"
    assert "generated_at" in doc


def _git(*args, cwd):
    return subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t",
                           *args], cwd=cwd, capture_output=True, text=True)


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
def test_meta_sidecar_describes_the_package_checkout(tmp_path, monkeypatch):
    # run from inside an unrelated repository: its hash must not be recorded
    assert _git("init", "-q", cwd=tmp_path).returncode == 0
    assert _git("commit", "-q", "--allow-empty", "-m", "other",
                cwd=tmp_path).returncode == 0
    other = _git("rev-parse", "HEAD", cwd=tmp_path).stdout.strip()
    monkeypatch.chdir(tmp_path)
    buf = io.StringIO()
    write_meta_json(tiny_scenario(), buf)
    described = json.loads(buf.getvalue())["git_describe"]
    assert described is None or not other.startswith(
        described.removesuffix("-dirty"))
    package_dir = os.path.dirname(experiments.__file__)
    in_checkout = _git("rev-parse", "HEAD", cwd=package_dir).returncode == 0
    assert (described is not None) == in_checkout


#: Modules that only a worker pool or the sidecar's git call needs.
LAZY_MODULES = ("multiprocessing", "concurrent.futures",
                "concurrent.futures.process", "subprocess")


@pytest.mark.parametrize("module", ["ris_dps", "ris_dps.cli"])
def test_import_loads_no_pool_and_no_subprocess(module):
    script = (f"import sys, {module}\n"
              "print(sorted(set(sys.argv[1:]) & set(sys.modules)))\n"
              "import concurrent.futures, ris_dps.experiments as e\n"
              "print(e.ProcessPoolExecutor\n"
              "      is concurrent.futures.ProcessPoolExecutor)\n")
    out = subprocess.run([sys.executable, "-c", script, *LAZY_MODULES],
                         capture_output=True, text=True, env=child_env(),
                         timeout=60, check=True)
    assert out.stdout.splitlines() == ["[]", "True"]


def test_builtin_presets_validate():
    presets = builtin_scenarios()
    names = [s.name for s in presets]
    assert names == ["fig9", "fig10", "fig11", "fig12", "fig13", "fig14",
                     "fig15_k2", "fig15_k3"]
    for s in presets:
        s.validate()


def test_get_builtin_lookup():
    assert [s.name for s in get_builtin("fig15")] == ["fig15_k2", "fig15_k3"]
    assert get_builtin("fig12")[0].axis == "phase_gap"
    with pytest.raises(KeyError):
        get_builtin("fig99")


def test_fig13_grid_contains_uniform_point():
    s = get_builtin("fig13")[0]
    assert any(abs(g1 - 2 * PI / 3) < 1e-12 and abs(g2 - 2 * PI / 3) < 1e-12
               for g1, g2 in s.values)


def test_regions_dump_matches_line_count():
    s = get_builtin("fig14")[0]
    regions = regions_dump(s)
    assert regions.half_width.shape == (3, 50)  # K+1 = 3 lines each
    with pytest.raises(ValueError):
        regions_dump(tiny_scenario())
