import json
import math
import subprocess
import sys

import pytest

from conftest import child_env
from ris_dps import LinkBudget, cli, sample_realization
from ris_dps.cli import main, parse_phases

PI = math.pi


def test_parse_phases():
    ps = parse_phases("pi/6, 5pi/6")
    assert ps.phases == pytest.approx((PI / 6, 5 * PI / 6))
    assert parse_phases("0.5,1.5").phases == (0.5, 1.5)
    assert parse_phases("0,2pi/3,1.5pi").phases == pytest.approx(
        (0.0, 2 * PI / 3, 1.5 * PI))
    with pytest.raises(ValueError, match="parse"):
        parse_phases("pi/6,banana")


@pytest.mark.parametrize("cmd", [["solve", "--solver", "sweep"], ["regions"]])
@pytest.mark.parametrize("token", ["pi/0", "0pi/0", "2pi / 0.0"])
def test_zero_phase_denominator_is_an_error_line(realization_file, capsys,
                                                 cmd, token):
    rc = main(cmd + ["--input", str(realization_file),
                     "--phases", f"0.1, {token}"])
    assert rc == 1
    assert capsys.readouterr().err == (
        f"ris-dps: error: cannot parse phase {token!r}: zero denominator\n")


@pytest.fixture
def realization_file(tmp_path):
    real = sample_realization(LinkBudget(-80.0, -60.0, -140.0, 100.0), 6,
                              (123, 0))
    path = tmp_path / "real.json"
    with open(path, "w") as fh:
        json.dump(real.to_json(), fh)
    return path


def test_solve_command(realization_file, capsys):
    rc = main(["solve", "--input", str(realization_file),
               "--phases", "pi/6,5pi/6", "--solver", "sweep"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["solver"] == "sweep"
    assert len(doc["config"]) == 6
    assert doc["amplitude"] > 0
    assert "capacity_bps" not in doc


def test_solve_with_budget_reports_capacity(realization_file, capsys):
    rc = main(["solve", "--input", str(realization_file),
               "--phases", "pi/6,5pi/6", "--solver", "exhaustive",
               "--snr-budget-db", "140"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["capacity_bps"] > 0


def test_solve_agrees_across_solvers(realization_file, capsys):
    amps = {}
    for solver in ("sweep", "exhaustive", "cpp", "cpp_always_on"):
        main(["solve", "--input", str(realization_file),
              "--phases", "pi/6,5pi/6", "--solver", solver])
        amps[solver] = json.loads(capsys.readouterr().out)["amplitude"]
    assert amps["sweep"] == pytest.approx(amps["exhaustive"], rel=1e-12)
    assert amps["cpp"] <= amps["sweep"] * (1 + 1e-12)


@pytest.mark.parametrize("budget", [[], ["--snr-budget-db", "90"]])
@pytest.mark.parametrize("bandwidth", ["-5", "0", "nan", "inf"])
def test_solve_rejects_a_bandwidth_that_is_not_positive_and_finite(
        realization_file, capsys, budget, bandwidth):
    # Without a budget the value was never read, and the call exited 0.
    rc = main(["solve", "--input", str(realization_file), "--phases",
               "pi/6,5pi/6", "--solver", "sweep", "--bandwidth-hz",
               bandwidth] + budget)
    assert rc == 1
    out, err = capsys.readouterr()
    assert out == "" and err == (
        "ris-dps: error: --bandwidth-hz must be positive and finite\n")


def test_regions_command(realization_file, capsys):
    rc = main(["regions", "--input", str(realization_file),
               "--phases", "pi/6,5pi/6"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "center_rad,half_width_rad,element,kind"
    assert len(lines) == 1 + 6 * 3


def test_regions_upper_bound_narrows(realization_file, capsys):
    main(["regions", "--input", str(realization_file),
          "--phases", "pi/6,5pi/6"])
    sweep_rows = capsys.readouterr().out.splitlines()[1:]
    main(["regions", "--input", str(realization_file),
          "--phases", "pi/6,5pi/6", "--use-upper-bound"])
    ub_rows = capsys.readouterr().out.splitlines()[1:]
    for s_row, u_row in zip(sweep_rows, ub_rows):
        assert float(u_row.split(",")[1]) <= float(s_row.split(",")[1])


def scenario_doc(seed=31):
    return {
        "schema_version": 1,
        "name": "smoke",
        "budget": {"gain_tx_ris_db": -80.0, "gain_ris_rx_db": -60.0,
                   "gain_direct_db": -140.0, "snr_budget_db": 100.0,
                   "bandwidth_hz": 1.0},
        "n_elements": 4,
        "phases": [PI / 6, 5 * PI / 6],
        "sweep": {"axis": "n_elements", "values": [2, 4]},
        "trials": 6,
        "seed": seed,
        "solvers": ["sweep", "cpp"],
    }


def test_run_command_byte_identical(tmp_path):
    spath = tmp_path / "smoke.json"
    spath.write_text(json.dumps(scenario_doc()))
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--scenario", str(spath), "--out", str(out_a)]) == 0
    assert main(["run", "--scenario", str(spath), "--out", str(out_b)]) == 0
    csv_a = (out_a / "smoke.csv").read_bytes()
    csv_b = (out_b / "smoke.csv").read_bytes()
    assert csv_a == csv_b
    meta = json.loads((out_a / "smoke.meta.json").read_text())
    assert meta["scenario"]["trials"] == 6


def test_run_command_seed_override_changes_output(tmp_path):
    spath = tmp_path / "smoke.json"
    spath.write_text(json.dumps(scenario_doc()))
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    main(["run", "--scenario", str(spath), "--out", str(out_a)])
    main(["run", "--scenario", str(spath), "--out", str(out_b),
          "--seed", "77"])
    assert ((out_a / "smoke.csv").read_bytes()
            != (out_b / "smoke.csv").read_bytes())


def test_run_preset_regions_mode(tmp_path):
    rc = main(["run", "--scenario", "fig14", "--out", str(tmp_path)])
    assert rc == 0
    lines = (tmp_path / "fig14.csv").read_text().splitlines()
    assert len(lines) == 1 + 150


def test_unknown_preset_fails_cleanly(tmp_path, capsys):
    rc = main(["run", "--scenario", "fig99", "--out", str(tmp_path)])
    assert rc == 1
    assert "error" in capsys.readouterr().err


def test_unknown_preset_message_is_printed_unquoted(tmp_path, capsys):
    assert main(["run", "--scenario", "nosuch", "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == (
        "ris-dps: error: unknown preset 'nosuch'; available: fig9, fig10, "
        "fig11, fig12, fig13, fig14, fig15_k2, fig15_k3, fig15\n")


def test_invalid_scenario_fails_cleanly(tmp_path, capsys):
    spath = tmp_path / "bad.json"
    doc = scenario_doc()
    doc["trials"] = 0
    spath.write_text(json.dumps(doc))
    rc = main(["run", "--scenario", str(spath), "--out", str(tmp_path)])
    assert rc == 1
    assert "trials" in capsys.readouterr().err


def test_scenario_name_cannot_leave_out_dir(tmp_path, capsys):
    spath = tmp_path / "escape.json"
    spath.write_text(json.dumps({**scenario_doc(), "name": "../escape"}))
    out = tmp_path / "deep" / "out"
    rc = main(["run", "--scenario", str(spath), "--out", str(out)])
    assert rc == 1
    assert "name must be a plain file stem" in capsys.readouterr().err
    assert [p.name for p in tmp_path.rglob("*")] == ["escape.json"]


def test_missing_json_field_names_file_and_field(realization_file, tmp_path,
                                                  capsys):
    doc = json.loads(realization_file.read_text())
    del doc["h_d"]
    bad_real = tmp_path / "no_h_d.json"
    bad_real.write_text(json.dumps(doc))
    for cmd in (["solve", "--solver", "sweep"], ["regions"]):
        rc = main(cmd + ["--input", str(bad_real), "--phases", "pi/6,5pi/6"])
        assert rc == 1
        err = capsys.readouterr().err
        assert str(bad_real) in err and "missing 'h_d'" in err

    scenario = scenario_doc()
    del scenario["budget"]["bandwidth_hz"]
    spath = tmp_path / "no_bandwidth.json"
    spath.write_text(json.dumps(scenario))
    rc = main(["run", "--scenario", str(spath), "--out", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert str(spath) in err and "missing 'bandwidth_hz'" in err


def test_non_object_json_fails_cleanly(realization_file, tmp_path, capsys):
    spath = tmp_path / "list.json"
    spath.write_text("[1, 2]")
    assert main(["run", "--scenario", str(spath), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("ris-dps: error:")
    assert str(spath) in err and "scenario must be a JSON object" in err

    bad_real = tmp_path / "one.json"
    bad_real.write_text("[1]")
    assert main(["solve", "--input", str(bad_real), "--phases", "pi/6,5pi/6",
                 "--solver", "sweep"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("ris-dps: error:")
    assert "realization must be a JSON object" in err

    doc = json.loads(realization_file.read_text())
    doc["h_d"] = {"re": "x", "im": 0}
    bad_real.write_text(json.dumps(doc))
    assert main(["solve", "--input", str(bad_real), "--phases", "pi/6,5pi/6",
                 "--solver", "sweep"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("ris-dps: error:")
    assert "h_d.re must be a number, got 'x'" in err


def test_unconvertible_field_is_named(tmp_path, capsys):
    doc = scenario_doc()
    doc["budget"]["gain_tx_ris_db"] = "abc"
    spath = tmp_path / "t.json"
    spath.write_text(json.dumps(doc))
    assert main(["run", "--scenario", str(spath), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert f"{spath}: budget.gain_tx_ris_db must be a number, got 'abc'" in err


@pytest.mark.parametrize("jobs", ["0", "-2", "two"])
def test_jobs_below_one_is_rejected(tmp_path, capsys, jobs):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--scenario", "fig9", "--out", str(tmp_path),
              "--jobs", jobs])
    assert exc.value.code == 2
    assert "argument --jobs" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("key,value,message", [
    ("sweep", {"axis": "n_elements", "values": [2.7]},
     "sweep.values[0] must be a non-negative integer, got 2.7"),
    ("empty_ratio", "no", "empty_ratio must be true or false, got 'no'"),
    ("solvers", [["sweep"]], "solvers[0] must be a string, got ['sweep']"),
    ("seed", -1, "seed must be a non-negative integer, got -1"),
    ("n_elements", -4, "n_elements must be a non-negative integer, got -4"),
    ("trials", 2 ** 32 + 1,
     "trials must be between 1 and 2**32, got 4294967297")])
def test_mistyped_scenario_field_is_named(tmp_path, capsys, key, value,
                                          message):
    spath = tmp_path / "t.json"
    spath.write_text(json.dumps({**scenario_doc(), key: value}))
    assert main(["run", "--scenario", str(spath), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("ris-dps: error:")
    assert f"{spath}: {message}" in err
    assert not (tmp_path / "smoke.csv").exists()


def test_negative_seed_option_is_named(tmp_path, capsys):
    assert main(["run", "--scenario", "fig11", "--fast", "--seed", "-3",
                 "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "ris-dps: error: seed must be a non-negative integer, got -3" in err
    assert not (tmp_path / "fig11.csv").exists()


def test_trials_option_is_checked_like_the_field(tmp_path, capsys):
    assert main(["run", "--scenario", "fig11", "--trials", "4294967297",
                 "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err == ("ris-dps: error: trials must be between 1 and 2**32, "
                   "got 4294967297\n")
    assert not (tmp_path / "fig11.csv").exists()


def test_run_time_error_names_the_scenario_file_once(tmp_path, capsys):
    doc = {**scenario_doc(), "sweep": {"axis": "snr_budget_db",
                                       "values": [-300.0]}}
    spath = tmp_path / "low.json"
    spath.write_text(json.dumps(doc))
    assert main(["run", "--scenario", str(spath), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert (f"\nris-dps: error: {spath}: sweep.values[0] = -300.0: every "
            "cpp capacity rounds to 0") in err
    assert err.count(str(spath)) == 1
    # a load error is named by the reader; the runner adds no second name
    spath.write_text(json.dumps({**doc, "trials": 0}))
    assert main(["run", "--scenario", str(spath), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"ris-dps: error: {spath}: trials must be")
    assert err.count(str(spath)) == 1
    # a bad option is not the file's fault
    spath.write_text(json.dumps(doc))
    assert main(["run", "--scenario", str(spath), "--out", str(tmp_path),
                 "--trials", "0"]) == 1
    assert capsys.readouterr().err == ("ris-dps: error: trials must be "
                                       "between 1 and 2**32, got 0\n")


@pytest.mark.parametrize("override", [["--trials", "0"], ["--seed", "-3"],
                                      ["--fast", "--trials", "4294967297"]])
def test_bad_override_leaves_no_out_directory(tmp_path, capsys, override):
    # every scenario of the preset is checked before --out is made
    out = tmp_path / "new" / "x"
    assert main(["run", "--scenario", "fig15", "--out", str(out),
                 *override]) == 1
    assert capsys.readouterr().err.startswith("ris-dps: error: ")
    assert not (tmp_path / "new").exists()


def test_solve_rejects_phases_closer_than_angle_eps(realization_file, capsys):
    assert main(["solve", "--input", str(realization_file), "--phases",
                 "0,1e-12", "--solver", "sweep"]) == 1
    assert capsys.readouterr().err == (
        "ris-dps: error: phases must lie at least ANGLE_EPS = 1e-09 rad "
        "apart, cyclically: phases 0 and 1 are 1e-12 rad apart\n")


def test_budget_overflow_is_an_error_not_a_traceback(realization_file,
                                                     tmp_path, capsys):
    doc = scenario_doc()
    doc["budget"]["gain_direct_db"] = 7000.0
    spath = tmp_path / "t.json"
    spath.write_text(json.dumps(doc))
    assert main(["run", "--scenario", str(spath), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"ris-dps: error: {spath}: gain_direct_db = "
                          "7000.0 dB is out of range")
    assert not (tmp_path / "smoke.csv").exists()

    assert main(["solve", "--input", str(realization_file), "--phases",
                 "pi/6,5pi/6", "--solver", "sweep",
                 "--snr-budget-db", "4000"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("ris-dps: error: snr_budget_db = 4000.0 dB is out "
                          "of range")


def _realization_doc(h_d, v):
    return {"schema_version": 1, "h_d": {"re": h_d, "im": 0.0},
            "v": [{"re": x, "im": 0.0} for x in v]}


def test_unusable_realization_names_the_file(tmp_path, capsys):
    # a zero element would be dropped and the rest renumbered; a bound of
    # inf would come back as "amplitude": Infinity, which is not JSON
    cases = [([1.0, 0.0, 2.0], 1.0, "element coefficients must be nonzero: "
              "1 zero, the first at index 1"),
             ([1e308, 1e308], 1e308, "the amplitude bound |h_d| + sum |v_n| "
              "must be finite, got inf")]
    path = tmp_path / "real.json"
    for v, h_d, message in cases:
        path.write_text(json.dumps(_realization_doc(h_d, v)))
        for cmd in (["solve", "--solver", "sweep"], ["regions"]):
            assert main(cmd + ["--input", str(path),
                               "--phases", "pi/6,5pi/6"]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"ris-dps: error: {path}: {message}\n"


def test_solve_and_regions_refuse_a_trial_past_the_line_cap(
        tmp_path, capsys, monkeypatch):
    # N = 4096 and K = 4097 give N*(K+1) = 16,785,408 lines, past 2**24;
    # a sweep that ran would take ~1.9 GB, so nothing past the check may
    def unreachable(*args, **kwargs):
        raise AssertionError("solved past the cap")

    for name in ("solve", "sweep_optimize", "continuous_upper_bound",
                 "empty_regions"):
        monkeypatch.setattr(cli, name, unreachable)
    path = tmp_path / "real.json"
    path.write_text(json.dumps(_realization_doc(1.0, [1.0] * 4096)))
    phases = ",".join(repr(2 * math.pi * i / 4097) for i in range(4097))
    for cmd in (["solve", "--solver", "sweep"], ["solve", "--solver", "cpp"],
                ["regions"], ["regions", "--use-upper-bound"]):
        assert main(cmd + ["--input", str(path), "--phases", phases]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"ris-dps: error: {path}: n_elements = 4096 gives N*(K+1) = "
            f"16785408 separation lines per trial at K = 4097, more than "
            f"2**24\n")


def test_solve_and_regions_errors_name_the_input(tmp_path, capsys):
    path = tmp_path / "real.json"
    path.write_text(json.dumps(_realization_doc(0.0, [1.0, -2.0])))
    assert main(["solve", "--input", str(path), "--phases", "pi/6,5pi/6",
                 "--solver", "cpp"]) == 1
    assert capsys.readouterr().err == (
        f"ris-dps: error: {path}: zero direct path: projection direction "
        "undefined; use sweep_optimize\n")
    path.write_text(json.dumps(_realization_doc(1.0, [])))
    for bound in ([], ["--use-upper-bound"]):
        assert main(["regions", "--input", str(path),
                     "--phases", "pi/6,5pi/6"] + bound) == 1
        assert capsys.readouterr().err == (
            f"ris-dps: error: {path}: need at least one element\n")


def test_empty_ratio_of_no_elements_is_rejected_at_load(tmp_path, capsys):
    doc = {**scenario_doc(), "solvers": ["sweep"], "empty_ratio": True,
           "sweep": {"axis": "n_elements", "values": [2, 0]}}
    spath = tmp_path / "z.json"
    spath.write_text(json.dumps(doc))
    assert main(["run", "--scenario", str(spath), "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == (
        f"ris-dps: error: {spath}: sweep.values[1] must be at least 1 with "
        "empty_ratio on, got 0\n")
    assert not (tmp_path / "smoke.csv").exists()


def test_capacity_overflow_is_an_error_not_a_traceback(tmp_path, capsys):
    path = tmp_path / "real.json"
    path.write_text(json.dumps(_realization_doc(1e200, [1e200])))
    args = ["solve", "--input", str(path), "--phases", "pi/6,5pi/6",
            "--solver", "sweep"]
    assert main(args) == 0
    amplitude = json.loads(capsys.readouterr().out)["amplitude"]
    assert 1e200 < amplitude < 2e200
    assert main(args + ["--snr-budget-db", "0"]) == 1
    err = capsys.readouterr().err
    assert err == (f"ris-dps: error: the SNR 10^(snr_budget_db/10) * |h|^2 "
                   f"overflows at snr_budget_db = 0.0 and |h| = "
                   f"{amplitude!r}\n")


def test_run_jobs_do_not_change_csv_bytes(tmp_path):
    # the n, direct-gain and gap-pair axes, each split into blocks by jobs
    for preset in ("fig9", "fig10", "fig13", "fig15"):
        for jobs in ("1", "2"):
            assert main(["run", "--scenario", preset, "--fast", "--jobs",
                         jobs, "--out", str(tmp_path / jobs)]) == 0
    names = sorted(p.name for p in (tmp_path / "1").glob("*.csv"))
    assert names == ["fig10.csv", "fig13.csv", "fig15_k2.csv", "fig15_k3.csv",
                     "fig9.csv"]
    for name in names:
        assert ((tmp_path / "1" / name).read_bytes()
                == (tmp_path / "2" / name).read_bytes())


def test_out_directory_named_like_the_preset_runs_again(tmp_path, monkeypatch,
                                                       capsys):
    # the first run makes ./fig11; the second must still read the preset
    monkeypatch.chdir(tmp_path)
    for _ in range(2):
        assert main(["run", "--scenario", "fig11", "--trials", "2",
                     "--out", "fig11"]) == 0
    assert "error" not in capsys.readouterr().err
    assert sorted(p.name for p in (tmp_path / "fig11").iterdir()) == [
        "fig11.csv", "fig11.meta.json"]


def test_module_entry_point(tmp_path):
    real = sample_realization(LinkBudget(-80.0, -60.0, -140.0, 100.0), 3,
                              (5, 0))
    path = tmp_path / "real.json"
    with open(path, "w") as fh:
        json.dump(real.to_json(), fh)
    proc = subprocess.run(
        [sys.executable, "-m", "ris_dps", "solve", "--input", str(path),
         "--phases", "pi/6,5pi/6", "--solver", "sweep"],
        capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["config"]
