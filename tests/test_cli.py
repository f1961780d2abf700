import json
import math
import subprocess
import sys

import pytest

from conftest import child_env
from ris_dps import LinkBudget, sample_realization
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


@pytest.fixture
def realization_file(tmp_path):
    real = sample_realization(LinkBudget(-80.0, -60.0, -140.0, 100.0), 6,
                              (123, 0))
    path = tmp_path / "real.json"
    real.save(path)
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


def test_invalid_scenario_fails_cleanly(tmp_path, capsys):
    spath = tmp_path / "bad.json"
    doc = scenario_doc()
    doc["trials"] = 0
    spath.write_text(json.dumps(doc))
    rc = main(["run", "--scenario", str(spath), "--out", str(tmp_path)])
    assert rc == 1
    assert "trials" in capsys.readouterr().err


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


def test_module_entry_point(tmp_path):
    real = sample_realization(LinkBudget(-80.0, -60.0, -140.0, 100.0), 3,
                              (5, 0))
    path = tmp_path / "real.json"
    real.save(path)
    proc = subprocess.run(
        [sys.executable, "-m", "ris_dps", "solve", "--input", str(path),
         "--phases", "pi/6,5pi/6", "--solver", "sweep"],
        capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["config"]
