"""Command-line interface: formats, determinism and exit codes."""

import dataclasses
import json
import math
import pathlib
import shutil
import subprocess
import sys

import pytest

from entrot import cli, povm
from entrot.cli import _parse_angle, _parse_grid, main

THIRD_PI = "0.3333333333333333pi"
ROOT = pathlib.Path(__file__).resolve().parent.parent


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def table_value(text, key):
    for line in text.splitlines():
        name, _, value = line.partition(" = ")
        if name.strip() == key:
            return value
    raise KeyError(key)


# ----------------------------------------------------------- parsing

def test_angle_parsing():
    assert _parse_angle("0.25pi") == pytest.approx(math.pi / 4)
    assert _parse_angle("pi") == math.pi
    assert _parse_angle("-0.5pi") == pytest.approx(-math.pi / 2)
    assert _parse_angle("+pi") == math.pi
    assert _parse_angle("1.234") == 1.234
    assert _parse_angle(" 0.5PI ") == pytest.approx(math.pi / 2)
    with pytest.raises(Exception):
        _parse_angle("two pi")


def test_grid_parsing():
    assert _parse_grid("0:1:5") == (0.0, 1.0, 5)
    assert _parse_grid("0.1pi:0.5pi:3")[2] == 3
    for bad in ("0:1", "0:1:1", "0:1:x", "1:2:3:4"):
        with pytest.raises(Exception):
            _parse_grid(bad)


def test_usage_errors_exit_2(capsys):
    assert main(["pmax", "--theta", "abc", "--alpha", "0.3"]) == 2
    capsys.readouterr()
    assert main(["sweep", "--theta-grid", "0:1", "--alpha-grid", "0:1:2"]) == 2
    capsys.readouterr()
    assert main(["nonsense"]) == 2
    capsys.readouterr()
    assert main([]) == 2


def test_domain_errors_exit_2(capsys):
    code, _, err = run_cli(capsys, "pmax", "--theta", "0.7pi",
                           "--alpha", "0.3pi")
    assert code == 2
    assert err.startswith("error:")


# -------------------------------------------------------------- pmax

def test_pmax_table_landmark(capsys):
    code, out, err = run_cli(capsys, "pmax", "--theta", "0.5pi",
                             "--alpha", THIRD_PI)
    assert code == 0 and err == ""
    assert table_value(out, "p_max") == "0.5"
    assert table_value(out, "x") == "0.25"
    assert table_value(out, "y") == "0.25"
    assert table_value(out, "case") == "I"


def test_pmax_json_keys_and_values(capsys):
    code, out, _ = run_cli(capsys, "pmax", "--theta", "0.25pi",
                           "--alpha", "0.1666666666666667pi", "--json")
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"theta_rad", "alpha_rad", "case", "x", "y",
                            "p_max", "discriminant", "tr_e3", "det_e3"}
    assert payload["case"] == "II"
    assert payload["y"] == 0.0
    assert payload["p_max"] == pytest.approx(0.3224744871391589, abs=1e-11)


# ------------------------------------------------------------- sweep

def test_sweep_csv_shape_and_identity(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--theta-grid", "0.2pi:0.4pi:2",
                           "--alpha-grid", "0.25pi:0.5pi:2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "theta_rad,alpha_rad,case,x,y,p_max,e_alpha,avg_cost"
    assert len(lines) == 5
    # outer loop over theta, inner over alpha
    t = [float(line.split(",")[0]) for line in lines[1:]]
    a = [float(line.split(",")[1]) for line in lines[1:]]
    assert t == sorted(t) and t[0] == t[1] and t[2] == t[3]
    assert a[0] < a[1] and a[2] < a[3]
    for line in lines[1:]:
        cells = line.split(",")
        p, e, cost = float(cells[5]), float(cells[6]), float(cells[7])
        assert cost == pytest.approx(1.0 - p + e, abs=1e-9)
    # the maximally entangled column is exact
    bell_row = lines[2].split(",")
    assert bell_row[5] == "1" and bell_row[7] == "1"


def test_sweep_single_weight_region_rows(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--theta-grid", "0.3pi:0.4pi:2",
                           "--alpha-grid", "0.1pi:0.15pi:2")
    assert code == 0
    for line in out.splitlines()[1:]:
        cells = line.split(",")
        assert cells[2] == "II"
        assert cells[4] == "0"


def test_sweep_file_output_matches_stdout(tmp_path, capsys):
    argv = ["sweep", "--theta-grid", "0.1pi:0.5pi:3",
            "--alpha-grid", "0.2pi:0.5pi:4"]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    path = tmp_path / "table.csv"
    assert main(argv + ["--out", str(path)]) == 0
    assert path.read_text(encoding="utf-8") == out


def test_sweep_unwritable_path_exits_1(capsys):
    code, _, err = run_cli(capsys, "sweep", "--theta-grid", "0.1pi:0.2pi:2",
                           "--alpha-grid", "0.2pi:0.3pi:2",
                           "--out", "/nonexistent-dir/table.csv")
    assert code == 1
    assert err.startswith("error:")


def test_sweep_json_structure(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--theta-grid", "0.2pi:0.3pi:2",
                           "--alpha-grid", "0.3pi:0.4pi:2", "--json")
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"theta_grid", "alpha_grid", "rows"}
    assert len(payload["rows"]) == 4
    assert set(payload["rows"][0]) == {"theta_rad", "alpha_rad", "case", "x",
                                       "y", "p_max", "e_alpha", "avg_cost"}


# ---------------------------------------------------------- simulate

def test_simulate_json_payload(capsys):
    code, out, err = run_cli(capsys, "simulate", "--theta", "0.25pi",
                             "--alpha", "0.25pi", "--trials", "2000",
                             "--seed", "7", "--json")
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert set(payload) == {"params", "trials", "seed", "deterministic",
                            "input", "success_count", "branch_counts",
                            "empirical_p", "analytic_p", "z_score",
                            "mean_fidelity", "mean_bell_pairs", "mean_ebits"}
    assert set(payload["params"]) == {"theta_rad", "alpha_rad", "x", "y",
                                      "case"}
    assert payload["trials"] == 2000 and payload["seed"] == 7
    assert payload["deterministic"] is False
    assert payload["input"] == "random"
    assert sum(payload["branch_counts"]) == 2000
    assert abs(payload["z_score"]) < 5.0


def test_simulate_output_is_byte_identical(capsys):
    argv = ["simulate", "--theta", "0.4pi", "--alpha", "0.3pi",
            "--trials", "3000", "--seed", "11", "--json"]
    _, first, _ = run_cli(capsys, *argv)
    _, second, _ = run_cli(capsys, *argv)
    assert first == second


def test_simulate_defaults_and_basis_input(capsys):
    code, out, _ = run_cli(capsys, "simulate", "--theta", "0.3pi",
                           "--alpha", "0.5pi", "--input", "01",
                           "--trials", "50", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["input"] == "01"
    assert payload["mean_fidelity"] == 1.0
    assert payload["empirical_p"] == 1.0
    code, out, _ = run_cli(capsys, "simulate", "--theta", "0.3pi",
                           "--alpha", "0.4pi", "--trials", "50", "--json")
    assert json.loads(out)["seed"] == 0


def test_simulate_table_mode(capsys):
    code, out, _ = run_cli(capsys, "simulate", "--theta", "0.3pi",
                           "--alpha", "0.4pi", "--trials", "100",
                           "--deterministic")
    assert code == 0
    assert table_value(out, "params.theta_rad") != ""
    assert table_value(out, "deterministic") == "True"
    assert table_value(out, "trials") == "100"


def test_simulate_rejects_bad_input_string(capsys):
    for bad in ("2x", "012", "ab"):
        code, _, err = run_cli(capsys, "simulate", "--theta", "0.3pi",
                               "--alpha", "0.4pi", "--input", bad)
        assert code == 2
        assert err.startswith("error:")


@pytest.mark.parametrize("deterministic", [False, True])
def test_simulate_vanishing_resource(capsys, deterministic):
    """At alpha = 1e-300 the optimal weights are exact zeros, so every
    attempt fails and only a Bell pair completes the gate.  The run
    reports that with finite numbers; any RuntimeWarning fails it."""
    argv = ["simulate", "--theta", "0.25pi", "--alpha", "1e-300",
            "--trials", "500", "--seed", "3", "--json"]
    if deterministic:
        argv.append("--deterministic")
    code, out, err = run_cli(capsys, *argv)
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert payload["params"]["x"] == 0.0 and payload["params"]["y"] == 0.0
    assert payload["branch_counts"] == [0, 0, 500]
    assert payload["analytic_p"] == 0.0 and payload["z_score"] == 0.0
    if deterministic:
        assert payload["mean_fidelity"] == pytest.approx(1.0, abs=1e-12)
        assert payload["mean_bell_pairs"] == 1.0
        assert payload["mean_ebits"] == 1.0
    else:
        assert payload["mean_fidelity"] is None
        assert payload["mean_bell_pairs"] == 0.0
        assert payload["mean_ebits"] == 0.0


def test_simulate_statistical_alarm_exits_3(capsys, monkeypatch):
    real = cli.monte_carlo

    def biased(*args, **kwargs):
        stats = real(*args, **kwargs)
        return dataclasses.replace(stats, z_score=7.5)

    monkeypatch.setattr(cli, "monte_carlo", biased)
    code, _, err = run_cli(capsys, "simulate", "--theta", "0.3pi",
                           "--alpha", "0.4pi", "--trials", "100", "--json")
    assert code == 3
    assert "sigma" in err


# --------------------------------------------------------- threshold

def test_threshold_output(capsys):
    code, out, err = run_cli(capsys, "threshold", "--json")
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert set(payload) == {"tol_pi", "threshold_rad", "threshold_pi"}
    assert 0.232 < payload["threshold_pi"] < 0.236
    assert payload["tol_pi"] == 1e-4
    code, out, _ = run_cli(capsys, "threshold")
    assert table_value(out, "threshold_pi").startswith("0.233")


def test_threshold_tolerance_errors(capsys):
    code, _, _ = run_cli(capsys, "threshold", "--tol", "abc")
    assert code == 2
    code, _, err = run_cli(capsys, "threshold", "--tol", "0.5")
    assert code == 2
    assert err.startswith("error:")


# ------------------------------------------------------------ verify

def test_verify_quick_passes(capsys):
    code, out, err = run_cli(capsys, "verify")
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert all(line.startswith("PASS") for line in lines[:-1])
    n = len(lines) - 1
    assert lines[-1] == f"{n}/{n} checks passed"


def test_verify_json(capsys):
    code, out, _ = run_cli(capsys, "verify", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["all_passed"] is True
    assert payload["level"] == "quick"
    assert {r["name"] for r in payload["results"]} >= {
        "povm_completeness", "det_e3_formula", "optimum_feasible"}


def test_verify_catches_a_seeded_formula_bug(capsys, monkeypatch):
    """A deliberately corrupted closed form must trip the self-checks."""
    real = povm.det_e3

    def corrupted(params, weights):
        return real(params, weights) + 1e-6

    monkeypatch.setattr(povm, "det_e3", corrupted)
    code, out, err = run_cli(capsys, "verify")
    assert code == 3
    assert "FAIL" in out
    assert "det_e3_formula" in err


# ------------------------------------------------------- entry points

def test_module_entry_point(checkout_env):
    proc = subprocess.run(
        [sys.executable, "-m", "entrot", "pmax", "--theta", "0.5pi",
         "--alpha", THIRD_PI],
        capture_output=True, text=True, timeout=120, env=checkout_env)
    assert proc.returncode == 0
    assert "p_max" in proc.stdout


def test_console_script(tmp_path, checkout_env):
    """The declared ``entrot`` script target runs, through the launcher
    an installer would write for it, without installing anything."""
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert "entrot" in scripts
    module, _, attr = scripts["entrot"].partition(":")
    assert module and attr
    launcher = tmp_path / "entrot"
    launcher.write_text(
        "import sys\n"
        f"from {module} import {attr}\n"
        f"sys.exit({attr}())\n", encoding="utf-8")
    proc = subprocess.run([sys.executable, str(launcher), "threshold"],
                          capture_output=True, text=True, timeout=120,
                          env=checkout_env)
    assert proc.returncode == 0
    assert "threshold_pi" in proc.stdout


@pytest.mark.skipif(shutil.which("entrot") is None,
                    reason="entrot console script not installed")
def test_installed_console_script():
    exe = shutil.which("entrot")
    assert exe is not None
    proc = subprocess.run([exe, "threshold"], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0
    assert "threshold_pi" in proc.stdout
