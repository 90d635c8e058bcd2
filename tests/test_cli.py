"""Command-line interface: formats, determinism and exit codes."""

import dataclasses
import json
import math
import pathlib
import shutil
import subprocess
import sys
import warnings

import numpy as np
import pytest

from entrot import cli, entanglement, povm, protocol
from entrot.cli import _parse_angle, _parse_grid, main
from entrot.entanglement import average_cost

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


@pytest.mark.parametrize("theta_grid,alpha_grid", [
    ("0.05pi:0.5pi:12", "1e-300:0.5pi:15"),  # both cases, Bell column
    ("0.2pi:0.3pi:5", "0.1pi:0.5pi:41"),
])
def test_sweep_rows_equal_the_scalar_closed_forms(capsys, theta_grid,
                                                  alpha_grid):
    """Every CSV and JSON row is the scalar optimum and average cost at
    that point, to the printed digit, and no RuntimeWarning is raised."""
    argv = ["sweep", "--theta-grid", theta_grid, "--alpha-grid", alpha_grid]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, csv_out, _ = run_cli(capsys, *argv)
        json_code, json_out, _ = run_cli(capsys, *argv, "--json")
    assert code == 0 and json_code == 0
    want = []
    for theta in np.linspace(*_parse_grid(theta_grid)).tolist():
        for alpha in np.linspace(*_parse_grid(alpha_grid)).tolist():
            params = povm.ProtocolParams(theta, alpha)
            best = povm.optimum(params)
            report = average_cost(params)
            want.append([f"{v:.12g}" for v in (theta, alpha)] + [best.case.value]
                        + [f"{v:.12g}" for v in (best.x, best.y, best.p_max,
                                                 report.entropy,
                                                 report.avg_cost)])
    assert {row[2] for row in want} >= {"I", "II"}
    header, *rows = csv_out.splitlines()
    assert [row.split(",") for row in rows] == want
    keys = header.split(",")
    got = [[row[k] if k == "case" else f"{row[k]:.12g}" for k in keys]
           for row in json.loads(json_out)["rows"]]
    assert got == want


def reference_sweep(theta_grid, alpha_grid, as_json):
    """``sweep``'s output written cell by cell: ``_fmt`` on every CSV cell,
    and one ``_round12``-ed dict per JSON row through ``json.dumps``."""
    grids = _parse_grid(theta_grid), _parse_grid(alpha_grid)
    thetas, alphas = (np.linspace(*g) for g in grids)
    ca, sa, e = entanglement._alpha_terms(alphas)
    cross, band, x, y, p, cost = entanglement._costs(
        *povm._trig(thetas[:, None]), ca, sa, e)
    labels = np.array([c.value for c in povm._CASES])[povm._case(cross, band)]
    columns = np.broadcast_arrays(thetas[:, None], alphas, labels, x, y, p,
                                  e, cost)
    rows = list(zip(*(c.ravel().tolist() for c in columns)))
    if as_json:
        return json.dumps(cli._round12({
            "theta_grid": list(grids[0]),
            "alpha_grid": list(grids[1]),
            "rows": [dict(zip(cli._SWEEP_KEYS, row)) for row in rows],
        }), indent=2) + "\n"
    lines = [",".join(cli._SWEEP_KEYS)]
    lines += [",".join(v if isinstance(v, str) else cli._fmt(v) for v in row)
              for row in rows]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("theta_grid,alpha_grid,case", [
    ("2.3e-308:1e-300:4", "2.3e-308:1e-200:3", "II"),  # tiny angles
    ("-0.99pi:1pi:9", "0.5pi:0.5pi:2", "I"),  # the Bell column, theta < 0
    ("0.25pi:0.5pi:3", "0.25pi:0.5pi:3", "boundary"),
    ("0.3:0.30000000000000004:2", "0.7:0.7000000000000001:2", "I"),  # 1 ulp
    ("0.05pi:0.5pi:12", "1e-300:0.5pi:15", "II"),
])
@pytest.mark.parametrize("fmt", [[], ["--json"]])
def test_sweep_bytes_equal_the_cell_by_cell_reference(capsys, theta_grid,
                                                      alpha_grid, case, fmt):
    code, out, err = run_cli(capsys, "sweep", f"--theta-grid={theta_grid}",
                             f"--alpha-grid={alpha_grid}", *fmt)
    assert code == 0 and err == ""
    assert out == reference_sweep(theta_grid, alpha_grid, bool(fmt))
    assert f",{case}," in reference_sweep(theta_grid, alpha_grid, False)


@pytest.mark.parametrize("grids,message", [
    (("0:0.5pi:5", "0.1pi:0.4pi:3"), "theta must lie in (0, pi/2], got 0.0"),
    (("0.1pi:0.4pi:3", "0:0.5pi:5"), "alpha must lie in (0, pi/2], got 0.0"),
    (("0.1pi:0.7pi:5", "0.1pi:0.4pi:3"),
     "theta must lie in (0, pi/2], got 1.7278759594743862"),
    (("1:inf:3", "0.1pi:0.4pi:3"), "angles must be finite"),  # a NaN span
    (("0.1pi:0.4pi:3", "1e-320:0.1pi:3"),
     "alpha must be at least 2.2250738585072014e-308, the smallest normal "
     "float, got 1e-320"),
    (("0.1pi:0.4pi:3", "0.1pi:0.6pi:3"),
     "alpha must lie in (0, pi/2], got 1.8849555921538759"),
    # 0.6 pi is admitted in the Bell column, not at alpha = 0.4 pi
    (("0.5pi:0.6pi:2", "0.4pi:0.5pi:2"),
     "theta must lie in (0, pi/2], got 1.8849555921538759"),
    (("-1pi:1pi:3", "0.5pi:0.5pi:2"),
     "theta must lie in (-pi, pi] when alpha = pi/2, got -3.141592653589793"),
    # five good rows first
    (("0.1pi:0.6pi:6", "0.1pi:0.4pi:3"),
     "theta must lie in (0, pi/2], got 1.8849555921538759"),
    # the first bad point in row-major order is an alpha, though a later
    # row also has a bad theta
    (("0.1pi:0.7pi:3", "0.3pi:0.6pi:2"),
     "alpha must lie in (0, pi/2], got 1.8849555921538759"),
])
@pytest.mark.parametrize("fmt", [[], ["--json"]])
def test_sweep_domain_errors_write_nothing(tmp_path, capsys, grids, message,
                                           fmt):
    path = tmp_path / "table.csv"
    code, out, err = run_cli(capsys, "sweep", f"--theta-grid={grids[0]}",
                             f"--alpha-grid={grids[1]}", "--out", str(path),
                             *fmt)
    assert code == 2
    assert out == "" and err == f"error: {message}\n"
    assert not path.exists()


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


def test_simulate_report_writes_none_as_null(capsys):
    """Every attempt fails, so there is no success fidelity to average."""
    argv = ["simulate", "--theta", "0.5pi", "--alpha", "0.05pi",
            "--trials", "2", "--seed", "0"]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    lines = out.splitlines()
    for line in ("mean_fidelity    = null", "deterministic    = False",
                 "branch_counts    = [0, 0, 2]"):
        assert line in lines
    code, out, _ = run_cli(capsys, *argv, "--json")
    assert code == 0
    assert '"mean_fidelity": null' in out


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


@pytest.mark.parametrize("argv", [
    ["pmax", "--theta", "1e-12", "--alpha", "1e-12"],
    ["simulate", "--theta", "1e-12", "--alpha", "1e-8"],
    ["simulate", "--theta", "0.3", "--alpha", "1e-6"],
    ["simulate", "--theta", "1e-13", "--alpha", "1e-13"],
    ["simulate", "--theta", "2.4e-13", "--alpha", "1e-7"],
    ["simulate", "--theta", "0.5pi", "--alpha", "1e-5", "--deterministic"],
    ["pmax", "--theta", "1e-200", "--alpha", "1e-200"],  # squares underflow
])
def test_small_angles_give_finite_reports(capsys, argv):
    """Where both angles are small, or the gate angle is pi/2 and the
    resource angle small, ``1 - cos cos`` cancels; the closed forms avoid
    that, so the optimum is finite and its measurement positive."""
    if argv[0] == "simulate":
        argv = argv + ["--trials", "500"]
    code, out, err = run_cli(capsys, *argv, "--json")
    assert code == 0 and err == ""
    payload = json.loads(out)
    values = [v for v in (*payload.values(), *payload.get("params", {}).values())
              if isinstance(v, float)]
    assert values and all(math.isfinite(v) for v in values)


def test_pmax_discriminant_zero_is_unsigned(capsys):
    """At a Bell resource ``cos(alpha)`` is exactly 0, and the
    discriminant, 0 times a negative ratio, prints as 0, never -0."""
    argv = ("pmax", "--theta", "1pi", "--alpha", "0.5pi")
    code, out, err = run_cli(capsys, *argv)
    assert code == 0 and err == ""
    assert "discriminant = 0\n" in out
    code, out, err = run_cli(capsys, *argv, "--json")
    assert code == 0 and err == ""
    assert '"discriminant": 0.0,' in out


def test_negative_angle_in_the_equals_form(capsys, monkeypatch):
    """A negative angle is given as ``--theta=-0.5pi``; as a separate
    word argparse reads it as an option, and the help says so."""
    monkeypatch.setenv("COLUMNS", "200")  # no help line wraps
    code, out, err = run_cli(capsys, "pmax", "--theta=-0.5pi",
                             "--alpha", "0.5pi")
    assert code == 0 and err == ""
    assert float(table_value(out, "theta_rad")) == pytest.approx(-math.pi / 2)
    code, out, err = run_cli(capsys, "pmax", "--theta", "-0.5pi",
                             "--alpha", "0.5pi")
    assert code == 2 and out == ""
    assert "argument --theta: expected one argument" in err
    for command, form in (("pmax", "--theta=-0.5pi"),
                          ("simulate", "--theta=-0.5pi"),
                          ("sweep", "--theta-grid=-0.99pi:1pi:9")):
        code, out, _ = run_cli(capsys, command, "--help")
        assert code == 0 and form in out


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
    assert "FAIL  det_e3_formula " in out
    assert err.startswith("error: verification failed")


def _shift_field(real, name, shift):
    """``real`` with ``shift`` added to field ``name`` of its result."""
    def corrupted(*args):
        result = real(*args)
        return dataclasses.replace(
            result, **{name: getattr(result, name) + shift})
    return corrupted


def _raise_bracket(real):
    def threshold_theta(tol=1e-4):
        raise RuntimeError(
            "threshold bracket (0.1 pi, 0.4 pi) does not straddle break-even")
    return threshold_theta


def _infeasible_optimum(real):
    def optimum(params):
        best = real(params)
        return dataclasses.replace(best, x=best.x * 1.01 + 1e-3)
    return optimum


#: (level, module, attribute, corruption of the real function, the check
#: that must fail).  One defect per identity the checks tie together.
SEEDED_DEFECTS = {
    "tr_e3": ("quick", povm, "tr_e3",
              lambda real: lambda p, w: real(p, w) + 1e-6, "tr_e3_formula"),
    "discriminant": ("quick", povm, "discriminant",
                     lambda real: lambda p: -real(p),
                     "discriminant_case_split"),
    "build_povm": ("quick", povm, "build_povm",
                   lambda real: _shift_field(real, "e3", 1e-9),
                   "povm_completeness"),
    "controlled_rotation": ("quick", protocol, "controlled_rotation",
                            lambda real: lambda t: real(t + 1e-3),
                            "protocol_success_fidelity"),
    "average_cost": ("quick", entanglement, "average_cost",
                     lambda real: _shift_field(real, "avg_cost", 1e-9),
                     "cost_identity"),
    "optimum": ("quick", povm, "optimum", _infeasible_optimum,
                "optimum_feasible"),
    "controlled_rotation_full": ("full", protocol, "controlled_rotation",
                                 lambda real: lambda t: real(t + 1e-3),
                                 "residual_reconstruction"),
    "threshold_theta": ("full", entanglement, "threshold_theta",
                        _raise_bracket, "break_even_angle"),
}


@pytest.mark.parametrize("defect", sorted(SEEDED_DEFECTS))
def test_verify_reports_each_seeded_defect(capsys, monkeypatch, defect):
    """Each corrupted identity ends in exit 3 and a FAIL line naming its
    check, including defects that make a check raise."""
    level, module, attr, corrupt, check = SEEDED_DEFECTS[defect]
    monkeypatch.setattr(module, attr, corrupt(getattr(module, attr)))
    code, out, err = run_cli(capsys, "verify", "--level", level)
    assert code == 3
    assert f"FAIL  {check} " in out
    assert err.startswith("error: verification failed")


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
