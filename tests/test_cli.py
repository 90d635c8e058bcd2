"""Command-line interface: formats, determinism and exit codes."""

import contextlib
import dataclasses
import io
import json
import math
import pathlib
import re
import shutil
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entrot import cli, entanglement, povm, protocol
from entrot.cli import _parse_angle, _parse_grid, main
from entrot.entanglement import average_cost
from entrot.povm import HALF_PI

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


@pytest.mark.parametrize("fmt", [[], ["--json"]])
def test_sweep_out_dash_writes_stdout(capsys, fmt):
    """``--out -`` writes to stdout the bytes written without ``--out``."""
    argv = ["sweep", "--theta-grid", "0.1pi:0.5pi:3",
            "--alpha-grid", "0.2pi:0.5pi:4", *fmt]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and out
    assert run_cli(capsys, *argv, "--out", "-") == (0, out, "")


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


#: (theta grid, alpha grid, a case label the grid's CSV holds).
REFERENCE_GRIDS = [
    ("2.3e-308:1e-300:4", "2.3e-308:1e-200:3", "II"),  # tiny angles
    ("-0.99pi:1pi:9", "0.5pi:0.5pi:2", "I"),  # the Bell column, theta < 0
    ("0.25pi:0.5pi:3", "0.25pi:0.5pi:3", "boundary"),
    ("0.3:0.30000000000000004:2", "0.7:0.7000000000000001:2", "I"),  # 1 ulp
    ("0.05pi:0.5pi:12", "1e-300:0.5pi:15", "II"),
    ("5e-324:1e-300:5", "2.3e-308:0.5pi:7", "II"),  # subnormal gate angles
]


@pytest.mark.parametrize("theta_grid,alpha_grid,case", REFERENCE_GRIDS)
@pytest.mark.parametrize("fmt", [[], ["--json"]])
def test_sweep_bytes_equal_the_cell_by_cell_reference(capsys, theta_grid,
                                                      alpha_grid, case, fmt):
    code, out, err = run_cli(capsys, "sweep", f"--theta-grid={theta_grid}",
                             f"--alpha-grid={alpha_grid}", *fmt)
    assert code == 0 and err == ""
    assert out == reference_sweep(theta_grid, alpha_grid, bool(fmt))
    assert f",{case}," in reference_sweep(theta_grid, alpha_grid, False)


@pytest.mark.parametrize("theta_grid,alpha_grid,case", REFERENCE_GRIDS)
@pytest.mark.parametrize("fmt", [[], ["--json"]])
@pytest.mark.parametrize("block", [1, 7])
def test_sweep_blocks_join_to_the_one_block_output(tmp_path, monkeypatch,
                                                   theta_grid, alpha_grid,
                                                   case, fmt, block):
    """Written a few theta rows at a time (one row for a 1-point block,
    up to three for 7 points), the table is the one written at once, on
    stdout and in a file."""
    argv = ["sweep", f"--theta-grid={theta_grid}",
            f"--alpha-grid={alpha_grid}", *fmt]

    def output(points):
        monkeypatch.setattr(cli, "_SWEEP_BLOCK", points)
        path = tmp_path / f"table-{points}"
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(argv) == 0
            assert main(argv + ["--out", str(path)]) == 0
        assert path.read_text(encoding="utf-8") == out.getvalue()
        return out.getvalue()

    assert output(block) == output(1 << 40)


def test_json_sweep_rounds_per_axis_point_not_per_cell(capsys, monkeypatch):
    """On a regular 60 x 60 grid (one block), ``_json_cells`` is handed
    the theta, alpha and e_alpha axes once each and each number column
    once, never a single cell; the cells go through the row template."""
    calls, json_cells = [], cli._json_cells

    def counted(values):
        calls.append(len(values))
        return json_cells(values)

    monkeypatch.setattr(cli, "_json_cells", counted)
    code, out, _ = run_cli(capsys, "sweep", "--theta-grid", "0.05pi:0.45pi:60",
                           "--alpha-grid", "0.1pi:0.5pi:60", "--json")
    assert code == 0 and len(json.loads(out)["rows"]) == 3600
    assert sorted(calls) == [60] * 3 + [3600] * 4


#: Floats where ``%.12g`` and ``repr`` of its rounding part ways, or
#: nearly: zeros, subnormals, integers and near-integers, and the
#: exponent switches at 1e-4 (1e-5 on the other side) and 1e12.
JSON_NUMBERS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                     2.225073858507201e-308, 1e-4, 1e-5, 1e12, 1e11,
                     999999999999.5, 99999999999.99, 0.99999999999995,
                     9.99999999999995e-5]),
    st.integers(-10**6, 10**6).map(float),
    st.builds(lambda n, d: n + d, st.integers(-10**4, 10**4).map(float),
              st.floats(-1e-13, 1e-13)),
    *(st.floats(c * (1 - 1e-11), c * (1 + 1e-11)).map(lambda v, s=s: s * v)
      for c in (1e-4, 1e-5, 1e11, 1e12) for s in (1.0, -1.0)),
    st.floats(-1e-300, 1e-300),
)


@settings(max_examples=300)
@given(st.lists(JSON_NUMBERS, min_size=1, max_size=12))
def test_json_numbers_are_the_rounded_repr(values):
    """Every number a JSON sweep row writes is ``repr(float(f"{v:.12g}"))``,
    what ``json`` writes for the rounded value, whatever its kind."""
    assert cli._json_cells(np.array(values)) == [
        repr(float(f"{v:.12g}")) for v in values]


def test_sweep_memory_is_bounded_by_the_block(tmp_path, checkout_env):
    """A 400 x 400 JSON sweep, whose text is about 40 MB, raises the peak
    RSS of its process by less than a quarter of that, domain check
    included."""
    script = (
        "import os, resource, sys\n"
        "from entrot.cli import main\n"
        "def sweep(n):\n"
        "    assert main(['sweep', '--theta-grid', f'0.05pi:0.5pi:{n}',\n"
        "                 '--alpha-grid', f'0.02pi:0.5pi:{n}', '--json',\n"
        "                 '--out', sys.argv[1]]) == 0\n"
        "sweep(3)\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "sweep(400)\n"
        "after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "print(1024 * (after - before), os.path.getsize(sys.argv[1]))\n")
    proc = subprocess.run([sys.executable, "-c", script, tmp_path / "t.json"],
                          capture_output=True, text=True, timeout=300,
                          env=checkout_env)
    assert proc.returncode == 0, proc.stderr
    growth, size = map(int, proc.stdout.split())
    assert size > 35_000_000
    assert growth < size / 4


#: (theta grid, alpha grid) and the error ``sweep`` stops on.
DOMAIN_ERRORS = [
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
]


@pytest.mark.parametrize("grids,message", DOMAIN_ERRORS)
@pytest.mark.parametrize("fmt", [[], ["--json"]])
def test_sweep_domain_errors_write_nothing(tmp_path, capsys, monkeypatch,
                                           grids, message, fmt):
    """The first bad point in row order stops the sweep before any byte
    is written, whatever the block size."""
    path = tmp_path / "table.csv"
    for block in (cli._SWEEP_BLOCK, 1):
        monkeypatch.setattr(cli, "_SWEEP_BLOCK", block)
        code, out, err = run_cli(capsys, "sweep", f"--theta-grid={grids[0]}",
                                 f"--alpha-grid={grids[1]}", "--out",
                                 str(path), *fmt)
        assert code == 2
        assert out == "" and err == f"error: {message}\n"
        assert not path.exists()


@pytest.mark.parametrize("axis", [0, 1])
def test_sweep_refuses_an_axis_no_host_can_allocate(tmp_path, capsys, axis):
    """A COUNT of 1e18 asks numpy for 8 EB at once, which is refused: one
    ``error:`` line, exit 2 and no output file."""
    path = tmp_path / "table.csv"
    grids = ["0.1pi:0.4pi:3", "0.1pi:0.4pi:3"]
    grids[axis] = f"0.1pi:0.4pi:{10**18}"
    code, out, err = run_cli(capsys, "sweep", f"--theta-grid={grids[0]}",
                             f"--alpha-grid={grids[1]}", "--out", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
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
    word argparse reads it as an option, and the help says so.  Every
    command's usage ends in ``[--json]``, and both commands that take a
    point explain both of its angles."""
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
    for command in ("pmax", "sweep", "simulate", "threshold", "verify"):
        code, out, _ = run_cli(capsys, command, "--help")
        assert code == 0
        assert out.split("\n\n")[0].endswith(" [--json]")
        if command in ("pmax", "simulate"):
            assert re.search(r"--alpha ALPHA +resource angle in \(0, pi/2\]",
                             out)


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


# ---------------------------------------------------------- totality

def some(valid, anything):
    """Mostly values from ``valid``, sometimes any from ``anything``."""
    return st.integers(0, 3).flatmap(lambda k: valid if k else anything)


#: Angles as a user types them: any float in radians or as a multiple of
#: pi, weighted toward the documented domain and its ends.
angle_text = some(
    st.floats(1e-300, HALF_PI).map(repr)
    | st.floats(1e-300, 0.5).map(lambda v: f"{v!r}pi")
    | st.sampled_from(["0.5pi", "pi", "-0.99pi", "1e-300", "5e-324"]),
    st.floats().map(repr) | st.floats(-2.0, 2.0).map(lambda v: f"{v!r}pi"))


@st.composite
def cli_argv(draw):
    """One ``pmax``, ``simulate``, ``threshold`` or ``sweep`` command line,
    every angle in the ``--flag=value`` form."""
    command = draw(st.sampled_from(["pmax", "simulate", "threshold",
                                    "sweep"]))
    argv = [command] + (["--json"] if draw(st.booleans()) else [])
    if command == "threshold":
        tol = draw(some(st.floats(1e-6, 1e-3), st.floats()))
        return argv + [f"--tol={tol!r}"]
    if command == "sweep":
        # 1e18 points (8 EB) is refused at once; no smaller count that a
        # host could allocate belongs here
        count = some(st.integers(2, 4),
                     st.integers(max_value=4) | st.just(10**18))
        return argv + [
            f"{flag}={draw(angle_text)}:{draw(angle_text)}:{draw(count)}"
            for flag in ("--theta-grid", "--alpha-grid")]
    argv += [f"--theta={draw(angle_text)}", f"--alpha={draw(angle_text)}"]
    if command == "simulate":
        trials = draw(some(st.integers(1, 64), st.integers(max_value=64)))
        seed = draw(some(st.integers(0, 2 ** 64 - 1), st.integers()))
        text = draw(some(st.sampled_from(["random", "00", "01", "10", "11"]),
                         st.text(max_size=3)))
        argv += [f"--trials={trials}", f"--seed={seed}", f"--input={text}"]
        if draw(st.booleans()):
            argv.append("--deterministic")
    return argv


@settings(max_examples=300)
@given(cli_argv())
def test_cli_is_total(argv):
    """Every command line exits 0 with finite numbers, or 2 with one
    ``error:`` line; ``simulate`` may also exit 3 with its one 5-sigma
    line.  No run prints a traceback or raises a RuntimeWarning."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("error", RuntimeWarning)
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert "Traceback" not in out + err
    errors = [line for line in (out + err).splitlines() if "error:" in line]
    if code == 0:
        assert err == "" and out
        numbers = []
        for token in re.findall(r'[^\s,:"\[\]{}=]+', out):
            try:
                numbers.append(float(token))
            except ValueError:
                pass
        assert all(math.isfinite(v) for v in numbers)
    elif code == 3:
        assert argv[0] == "simulate"
        assert len(errors) == 1 and "sigma" in errors[0]
    else:
        assert code == 2 and out == ""
        assert len(errors) == 1


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


def _negated_crossover(real):
    """``_closed_form`` whose crossover has the wrong sign: every case
    label and discriminant sign flips, while the weights stay right."""
    def closed_form(*trig):
        cross, *rest = real(*trig)
        return (-cross, *rest)
    return closed_form


#: (level, module, attribute, corruption of the real function, the check
#: that must fail).  One defect per identity the checks tie together.
SEEDED_DEFECTS = {
    "tr_e3": ("quick", povm, "tr_e3",
              lambda real: lambda p, w: real(p, w) + 1e-6, "tr_e3_formula"),
    "discriminant": ("quick", povm, "discriminant",
                     lambda real: lambda p: -real(p),
                     "discriminant_case_split"),
    "crossover": ("quick", povm, "_closed_form", _negated_crossover,
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

def test_one_process_runs_commands_as_fresh_ones(capsys, monkeypatch,
                                                 checkout_env):
    """``main`` reuses its parser: a command, a usage error and another
    subcommand in one process give the bytes of three fresh processes."""
    monkeypatch.setenv("COLUMNS", "80")
    commands = [["pmax", "--theta", "0.25pi", "--alpha", "0.2pi"],
                ["sweep", "--theta-grid", "0:1"],
                ["threshold", "--json"]]
    in_process = [run_cli(capsys, *argv) for argv in commands]
    assert [code for code, _, _ in in_process] == [0, 2, 0]
    assert cli._build_parser() is cli._build_parser()
    for argv, got in zip(commands, in_process):
        proc = subprocess.run([sys.executable, "-m", "entrot", *argv],
                              capture_output=True, text=True, timeout=120,
                              env={**checkout_env, "COLUMNS": "80"})
        assert got == (proc.returncode, proc.stdout, proc.stderr)


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
