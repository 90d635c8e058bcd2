"""The runnable experiment scripts stay healthy end to end."""

import json
import pathlib
import re
import shutil
import subprocess
import sys
import textwrap

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"
PACKAGE = ROOT / "src" / "entrot"


def run_script(env, name, *argv):
    return subprocess.run([sys.executable, str(SCRIPTS / name), *argv],
                          capture_output=True, text=True, timeout=300,
                          env=env)


def test_sweep_script(tmp_path, checkout_env):
    out = tmp_path / "grid.csv"
    proc = run_script(checkout_env, "sweep_pmax.py", "--points", "5",
                      "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    assert "best success probability" in proc.stdout
    assert proc.stdout.splitlines()[1:] == [
        "  best success probability : 1.000000 at theta=0.050pi, alpha=0.500pi",
        "  worst success probability: 0.012312 at theta=0.500pi, alpha=0.050pi",
        "  cheapest average cost    : 0.478651 at theta=0.050pi, "
        "alpha=0.163pi ebits",
        "  optimum regime I        : 18 points",
        "  optimum regime II       : 7 points",
    ]
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "theta_rad,alpha_rad,case,x,y,p_max,e_alpha,avg_cost"
    assert len(lines) == 26


def test_threshold_script(tmp_path, checkout_env):
    out = tmp_path / "curve.csv"
    proc = run_script(checkout_env, "threshold_scan.py", "--steps", "6",
                      "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    assert "break-even gate angle: 0.233" in proc.stdout
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "theta_pi,best_alpha_pi,min_cost"
    assert len(lines) == 7


def test_threshold_script_rejects_a_zero_tol(checkout_env):
    """An unusable --tol stops on the search's own range message."""
    proc = run_script(checkout_env, "threshold_scan.py", "--steps", "2",
                      "--tol", "0")
    assert proc.returncode != 0
    assert "tol must lie in [1e-8, 1e-3], got 0.0" in proc.stderr
    assert "math domain error" not in proc.stderr


@pytest.mark.parametrize("name, argv, error", [
    ("threshold_scan.py", ("--tol", "0"),
     "error: tol must lie in [1e-8, 1e-3], got 0.0"),
    ("threshold_scan.py", ("--tol", "1e-2"),
     "error: tol must lie in [1e-8, 1e-3], got 0.01"),
    ("threshold_scan.py", ("--min-pi", "0"),
     "error: theta must lie in (0, pi/2], got 0.0"),
    ("threshold_scan.py", ("--steps", "2", "--max-pi", "0.7"),
     "error: theta must lie in (0, pi/2], got 2.199114857512855"),
    ("threshold_scan.py", ("--steps", "-1"),
     "threshold_scan.py: error: --steps must be at least 1, got -1"),
    ("sweep_pmax.py", ("--points", "1"),
     "sweep_pmax.py: error: --points must be at least 2, got 1"),
    ("threshold_scan.py", ("--steps", "0", "--tol", "0"),
     "threshold_scan.py: error: --steps must be at least 1, got 0"),
])
def test_scripts_refuse_bad_options_before_any_output(tmp_path, checkout_env,
                                                      name, argv, error):
    """A refused option is one error line of the script's own, exit 2, no
    stdout and no output file."""
    out = tmp_path / "out.csv"
    proc = run_script(checkout_env, name, *argv, "--out", str(out))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert [line for line in proc.stderr.splitlines()
            if "error" in line] == [error]
    assert "--theta-grid" not in proc.stderr
    assert not out.exists()


PATHS = {"monte_carlo", "monte_carlo_deterministic",
         "monte_carlo_deterministic_4096", "run_once",
         "run_once_deterministic", "transcript_table", "sweep", "sweep_json",
         "pmax_oracle", "threshold_theta", "decision_draws"}


def test_bench_script_compares_two_checkouts(tmp_path, checkout_env):
    """A tiny run against a copy of this package replaces the file with
    both sides' quartiles and the pair count per path, and the oracle's
    stage shares; no timing is checked.  The copy's per-round search is
    renamed, so its side records no stages."""
    copy = tmp_path / "copy"
    shutil.copytree(PACKAGE, copy / "src" / "entrot",
                    ignore=shutil.ignore_patterns("__pycache__"))
    povm = copy / "src" / "entrot" / "povm.py"
    povm.write_text(povm.read_text(encoding="utf-8").replace(
        "_best_feasible_y", "_renamed_search"), encoding="utf-8")
    out = tmp_path / "bench.json"
    out.write_text('{"schema": 2, "runs": {}}\n', encoding="utf-8")
    proc = run_script(checkout_env, "bench.py", "--size", "tiny",
                      "--against", str(copy), "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert set(doc) == {"schema", "pythonpath", "against", "python", "numpy",
                        "machine", "cpu_count", "usable_cpus", "size",
                        "paths", "stages"}
    assert doc["schema"] == 3
    assert doc["size"]["name"] == "tiny" and doc["size"]["pairs"] == 3
    assert doc["size"]["stage_points"] == 2
    stages = doc["stages"]["pmax_oracle"]
    assert stages["against"] is None
    shares = stages["pythonpath"]
    assert set(shares) == {"first_round", "refinement_rounds"}
    assert all(0.0 < v < 1.0 for v in shares.values())
    assert sum(shares.values()) <= 1.0
    assert isinstance(doc["cpu_count"], int)
    assert 1 <= doc["usable_cpus"] <= doc["cpu_count"]
    for side, where in (("pythonpath", PACKAGE),
                        ("against", copy / "src" / "entrot")):
        assert set(doc[side]) == {"path", "git_sha", "git_dirty"}
        assert doc[side]["path"] == str(where.resolve())  # absolute
    assert doc["against"]["git_sha"] is None
    assert doc["against"]["git_dirty"] is None
    assert set(doc["paths"]) == PATHS
    for stats in doc["paths"].values():
        assert 0 <= stats["pythonpath_won"] <= 3
        for side in ("pythonpath", "against"):
            assert 0.0 < stats[side]["q1_s"] <= stats[side]["median_s"] \
                <= stats[side]["q3_s"]


def test_bench_script_refuses_a_checkout_without_the_package(tmp_path,
                                                             checkout_env):
    """A directory without src/entrot/__init__.py is one argparse error
    line, and no file is written."""
    out = tmp_path / "bench.json"
    proc = run_script(checkout_env, "bench.py", "--size", "tiny",
                      "--against", str(tmp_path), "--out", str(out))
    assert proc.returncode == 2
    errors = [line for line in proc.stderr.splitlines() if "error:" in line]
    assert errors == [f"bench.py: error: {tmp_path} has no "
                      "src/entrot/__init__.py"]
    assert not out.exists()


def test_package_imports_are_relative(checkout_env):
    """The bench's second side is this package loaded under another name.
    That runs its own code only if no module inside it imports ``entrot``
    by its absolute name."""
    code = textwrap.dedent(f"""
        import importlib, importlib.util, os, sys
        where = {str(PACKAGE)!r}
        spec = importlib.util.spec_from_file_location(
            "entrot_copy", os.path.join(where, "__init__.py"),
            submodule_search_locations=[where])
        sys.modules["entrot_copy"] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules["entrot_copy"])
        cli = importlib.import_module("entrot_copy.cli")
        print(cli.monte_carlo.__module__)
        print(sorted(m for m in sys.modules
                     if m == "entrot" or m.startswith("entrot.")))
    """)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=300, env=checkout_env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["entrot_copy.montecarlo", "[]"]


def test_fingerprint_script(checkout_env):
    """One well-formed line per uniquely named case, the same on a rerun."""
    runs = [run_script(checkout_env, "fingerprint.py", "--size", "tiny")
            for _ in range(2)]
    for proc in runs:
        assert proc.returncode == 0, proc.stderr
    lines = runs[0].stdout.splitlines()
    assert lines and all(re.fullmatch(r"\S+ [0-9a-f]{16}", line)
                         for line in lines)
    names = [line.split()[0] for line in lines]
    assert len(set(names)) == len(names)
    assert {name.split(":")[0] for name in names} == {
        "simulate", "sweep", "pmax", "threshold", "verify", "run_once",
        "monte_carlo", "transcript_table", "norm", "pmax_oracle"}
    assert runs[1].stdout == runs[0].stdout
