"""The runnable experiment scripts stay healthy end to end."""

import json
import pathlib
import re
import subprocess
import sys

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"


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


def test_bench_script_schema(tmp_path, checkout_env):
    """Alternated labelled tiny runs are appended to one list per label
    in one file with the same schema; no timing is checked."""
    out = tmp_path / "bench.json"
    for label in ("parent", "change", "parent"):
        proc = run_script(checkout_env, "bench.py", "--size", "tiny",
                          "--label", label, "--out", str(out))
        assert proc.returncode == 0, proc.stderr
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert doc["schema"] == 2 and set(doc["runs"]) == {"parent", "change"}
    assert [len(runs) for runs in doc["runs"].values()] == [2, 1]
    for run in (run for runs in doc["runs"].values() for run in runs):
        assert set(run) == {"git_sha", "git_dirty", "entrot", "python",
                            "numpy", "machine", "cpu_count", "usable_cpus",
                            "size", "paths"}
        assert run["size"]["name"] == "tiny"
        assert isinstance(run["cpu_count"], int)
        assert isinstance(run["usable_cpus"], int)
        assert 1 <= run["usable_cpus"] <= run["cpu_count"]
        assert set(run["paths"]) == {
            "monte_carlo", "monte_carlo_deterministic", "run_once",
            "run_once_deterministic", "transcript_table", "sweep",
            "sweep_json", "pmax_oracle", "threshold_theta",
            "decision_draws"}
        for stats in run["paths"].values():
            assert stats["n"] == 3  # the tiny size's timed calls
            assert 0.0 < stats["q1_s"] <= stats["median_s"] <= stats["q3_s"]
            assert stats["processes"] == 2  # and its processes
            assert len(stats["process_medians_s"]) == 2
            assert all(t > 0.0 for t in stats["process_medians_s"])


def test_bench_script_refuses_a_schema_1_file(tmp_path, checkout_env):
    """A file that keeps one run per label is left as it is."""
    out = tmp_path / "bench.json"
    out.write_text('{"schema": 1, "runs": {}}\n', encoding="utf-8")
    proc = run_script(checkout_env, "bench.py", "--size", "tiny",
                      "--label", "change", "--out", str(out))
    assert proc.returncode == 2
    assert "is not a schema 2 file" in proc.stderr
    assert out.read_text(encoding="utf-8") == '{"schema": 1, "runs": {}}\n'


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
        "monte_carlo", "transcript_table", "pmax_oracle"}
    assert runs[1].stdout == runs[0].stdout
