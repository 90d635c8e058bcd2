#!/usr/bin/env python3
"""Time entrot's hot paths and record them in a JSON file.

Each path is called once untimed, then timed a fixed number of times
with ``time.perf_counter``, in each of a few fresh processes run one
after another (both counts per ``--size``).  Per path, the file keeps
the median and quartiles of all the timed calls, the median of each
process and both counts, with the git revision, Python, numpy, CPU
count and usable CPUs (the process's affinity set, which a shared host
can make smaller than the CPU count) of the run: a spread between the
process medians wider than the quartiles shows noise that one process
does not.  Each invocation appends its run to the list under its
``--label``, so one file can hold a parent and a change measured on the
same machine in alternation (parent, change, parent, change), to be
compared run against run.  The package is imported from the usual path,
so ``PYTHONPATH`` selects the checkout that is measured.

Example:
    PYTHONPATH=src python3 scripts/bench.py --label change --out BENCH.json
"""

import argparse
import itertools
import json
import math
import multiprocessing
import os
import pathlib
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np

import entrot
from entrot.cli import main as cli_main
from entrot.montecarlo import _DECISION_CHANNEL, _transcript_table
from entrot.protocol import _rng_from_seed

#: Per size: Monte Carlo trials, sweep points per axis, timed calls per
#: path and process, and processes.
SIZES = {"full": (1_000_000, 400, 7, 3), "tiny": (1_000, 5, 3, 2)}


def _revision(where: pathlib.Path) -> dict:
    """The checkout's HEAD and whether its tracked files differ from it."""
    def git(*argv):
        proc = subprocess.run(["git", "-C", str(where), *argv],
                              capture_output=True, text=True, check=False)
        return proc.stdout.strip() if proc.returncode == 0 else None

    sha = git("rev-parse", "HEAD")
    status = git("status", "--porcelain", "--untracked-files=no")
    return {"git_sha": sha, "git_dirty": None if sha is None else bool(status)}


def _usable_cpus() -> int:
    """The CPUs this process may run on, which ``cpu_count`` ignores."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count()


def _paths(size: str, workdir: str):
    """``(name, call)`` pairs; every call is independent of the last."""
    trials, points, _, _ = SIZES[size]
    params = entrot.ProtocolParams(math.pi / 4, math.pi / 6)
    weights = entrot.optimum(params).weights
    rng = np.random.default_rng(7)
    state = entrot.haar_state(("A", "B"), rng.standard_normal(8))
    seeds = itertools.count()
    grid = f"0.05pi:0.5pi:{points}"

    def sweep(*fmt):
        out = os.path.join(workdir, "grid.json" if fmt else "grid.csv")
        if cli_main(["sweep", "--theta-grid", grid, "--alpha-grid", grid,
                     "--out", out, *fmt]) != 0:
            raise RuntimeError("sweep failed")

    def table():
        _transcript_table.cache_clear()  # time a build, not a memo hit
        return _transcript_table(params, weights, deterministic=True)

    def oracle():
        angles = rng.uniform(0.05, 0.5, 2) * math.pi
        return entrot.pmax_oracle(entrot.ProtocolParams(*angles.tolist()),
                                  resolution=1e-5)

    return [
        ("monte_carlo", lambda: entrot.monte_carlo(params, trials, seed=1)),
        ("monte_carlo_deterministic", lambda: entrot.monte_carlo(
            params, trials, seed=1, deterministic=True)),
        ("run_once", lambda: entrot.run_once(params, weights, state,
                                             seed=next(seeds))),
        ("run_once_deterministic", lambda: entrot.run_once(
            params, weights, state, seed=next(seeds), deterministic=True)),
        ("decision_draws", lambda: _rng_from_seed(
            1, _DECISION_CHANNEL).bit_generator.random_raw(5 * trials)),
        ("transcript_table", table),
        ("sweep", sweep),
        ("sweep_json", lambda: sweep("--json")),
        ("pmax_oracle", oracle),
        ("threshold_theta", lambda: entrot.threshold_theta(1e-4)),
    ]


def _times(size: str) -> dict:
    """Each path's timed calls in this process, in seconds."""
    repeats = SIZES[size][2]
    times = {}
    with tempfile.TemporaryDirectory(prefix="entrot-bench-") as workdir:
        for name, call in _paths(size, workdir):
            call()
            times[name] = []
            for _ in range(repeats):
                start = time.perf_counter()
                call()
                times[name].append(time.perf_counter() - start)
    return times


def measure(size: str) -> dict:
    trials, points, repeats, processes = SIZES[size]
    runs = []
    for _ in range(processes):
        with ProcessPoolExecutor(
                1, mp_context=multiprocessing.get_context("spawn")) as pool:
            runs.append(pool.submit(_times, size).result())
    results = {}
    for name in runs[0]:
        q1, median, q3 = statistics.quantiles(
            [t for run in runs for t in run[name]], n=4, method="inclusive")
        results[name] = {
            "median_s": median, "q1_s": q1, "q3_s": q3, "n": repeats,
            "processes": processes,
            "process_medians_s": [statistics.median(run[name])
                                  for run in runs]}
    return {
        **_revision(pathlib.Path(entrot.__file__).parent),
        "entrot": entrot.__version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.platform(),
        "cpu_count": os.cpu_count(),
        "usable_cpus": _usable_cpus(),
        "size": {"name": size, "monte_carlo_trials": trials,
                 "sweep_points_per_axis": points,
                 "pmax_oracle_resolution": 1e-5, "threshold_tol": 1e-4},
        "paths": results,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="JSON file to update")
    parser.add_argument("--label", required=True,
                        help="the run list to append to, e.g. parent")
    parser.add_argument("--size", choices=sorted(SIZES), default="full",
                        help="full: 1e6 trials, 400x400 sweeps (CSV and "
                             "JSON), 7 timed calls in each of 3 processes; "
                             "tiny: a schema check in seconds (default full)")
    args = parser.parse_args()
    out = pathlib.Path(args.out)
    doc = (json.loads(out.read_text(encoding="utf-8")) if out.exists()
           else {"schema": 2, "runs": {}})
    if doc.get("schema") != 2:
        parser.error(f"{out} is not a schema 2 file; write to a new one")
    runs = doc["runs"].setdefault(args.label, [])
    runs.append(measure(args.size))
    out.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    print(f"wrote run {len(runs)} of {args.label!r} to {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
