#!/usr/bin/env python3
"""Time entrot's hot paths against another checkout's, in one process.

The package on ``PYTHONPATH`` is one side; ``--against CHECKOUT`` loads
the other's ``src/entrot`` as the package ``entrot_against`` (every
import inside ``entrot`` is relative, so it runs its own modules).  Both
sides build the same paths from identically seeded inputs, each with its
own memos.  Each path runs once untimed on each side, then in timed
pairs whose order flips every pair, so a slow spell of a shared host
falls on both sides alike.  Per path, the file keeps each side's median
and quartiles and the number of pairs the ``PYTHONPATH`` side won (a
tie counts for neither).  An existing ``--out`` is replaced.

Example:
    PYTHONPATH=src python3 scripts/bench.py --against ../parent --out BENCH.json
"""

import argparse
import importlib
import importlib.util
import itertools
import json
import math
import os
import pathlib
import platform
import statistics
import subprocess
import sys
import tempfile
import time

import numpy as np

import entrot

#: Per size: Monte Carlo trials, sweep points per axis and timed pairs.
SIZES = {"full": (1_000_000, 400, 21), "tiny": (1_000, 5, 3)}


def _load(checkout: pathlib.Path):
    """``CHECKOUT/src/entrot``, imported as the package ``entrot_against``."""
    where = checkout / "src" / "entrot"
    spec = importlib.util.spec_from_file_location(
        "entrot_against", where / "__init__.py",
        submodule_search_locations=[str(where)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = package
    spec.loader.exec_module(package)
    return package


def _paths(package, size: str, workdir: str) -> dict:
    """One side's call per path; every call is independent of the last."""
    trials, points, _ = SIZES[size]
    cli, mc, protocol = (importlib.import_module(f"{package.__name__}.{name}")
                         for name in ("cli", "montecarlo", "protocol"))
    params = package.ProtocolParams(math.pi / 4, math.pi / 6)
    weights = package.optimum(params).weights
    rng = np.random.default_rng(7)
    state = package.haar_state(("A", "B"), rng.standard_normal(8))
    seeds = itertools.count()
    grid = f"0.05pi:0.5pi:{points}"

    def sweep(*fmt):
        out = os.path.join(workdir, package.__name__ + ("-json" if fmt else ""))
        if cli.main(["sweep", "--theta-grid", grid, "--alpha-grid", grid,
                     "--out", out, *fmt]) != 0:
            raise RuntimeError("sweep failed")

    def table():
        mc._transcript_table.cache_clear()  # time a build, not a memo hit
        return mc._transcript_table(params, weights, deterministic=True)

    def oracle():
        angles = rng.uniform(0.05, 0.5, 2) * math.pi
        return package.pmax_oracle(
            package.ProtocolParams(*angles.tolist()), resolution=1e-5)

    return {
        "monte_carlo": lambda: package.monte_carlo(params, trials, seed=1),
        "monte_carlo_deterministic": lambda: package.monte_carlo(
            params, trials, seed=1, deterministic=True),
        "run_once": lambda: package.run_once(params, weights, state,
                                             seed=next(seeds)),
        "run_once_deterministic": lambda: package.run_once(
            params, weights, state, seed=next(seeds), deterministic=True),
        "decision_draws": lambda: protocol._rng_from_seed(
            1, mc._DECISION_CHANNEL).bit_generator.random_raw(trials),
        "transcript_table": table,
        "sweep": sweep,
        "sweep_json": lambda: sweep("--json"),
        "pmax_oracle": oracle,
        "threshold_theta": lambda: package.threshold_theta(1e-4),
    }


def _quartiles(times: list) -> dict:
    q1, median, q3 = statistics.quantiles(times, n=4, method="inclusive")
    return {"median_s": median, "q1_s": q1, "q3_s": q3}


def _side(package) -> dict:
    """One side's package directory, its checkout's HEAD and whether the
    checkout's tracked files differ from it."""
    where = pathlib.Path(package.__file__).resolve().parent

    def git(*argv):
        proc = subprocess.run(["git", "-C", str(where), *argv],
                              capture_output=True, text=True, check=False)
        return proc.stdout.strip() if proc.returncode == 0 else None

    sha = git("rev-parse", "HEAD")
    status = git("status", "--porcelain", "--untracked-files=no")
    return {"path": str(where), "git_sha": sha,
            "git_dirty": None if sha is None else bool(status)}


def measure(size: str, against) -> dict:
    trials, points, pairs = SIZES[size]
    results = {}
    with tempfile.TemporaryDirectory(prefix="entrot-bench-") as workdir:
        ours, theirs = (_paths(package, size, workdir)
                        for package in (entrot, against))
        for name in ours:
            calls = (ours[name], theirs[name])
            for call in calls:
                call()
            times = ([], [])
            for i in range(pairs):
                for k in ((0, 1), (1, 0))[i % 2]:
                    start = time.perf_counter()
                    calls[k]()
                    times[k].append(time.perf_counter() - start)
            results[name] = {
                "pythonpath": _quartiles(times[0]),
                "against": _quartiles(times[1]),
                "pythonpath_won": sum(a < b for a, b in zip(*times))}
    return {
        "schema": 3,
        "pythonpath": _side(entrot),
        "against": _side(against),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.platform(),
        "cpu_count": os.cpu_count(),
        # the affinity set, which a shared host can make smaller
        "usable_cpus": (len(os.sched_getaffinity(0))
                        if hasattr(os, "sched_getaffinity") else None),
        "size": {"name": size, "monte_carlo_trials": trials,
                 "sweep_points_per_axis": points, "pairs": pairs,
                 "pmax_oracle_resolution": 1e-5, "threshold_tol": 1e-4},
        "paths": results,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True,
                        help="JSON file to write (replaced if it exists)")
    parser.add_argument("--against", required=True, type=pathlib.Path,
                        metavar="CHECKOUT",
                        help="the checkout to compare with, e.g. the parent's")
    parser.add_argument("--size", choices=sorted(SIZES), default="full",
                        help="full: 1e6 trials, 400x400 sweeps (CSV and "
                             "JSON), 21 timed pairs; tiny: a schema check "
                             "in seconds (default full)")
    args = parser.parse_args()
    if not (args.against / "src" / "entrot" / "__init__.py").is_file():
        parser.error(f"{args.against} has no src/entrot/__init__.py")
    doc = measure(args.size, _load(args.against))
    pathlib.Path(args.out).write_text(json.dumps(doc, indent=2) + "\n",
                                      encoding="utf-8")
    print(f"wrote {args.size} pairs against {args.against} to {args.out}",
          file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
