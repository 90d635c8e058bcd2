"""The three benchmark workloads, their inputs and their correctness gates.

Every workload builds its inputs from the workload seed alone and hands
entrot only those inputs.  An op is one closed-loop unit of work:

``mc_batch``
    one round of four 100 000-trial ``monte_carlo`` calls with Haar-random
    inputs, with and without Bell repair, at a case II point (pi/4, pi/6)
    and a case I point (0.45 pi, 0.35 pi).
``grid``
    one analysis pass through ``cli.main``: ``sweep`` to CSV, ``sweep
    --json`` on the same 60 x 60 grid, then ``threshold --json``.
``check_scan``
    one seeded point (theta, alpha) in [0.05 pi, 0.5 pi]^2: ``optimum``
    against ``pmax_oracle``, 16 deterministic ``run_once`` attempts on Haar
    inputs and one 4096-trial deterministic ``monte_carlo``.

Functions are looked up on their modules at call time (``entrot.optimum``,
``entrot.cli.main``), so a tracer that rebinds them sees every call.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import entrot
import entrot.cli

PI = math.pi

#: Inputs are drawn for this many ops up front and reused cyclically.
POOL = 2048


@dataclass(frozen=True)
class Size:
    mc_trials: int       # trials per mc_batch call
    grid_n: int          # grid points per axis
    scan_runs: int       # run_once attempts per check_scan point
    scan_trials: int     # trials of the check_scan monte_carlo call


SIZES = {
    "full": Size(mc_trials=100_000, grid_n=60, scan_runs=16, scan_trials=4096),
    "tiny": Size(mc_trials=2_000, grid_n=6, scan_runs=2, scan_trials=256),
}


@dataclass
class OpRecord:
    """What one op produced, timed from outside entrot."""

    seconds: float                  # op wall time
    work: int                       # work units done (trials, points)
    outputs: object                 # whatever the checks need
    split: dict = field(default_factory=dict)  # named sub-timers / work


def digest(items: list[dict]) -> str:
    """sha256 of a workload's fingerprint items."""
    return hashlib.sha256(json.dumps(items, sort_keys=True).encode()).hexdigest()


def _stats_fields(stats) -> dict:
    """The ``SummaryStats`` fields as exact text (floats by ``repr``)."""
    return {
        "trials": stats.trials, "seed": stats.seed,
        "deterministic": stats.deterministic,
        "branch_counts": list(stats.branch_counts),
        "success_count": stats.success_count,
        "bell_pairs": round(stats.mean_bell_pairs * stats.trials),
        "x": repr(stats.weights.x), "y": repr(stats.weights.y),
        "empirical_p": repr(stats.empirical_p),
        "analytic_p": repr(stats.analytic_p),
        "z_score": repr(stats.z_score),
        "mean_fidelity": repr(stats.mean_fidelity),
        "mean_bell_pairs": repr(stats.mean_bell_pairs),
        "mean_ebits": repr(stats.mean_ebits),
    }


def _stats_counts(stats: list[dict]) -> dict:
    counts = {f"monte_carlo.branch{b + 1}": sum(s["branch_counts"][b] for s in stats)
              for b in range(3)}
    counts["monte_carlo.bell_pairs"] = sum(s["bell_pairs"] for s in stats)
    return counts


def _check_stats(stats, trials: int, label: str) -> list[str]:
    bad = []
    if not abs(stats.z_score) <= 5.0:
        bad.append(f"{label}: |z| = {abs(stats.z_score):.2f} > 5")
    if sum(stats.branch_counts) != trials or stats.trials != trials:
        bad.append(f"{label}: branch counts {stats.branch_counts} do not sum "
                   f"to {trials}")
    if stats.mean_fidelity is None or not stats.mean_fidelity >= 1.0 - 1e-9:
        bad.append(f"{label}: mean fidelity {stats.mean_fidelity!r} < 1 - 1e-9")
    if stats.deterministic:
        bell = round(stats.mean_bell_pairs * stats.trials)
        if bell > stats.branch_counts[2]:
            bad.append(f"{label}: {bell} Bell pairs for "
                       f"{stats.branch_counts[2]} failures")
    return bad


class McBatch:
    """Batch Monte Carlo: the engine's vectorized kernel under load."""

    name = "mc_batch"
    unit = "trials"
    fingerprint_ops = 2
    POINTS = ((PI / 4, PI / 6), (0.45 * PI, 0.35 * PI))

    def __init__(self, seed: int, size: Size, workdir: Path):
        rng = np.random.default_rng([seed, 1])
        self.trials = size.mc_trials
        self.seeds = rng.integers(0, 2 ** 63, size=(POOL, 2 * len(self.POINTS)))
        self.params = [entrot.ProtocolParams(t, a) for t, a in self.POINTS]

    def op(self, i: int) -> OpRecord:
        seeds = self.seeds[i % POOL]
        times = {False: 0.0, True: 0.0}
        stats = []
        t_op = perf_counter()
        for k, params in enumerate(self.params):
            for det in (False, True):
                t0 = perf_counter()
                s = entrot.monte_carlo(params, self.trials,
                                       int(seeds[2 * k + det]),
                                       deterministic=det)
                times[det] += perf_counter() - t0
                stats.append(s)
        seconds = perf_counter() - t_op
        half = self.trials * len(self.params)
        return OpRecord(seconds, 2 * half, stats,
                        {"trials_s": times[False], "det_trials_s": times[True],
                         "trials": half, "det_trials": half})

    def rates(self, window) -> dict:
        sp = window.split
        return {"trials_per_s": (window.rate(sp["trials"], sp["trials_s"]),
                                 "trials/s"),
                "det_trials_per_s": (window.rate(sp["det_trials"],
                                                 sp["det_trials_s"]), "trials/s")}

    def check(self, i: int, rec: OpRecord) -> list[str]:
        bad = []
        for s in rec.outputs:
            label = (f"op {i} ({s.params.theta / PI:.2f}pi, "
                     f"{s.params.alpha / PI:.2f}pi, det={s.deterministic})")
            bad += _check_stats(s, self.trials, label)
        return bad

    def fingerprint(self, i: int, rec: OpRecord) -> dict:
        return {"stats": [_stats_fields(s) for s in rec.outputs]}

    @staticmethod
    def fingerprint_counts(items: list[dict]) -> dict:
        """The seeded counts behind a fingerprint, summed over its ops."""
        return {"ops": len(items),
                **_stats_counts([s for it in items for s in it["stats"]])}


class Grid:
    """Analysis pass through the CLI: scalar closed forms and serialization."""

    name = "grid"
    unit = "points"
    fingerprint_ops = 4
    SAMPLED_ROWS = 8

    def __init__(self, seed: int, size: Size, workdir: Path):
        rng = np.random.default_rng([seed, 2])
        self.n = size.grid_n
        lo = rng.uniform(0.005, 0.25, size=(POOL, 2)) * PI
        hi = rng.uniform(0.3, 0.5, size=(POOL, 2)) * PI
        self.bounds = np.stack([lo, hi], axis=2)       # (op, axis, lo/hi)
        self.samples = rng.integers(0, self.n * self.n,
                                    size=(POOL, self.SAMPLED_ROWS))
        self.csv_path = workdir / "grid.csv"
        self.json_path = workdir / "grid.json"

    def _spec(self, i: int, axis: int) -> str:
        lo, hi = self.bounds[i % POOL, axis]
        return f"{float(lo)!r}:{float(hi)!r}:{self.n}"

    def op(self, i: int) -> OpRecord:
        grids = ["--theta-grid", self._spec(i, 0), "--alpha-grid", self._spec(i, 1)]
        out = io.StringIO()
        main = entrot.cli.main
        t0 = perf_counter()
        with contextlib.redirect_stdout(out):
            codes = (main(["sweep", *grids, "--out", str(self.csv_path)]),
                     main(["sweep", *grids, "--json", "--out", str(self.json_path)]),
                     main(["threshold", "--json"]))
        seconds = perf_counter() - t0
        outputs = {"codes": codes, "stdout": out.getvalue(),
                   "csv": self.csv_path.read_text(encoding="utf-8"),
                   "json": self.json_path.read_text(encoding="utf-8")}
        return OpRecord(seconds, self.n * self.n, outputs)

    def rates(self, window) -> dict:
        return {"grid_points_per_s": (window.rate(), "points/s")}

    def check(self, i: int, rec: OpRecord) -> list[str]:
        out = rec.outputs
        if out["codes"] != (0, 0, 0):
            return [f"op {i}: exit codes {out['codes']}"]
        rows = list(csv.reader(io.StringIO(out["csv"])))
        header, rows = rows[0], rows[1:]
        doc = json.loads(out["json"])
        bad = []
        n2 = self.n * self.n
        if len(rows) != n2 or len(doc["rows"]) != n2:
            return [f"op {i}: {len(rows)} CSV / {len(doc['rows'])} JSON rows, "
                    f"expected {n2}"]
        for r, (text, obj) in enumerate(zip(rows, doc["rows"])):
            as_text = [obj[k] if k == "case" else f"{obj[k]:.12g}" for k in header]
            if as_text != text:
                bad.append(f"op {i}: CSV and JSON disagree at row {r}")
                break
        thetas = np.linspace(*self.bounds[i % POOL, 0], self.n)
        alphas = np.linspace(*self.bounds[i % POOL, 1], self.n)
        for r in self.samples[i % POOL]:
            params = entrot.ProtocolParams(float(thetas[r // self.n]),
                                           float(alphas[r % self.n]))
            best = entrot.optimum(params)
            rep = entrot.average_cost(params)
            want = [f"{v:.12g}" for v in (params.theta, params.alpha)]
            want += [best.case.value] + [f"{v:.12g}" for v in (
                best.x, best.y, best.p_max, rep.entropy, rep.avg_cost)]
            if rows[r] != want:
                bad.append(f"op {i}: row {r} is {rows[r]}, expected {want}")
        thr = json.loads(out["stdout"])["threshold_pi"]
        if not 0.232 <= thr <= 0.236:
            bad.append(f"op {i}: threshold_pi {thr} outside [0.232, 0.236]")
        return bad

    def fingerprint(self, i: int, rec: OpRecord) -> dict:
        out = rec.outputs
        return {"rows": out["csv"].count("\n") - 1,
                "bytes_out": len(out["csv"]) + len(out["json"]) + len(out["stdout"]),
                "csv_sha256": hashlib.sha256(out["csv"].encode()).hexdigest(),
                "json_sha256": hashlib.sha256(out["json"].encode()).hexdigest(),
                "threshold": out["stdout"]}

    @staticmethod
    def fingerprint_counts(items: list[dict]) -> dict:
        return {"ops": len(items),
                "grid_rows": sum(it["rows"] for it in items),
                "cli.bytes_out": sum(it["bytes_out"] for it in items)}


def _target(theta: float, amps: np.ndarray) -> np.ndarray:
    """``cos(t/2) I + i sin(t/2) sz x sz`` applied to (A, B) amplitudes."""
    signs = np.array([1.0, -1.0, -1.0, 1.0])
    return (math.cos(theta / 2.0) + 1j * math.sin(theta / 2.0) * signs) * amps


class CheckScan:
    """Point-by-point verification: oracle search and single-run protocol."""

    name = "check_scan"
    unit = "points"
    fingerprint_ops = 16
    RESOLUTION = 1e-5

    def __init__(self, seed: int, size: Size, workdir: Path):
        rng = np.random.default_rng([seed, 3])
        self.runs = size.scan_runs
        self.trials = size.scan_trials
        self.angles = rng.uniform(0.05, 0.5, size=(POOL, 2)) * PI
        self.normals = rng.standard_normal((POOL, self.runs, 8))
        self.run_seeds = rng.integers(0, 2 ** 63, size=(POOL, self.runs))
        self.mc_seeds = rng.integers(0, 2 ** 63, size=POOL)

    def op(self, i: int) -> OpRecord:
        j = i % POOL
        t0 = perf_counter()
        params = entrot.ProtocolParams(*map(float, self.angles[j]))
        best = entrot.optimum(params)
        oracle = entrot.pmax_oracle(params, resolution=self.RESOLUTION)
        runs = []
        for r in range(self.runs):
            state = entrot.haar_state(("A", "B"), self.normals[j, r])
            runs.append((state, entrot.run_once(params, best.weights, state,
                                                int(self.run_seeds[j, r]),
                                                deterministic=True)))
        stats = entrot.monte_carlo(params, self.trials, int(self.mc_seeds[j]),
                                   deterministic=True)
        seconds = perf_counter() - t0
        return OpRecord(seconds, 1, (params, best, oracle, runs, stats))

    def rates(self, window) -> dict:
        return {"checked_points_per_s": (window.rate(), "points/s")}

    def check(self, i: int, rec: OpRecord) -> list[str]:
        params, best, oracle, runs, stats = rec.outputs
        where = f"op {i} ({params.theta / PI:.4f}pi, {params.alpha / PI:.4f}pi)"
        bad = []
        gap = abs(best.p_max - oracle[2])
        if not gap <= self.RESOLUTION:
            bad.append(f"{where}: |optimum - oracle| = {gap:.2e}")
        for r, (state, out) in enumerate(runs):
            want = _target(params.theta, state.amps)
            got = out.final_state.permuted(("A", "B")).amps
            fid = abs(np.vdot(want, got)) ** 2
            if not fid >= 1.0 - 1e-10:
                bad.append(f"{where}: run {r} fidelity {fid!r}")
        return bad + _check_stats(stats, self.trials, where)

    def fingerprint(self, i: int, rec: OpRecord) -> dict:
        params, best, oracle, runs, stats = rec.outputs
        return {
            "optimum": [best.case.value, repr(best.x), repr(best.y)],
            "oracle": [repr(v) for v in oracle],
            "runs": [[out.branch, out.bell_pairs_consumed,
                      [repr(m) for m in out.transcript],
                      hashlib.sha256(out.final_state.amps.tobytes()).hexdigest()]
                     for _, out in runs],
            "stats": _stats_fields(stats),
        }

    @staticmethod
    def fingerprint_counts(items: list[dict]) -> dict:
        runs = [r for it in items for r in it["runs"]]
        counts = {"ops": len(items), "pmax_oracle.calls": len(items),
                  "run_once.calls": len(runs)}
        for b in (1, 2, 3):
            counts[f"run_once.branch{b}"] = sum(r[0] == b for r in runs)
        counts["run_once.bell_pairs"] = sum(r[1] for r in runs)
        return {**counts, **_stats_counts([it["stats"] for it in items])}


WORKLOADS = {w.name: w for w in (McBatch, Grid, CheckScan)}
