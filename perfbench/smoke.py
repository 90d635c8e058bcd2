"""Smoke test of the benchmark: schema, correctness gate and fingerprints.

Run from the root of a checkout::

    python3 perfbench/smoke.py

Runs every workload at the tiny size, untraced twice and traced once,
and checks that the result line has the promised schema and the metric
names and units of ``BENCHMARK.json``, that every op passed, and that the
exact-repeat fingerprint is the same in all three runs.  It then feeds
each workload's checks a corrupted output and requires a failure, and
runs the benchmark in a directory holding only ``BENCHMARK.json`` and the
benchmark's files, where it must exit non-zero without a result.  No
timing is checked.  Exits 0 when everything holds.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def run(args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def check_spec(spec: dict) -> None:
    sys.path.insert(0, str(HERE))
    import run as bench
    expect(set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}, "BENCHMARK.json keys")
    names = [m["name"] for part in ("workloads", "end_to_end", "per_layer")
             for m in spec[part]]
    expect(len(names) == len(set(names)) and all(map(NAME.match, names)),
           "names are unique and well formed")
    expect(all(UNIT.match(m["unit"]) for part in ("end_to_end", "per_layer")
               for m in spec[part]), "units are well formed")
    expect({m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END,
           "end_to_end metrics match run.py")
    expect({m["name"]: m["unit"] for m in spec["per_layer"]}
           == bench.per_layer_units(), "per_layer metrics match run.py")
    expect(all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"]),
           "bounds lie in (0, 0.25]")
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    expect(setup["bound"] == max(m["bound"] for m in spec["end_to_end"]),
           "setup_s has the largest bound")


def check_result(proc, spec: dict, part: str, label: str) -> str | None:
    """Check one run's exit code and result line; returns its fingerprint."""
    lines = proc.stdout.strip().splitlines()
    expect(proc.returncode == 0, f"{label}: exit code {proc.returncode}")
    try:
        res = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        expect(False, f"{label}: last line is JSON")
        return None
    expect(set(res) == {"correct", "attempted", "failed", "metrics"},
           f"{label}: result keys")
    expect(res["correct"] is True and res["failed"] == 0
           and isinstance(res["attempted"], int) and res["attempted"] >= 1,
           f"{label}: correct, {res['failed']}/{res['attempted']} failed")
    want = {m["name"]: m["unit"] for m in spec[part]}
    got = res["metrics"]
    expect({k: v["unit"] for k, v in got.items()} == want,
           f"{label}: {part} metric names and units")
    expect(all(isinstance(v["value"], (int, float)) and math.isfinite(v["value"])
               for v in got.values()), f"{label}: values are finite numbers")
    if part == "end_to_end":
        expect(all(v["value"] > 0 for v in got.values()),
               f"{label}: end-to-end values are non-zero")
    fp = [line for line in lines if line.startswith("fingerprint ")]
    return fp[0] if fp else None


def check_gate() -> None:
    """Each workload's checks must reject a corrupted output."""
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import workloads
    work = ROOT / ".perfbench" / f"smoke-gate-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        tiny = workloads.SIZES["tiny"]
        mc = workloads.McBatch(1, tiny, work)
        rec = mc.op(0)
        expect(mc.check(0, rec) == [], "mc_batch: clean op passes")
        rec.outputs[0] = dataclasses.replace(rec.outputs[0], z_score=6.0)
        expect(bool(mc.check(0, rec)), "mc_batch: |z| > 5 fails")

        grid = workloads.Grid(1, tiny, work)
        rec = grid.op(0)
        expect(grid.check(0, rec) == [], "grid: clean op passes")
        head, first, rest = rec.outputs["csv"].split("\n", 2)
        cells = first.split(",")
        cells[5] = repr(float(cells[5]) + 1e-6)
        rec.outputs["csv"] = "\n".join([head, ",".join(cells), rest])
        expect(bool(grid.check(0, rec)), "grid: a wrong p_max cell fails")

        scan = workloads.CheckScan(1, tiny, work)
        rec = scan.op(0)
        expect(scan.check(0, rec) == [], "check_scan: clean op passes")
        params, best, oracle, runs, stats = rec.outputs
        rec.outputs = (params, best, (oracle[0], oracle[1], oracle[2] + 1e-4),
                       runs, stats)
        expect(bool(scan.check(0, rec)), "check_scan: oracle gap > 1e-5 fails")
    finally:
        shutil.rmtree(work, ignore_errors=True)


def check_without_sources() -> None:
    """With only BENCHMARK.json and perfbench/, the run must fail cleanly."""
    bare = ROOT / ".perfbench" / f"smoke-bare-{os.getpid()}"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        (bare / "perfbench").mkdir(parents=True)
        shutil.copy2(ROOT / "BENCHMARK.json", bare)
        for f in HERE.iterdir():
            if f.is_file():
                shutil.copy2(f, bare / "perfbench")
        proc = run(["--workload", "grid", "--seed", "1", "--seconds", "1",
                    "--trace", "0"], cwd=bare)
        last = proc.stdout.strip().splitlines()[-1:] or [""]
        expect(proc.returncode != 0 and not last[0].startswith("{"),
               f"without src/: exit code {proc.returncode} and no result line")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_spec(spec)
    for wl in spec["workloads"]:
        name = wl["name"]
        fps = []
        for trace, part in ((0, "end_to_end"), (0, "end_to_end"), (1, "per_layer")):
            proc = run(["--workload", name, "--seed", "7", "--seconds", "1",
                        "--trace", str(trace), "--size", "tiny"])
            fps.append(check_result(proc, spec, part, f"{name} trace={trace}"))
        expect(None not in fps and len(set(fps)) == 1,
               f"{name}: fingerprint repeats exactly across runs")
    check_gate()
    check_without_sources()
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
