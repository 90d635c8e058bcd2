"""entrot benchmark: one seeded, closed-loop workload per invocation.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload mc_batch --seed 1 --seconds 30 --trace 0

The program under test is imported from ``src/`` of the same checkout.
One process runs one workload with one caller: each op starts when the
previous one has finished and has passed its correctness checks.

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` spends the first half of the window untraced and the second
half traced (restarting at op 0), and reports the per-layer split and the
throughput ratio of the two halves.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines before
it are the human-readable report.  A run record (environment, metrics,
fingerprint) goes to ``.perfbench/runs/`` and, for traced runs, the spans
to ``.perfbench/spans/``.  The exit code is 0 only if every op passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

# numpy, entrot and the benchmark modules that import them are imported
# inside functions: the thread counts must be pinned first, and the set-up
# timer starts before they load.

#: Thread-count variables pinned to 1 before numpy loads.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "BLIS_NUM_THREADS")

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"

#: Extra processes that repeat the set-up, for the median of ``setup_s``.
SETUP_REPEATS = 8

#: Metrics of the result line with tracing off.  ``op_p50_ms`` is only
#: reported: under host contention that comes and goes over minutes the
#: median flips between a fast and a slow mode, while the mean inside
#: ``work_per_s`` moves in proportion to the contended share of the run.
END_TO_END = {
    "setup_s": "s",
    "work_per_s": "1/s",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}

#: Per-layer functions reported in the result line.
TRACED_FUNCTIONS = {
    "montecarlo": ("monte_carlo",),
    "povm": ("optimum", "build_povm", "povm_vectors", "pmax_oracle"),
    "entanglement": ("average_cost", "resource_entropy", "min_cost_over_alpha",
                     "threshold_theta"),
    "protocol": ("run_once", "initial_register", "step1_alice", "step2_bob",
                 "step3_bob", "step4_bob_povm", "finish_success",
                 "failure_residual", "recover_with_bell",
                 "controlled_rotation", "wrap_angle"),
    "qmath": ("apply_gate", "measure_qubit", "project_out", "expectation",
              "psd_sqrt2", "haar_state"),
    "cli": ("main",),
}


def per_layer_units() -> dict[str, str]:
    """Name -> unit of every per-layer metric, in report order."""
    from layertrace import ENTRY_POINTS, LAYERS
    units = {}
    for layer, fns in TRACED_FUNCTIONS.items():
        for fn in fns:
            key = f"{layer}.{fn}"
            units[f"{key}.calls"] = "count"
            units[f"{key}.busy_pct"] = "%"
            if key in ENTRY_POINTS:
                units[f"{key}.self_pct"] = "%"
    for layer in LAYERS:
        units[f"{layer}.self_pct"] = "%"
    units.update({
        "montecarlo.trials": "count", "montecarlo.branch3": "count",
        "montecarlo.bell_pairs": "count", "montecarlo.success_ratio": "ratio",
        "protocol.branch1": "count", "protocol.branch2": "count",
        "protocol.branch3": "count", "protocol.bell_pairs": "count",
        "cli.bytes_out": "count", "cli.nonzero_exits": "count",
        "trace.coverage_pct": "%", "trace.throughput_ratio": "ratio",
    })
    return units


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("mc_batch", "grid", "check_scan"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="input size; 'tiny' is for the smoke test")
    p.add_argument("--setup-only", action="store_true",
                   help="time the set-up alone and print it as JSON")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def pin_threads() -> dict:
    """Set every thread-count variable to 1; returns the previous values."""
    before = {k: os.environ.get(k) for k in THREAD_VARS}
    os.environ.update(dict.fromkeys(THREAD_VARS, "1"))
    return before


def import_program():
    """Import entrot from this checkout's ``src/``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "entrot" / "__init__.py").is_file():
        raise SystemExit(f"error: no entrot sources under {src}")
    sys.path.insert(0, str(src))
    import entrot
    if Path(entrot.__file__).resolve().parent != (src / "entrot").resolve():
        raise SystemExit(f"error: imported entrot from {entrot.__file__}, "
                         f"not from {src}")


class Window:
    """Ops run closed-loop for a fixed time, with their checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.latencies: list[float] = []  # ops that returned
        self.op_ids: list[int] = []       # their op ids
        self.started: list[float] = []    # their start, from window start
        self.t0 = perf_counter()
        self.works: list[int] = []
        self.split: dict[str, float] = {}
        self.problems: list[str] = []
        self.fingerprint: list[dict] = []

    def rate(self, work=None, seconds=None) -> float:
        if seconds is None:
            seconds = sum(self.latencies)
        if work is None:
            work = sum(self.works)
        return work / seconds if seconds else 0.0


def run_op(wl, i, tracer, window, timed=True):
    """One op and its checks; a raised error or a failed check fails it."""
    if tracer is not None:
        tracer.op = i
    window.attempted += 1
    start = perf_counter() - window.t0
    try:
        rec = wl.op(i)
    except Exception:
        window.failed += 1
        window.problems.append(f"op {i} raised:\n{traceback.format_exc()}")
        return
    try:
        if tracer is not None:
            with tracer.paused():
                bad = wl.check(i, rec)
        else:
            bad = wl.check(i, rec)
    except Exception:
        bad = [f"op {i} check raised:\n{traceback.format_exc()}"]
    if bad:
        window.failed += 1
        window.problems.extend(bad)
    if i < wl.fingerprint_ops:
        window.fingerprint.append(wl.fingerprint(i, rec))
    if timed:
        window.latencies.append(rec.seconds)
        window.op_ids.append(i)
        window.started.append(start)
        window.works.append(rec.work)
        for k, v in rec.split.items():
            window.split[k] = window.split.get(k, 0.0) + v


def measure(wl, seconds, tracer=None) -> Window:
    """Run ops from 0 for ``seconds``, then finish the fingerprint ops
    untimed if the window ended before them."""
    window = Window()
    end = perf_counter() + seconds
    i = 0
    while i == 0 or perf_counter() < end:
        run_op(wl, i, tracer, window)
        i += 1
    while i < wl.fingerprint_ops:
        run_op(wl, i, tracer, window, timed=False)
        i += 1
    return window


def tail(latencies):
    """Highest percentile with at least ten samples beyond it, as
    ``(value, percentile)``; the maximum when there are too few samples."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0
    return xs[n - 11], 100.0 * (n - 10) / n


def setup_workload(name, seed, size, workdir):
    """Build the inputs and run one checked warm-up op at the tiny size."""
    import workloads
    workdir.mkdir(parents=True, exist_ok=True)
    cls = workloads.WORKLOADS[name]
    wl = cls(seed, workloads.SIZES[size], workdir)
    warm = cls(seed, workloads.SIZES["tiny"], workdir)
    bad = warm.check(0, warm.op(0))
    if bad:
        raise RuntimeError("warm-up op failed: " + "; ".join(bad))
    return wl


def setup_repeats(args) -> list[float]:
    """Time the set-up again in fresh processes, one after another."""
    out = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", "1", "--size", args.size, "--setup-only"],
            capture_output=True, text=True, timeout=120, check=True)
        out.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return out


def environment(thread_env_before: dict) -> dict:
    import numpy as np
    env = {"python": platform.python_version(),
           "implementation": platform.python_implementation(),
           "numpy": np.__version__, "nproc": os.cpu_count(),
           "affinity_cpus": len(os.sched_getaffinity(0)),
           "thread_env_before": thread_env_before,
           "thread_env": {k: os.environ[k] for k in THREAD_VARS},
           "threads_pinned": True, "processes": 1, "callers": 1,
           "loop": "closed"}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = {k: blas.get(k) for k in ("name", "version",
                                                "openblas configuration")}
    except (KeyError, TypeError, ValueError):
        env["blas"] = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            env["cpu_model"] = next((line.split(":", 1)[1].strip()
                                     for line in fh
                                     if line.startswith("model name")), None)
    except OSError:
        env["cpu_model"] = None
    env["git_rev"] = env["git_dirty"] = None
    if (ROOT / ".git").exists():
        try:
            git = ["git", "-C", str(ROOT)]
            env["git_rev"] = subprocess.run(
                git + ["rev-parse", "HEAD"], capture_output=True, text=True,
                timeout=30, check=True).stdout.strip()
            env["git_dirty"] = bool(subprocess.run(
                git + ["status", "--porcelain"], capture_output=True,
                text=True, timeout=30, check=True).stdout.strip())
        except (OSError, subprocess.SubprocessError):
            pass
    return env


def layer_metrics(tracer, window, untraced) -> dict[str, float]:
    """Per-layer metrics of the traced half, per op or as % of op time."""
    from layertrace import LAYERS
    ops = window.attempted
    wall = sum(window.latencies)
    stats = tracer.per_function()
    layer_self = tracer.layer_self()
    counts = tracer.counts
    m = {}
    for name in per_layer_units():
        key, _, what = name.rpartition(".")
        if key in stats:
            calls, busy, self_s = stats[key]
            m[name] = {"calls": calls / ops, "busy_pct": 100.0 * busy / wall,
                       "self_pct": 100.0 * self_s / wall}[what]
        elif key in LAYERS and what == "self_pct":
            m[name] = 100.0 * layer_self[key] / wall
        elif name in counts:
            m[name] = counts[name] / ops
    trials = counts["montecarlo.trials"]
    m["montecarlo.success_ratio"] = (counts["montecarlo.successes"] / trials
                                     if trials else 0.0)
    m["trace.coverage_pct"] = 100.0 * sum(layer_self.values()) / wall
    m["trace.throughput_ratio"] = window.rate() / untraced.rate()
    return m


def print_layer_table(tracer, window):
    ops = window.attempted
    wall = sum(window.latencies)
    print(f"traced ops: {ops}, op wall time {wall:.4f} s, "
          f"wrapped bindings: {len(tracer.bindings)}")
    print(f"{'function':<34}{'calls':>10}{'busy_s':>12}{'self_s':>12}"
          f"{'self %':>9}")
    for key, (calls, busy, self_s) in tracer.per_function().items():
        if calls:
            print(f"{key:<34}{calls:>10}{busy:>12.6f}{self_s:>12.6f}"
                  f"{100.0 * self_s / wall:>9.2f}")
    print("layer self time:")
    for layer, self_s in tracer.layer_self().items():
        print(f"  {layer:<14}{self_s:>12.6f} s {100.0 * self_s / wall:>7.2f} %")
    cover = sorted(tracer.root_time.get(i, 0.0) / t
                   for i, t in zip(window.op_ids, window.latencies))
    print(f"self-time coverage per op: min {cover[0]:.4f}, median "
          f"{statistics.median(cover):.4f}, max {cover[-1]:.4f}")
    print("counts: " + json.dumps(tracer.counts))


def run_untraced(args, wl, setup_s):
    window = measure(wl, args.seconds)
    setups = [setup_s] + setup_repeats(args)
    lat = window.latencies or [float("nan")]
    tail_s, tail_pct = tail(lat)
    metrics = {
        "setup_s": statistics.median(setups),
        "work_per_s": window.rate(),
        "op_p50_ms": 1000.0 * statistics.median(lat),
        "op_tail_ms": 1000.0 * tail_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    named = wl.rates(window)
    for name, (value, unit) in named.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"op_p50_ms = {metrics['op_p50_ms']:.6g} ms (n={len(lat)})")
    print(f"op_tail_ms = {metrics['op_tail_ms']:.6g} ms "
          f"(p{tail_pct:.1f}, n={len(lat)})")
    print(f"setup_s = {metrics['setup_s']:.6g} s (median of {len(setups)}: "
          f"{', '.join(f'{s:.4f}' for s in setups)})")
    print(f"peak_rss_mb = {metrics['peak_rss_mb']:.6g} MB")
    print(f"work_per_s = {metrics['work_per_s']:.6g} {wl.unit}/s")
    extra = {"setups": setups, "named": {k: v[0] for k, v in named.items()},
             "tail_percentile": tail_pct, "samples": len(lat),
             "op_started_s": window.started, "op_seconds": window.latencies}
    return metrics, END_TO_END, window, extra


def run_traced(args, wl):
    from layertrace import LayerTracer
    untraced = measure(wl, args.seconds / 2)
    with LayerTracer() as tracer:
        window = measure(wl, args.seconds / 2, tracer)
    metrics = layer_metrics(tracer, window, untraced)
    OUT.joinpath("spans").mkdir(exist_ok=True)
    spans = OUT / "spans" / f"{args.workload}-seed{args.seed}.npz"
    kept = tracer.write_spans(spans)
    print_layer_table(tracer, window)
    print(f"spans: {kept} kept, {tracer.spans_dropped} beyond the cap, "
          f"written to {spans.relative_to(ROOT)}")
    print(f"tracing overhead: traced {window.rate():.6g} against untraced "
          f"{untraced.rate():.6g} {wl.unit}/s on the same seed "
          f"(ratio {metrics['trace.throughput_ratio']:.4f})")
    # Both halves start at op 0, so their fingerprint ops must agree.
    both = Window()
    both.attempted = untraced.attempted + window.attempted
    both.failed = untraced.failed + window.failed
    both.problems = untraced.problems + window.problems
    both.fingerprint = untraced.fingerprint
    if untraced.fingerprint != window.fingerprint:
        both.failed += 1
        both.problems.append("traced ops produced different outputs")
    return metrics, per_layer_units(), both, {"bindings": tracer.bindings}


def main(argv=None) -> int:
    args = parse_args(argv)
    threads_before = pin_threads()
    t_start = perf_counter()
    import_program()
    import workloads
    workdir = OUT / f"work-{os.getpid()}"
    try:
        wl = setup_workload(args.workload, args.seed, args.size, workdir)
        setup_s = perf_counter() - t_start
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        if args.trace:
            metrics, units, window, extra = run_traced(args, wl)
        else:
            metrics, units, window, extra = run_untraced(args, wl, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted, failed = window.attempted, window.failed
    print(f"fail_frac = {failed / max(attempted, 1):.6g} ({failed}/{attempted})")
    for line in window.problems[:20]:
        print(f"FAILED: {line}", file=sys.stderr)
    digest = workloads.digest(window.fingerprint)
    counts = wl.fingerprint_counts(window.fingerprint)
    env = environment(threads_before)
    print(f"fingerprint {args.workload} seed={args.seed}: {digest}")
    print("fingerprint counts: " + json.dumps(counts, sort_keys=True))
    print("environment: " + json.dumps(env, sort_keys=True))

    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "size": args.size,
              "environment": env, "metrics": metrics, "attempted": attempted,
              "failed": failed, "fingerprint": digest,
              "fingerprint_counts": counts, "problems": window.problems[:20],
              **extra}
    OUT.joinpath("runs").mkdir(parents=True, exist_ok=True)
    OUT.joinpath("runs", f"{args.workload}-seed{args.seed}-trace{args.trace}"
                 ".json").write_text(json.dumps(record, indent=1) + "\n")

    correct = failed == 0
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u}
                    for k, u in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
