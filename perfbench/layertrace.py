"""Per-layer tracing of entrot from outside the package.

:class:`LayerTracer` replaces every module binding of each layer's public
functions (``entrot.cli.optimum``, ``entrot.montecarlo.optimum``,
``entrot.povm.optimum``, the package's own ``entrot.optimum``, ...) with a
timing wrapper, and puts the originals back on exit.  No file of the
package is edited.  Each wrapped call is one span: name, start, end,
parent span and op id.  Spans are kept in memory, up to a cap, and written
out once at the end; per-function aggregates (calls, busy time, self time)
cover every call.  Self time is a span's duration minus the time its
direct child spans cover.

A few wrapped calls also feed counters read off their results: trials,
branches and Bell pairs from ``monte_carlo`` and ``run_once``, and bytes
written and non-zero exit codes from ``cli.main``.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import os
import sys
from array import array
from time import perf_counter

import numpy as np

#: The package's modules, in call order from the bottom up.
LAYERS = ("qmath", "povm", "protocol", "montecarlo", "entanglement", "cli")

#: Entry points whose self time is reported on its own.
ENTRY_POINTS = ("montecarlo.monte_carlo", "protocol.run_once",
                "entanglement.threshold_theta", "cli.main")

#: Spans kept in memory for the span file; aggregates cover all calls.
SPAN_CAP = 200_000


class _CountingWriter:
    """Stand-in for ``sys.stdout`` that counts what passes through it."""

    def __init__(self, inner):
        self.inner = inner
        self.chars = 0

    def write(self, text):
        self.chars += len(text)
        return self.inner.write(text)

    def flush(self):
        self.inner.flush()


def _count_monte_carlo(counts, fn, args, kwargs):
    stats = fn(*args, **kwargs)
    counts["montecarlo.trials"] += stats.trials
    counts["montecarlo.successes"] += stats.success_count
    counts["montecarlo.branch3"] += stats.branch_counts[2]
    counts["montecarlo.bell_pairs"] += round(stats.mean_bell_pairs * stats.trials)
    return stats


def _count_run_once(counts, fn, args, kwargs):
    outcome = fn(*args, **kwargs)
    counts[f"protocol.branch{outcome.branch}"] += 1
    counts["protocol.bell_pairs"] += outcome.bell_pairs_consumed
    return outcome


def _count_cli_main(counts, fn, args, kwargs):
    argv = list(args[0] if args else kwargs.get("argv") or [])
    writer = _CountingWriter(sys.stdout)
    with contextlib.redirect_stdout(writer):
        code = fn(*args, **kwargs)
    written = writer.chars
    if "--out" in argv:
        path = argv[argv.index("--out") + 1]
        if path != "-" and os.path.exists(path):
            written += os.path.getsize(path)
    counts["cli.bytes_out"] += written
    counts["cli.nonzero_exits"] += int(code != 0)
    return code


_AROUND = {
    "montecarlo.monte_carlo": _count_monte_carlo,
    "protocol.run_once": _count_run_once,
    "cli.main": _count_cli_main,
}

COUNTERS = ("montecarlo.trials", "montecarlo.successes", "montecarlo.branch3",
            "montecarlo.bell_pairs", "protocol.branch1", "protocol.branch2",
            "protocol.branch3", "protocol.bell_pairs", "cli.bytes_out",
            "cli.nonzero_exits")


def public_functions() -> dict[str, object]:
    """``{"<layer>.<fn>": function}`` for every public function of every
    layer, taken from the module that defines it."""
    found = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"entrot.{layer}")
        for name in mod.__all__:
            obj = getattr(mod, name)
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                found[f"{layer}.{name}"] = obj
    return found


class LayerTracer:
    """Installs the wrappers on ``__enter__`` and restores on ``__exit__``.

    ``op`` is the id stamped on new spans; ``active`` switches recording
    off (the wrappers then call straight through), which the benchmark
    uses around its own correctness checks.
    """

    def __init__(self):
        self.functions = public_functions()
        self.keys = list(self.functions)
        self.calls = [0] * len(self.keys)
        self.busy = [0.0] * len(self.keys)
        self.self_time = [0.0] * len(self.keys)
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.op = -1
        self.active = True
        self.origin = perf_counter()
        self.span_name = array("i")
        self.span_op = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.spans_dropped = 0
        #: Per op, the time covered by top-level spans, which equals the
        #: summed self time of all its spans.
        self.root_time: dict[int, float] = {}
        self._stack: list[list] = []  # [span index or -1, child time]
        self._patched: list[tuple[object, str, object]] = []
        self.bindings: list[str] = []

    # -- installation -------------------------------------------------
    def __enter__(self):
        originals = {id(fn): (k, fn) for k, fn in self.functions.items()}
        wrappers = {}
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "entrot"
                                   or modname.startswith("entrot.")):
                continue
            for attr, value in list(vars(mod).items()):
                hit = originals.get(id(value))
                if hit is None or hit[1] is not value:
                    continue
                key, fn = hit
                if key not in wrappers:
                    wrappers[key] = self._wrap(key, fn)
                self._patched.append((mod, attr, value))
                setattr(mod, attr, wrappers[key])
        self.bindings = sorted(f"{mod.__name__}.{attr}"
                               for mod, attr, _ in self._patched)
        return self

    def __exit__(self, *exc):
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()
        return False

    @contextlib.contextmanager
    def paused(self):
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was

    def _wrap(self, key, fn):
        kid = self.keys.index(key)
        around = _AROUND.get(key)
        stack = self._stack
        calls, busy, self_time = self.calls, self.busy, self.self_time
        counts = self.counts
        root_time = self.root_time

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            n = len(self.span_start)
            if n < SPAN_CAP:
                self.span_name.append(kid)
                self.span_op.append(self.op)
                self.span_parent.append(stack[-1][0] if stack else -1)
                self.span_start.append(0.0)
                self.span_end.append(0.0)
            else:
                n = -1
                self.spans_dropped += 1
            frame = [n, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                if around is None:
                    return fn(*args, **kwargs)
                return around(counts, fn, args, kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                calls[kid] += 1
                busy[kid] += dur
                self_time[kid] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                else:
                    root_time[self.op] = root_time.get(self.op, 0.0) + dur
                if n >= 0:
                    self.span_start[n] = t0 - self.origin
                    self.span_end[n] = t1 - self.origin

        return functools.wraps(fn)(wrapper)

    # -- reporting ----------------------------------------------------
    def per_function(self) -> dict[str, tuple[int, float, float]]:
        return {k: (self.calls[i], self.busy[i], self.self_time[i])
                for i, k in enumerate(self.keys)}

    def layer_self(self) -> dict[str, float]:
        out = dict.fromkeys(LAYERS, 0.0)
        for i, k in enumerate(self.keys):
            out[k.split(".", 1)[0]] += self.self_time[i]
        return out

    def write_spans(self, path) -> int:
        """Write the kept spans as ``.npz`` arrays; returns how many."""
        np.savez_compressed(
            path, names=np.array(self.keys),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            op=np.frombuffer(self.span_op, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64))
        return len(self.span_start)
