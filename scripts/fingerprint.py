#!/usr/bin/env python3
"""Print a short hash of every seeded, byte-stable output of entrot.

One line per case, ``<name> <sha256[:16]>``.  A CLI case hashes the exit
code, stdout and stderr of one ``entrot`` invocation; a ``run_once``
case hashes the final state amplitudes (their raw bytes), transcript,
residual and Bell pairs of a fixed set of seeded single runs; a
``monte_carlo`` case hashes the ``repr`` of every ``SummaryStats`` field
of one seeded batch with non-optimal weights, which the CLI never uses.
A ``pmax_oracle`` case hashes the ``repr`` of the search oracle's
``(x, y, p)``, a ``transcript_table`` case the bytes and dtype of
every array of the Monte Carlo transcript trees at one point, which
serve both modes,
and a ``norm`` case the amplitudes of a state normalized, or measured,
at one scale, or its error; ``norm:StateVector`` normalizes four equal
amplitudes whose length overflows a double.
The package is imported from the usual path, so ``PYTHONPATH`` selects
the checkout, and "byte-identical" between two checkouts is a ``diff``:

    PYTHONPATH=../parent/src python3 scripts/fingerprint.py > parent.txt
    PYTHONPATH=src python3 scripts/fingerprint.py > change.txt
    diff parent.txt change.txt

``--size full`` adds more trials, a larger sweep grid,
``verify --level full`` and seeded oracle points.
"""

import argparse
import contextlib
import dataclasses
import hashlib
import io
import math

import numpy as np

from entrot import (PovmWeights, ProtocolParams, haar_state, monte_carlo,
                    optimum, pmax_oracle, run_once)
from entrot.cli import _parse_angle, main as cli_main
from entrot.montecarlo import _transcript_table
from entrot.protocol import _X_BASIS
from entrot.qmath import StateVector, measure_qubit

#: Per size: simulate trials, sweep points per axis, run_once seeds per
#: point and mode, whether ``verify --level full`` runs, and seeded
#: ``pmax_oracle`` points.
SIZES = {"tiny": (400, 6, 4, False, 0), "full": (20_000, 40, 32, True, 32)}

#: (theta, alpha) of the simulate and run_once cases: a case II and a
#: case I optimum (branch 2 only occurs in case I), a Bell resource, and
#: resources small enough that the POVM vectors reach 1e6 and 1e300.
POINTS = (("0.25pi", "0.2pi"), ("0.2pi", "0.4pi"), ("0.1pi", "0.5pi"),
          ("0.3", "1e-6"), ("0.3", "1e-300"))

#: (theta, alpha) of the pmax cases, down to where the search oracle
#: refuses a resource and the closed forms still answer.
PMAX_POINTS = (("0.25pi", "0.2pi"), ("0.45pi", "0.12pi"), ("0.5pi", "0.5pi"),
               ("0.3", "1e-6"), ("1e-200", "1e-200"))

#: (theta, alpha) of the monte_carlo cases, run with the optimal weights
#: scaled by ``MC_SCALE``: a Bell resource that fails, where the ``b = 1``
#: residual leaves nothing to recover, and a case I point.
MC_POINTS = (("1pi", "0.5pi"), ("0.45pi", "0.35pi"))
MC_SCALE = 0.7

#: (theta, alpha) of the ``pmax_oracle`` cases: the three optima the
#: tests pin bit for bit, a case II point near the crossover, and small
#: resources down to the oracle's least ``alpha``.
ORACLE_POINTS = (("0.5pi", "pi/3"), ("0.25pi", "pi/6"), ("0.4pi", "0.5pi"),
                 ("0.45pi", "0.12pi"), ("0.3", "1e-6"), ("1e-300", "1e-150"))

#: (theta grid, alpha grid) pairs of the ``sweep:<name>:<format>`` cases,
#: one hash per name and format.  ``edge``: angles down to the smallest
#: normal float, the Bell column with negative gate angles, and a grid
#: through the case boundary at (pi/4, pi/4).  ``edge:subnormal``: gate
#: angles from the smallest subnormal float, whose JSON text ``%.12g``
#: cannot write.
EDGE_GRIDS = {
    "edge": (("2.3e-308:1e-300:4", "2.3e-308:1e-200:3"),
             ("-0.99pi:1pi:9", "0.5pi:0.5pi:2"),
             ("0.25pi:0.5pi:3", "0.25pi:0.5pi:3")),
    "edge:subnormal": (("5e-324:1e-300:5", "2.3e-308:0.5pi:7"),),
}

#: Scales of the ``norm:haar_state`` cases, from where squared amplitudes
#: underflow to where they overflow, of the ``norm:measure_qubit``
#: cases, and of the ``norm:StateVector`` case, whose length overflows.
HAAR_SCALES = ("1e-300", "1e-170", "1", "1e200", "1e300")
MEASURE_SCALES = ("1e-170", "1e200")
OVERFLOW_SCALES = ("1.5e308",)


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else str(part).encode())
        h.update(b"\0")
    return h.hexdigest()[:16]


def _cli(*argv: str) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(list(argv))
    return _digest(code, out.getvalue(), err.getvalue())


def _run_once_digest(theta: float, alpha: float, deterministic: bool,
                     seeds: int) -> str:
    """Seeded single runs on a Haar input and on two basis inputs."""
    params = ProtocolParams(theta, alpha)
    weights = optimum(params).weights
    rng = np.random.default_rng(11)
    inputs = [haar_state(("A", "B"), rng.standard_normal(8)),
              StateVector.basis(("A", "B"), "01"),
              StateVector.basis(("B", "A"), "10")]
    parts = []
    for seed in range(seeds):
        for state in inputs:
            try:
                out = run_once(params, weights, state, seed, deterministic)
            except ValueError as exc:
                parts.append(f"error: {exc}")
                continue
            parts += [out.branch, out.transcript, out.residual,
                      out.bell_pairs_consumed, out.final_state.qubits,
                      out.final_state.amps.tobytes()]
    return _digest(*parts)


def _monte_carlo_digest(theta: float, alpha: float, deterministic: bool,
                        trials: int) -> str:
    """One seeded batch on Haar inputs with the scaled optimal weights."""
    params = ProtocolParams(theta, alpha)
    best = optimum(params)
    weights = PovmWeights(best.x * MC_SCALE, best.y * MC_SCALE)
    stats = monte_carlo(params, trials, 5, weights=weights,
                        deterministic=deterministic)
    return _digest(*(repr(getattr(stats, field.name))
                     for field in dataclasses.fields(stats)))


def _norm_digest(kind: str, scale: float) -> str:
    """Seeded deviates times ``scale``: the state ``haar_state`` makes of
    them, or the outcome and post state of measuring ``A`` in the X
    basis at two deviates; or four amplitudes ``scale`` normalized."""
    z = (np.full(8, scale) if kind == "StateVector"
         else np.random.default_rng(17).standard_normal(8) * scale)
    parts = []
    try:
        if kind == "StateVector":
            state = StateVector(("A", "B"), z[:4])
            parts.append(state.normalized().amps.tobytes())
        elif kind == "haar_state":
            parts.append(haar_state(("A", "B"), z).amps.tobytes())
        else:
            state = StateVector(("A", "B"), z[:4] + 1j * z[4:])
            for u in (0.25, 0.75):
                outcome, post = measure_qubit(state, "A", _X_BASIS, u)
                parts += [outcome, post.amps.tobytes()]
    except ValueError as exc:
        parts.append(f"error: {exc}")
    return _digest(*parts)


def _table_digest(theta: float, alpha: float) -> str:
    """The transcript trees of the optimal and the scaled weights."""
    params = ProtocolParams(theta, alpha)
    best = optimum(params)
    parts = []
    for scale in (1.0, MC_SCALE):
        weights = PovmWeights(best.x * scale, best.y * scale)
        table = _transcript_table(params, weights)
        for field in dataclasses.fields(table):
            value = getattr(table, field.name)
            for a in value if isinstance(value, tuple) else (value,):
                parts += [a.dtype.str, a.shape, a.tobytes()]
    return _digest(*parts)


def cases(size: str):
    """``(name, digest)`` pairs, in a fixed order."""
    trials, points, seeds, full, oracle_draws = SIZES[size]
    for theta, alpha in POINTS:
        for state in ("random", "01", "10"):
            for mode in ((), ("--deterministic",)):
                for fmt in ((), ("--json",)):
                    name = "simulate:" + ":".join(
                        (theta, alpha, state, *mode, *fmt))
                    yield name, _cli("simulate", "--theta", theta,
                                     "--alpha", alpha, "--trials",
                                     str(trials), "--seed", "5",
                                     "--input", state, *mode, *fmt)
    grid = ("--theta-grid", f"0.05pi:0.5pi:{points}",
            "--alpha-grid", f"0.02pi:0.5pi:{points}")
    yield "sweep:csv", _cli("sweep", *grid)
    yield "sweep:json", _cli("sweep", *grid, "--json")
    for name, grids in EDGE_GRIDS.items():
        for fmt in ("csv", "json"):
            yield f"sweep:{name}:{fmt}", _digest(*(
                _cli("sweep", f"--theta-grid={theta}", f"--alpha-grid={alpha}",
                     *(("--json",) if fmt == "json" else ()))
                for theta, alpha in grids))
    for theta, alpha in PMAX_POINTS:
        for fmt in ((), ("--json",)):
            yield (":".join(("pmax", theta, alpha, *fmt)),
                   _cli("pmax", "--theta", theta, "--alpha", alpha, *fmt))
    for fmt in ((), ("--json",)):
        yield ":".join(("threshold", *fmt)), _cli("threshold", *fmt)
    for level in ("quick", "full") if full else ("quick",):
        for fmt in ((), ("--json",)):
            yield (":".join(("verify", level, *fmt)),
                   _cli("verify", "--level", level, *fmt))
    for theta, alpha in POINTS:
        for deterministic in (False, True):
            name = ":".join(("run_once", theta, alpha,
                             "deterministic" if deterministic else "plain"))
            yield name, _run_once_digest(_angle(theta), _angle(alpha),
                                         deterministic, seeds)
    for theta, alpha in MC_POINTS:
        for deterministic in (False, True):
            name = ":".join(("monte_carlo", theta, alpha,
                             "deterministic" if deterministic else "plain"))
            yield name, _monte_carlo_digest(_angle(theta), _angle(alpha),
                                            deterministic, trials)
    for theta, alpha in MC_POINTS + POINTS:
        yield (":".join(("transcript_table", theta, alpha)),
               _table_digest(_angle(theta), _angle(alpha)))
    for kind, scales in (("haar_state", HAAR_SCALES),
                         ("measure_qubit", MEASURE_SCALES),
                         ("StateVector", OVERFLOW_SCALES)):
        for scale in scales:
            yield f"norm:{kind}:{scale}", _norm_digest(kind, float(scale))
    drawn = np.random.default_rng(13).uniform(0.01, 0.5, (oracle_draws, 2))
    for theta, alpha in ORACLE_POINTS + tuple(
            (repr(t), repr(a)) for t, a in (drawn * math.pi).tolist()):
        triple = pmax_oracle(ProtocolParams(_angle(theta), _angle(alpha)))
        yield ":".join(("pmax_oracle", theta, alpha)), _digest(repr(triple))


def _angle(text: str) -> float:
    """``pi/<n>`` is pi over ``n``; anything else is read as the CLI
    reads an angle."""
    if text.startswith("pi/"):
        return math.pi / float(text[3:])
    return _parse_angle(text)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--size", choices=sorted(SIZES), default="tiny",
                        help="tiny (default) or full")
    args = parser.parse_args()
    for name, digest in cases(args.size):
        print(name, digest, flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
