"""Command-line surface: analysis, sweeps, simulation and self-checks.

Subcommands
-----------
pmax       optimal success weights and probability at one parameter point
sweep      CSV/JSON table of the optimum over a parameter grid
simulate   Monte Carlo protocol runs with a seeded, reproducible stream
threshold  break-even gate angle for the deterministic scheme
verify     named self-consistency checks (quick or full)

Angles are plain radians ("0.7853") or pi-multiples ("0.25pi").  Exit
codes: 0 success, 1 I/O failure, 2 usage or domain error, 3 failed
verification (including a simulate run whose success rate strays more
than 5 sigma from the closed form).  All numeric text output is rounded
to 12 significant digits, and identical invocations with identical seeds
produce byte-identical output.  ``verify`` details follow the same rule:
each check's worst sample and its bound are written at 12 digits (see
:class:`entrot.verify.CheckResult`).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import sys

import numpy as np

from . import verify as verify_mod
from .entanglement import _alpha_terms, _costs, threshold_theta
from .montecarlo import monte_carlo
from .povm import (_CASES, _NORMAL_MIN, ProtocolParams, _case, _check_grid,
                   _trig, det_e3, discriminant, optimum, tr_e3)
from .qmath import StateVector

__all__ = ["main"]


def _parse_angle(text: str) -> float:
    t = text.strip().lower()
    try:
        if t.endswith("pi"):
            head = t[:-2].strip()
            if head in ("", "+", "-"):
                head += "1"
            return float(head) * math.pi
        return float(t)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected radians or a pi-multiple like '0.25pi', got {text!r}")


def _parse_grid(text: str) -> tuple[float, float, int]:
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(
            f"expected START:STOP:COUNT, got {text!r}")
    start, stop = _parse_angle(parts[0]), _parse_angle(parts[1])
    try:
        count = int(parts[2])
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"grid count must be an integer, got {parts[2]!r}")
    if count < 2:
        raise argparse.ArgumentTypeError(
            f"grid count must be at least 2, got {count}")
    return start, stop, count


def _fmt(value: float) -> str:
    return f"{value:.12g}"


def _round12(obj):
    """Round every float in a JSON-ready structure to 12 significant
    digits, so reports are compact and byte-stable."""
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {k: _round12(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round12(v) for v in obj]
    return obj


def _emit(payload: dict, as_json: bool) -> None:
    """Write a report as indented JSON, or as a ``key = value`` table that
    flattens one level of nesting as ``outer.inner`` and prints ``None``
    as ``null``."""
    if as_json:
        sys.stdout.write(json.dumps(_round12(payload), indent=2) + "\n")
        return
    pairs = []
    for key, value in payload.items():
        if isinstance(value, dict):
            pairs += [(f"{key}.{k}", v) for k, v in value.items()]
        else:
            pairs.append((key, value))
    width = max(len(k) for k, _ in pairs)
    for key, value in pairs:
        text = ("null" if value is None else
                _fmt(value) if isinstance(value, float) else str(value))
        sys.stdout.write(f"{key.ljust(width)} = {text}\n")


def _cmd_pmax(args: argparse.Namespace) -> int:
    params = ProtocolParams(args.theta, args.alpha)
    best = optimum(params)
    w = best.weights
    payload = {
        "theta_rad": params.theta,
        "alpha_rad": params.alpha,
        "case": best.case.value,
        "x": best.x,
        "y": best.y,
        "p_max": best.p_max,
        "discriminant": discriminant(params),
        "tr_e3": tr_e3(params, w),
        "det_e3": det_e3(params, w),
    }
    _emit(payload, args.json)
    return 0


_SWEEP_KEYS = ("theta_rad", "alpha_rad", "case", "x", "y", "p_max", "e_alpha",
               "avg_cost")

#: One ``sweep`` row per format (JSON when True), cells in ``_SWEEP_KEYS``
#: order: ``%s`` takes text formatted beforehand; ``%.12g`` writes what
#: ``_fmt`` does.
_SWEEP_ROW = {
    False: "%s,%s,%s,%.12g,%.12g,%.12g,%s,%.12g",
    True: ("    {\n" + ",\n".join(f'      "{k}": %s' for k in _SWEEP_KEYS)
           + "\n    }"),
}

#: Points per block of whole theta rows that ``sweep`` formats and writes
#: at once (at least one row), so that its memory does not grow with the
#: grid.
_SWEEP_BLOCK = 1 << 12


def _json_cells(values: np.ndarray) -> list:
    """What ``json`` writes for ``_round12`` of each of ``values``,
    formatted a column at a time.

    A normal double tells any two 12-digit decimals apart, so ``repr`` of
    the rounded value keeps the digits of ``%.12g``, and both switch to
    exponent notation below 1e-4.  Below 1e11, where rounding cannot
    reach the 1e12 at which ``%g`` writes an exponent and ``repr`` does
    not, they differ only in the ``.0`` that ``repr`` gives an integral
    value, which shows in the text.  The rest (subnormals, magnitudes
    from 1e11 and non-finite values) are rounded one by one.
    """
    cells = ("%.12g " * len(values) % tuple(values.tolist())).split()
    cells = [t if "." in t or "e" in t else t + ".0" for t in cells]
    mag = np.abs(values)
    exact = (mag == 0.0) | ((mag >= _NORMAL_MIN) & (mag < 1e11))
    for i in np.flatnonzero(~exact).tolist():
        cells[i] = repr(_round12(values[i]))
    return cells


def _cmd_sweep(args: argparse.Namespace) -> int:
    with np.errstate(all="ignore"):  # an infinite span gives NaN, rejected below
        thetas = np.linspace(*args.theta_grid)
        alphas = np.linspace(*args.alpha_grid)
    _check_grid(thetas.tolist(), alphas.tolist())  # before any byte is written
    n_a = len(alphas)
    step = max(1, _SWEEP_BLOCK // n_a)
    blocks = [slice(start, start + step)
              for start in range(0, len(thetas), step)]
    ca, sa, e = _alpha_terms(alphas)
    ct, st = _trig(thetas[:, None])
    if args.json:
        head = json.dumps(_round12({"theta_grid": list(args.theta_grid),
                                    "alpha_grid": list(args.alpha_grid),
                                    "rows": []}), indent=2)
        # reopen the empty "rows" list that ends the head
        head, sep, tail = head[:-len("[]\n}")] + "[\n", ",\n", "\n  ]\n}\n"
        axis = number = _json_cells
        labels = [json.dumps(c.value) for c in _CASES]
    else:
        head, sep, tail = ",".join(_SWEEP_KEYS) + "\n", "\n", "\n"
        axis, number = functools.partial(map, _fmt), np.ndarray.tolist
        labels = [c.value for c in _CASES]
    t_cells, a_cells, e_cells = (list(axis(v)) for v in (thetas, alphas, e))
    row = _SWEEP_ROW[args.json]
    with (contextlib.nullcontext(sys.stdout) if args.out in (None, "-") else
          open(args.out, "w", encoding="utf-8", newline="")) as fh:
        fh.write(head)
        for rows in blocks:
            cross, band, *numbers = _costs(ct[rows], st[rows], ca, sa, e)
            x, y, p, cost = (number(v.ravel()) for v in numbers)
            t_rows = t_cells[rows]
            columns = [[t for t in t_rows for _ in range(n_a)],
                       a_cells * len(t_rows),
                       [labels[i] for i in _case(cross, band).ravel().tolist()],
                       x, y, p, e_cells * len(t_rows), cost]
            if rows.start:
                fh.write(sep)
            fh.write(sep.join(map(row.__mod__, zip(*columns, strict=True))))
        fh.write(tail)
    return 0


def _input_state(text: str) -> StateVector | None:
    """'random' means Haar-random inputs, averaged over; otherwise a two-bit
    computational basis string for the (A, B) register."""
    if text == "random":
        return None
    if len(text) == 2 and set(text) <= {"0", "1"}:
        return StateVector.basis(("A", "B"), text)
    raise ValueError(
        f"input must be 'random' or a 2-bit basis string like '01', got {text!r}")


def _cmd_simulate(args: argparse.Namespace) -> int:
    params = ProtocolParams(args.theta, args.alpha)
    best = optimum(params)
    state = _input_state(args.input)
    stats = monte_carlo(params, args.trials, args.seed, weights=best.weights,
                        input_state=state, deterministic=args.deterministic)
    payload = {
        "params": {
            "theta_rad": params.theta,
            "alpha_rad": params.alpha,
            "x": stats.weights.x,
            "y": stats.weights.y,
            "case": best.case.value,
        },
        "trials": stats.trials,
        "seed": stats.seed,
        "deterministic": stats.deterministic,
        "input": args.input,
        "success_count": stats.success_count,
        "branch_counts": list(stats.branch_counts),
        "empirical_p": stats.empirical_p,
        "analytic_p": stats.analytic_p,
        "z_score": stats.z_score,
        "mean_fidelity": stats.mean_fidelity,
        "mean_bell_pairs": stats.mean_bell_pairs,
        "mean_ebits": stats.mean_ebits,
    }
    _emit(payload, args.json)
    if abs(stats.z_score) > 5.0:
        print(f"error: success rate is {stats.z_score:.2f} sigma from the "
              f"closed form", file=sys.stderr)
        return 3
    return 0


def _cmd_threshold(args: argparse.Namespace) -> int:
    value = threshold_theta(tol=args.tol)
    payload = {
        "tol_pi": args.tol,
        "threshold_rad": value,
        "threshold_pi": value / math.pi,
    }
    _emit(payload, args.json)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    results = verify_mod.run_checks(level=args.level)
    ok = verify_mod.all_passed(results)
    if args.json:
        _emit({
            "level": args.level,
            "all_passed": ok,
            "results": [{"name": r.name, "passed": r.passed,
                         "detail": r.detail} for r in results],
        }, True)
    else:
        for r in results:
            sys.stdout.write(
                f"{'PASS' if r.passed else 'FAIL'}  {r.name:<28} {r.detail}\n")
        passed = sum(r.passed for r in results)
        sys.stdout.write(f"{passed}/{len(results)} checks passed\n")
    if not ok:
        first = next(r.name for r in results if not r.passed)
        print(f"error: verification failed, first failing check: {first}",
              file=sys.stderr)
        return 3
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on the first call and reused after: it
    keeps no state between ``parse_args`` calls."""
    parser = argparse.ArgumentParser(
        prog="entrot",
        description="Nonlocal controlled-rotation protocol: optimal POVM "
                    "analysis, Monte Carlo simulation and entanglement "
                    "accounting.")
    sub = parser.add_subparsers(dest="command", required=True)

    # argparse reads a separate ``-0.5pi`` as an option, so the help
    # names the ``=`` form
    point = argparse.ArgumentParser(add_help=False)
    point.add_argument("--theta", type=_parse_angle, required=True,
                       help="gate angle in (0, pi/2], radians or e.g. "
                            "'0.25pi'; at alpha = pi/2 in (-pi, pi]; give a "
                            "negative angle as --theta=-0.5pi")
    point.add_argument("--alpha", type=_parse_angle, required=True,
                       help="resource angle in (0, pi/2]")

    p = sub.add_parser("pmax", parents=[point],
                       help="optimal success probability at one point")
    p.set_defaults(func=_cmd_pmax)

    p = sub.add_parser("sweep", help="tabulate the optimum over a grid")
    p.add_argument("--theta-grid", type=_parse_grid, required=True,
                   metavar="START:STOP:COUNT",
                   help="e.g. '0.05pi:0.5pi:10'; a negative start needs the "
                        "= form, e.g. --theta-grid=-0.99pi:1pi:9")
    p.add_argument("--alpha-grid", type=_parse_grid, required=True,
                   metavar="START:STOP:COUNT")
    p.add_argument("--out", default=None, metavar="PATH",
                   help="output file (default: stdout)")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("simulate", parents=[point],
                       help="Monte Carlo protocol runs")
    p.add_argument("--trials", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--deterministic", action="store_true",
                   help="complete failed runs with a Bell pair")
    p.add_argument("--input", default="random",
                   help="'random' or a 2-bit basis string (default: random)")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("threshold", help="break-even gate angle")
    p.add_argument("--tol", type=float, default=1e-4,
                   help="bisection width in units of pi (default 1e-4)")
    p.set_defaults(func=_cmd_threshold)

    p = sub.add_parser("verify", help="run self-consistency checks")
    p.add_argument("--level", choices=("quick", "full"), default="quick")
    p.set_defaults(func=_cmd_verify)

    for p in sub.choices.values():  # every command takes --json, last
        p.add_argument("--json", action="store_true", help="emit JSON")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        return args.func(args)
    except (ValueError, MemoryError) as exc:  # e.g. a grid axis too long
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
