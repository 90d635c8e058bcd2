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
produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import verify as verify_mod
from .entanglement import _alpha_terms, _costs, threshold_theta
from .montecarlo import monte_carlo
from .povm import (_CASES, ProtocolParams, _case, _in_domain, _trig,
                   det_e3, discriminant, optimum, tr_e3)
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
    if isinstance(obj, bool):
        return obj
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

#: One ``sweep`` row per format, cells in ``_SWEEP_KEYS`` order: ``%s``
#: takes text formatted beforehand; CSV's ``%.12g`` writes what ``_fmt`` does.
_CSV_ROW = "%s,%s,%s,%.12g,%.12g,%.12g,%s,%.12g"
_JSON_ROW = ("    {\n" + ",\n".join(f'      "{k}": %s' for k in _SWEEP_KEYS)
             + "\n    }")


def _json_float(value: float) -> str:
    """What ``json`` writes for ``_round12(value)``, for a finite value."""
    return repr(float(f"{value:.12g}"))


def _cmd_sweep(args: argparse.Namespace) -> int:
    with np.errstate(all="ignore"):  # an infinite span gives NaN, rejected below
        thetas = np.linspace(*args.theta_grid)
        alphas = np.linspace(*args.alpha_grid)
    grid = np.broadcast_arrays(thetas[:, None], alphas)
    ok = _in_domain(*grid)
    if not ok.all():  # raise ProtocolParams' error at the first bad point
        ProtocolParams(*(g.flat[np.argmin(ok)].item() for g in grid))
    ca, sa, e = _alpha_terms(alphas)
    cross, band, x, y, p, cost = _costs(*_trig(thetas[:, None]), ca, sa, e)
    fmt = _json_float if args.json else _fmt

    def formatted(values: np.ndarray) -> list[str]:
        return list(map(fmt, values.ravel().tolist()))

    if args.json:
        head = json.dumps(_round12({"theta_grid": list(args.theta_grid),
                                    "alpha_grid": list(args.alpha_grid),
                                    "rows": []}), indent=2)
        # reopen the empty "rows" list that ends the head
        head, sep, tail = head[:-len("[]\n}")] + "[\n", ",\n", "\n  ]\n}\n"
        row, labels = _JSON_ROW, [json.dumps(c.value) for c in _CASES]
        cells = [formatted(v) for v in (x, y, p, cost)]
    else:
        head, sep, tail = ",".join(_SWEEP_KEYS) + "\n", "\n", "\n"
        row, labels = _CSV_ROW, [c.value for c in _CASES]
        cells = [v.ravel().tolist() for v in (x, y, p, cost)]
    n_t, n_a = len(thetas), len(alphas)
    columns = ([t for t in formatted(thetas) for _ in range(n_a)],
               formatted(alphas) * n_t,
               [labels[i] for i in _case(cross, band).ravel().tolist()],
               *cells[:3], formatted(e) * n_t, cells[3])
    text = head + sep.join(map(row.__mod__, zip(*columns, strict=True))) + tail
    if args.out in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    return 0


def _input_state(text: str) -> StateVector | None:
    """'random' means a fresh Haar state per trial; otherwise a two-bit
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
    stats = monte_carlo(params, args.trials, args.seed,
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


#: argparse reads a separate ``-0.5pi`` as an option, not a value.
_NEGATIVE_THETA = "; give a negative angle as --theta=-0.5pi"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entrot",
        description="Nonlocal controlled-rotation protocol: optimal POVM "
                    "analysis, Monte Carlo simulation and entanglement "
                    "accounting.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pmax", help="optimal success probability at one point")
    p.add_argument("--theta", type=_parse_angle, required=True,
                   help="gate angle in (0, pi/2], radians or e.g. '0.25pi'; "
                        "at alpha = pi/2 in (-pi, pi]" + _NEGATIVE_THETA)
    p.add_argument("--alpha", type=_parse_angle, required=True,
                   help="resource angle in (0, pi/2]")
    p.add_argument("--json", action="store_true", help="emit JSON")
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
    p.add_argument("--json", action="store_true",
                   help="emit JSON instead of CSV")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("simulate", help="Monte Carlo protocol runs")
    p.add_argument("--theta", type=_parse_angle, required=True,
                   help="gate angle, as for pmax" + _NEGATIVE_THETA)
    p.add_argument("--alpha", type=_parse_angle, required=True)
    p.add_argument("--trials", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--deterministic", action="store_true",
                   help="complete failed runs with a Bell pair")
    p.add_argument("--input", default="random",
                   help="'random' or a 2-bit basis string (default: random)")
    p.add_argument("--json", action="store_true", help="emit JSON")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("threshold", help="break-even gate angle")
    p.add_argument("--tol", type=float, default=1e-4,
                   help="bisection width in units of pi (default 1e-4)")
    p.add_argument("--json", action="store_true", help="emit JSON")
    p.set_defaults(func=_cmd_threshold)

    p = sub.add_parser("verify", help="run self-consistency checks")
    p.add_argument("--level", choices=("quick", "full"), default="quick")
    p.add_argument("--json", action="store_true", help="emit JSON")
    p.set_defaults(func=_cmd_verify)

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
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
