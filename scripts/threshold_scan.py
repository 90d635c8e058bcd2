#!/usr/bin/env python3
"""Scan the cheapest resource pair against the gate angle.

For each gate angle the script minimizes the average entanglement cost
over the resource angle, prints the curve, and reports the break-even
angle below which a tuned partial pair beats consuming one Bell pair.

Example:
    python3 scripts/threshold_scan.py --steps 25 --out cost_curve.csv
"""

import argparse
import math
import sys

import numpy as np

from entrot.entanglement import min_cost_over_alpha, threshold_theta


def run(args: argparse.Namespace) -> int:
    try:
        thetas = np.linspace(args.min_pi * math.pi, args.max_pi * math.pi,
                             args.steps)
        curve = [(theta, *min_cost_over_alpha(float(theta), tol=args.tol))
                 for theta in thetas]
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    crossing = threshold_theta(tol=1e-4)

    rows = ["theta_pi,best_alpha_pi,min_cost"]
    print(f"{'theta/pi':>10} {'alpha*/pi':>10} {'min cost':>12}")
    for theta, alpha, cost in curve:
        # The golden-section bracket ends below --tol radians wide (a
        # tol the search has just accepted), and the cost is flat at its
        # minimum: print only the decimals of alpha/pi it resolves.
        places = math.floor(-math.log10(args.tol / math.pi))
        rows.append(f"{theta / math.pi:.12g},{alpha / math.pi:.{places}f},"
                    f"{cost:.12g}")
        marker = "" if cost < 1.0 else "  <- Bell pair is already optimal"
        print(f"{theta / math.pi:10.4f} {alpha / math.pi:10.4f} "
              f"{cost:12.8f}{marker}")

    print(f"\nbreak-even gate angle: {crossing / math.pi:.6f} pi "
          f"({crossing:.6f} rad)")
    print("below it a tuned partial pair is cheaper than one ebit; "
          "above it, use a Bell pair")

    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write("\n".join(rows) + "\n")
        print(f"wrote {args.out}")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--steps", type=int, default=20,
                        help="number of gate angles to scan (default 20)")
    parser.add_argument("--min-pi", type=float, default=0.02,
                        help="smallest gate angle, in pi units")
    parser.add_argument("--max-pi", type=float, default=0.5,
                        help="largest gate angle, in pi units")
    parser.add_argument("--tol", type=float, default=1e-6,
                        help="resource-angle refinement tolerance (radians)")
    parser.add_argument("--out", default=None,
                        help="optional CSV output path")
    args = parser.parse_args()
    if args.steps < 1:
        parser.error(f"--steps must be at least 1, got {args.steps}")
    return run(args)


if __name__ == "__main__":
    raise SystemExit(main())
