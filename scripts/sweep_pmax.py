#!/usr/bin/env python3
"""Tabulate the optimal success probability over a parameter grid.

Writes the same CSV the ``entrot sweep`` subcommand produces and prints
a short summary: where the protocol is most/least likely to succeed and
how the two optimum regimes split the grid.

Example:
    python3 scripts/sweep_pmax.py --points 40 --out pmax_grid.csv
"""

import argparse
import collections
import csv
import math

import numpy as np

from entrot.cli import main as cli_main


def run(args: argparse.Namespace) -> int:
    lo, hi = args.min_pi, args.max_pi
    grid = [f"{lo}pi:{hi}pi:{args.points}"] * 2
    code = cli_main(["sweep", "--theta-grid", grid[0],
                     "--alpha-grid", grid[1], "--out", args.out])
    if code != 0:
        return code

    with open(args.out, encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    cases = collections.Counter(row["case"] for row in rows)
    p_max = [float(row["p_max"]) for row in rows]
    cost = [float(row["avg_cost"]) for row in rows]
    order = range(len(rows))
    best = max(order, key=p_max.__getitem__)
    worst = min(order, key=p_max.__getitem__)
    cheap = min(order, key=cost.__getitem__)
    # Rows run over theta, then alpha, on the same grid for both angles.
    angles = np.linspace(lo * math.pi, hi * math.pi, args.points)

    def spot(values, i):
        theta, alpha = divmod(i, args.points)
        return (f"{values[i]:.6f} at theta={angles[theta] / math.pi:.3f}pi, "
                f"alpha={angles[alpha] / math.pi:.3f}pi")

    print(f"wrote {args.out} ({len(rows)} grid points)")
    print(f"  best success probability : {spot(p_max, best)}")
    print(f"  worst success probability: {spot(p_max, worst)}")
    print(f"  cheapest average cost    : {spot(cost, cheap)} ebits")
    for label in sorted(cases):
        print(f"  optimum regime {label:<9}: {cases[label]} points")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--points", type=int, default=30,
                        help="grid points per axis (default 30)")
    parser.add_argument("--min-pi", type=float, default=0.05,
                        help="lower bound for both angles, in pi units")
    parser.add_argument("--max-pi", type=float, default=0.5,
                        help="upper bound for both angles, in pi units")
    parser.add_argument("--out", default="pmax_grid.csv",
                        help="CSV output path (default pmax_grid.csv)")
    args = parser.parse_args()
    if args.points < 2:
        parser.error(f"--points must be at least 2, got {args.points}")
    return run(args)


if __name__ == "__main__":
    raise SystemExit(main())
