#!/usr/bin/env python3
"""Estimation error vs shot count under randomized measurement.

Usage:
    python scripts/consistency_sweep.py --seeds 100 --out sweep.csv

Simulates a pure state, runs the full estimate-and-project pipeline, and
tabulates RMSE and median error per N with the fitted log-log slope
(expected near -1/2).
"""

import argparse
import csv
import math

from blochmle.checks import consistency_errors


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, default=100)
    parser.add_argument("--base-seed", type=int, default=0)
    parser.add_argument("--out", default="sweep.csv")
    args = parser.parse_args()
    if args.seeds < 1:
        parser.error(f"--seeds must be >= 1, got {args.seeds}")

    sweep = consistency_errors(seeds_per_n=args.seeds, base_seed=args.base_seed)
    n_values = list(sweep["errors"])

    with open(args.out, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["n_shots", "rmse", "median_error"])
        for n, rmse, median in zip(n_values, sweep["rmse"], sweep["median"]):
            writer.writerow([n, rmse, median])

    print(f"wrote {args.out}")
    for n, rmse in zip(n_values, sweep["rmse"]):
        print(f"N = {n:>6d}   rmse {rmse:.5f}   sqrt(N)*rmse {rmse * math.sqrt(n):.3f}")
    print(f"rmse slope {sweep['rmse_slope']:.3f}, median slope {sweep['median_slope']:.3f}")


if __name__ == "__main__":
    main()
