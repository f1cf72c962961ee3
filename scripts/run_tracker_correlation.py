#!/usr/bin/env python3
"""Tracker-vs-oracle correlation experiment.

Trains the reference configuration with the scheduled momentum and with
fixed momentum values, correlating the per-class EMA variance estimate
against the exact variance under a pretrained reference model, per
epoch.  Writes one CSV row per (seed, schedule) and prints a summary.

Usage: python scripts/run_tracker_correlation.py [--seeds 5] [--epochs 10]
       [--out out/correlation]
"""

import argparse
from pathlib import Path

import numpy as np

from fiqlab import reference
from fiqlab.configio import write_csv


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", type=int, default=5)
    parser.add_argument("--epochs", type=int, default=10)
    parser.add_argument("--out", default="out/correlation")
    args = parser.parse_args()

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    runs = [reference.run_correlation_experiment(seed, epochs=args.epochs)
            for seed in range(args.seeds)]

    csv_path = out_dir / "correlation.csv"
    write_csv(csv_path, "seed,rho_epoch2,rho_final_scheduled,"
              "rho_final_alpha0.9,rho_final_alpha0.99,"
              "dup_zero_fraction,normal_high_fraction",
              "%d" + ",%.6f" * 4 + ",%.4f" * 2,
              [x for r in runs for x in (
                  r.seed, r.rho_epoch2, r.rho_final_scheduled,
                  r.rho_final_fixed[0.9], r.rho_final_fixed[0.99],
                  r.dup_zero_fraction, r.normal_high_fraction)])

    rho2 = np.mean([r.rho_epoch2 for r in runs])
    sched = np.mean([r.rho_final_scheduled for r in runs])
    f90 = np.mean([r.rho_final_fixed[0.9] for r in runs])
    f99 = np.mean([r.rho_final_fixed[0.99] for r in runs])
    print(f"mean correlation after 2 epochs : {rho2:.3f}")
    print(f"final correlation scheduled     : {sched:.3f}")
    print(f"final correlation fixed 0.9     : {f90:.3f}")
    print(f"final correlation fixed 0.99    : {f99:.3f}")
    print(f"duplicate classes zero-weighted : "
          f"{np.mean([r.dup_zero_fraction for r in runs]):.2f}")
    print(f"normal classes above weight 0.5 : "
          f"{np.mean([r.normal_high_fraction for r in runs]):.2f}")
    print(f"rows written to {csv_path}")


if __name__ == "__main__":
    main()
