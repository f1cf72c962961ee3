#!/usr/bin/env python3
"""Variant comparison: rejection-curve AUC and backbone protection.

Trains the full method (ig), the unweighted/unaugmented baseline (cr),
and the unsplit augmented control (cr-aug) over several seeds, then
reports the cross-model ERC AUC on a held-out mixed-quality split and
the clean-pair FNMR of each variant's own backbone.

Usage: python scripts/run_variant_comparison.py [--seeds 5] [--fmr 1e-2]
       [--out out/comparison]
"""

import argparse
from pathlib import Path

import numpy as np

from fiqlab import reference
from fiqlab.configio import write_csv


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", type=int, default=5)
    parser.add_argument("--fmr", type=float, default=1e-2)
    parser.add_argument("--epochs", type=int, default=20)
    parser.add_argument("--out", default="out/comparison")
    args = parser.parse_args()

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    print("training fixed evaluation model...")
    eval_model = reference.train_eval_reference_model()

    runs = []
    for seed in range(args.seeds):
        run = reference.run_variant_comparison(seed, eval_model,
                                               fmr=args.fmr,
                                               epochs=args.epochs)
        runs.append(run)
        print(f"seed {seed}: AUC ig={run.auc['ig']:.4f} "
              f"cr={run.auc['cr']:.4f} | clean FNMR "
              f"ig={run.clean_fnmr['ig']:.3f} cr={run.clean_fnmr['cr']:.3f} "
              f"cr-aug={run.clean_fnmr['cr-aug']:.3f}")

    csv_path = out_dir / "comparison.csv"
    write_csv(csv_path, "seed,auc_ig,auc_cr,fnmr_ig,fnmr_cr,fnmr_cr_aug,"
              "rank_ig,rank_cr", "%d" + ",%.6f" * 5 + ",%.4f" * 2,
              [x for r in runs for x in (
                  r.seed, r.auc["ig"], r.auc["cr"], r.clean_fnmr["ig"],
                  r.clean_fnmr["cr"], r.clean_fnmr["cr-aug"],
                  r.score_quality_rank["ig"], r.score_quality_rank["cr"])])

    ig = np.array([r.auc["ig"] for r in runs])
    cr = np.array([r.auc["cr"] for r in runs])
    wins = int(np.sum(ig < cr))
    print(f"\nmean AUC: ig {ig.mean():.4f} vs cr {cr.mean():.4f} "
          f"(wins {wins}/{len(runs)}, sign test "
          f"p={reference.sign_test_pvalue(wins, len(runs)):.4f})")
    fn = {v: np.mean([r.clean_fnmr[v] for r in runs])
          for v in ("ig", "cr", "cr-aug")}
    print(f"mean clean FNMR: ig {fn['ig']:.4f}, cr {fn['cr']:.4f}, "
          f"cr-aug {fn['cr-aug']:.4f}")
    print(f"rows written to {csv_path}")


if __name__ == "__main__":
    main()
