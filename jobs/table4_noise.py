"""Table IV — average testing accuracy on class-noise datasets.

Full grid: 13 datasets x noise {5,10,20,30,40}% x {GBABS, GGBS, SRS,
none} x {DT, XGBoost, LightGBM, kNN, RF}, 5-fold CV, fanned out over the
cluster. Prints the paper-shaped 20x5 table and writes raw rows to
``results/table4_results.parquet``.

Usage: spark-submit jobs/table4_noise.py [--reps N] [--datasets ...]
       [--noises 0.05,0.1] [--classifiers DT,RF]
"""
from __future__ import annotations

import argparse
import os

from repro.classifiers import CLASSIFIER_NAMES
from repro.harness.grid import run_grid
from repro.harness.session import get_session
from repro.harness.tables import table4


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--reps", type=int, default=1)
    ap.add_argument("--datasets", type=str, default="")
    ap.add_argument("--noises", type=str, default="0.05,0.1,0.2,0.3,0.4")
    ap.add_argument("--classifiers", type=str, default=",".join(CLASSIFIER_NAMES))
    ap.add_argument("--out", type=str, default="results/table4_results.parquet")
    args = ap.parse_args()

    spark = get_session("table4")
    results = run_grid(
        spark,
        datasets=args.datasets.split(",") if args.datasets else None,
        noises=[float(z) for z in args.noises.split(",")],
        classifiers=args.classifiers.split(","),
        reps=args.reps,
    ).cache()
    os.makedirs(os.path.dirname(args.out), exist_ok=True)
    results.write.mode("overwrite").parquet(args.out)

    print("\n=== Table IV: average testing Accuracy on class-noise datasets ===")
    print(table4(results).to_string())


if __name__ == "__main__":
    main()
