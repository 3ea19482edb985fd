"""Table II — testing accuracy of DT under GBABS / GGBS / SRS / none.

Runs the standard-dataset grid (no noise) over all 13 analogs with the
Spark task fan-out, prints the paper-shaped table, and writes the raw
metric rows to ``results/table2_results.parquet`` (Table III reuses them).

Usage: spark-submit jobs/table2_accuracy.py [--reps N] [--datasets S1,S2]
"""
from __future__ import annotations

import argparse
import os

from repro.harness.grid import run_grid
from repro.harness.session import get_session
from repro.harness.tables import table2, table3


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--reps", type=int, default=1)
    ap.add_argument("--datasets", type=str, default="")
    ap.add_argument("--out", type=str, default="results/table2_results.parquet")
    args = ap.parse_args()
    datasets = args.datasets.split(",") if args.datasets else None

    spark = get_session("table2")
    results = run_grid(
        spark,
        datasets=datasets,
        noises=[0.0],
        classifiers=["DT"],
        reps=args.reps,
    ).cache()
    os.makedirs(os.path.dirname(args.out), exist_ok=True)
    results.write.mode("overwrite").parquet(args.out)

    print("\n=== Table II: testing Accuracy of DT per sampling method ===")
    print(table2(results).to_string())
    print("\n=== Table III: Wilcoxon signed-rank over Table II ===")
    print(table3(results).to_string(index=False))


if __name__ == "__main__":
    main()
