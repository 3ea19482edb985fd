"""Table III — Wilcoxon signed-rank tests over the Table II accuracies.

Reads the metric rows written by ``jobs/table2_accuracy.py`` (or reruns
the grid when absent) and prints the three paired comparisons.

Usage: spark-submit jobs/table3_wilcoxon.py [--results path.parquet]
"""
from __future__ import annotations

import argparse
import os

from repro.harness.grid import run_grid
from repro.harness.session import get_session
from repro.harness.tables import table3


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--results", type=str, default="results/table2_results.parquet")
    args = ap.parse_args()

    spark = get_session("table3")
    if os.path.exists(args.results):
        results = spark.read.parquet(args.results)
    else:
        results = run_grid(
            spark,
            noises=[0.0],
            classifiers=["DT"],
        )
    print("\n=== Table III: Wilcoxon signed-rank test results ===")
    print(table3(results).to_string(index=False))


if __name__ == "__main__":
    main()
