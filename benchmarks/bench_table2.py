"""Benchmark regenerating a slice of Table II (DT accuracy per method).

The full table is produced by ``jobs/table2_accuracy.py``; benching a
2-dataset subset keeps ``--benchmark-only`` runs in minutes while
exercising the identical code path (Spark fan-out included).
"""
import pytest

from repro.harness.grid import run_fold_task, run_grid
from repro.harness.tables import table2


def test_bench_table2_fold_task(benchmark):
    """One Table-II unit of work: every sampling method + DT on one fold."""
    rows = benchmark.pedantic(
        run_fold_task,
        args=("S2", 0.0, 0, 0),
        kwargs={"classifiers": ["DT"]},
        rounds=3,
        iterations=1,
    )
    assert len(rows) == 4


def test_bench_table2_spark_subset(benchmark, spark):
    """Spark-parallel Table II over S2+S5, 2 folds, assembled to the table."""

    def run():
        results = run_grid(
            spark,
            datasets=["S2", "S5"],
            noises=[0.0],
            classifiers=["DT"],
            n_splits=2,
        )
        return table2(results)

    t = benchmark.pedantic(run, rounds=2, iterations=1, warmup_rounds=1)
    assert "GBABS-DT" in t.columns
