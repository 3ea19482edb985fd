"""Benchmark regenerating a slice of Table IV (noise robustness grid).

The full 13x5x4x5 grid is produced by ``jobs/table4_noise.py``; here one
noisy fold task runs all five classifiers, and a Spark subset covers the
fan-out + assembly path.
"""
import pytest

from repro.harness.grid import run_fold_task, run_grid
from repro.harness.tables import table4


def test_bench_table4_noisy_fold_all_classifiers(benchmark):
    """One Table-IV unit: 20% noise, 4 methods x 5 classifiers on S2."""
    rows = benchmark.pedantic(
        run_fold_task,
        args=("S2", 0.2, 0, 0),
        rounds=2,
        iterations=1,
    )
    assert len(rows) == 4 * 5


def test_bench_table4_spark_subset(benchmark, spark):
    """Spark-parallel Table IV over S2, two noise ratios, DT+kNN."""

    def run():
        results = run_grid(
            spark,
            datasets=["S2"],
            noises=[0.1, 0.3],
            classifiers=["DT", "kNN"],
            n_splits=2,
        )
        return table4(results)

    t = benchmark.pedantic(run, rounds=2, iterations=1, warmup_rounds=1)
    assert list(t.columns) == ["10%", "30%"]
