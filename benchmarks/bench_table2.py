"""Benchmark of one Table II unit of work (DT accuracy per method).

The full table is produced by ``jobs/table2_accuracy.py``; perfbench's
``table2-grid`` workload times and checks the Spark grid end to end.
"""
from repro.harness.grid import run_fold_task


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
