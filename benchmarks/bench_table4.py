"""Benchmark of one Table IV unit of work (noise robustness grid).

The full 13x5x4x5 grid is produced by ``jobs/table4_noise.py``; here one
noisy fold task runs all five classifiers. perfbench's ``table4-grid``
workload times and checks the Spark grid end to end.
"""
from repro.harness.grid import run_fold_task


def test_bench_table4_noisy_fold_all_classifiers(benchmark):
    """One Table-IV unit: 20% noise, 4 methods x 5 classifiers on S2."""
    rows = benchmark.pedantic(
        run_fold_task,
        args=("S2", 0.2, 0, 0),
        rounds=2,
        iterations=1,
    )
    assert len(rows) == 4 * 5
