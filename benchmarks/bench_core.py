"""Benchmarks for the paper's core algorithms (RD-GBG, GBABS)."""
import pytest

from repro.core.gbabs import gbabs_from_balls, gbabs_sample
from repro.core.rdgbg import rd_gbg
from repro.datasets.generators import make_blobs_classification
from repro.datasets.registry import load_dataset


@pytest.fixture(scope="module")
def s5():
    X, y, _ = load_dataset("S5")
    return X, y


@pytest.fixture(scope="module")
def s10():
    X, y, _ = load_dataset("S10")
    return X, y


def test_bench_rdgbg_lowdim(benchmark, s5):
    """RD-GBG granulation on the 2-d banana analog (2000 samples)."""
    X, y = s5
    gbset = benchmark(rd_gbg, X, y, 5, 0)
    assert len(gbset) > 0


def test_bench_rdgbg_middim(benchmark, s10):
    """RD-GBG granulation on the 10-d magic analog (2000 samples)."""
    X, y = s10
    gbset = benchmark(rd_gbg, X, y, 5, 0)
    assert len(gbset) > 0


@pytest.mark.parametrize("n", [1000, 2000, 4000, 8000])
def test_bench_rdgbg_scaling(benchmark, n):
    """RD-GBG on 10-d, 2-class blobs as n doubles; one round at n = 8000."""
    X, y = make_blobs_classification(n_samples=n, n_features=10, n_classes=2, seed=0)
    gbset = benchmark.pedantic(
        rd_gbg, args=(X, y, 5, 0), rounds=1 if n == 8000 else 3, iterations=1
    )
    assert len(gbset) > 0


def test_bench_gbabs_extraction(benchmark, s5):
    """Borderline extraction alone, over a pre-built ball set."""
    X, y = s5
    gbset = rd_gbg(X, y, rho=5, seed=0)
    idx = benchmark(gbabs_from_balls, X, gbset)
    assert len(idx) > 0


def test_bench_gbabs_end_to_end(benchmark, s5):
    """Full Algorithm 2 (granulate + sample)."""
    X, y = s5
    idx, _ = benchmark(gbabs_sample, X, y, 5, 0)
    assert 0 < len(idx) < len(X)


def test_bench_gbabs_spark_distributed(benchmark, spark, s5):
    """Distributed GBABS: 4-partition mapInPandas + window-SQL boundary."""
    from repro.core.spark_gbabs import gbabs_sample_df, to_spark_df

    X, y = s5
    df = to_spark_df(spark, X, y).cache()
    try:
        df.count()

        def run():
            return gbabs_sample_df(df, rho=5, seed=0, num_partitions=4).count()

        n = benchmark.pedantic(run, rounds=3, iterations=1, warmup_rounds=1)
    finally:
        df.unpersist()
    assert 0 < n < len(X)


def test_bench_spark_python_task(benchmark, spark):
    """Fixed cost of Python tasks: a warm 4-partition no-op mapInPandas."""
    from repro.harness.session import python_task

    @python_task
    def noop(batches):
        yield from batches

    df = spark.range(4, numPartitions=4)

    def run():
        return len(df.mapInPandas(noop, schema="id long").collect())

    n = benchmark.pedantic(run, rounds=10, iterations=1, warmup_rounds=3)
    assert n == 4
