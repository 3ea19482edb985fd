"""Self-tests for the DuckDB oracle over a registry dataset."""
import pytest
from pyspark.sql import functions as F

from repro.core.spark_gbabs import to_spark_df
from repro.datasets.registry import load_dataset
from repro.oracle import assert_equivalent

SQL = "SELECT label, count(*) AS n FROM s2 GROUP BY label"


@pytest.fixture(scope="module")
def s2(spark):
    X, y, _ = load_dataset("S2")
    return to_spark_df(spark, X, y)


def test_oracle_catches_agreement(s2):
    agg = s2.groupBy("label").agg(F.count("*").alias("n"))
    assert_equivalent(agg, SQL, s2=s2)


def test_oracle_catches_disagreement(s2):
    agg = s2.groupBy("label").agg((F.count("*") + 1).alias("n"))
    with pytest.raises(AssertionError):
        assert_equivalent(agg, SQL, s2=s2)
