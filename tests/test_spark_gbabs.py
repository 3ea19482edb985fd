"""Tests for the distributed GBABS ((ball, dimension) table + Catalyst window)."""
import re

import numpy as np
import pandas as pd
import pytest
from pyspark.errors import PythonException

from repro.core.gbabs import ball_extremes, borderline_pairs, gbabs_sample
from repro.core.rdgbg import rd_gbg
from repro.core.spark_gbabs import (
    BALL_SCHEMA,
    SID,
    borderline_pairs_df,
    gbabs_sample_df,
    granulate_partitions,
    to_spark_df,
)
from repro.datasets.registry import load_dataset
from repro.oracle import assert_equivalent


def _sids(sdf) -> list[int]:
    return sorted(r[SID] for r in sdf.select(SID).collect())


@pytest.fixture(scope="module")
def s2(spark):
    X, y, _ = load_dataset("S2")
    return X, y, to_spark_df(spark, X, y)


def test_to_spark_df_schema(s2):
    X, y, df = s2
    assert df.count() == len(X)
    assert set(df.columns) == {f"f{j}" for j in range(X.shape[1])} | {"label", SID}


@pytest.mark.parametrize(
    "name,noise", [(d, z) for d in ("S1", "S2", "S3") for z in (0.0, 0.2)]
)
def test_single_partition_matches_numpy_exactly(spark, name, noise):
    """num_partitions=1 is the paper's Algorithm 2, bit-for-bit.

    S1 and S3 have integer-valued (categorical) columns, so centers and
    ball members tie on coordinates; ties must break as in numpy.
    """
    X, y, _ = load_dataset(name, noise_ratio=noise)
    got = _sids(gbabs_sample_df(to_spark_df(spark, X, y), rho=5, seed=0, num_partitions=1))
    idx, _ = gbabs_sample(X, y, rho=5, seed=0)
    assert got == idx.tolist()


def test_multi_partition_sample_repeats(spark):
    X, y, _ = load_dataset("S3")
    df = to_spark_df(spark, X, y)
    runs = [_sids(gbabs_sample_df(df, rho=5, seed=0, num_partitions=4)) for _ in range(2)]
    assert runs[0] == runs[1]


def test_arbitrary_feature_column_names(spark):
    """Features are every column but label/_sid, whatever their names."""
    X, y, _ = load_dataset("S5")
    df = to_spark_df(spark, X, y)
    renamed = df.withColumnsRenamed({"f0": "area", "f1": "b"})
    want = _sids(gbabs_sample_df(df, rho=5, seed=0, num_partitions=1))
    assert _sids(gbabs_sample_df(renamed, rho=5, seed=0, num_partitions=1)) == want


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_features_raise_on_action(spark, bad):
    X, y, _ = load_dataset("S2")
    X = X.copy()
    X[3, 2] = bad
    sampled = gbabs_sample_df(to_spark_df(spark, X, y), num_partitions=1)  # lazy
    with pytest.raises(PythonException, match="finite"):
        sampled.collect()


def test_empty_shards(spark):
    """More partitions than rows leaves shards empty; they emit nothing."""
    X = np.array([[0.0], [0.1], [0.2], [1.0], [1.1], [1.2]])
    y = np.array([0, 0, 0, 1, 1, 1])
    df = to_spark_df(spark, X, y)
    balls = granulate_partitions(df, num_partitions=8)
    assert balls.select("ball_key").distinct().count() <= len(X)
    assert set(_sids(gbabs_sample_df(df, num_partitions=8))) <= set(range(len(X)))


def test_granulate_partitions_purity_and_keys(s2):
    """One row per (ball, dim); each ball's facing extremes carry its label."""
    X, y, df = s2
    rows = granulate_partitions(df, rho=5, seed=0, num_partitions=2).toPandas()
    p = X.shape[1]
    assert sorted(rows["dim"].unique()) == list(range(p))
    assert not rows.duplicated(["dim", "ball_key"]).any()
    per_ball = rows.groupby("ball_key")
    assert (per_ball.size() == p).all() and (per_ball["label"].nunique() == 1).all()
    assert set(rows["ball_key"].to_numpy() >> 32) == {0, 1}
    label = rows["label"].to_numpy()
    assert (y[rows["top"]] == label).all() and (y[rows["bot"]] == label).all()


def test_granulate_partitions_covers_subset_of_rows(s2):
    """At one partition the (ball, dim) table is numpy's ball set, row for row."""
    X, y, df = s2
    rows = granulate_partitions(df, rho=5, seed=0, num_partitions=1).toPandas()
    rows = rows.sort_values(["ball_key", "dim"])
    gbset = rd_gbg(X, y, rho=5, seed=0)
    m, p = len(gbset), X.shape[1]
    assert len(rows) == m * p

    def table(col):
        return rows[col].to_numpy().reshape(m, p)

    assert (table("dim") == np.arange(p)).all()
    assert (table("ball_key") == np.arange(m)[:, None]).all()
    assert np.array_equal(table("val"), gbset.centers())
    assert (table("label") == gbset.labels()[:, None]).all()
    top, bot = ball_extremes(X, gbset)
    assert np.array_equal(table("top"), top) and np.array_equal(table("bot"), bot)


@pytest.mark.parametrize("parts", [2, 4])
def test_multi_partition_sample_is_subset_with_sane_ratio(s2, parts):
    X, y, df = s2
    sampled = gbabs_sample_df(df, rho=5, seed=0, num_partitions=parts)
    pdf = sampled.toPandas()
    assert set(pdf[SID]) <= set(range(len(X)))
    assert 0.02 < len(pdf) / len(X) < 1.0
    # sampled rows keep their original labels
    assert (pdf["label"].to_numpy() == y[pdf[SID].to_numpy()]).all()


def test_borderline_pairs_df_matches_duckdb_oracle(spark):
    """The Catalyst window query == the same SQL on DuckDB (the oracle)."""
    rng = np.random.default_rng(7)
    m, p = 40, 2
    # Coarse coordinates force center ties, which break by ball_key.
    center = rng.integers(0, 8, (m, p)).astype(np.float64)
    top, bot = rng.integers(0, 1000, (2, m, p))
    ball_key = (rng.integers(0, 3, m) << 32) + rng.permutation(m)
    label = rng.integers(0, 3, m)
    balls = spark.createDataFrame(
        pd.DataFrame(
            {
                "dim": np.tile(np.arange(p, dtype=np.int32), m),
                "val": center.ravel(),
                "ball_key": np.repeat(ball_key, p),
                "label": np.repeat(label, p),
                "top": top.ravel(),
                "bot": bot.ravel(),
            }
        ),
        schema=BALL_SCHEMA,
    )
    got = borderline_pairs_df(balls)
    sql = """
        WITH w AS (
            SELECT dim, ball_key, label, top,
                   lead(label) OVER (PARTITION BY dim ORDER BY val, ball_key) AS nxt_label,
                   lead(ball_key) OVER (PARTITION BY dim ORDER BY val, ball_key) AS nxt_ball,
                   lead(bot) OVER (PARTITION BY dim ORDER BY val, ball_key) AS nxt_bot
            FROM balls
        )
        SELECT dim, ball_key AS lo_ball, nxt_ball AS hi_ball,
               top AS lo_sid, nxt_bot AS hi_sid
        FROM w WHERE nxt_label IS NOT NULL AND label <> nxt_label
    """
    assert_equivalent(got, sql, balls=balls)


def test_borderline_pairs_df_matches_numpy_reference(s2):
    X, y, df = s2
    balls_sdf = granulate_partitions(df, rho=5, seed=0, num_partitions=1)
    got = {tuple(r) for r in borderline_pairs_df(balls_sdf).collect()}
    gbset = rd_gbg(X, y, rho=5, seed=0)
    idx = [b.idx for b in gbset.balls]
    want = {
        (d, a, b, idx[a][np.argmax(X[idx[a], d])], idx[b][np.argmin(X[idx[b], d])])
        for d, a, b in borderline_pairs(gbset.centers(), gbset.labels())
    }
    assert got == want


def test_noise_rows_never_emitted(spark):
    X, y, _ = load_dataset("S2", noise_ratio=0.3, noise_seed=1)
    df = to_spark_df(spark, X, y)
    rows = granulate_partitions(df, rho=5, seed=0, num_partitions=1).toPandas()
    noise = set(rd_gbg(X, y, rho=5, seed=0).noise_idx.tolist())
    assert noise
    extremes = set(rows["top"]) | set(rows["bot"])
    assert not extremes & noise
    assert not set(_sids(gbabs_sample_df(df, rho=5, seed=0, num_partitions=1))) & noise


def _final_plan(sdf) -> str:
    """The physical plan ``sdf`` ran, after adaptive execution settled it."""
    plan = sdf._jdf.queryExecution().executedPlan()
    if plan.getClass().getSimpleName() == "AdaptiveSparkPlanExec":
        plan = plan.executedPlan()
    return plan.toString()


def test_sample_is_a_broadcast_semi_join(s2):
    """The picked ids are broadcast: ``df`` is never shuffled for the semi-join."""
    X, y, df = s2
    sampled = gbabs_sample_df(df, rho=5, seed=0, num_partitions=4)
    sampled.collect()
    plan = _final_plan(sampled)
    assert re.search(r"BroadcastHashJoin .*LeftSemi", plan), plan
    assert "SortMergeJoin" not in plan, plan


def test_sample_job_shape_repeats(spark, s2, job_shape):
    """Every call runs the same jobs, stages and tasks."""
    X, y, df = s2
    sc = spark.sparkContext
    shapes = []
    for i in range(2):
        group = f"test-gbabs-shape-{i}"
        sc.setJobGroup(group, "gbabs_sample_df job shape")
        try:
            gbabs_sample_df(df, rho=5, seed=0, num_partitions=4).select(SID).collect()
        finally:
            sc.setLocalProperty("spark.jobGroup.id", None)
        shapes.append(job_shape(group))
    assert shapes[0] == shapes[1]
    assert shapes[0][2] > 0


def test_sample_leaves_no_cached_data(spark, s2):
    """A call persists nothing: Spark holds no cached data after it."""
    X, y, df = s2
    gbabs_sample_df(df, rho=5, seed=0, num_partitions=4).collect()
    assert spark.sparkContext._jsc.getPersistentRDDs().isEmpty()
