"""Distributed GBABS over a Spark DataFrame (the repro's Spark layering).

Granulation is embarrassingly parallel per shard; boundary detection is
global and relational. A ball never spans partitions, so everything
Algorithm 2 needs from a ball is known in the task that builds it:

* ``granulate_partitions`` — runs RD-GBG **per partition** with
  ``mapInPandas`` and emits the **(ball, dimension) table** that
  Algorithm 2 reads, one row per ball and feature dimension: ``dim``, the
  ball's center coordinate ``val`` in it, ``ball_key`` (``partition << 32
  | ball``), ``label``, and the ``_sid`` of the ball's arg-max (``top``)
  and arg-min (``bot``) member in that dimension — its two facing
  extremes, from the numpy reference's ``ball_extremes``. Class-noise rows
  detected by RD-GBG belong to no ball.
* ``borderline_pairs_df`` — finds, per dimension, adjacent centers with
  different labels using a Catalyst window (``lead`` over ``PARTITION BY
  dim ORDER BY val, ball_key``). Each pair carries the lower ball's
  ``top`` and the upper ball's ``bot``. This step is oracle-checked
  against the same DuckDB window query in tests.
* ``gbabs_sample_df`` — left-semi-joins the original rows on the pairs'
  two sample ids. The ids are broadcast, so ``df`` is not shuffled for
  the join.

With ``num_partitions=1`` this computes exactly the single-node
Algorithm 2, tied coordinates included: ball keys order like ball
indices and the extremes use numpy's first-occurrence arg-max/arg-min.
With more partitions each shard granulates locally, so balls from
different shards may overlap while boundary detection still sees every
ball — the natural data-parallel approximation. Unlike the numpy
reference, single-class input yields no pairs and so an empty sample.
"""
from __future__ import annotations

from typing import Iterator

import numpy as np
import pandas as pd
from pyspark import TaskContext
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F
from pyspark.sql.window import Window

from ..harness.session import python_task
from .gbabs import ball_extremes
from .rdgbg import rd_gbg

__all__ = [
    "to_spark_df",
    "granulate_partitions",
    "borderline_pairs_df",
    "gbabs_sample_df",
]

SID = "_sid"

BALL_SCHEMA = "dim int, val double, ball_key long, label long, top long, bot long"


def to_spark_df(spark: SparkSession, X: np.ndarray, y: np.ndarray) -> DataFrame:
    """Wrap ``(X, y)`` as a DataFrame with columns f0..f{p-1}, label, _sid."""
    p = X.shape[1]
    pdf = pd.DataFrame(X, columns=[f"f{j}" for j in range(p)])
    pdf["label"] = y.astype(np.int64)
    pdf[SID] = np.arange(len(y), dtype=np.int64)
    return spark.createDataFrame(pdf)


def granulate_partitions(
    df: DataFrame, *, rho: int = 5, seed: int = 0, num_partitions: int | None = None
) -> DataFrame:
    """Per-partition RD-GBG: the (ball, dimension) table.

    Features are every column of ``df`` except ``label`` and ``_sid``.
    Output columns: ``dim``, ``val``, ``ball_key``, ``label``, ``top``,
    ``bot`` (see the module docstring), ball-major.
    """
    feats = [c for c in df.columns if c not in ("label", SID)]
    if num_partitions is not None:
        df = df.repartition(num_partitions)

    @python_task
    def run(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        batches = list(batches)
        if not batches:  # empty shard
            return
        pdf = pd.concat(batches, ignore_index=True)
        X = pdf[feats].to_numpy(dtype=np.float64)
        sids = pdf[SID].to_numpy()
        pid = TaskContext.get().partitionId()
        gbset = rd_gbg(X, pdf["label"].to_numpy(), rho=rho, seed=seed + pid)
        if len(gbset) == 0:
            return
        top, bot = ball_extremes(X, gbset)
        m, p = top.shape
        yield pd.DataFrame(
            {
                "dim": np.tile(np.arange(p, dtype=np.int32), m),
                "val": gbset.centers().ravel(),
                "ball_key": np.repeat((pid << 32) | np.arange(m, dtype=np.int64), p),
                "label": np.repeat(gbset.labels().astype(np.int64), p),
                "top": sids[top].ravel(),
                "bot": sids[bot].ravel(),
            }
        )

    return df.mapInPandas(run, schema=BALL_SCHEMA)


def borderline_pairs_df(balls: DataFrame) -> DataFrame:
    """Adjacent heterogeneous center pairs per dimension (Catalyst window).

    Input: the (ball, dimension) table of :func:`granulate_partitions`.
    Output columns: ``dim``, ``lo_ball``, ``hi_ball`` — the lower/upper
    ball keys of each heterogeneous adjacency in the per-dimension center
    ordering (ties broken by ball_key, as in the numpy reference) — and
    ``lo_sid``/``hi_sid``, the lower ball's ``top`` and the upper ball's
    ``bot`` sample in that dimension.
    """
    w = Window.partitionBy("dim").orderBy("val", "ball_key")
    return (
        balls.select(
            "dim",
            "label",
            F.col("ball_key").alias("lo_ball"),
            F.col("top").alias("lo_sid"),
            F.lead("label").over(w).alias("nxt_label"),
            F.lead("ball_key").over(w).alias("hi_ball"),
            F.lead("bot").over(w).alias("hi_sid"),
        )
        .filter(F.col("label") != F.col("nxt_label"))
        .select("dim", "lo_ball", "hi_ball", "lo_sid", "hi_sid")
    )


def gbabs_sample_df(
    df: DataFrame, *, rho: int = 5, seed: int = 0, num_partitions: int | None = None
) -> DataFrame:
    """Distributed Algorithm 2: returns the sampled rows of ``df``.

    ``df`` needs ``label``, ``_sid`` and numeric feature columns (see
    :func:`to_spark_df`).
    """
    balls = granulate_partitions(df, rho=rho, seed=seed, num_partitions=num_partitions)
    pairs = borderline_pairs_df(balls)
    picked = pairs.selectExpr(f"stack(2, lo_sid, hi_sid) AS {SID}")
    return df.join(F.broadcast(picked), on=SID, how="left_semi")
