"""The one place that holds the repro's per-session Spark settings.

Jobs, the benchmark and the tests' session fixture all call
``get_session()``, which applies Arrow, shuffle partitions and disabled
broadcast joins to a builder-created or spark-submit-provided session.
Broadcast joins are off so joins exercise the shuffle path; a query that
wants a broadcast join sets the threshold back for itself.
"""
from __future__ import annotations

from pyspark.sql import SparkSession

__all__ = ["get_session"]


def get_session(app_name: str = "repro-job") -> SparkSession:
    return (
        SparkSession.builder.appName(app_name)
        .config("spark.sql.shuffle.partitions", 64)
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
