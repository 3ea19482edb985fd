"""The one place that holds the repro's per-session Spark settings and its
Python task wrapper.

Jobs, the benchmark and the tests' session fixture all call
``get_session()``, which applies Arrow, shuffle partitions and disabled
broadcast joins to a builder-created or spark-submit-provided session.
Broadcast joins are off so that a join Spark plans by itself exercises
the shuffle path; a query that wants a broadcast join asks for it with
``F.broadcast`` (``gbabs_sample_df``'s semi-join does).

Every Python task body the repro runs is wrapped in ``python_task``, which
calls ``forget_zip_finders()`` when the body ends, however it ends.
PySpark's worker calls ``importlib.invalidate_caches()`` before each task
(``worker_util.setup_spark_files``), and that makes every ``zipimporter``
cached for ``pyspark.zip`` — one per package directory the worker has
imported from it — re-read the zip's whole directory, 0.1–0.2 s per task
before any repro code runs. Forgetting the finders at the end of each
task leaves the next task on a reused worker none to re-read, so only a
worker's first task pays the cost.
"""
from __future__ import annotations

import sys
import zipimport
from typing import Callable, Iterator

from pyspark.sql import SparkSession

__all__ = ["get_session", "forget_zip_finders", "python_task"]


def get_session(app_name: str = "repro-job") -> SparkSession:
    return (
        SparkSession.builder.appName(app_name)
        .config("spark.sql.shuffle.partitions", 64)
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )


def forget_zip_finders() -> None:
    """Delete every ``zipimporter`` from ``sys.path_importer_cache``.

    Modules already imported keep their loaders. A later import from a zip
    builds its finder again from zipimport's shared directory cache, without
    re-reading the zip, and ``importlib.invalidate_caches()`` has no
    zip finder left to make re-read it.
    """
    for path, finder in list(sys.path_importer_cache.items()):
        if isinstance(finder, zipimport.zipimporter):
            del sys.path_importer_cache[path]


def python_task(body: Callable[[Iterator], Iterator]) -> Callable[[Iterator], Iterator]:
    """The ``mapInPandas`` body ``body``, calling ``forget_zip_finders`` when it ends."""

    def task(batches: Iterator) -> Iterator:
        try:
            yield from body(batches)
        finally:
            forget_zip_finders()

    return task
