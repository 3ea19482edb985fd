"""Spark-parallel experiment grid for the paper's evaluation section.

The unit of work is one *fold task*: ``(dataset, noise_ratio, rep,
fold)``. Inside a task the dataset is materialised deterministically,
the stratified fold split applied, every sampling method run on the
training fold (GBABS first — SRS reuses its sampling ratio, matching the
paper's protocol), every classifier trained on each sampled set, and one
metric row emitted per (method, classifier).

``run_grid`` deals the task list round-robin over one Python task per
core, in one stage with no shuffle, because every Spark Python task has
a fixed cost before any of the grid's code runs (its body is wrapped in
``session.python_task``). Each fold task is seeded from its key, so
results are reproducible regardless of scheduling.
``run_fold_task`` is the plain-Python core, unit-testable without Spark.
"""
from __future__ import annotations

import itertools
import time
import zlib

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from ..baselines.ggbs import ggbs
from ..baselines.simple import srs
from ..classifiers import CLASSIFIER_NAMES, accuracy, g_mean, make_classifier
from ..core.gbabs import gbabs_sample
from ..datasets.registry import REGISTRY, load_dataset
from ..stats.crossval import stratified_kfold
from .session import python_task

__all__ = [
    "DEFAULT_METHODS",
    "RESULT_SCHEMA",
    "run_fold_task",
    "build_task_grid",
    "run_grid",
]

DEFAULT_METHODS = ["GBABS", "GGBS", "SRS", "none"]

RESULT_SCHEMA = (
    "dataset string, noise double, rep long, fold long, method string, "
    "classifier string, accuracy double, g_mean double, "
    "sampling_ratio double, n_train long, n_sampled long, "
    "t_sample_s double, t_fit_s double, t_predict_s double"
)
# Wall seconds of the row's sampling method (shared by the method's rows),
# classifier fit and classifier predict; they vary from run to run.
TIMING_COLUMNS = ["t_sample_s", "t_fit_s", "t_predict_s"]
RESULT_COLUMNS = [f.split()[0] for f in RESULT_SCHEMA.split(", ")]


def _task_seed(dataset: str, noise: float, rep: int, fold: int) -> int:
    key = f"{dataset}|{noise:.3f}|{rep}|{fold}".encode()
    return zlib.crc32(key) & 0x7FFFFFFF


def _apply_method(
    method: str,
    X: np.ndarray,
    y: np.ndarray,
    *,
    rho: int,
    gbabs_ratio: float | None,
    seed: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Dispatch one sampling method; returns the sampled training set."""
    if method == "GBABS":
        idx, _ = gbabs_sample(X, y, rho=rho, seed=seed)
        return X[idx], y[idx]
    if method == "GGBS":
        return ggbs(X, y, purity_threshold=1.0, seed=seed)
    if method == "SRS":
        if gbabs_ratio is None:
            raise ValueError("SRS requires the GBABS ratio — run GBABS first")
        return srs(X, y, ratio=gbabs_ratio, seed=seed)
    if method == "none":
        return X, y
    raise ValueError(f"unknown sampling method {method!r}")


def run_fold_task(
    dataset: str,
    noise: float,
    rep: int,
    fold: int,
    *,
    methods: list[str] | None = None,
    classifiers: list[str] | None = None,
    n_splits: int = 5,
    rho: int = 5,
) -> pd.DataFrame:
    """Run one fold task and return its metric rows (plain Python core).

    ``None`` selects every method or classifier; an empty list selects none.
    """
    methods = list(DEFAULT_METHODS if methods is None else methods)
    classifiers = list(CLASSIFIER_NAMES if classifiers is None else classifiers)
    X, y, _ = load_dataset(dataset, noise_ratio=noise, noise_seed=rep)
    folds = stratified_kfold(y, n_splits=n_splits, seed=rep)
    tr_idx, te_idx = folds[fold]
    X_tr, y_tr = X[tr_idx], y[tr_idx]
    X_te, y_te = X[te_idx], y[te_idx]
    seed = _task_seed(dataset, noise, rep, fold)

    # GBABS always runs first so its ratio is available to SRS.
    ordered = sorted(methods, key=lambda m: m != "GBABS")
    gbabs_ratio: float | None = None
    rows = []
    for method in ordered:
        t0 = time.perf_counter()
        X_s, y_s = _apply_method(
            method, X_tr, y_tr, rho=rho, gbabs_ratio=gbabs_ratio, seed=seed
        )
        t_sample = time.perf_counter() - t0
        ratio = len(X_s) / len(X_tr)
        if method == "GBABS":
            gbabs_ratio = ratio
        for clf_name in classifiers:
            clf = make_classifier(clf_name, seed=seed)
            t0 = time.perf_counter()
            clf.fit(X_s, y_s)
            t1 = time.perf_counter()
            pred = clf.predict(X_te)
            t2 = time.perf_counter()
            rows.append(
                {
                    "dataset": dataset,
                    "noise": noise,
                    "rep": rep,
                    "fold": fold,
                    "method": method,
                    "classifier": clf_name,
                    "accuracy": accuracy(y_te, pred),
                    "g_mean": g_mean(y_te, pred),
                    "sampling_ratio": ratio,
                    "n_train": len(X_tr),
                    "n_sampled": len(X_s),
                    "t_sample_s": t_sample,
                    "t_fit_s": t1 - t0,
                    "t_predict_s": t2 - t1,
                }
            )
    return pd.DataFrame(rows, columns=RESULT_COLUMNS)


def build_task_grid(
    *,
    datasets: list[str] | None = None,
    noises: list[float] | None = None,
    reps: int = 1,
    n_splits: int = 5,
) -> pd.DataFrame:
    """The task table: one row per (dataset, noise, rep, fold).

    ``datasets=None`` selects every registry dataset; ``[]`` selects none.
    """
    datasets = list(REGISTRY) if datasets is None else datasets
    noises = noises if noises is not None else [0.0]
    rows = [
        {"dataset": d, "noise": nz, "rep": r, "fold": f}
        for d, nz, r, f in itertools.product(
            datasets, noises, range(reps), range(n_splits)
        )
    ]
    return pd.DataFrame(rows)


def run_grid(
    spark: SparkSession,
    *,
    datasets: list[str] | None = None,
    noises: list[float] | None = None,
    methods: list[str] | None = None,
    classifiers: list[str] | None = None,
    reps: int = 1,
    n_splits: int = 5,
    rho: int = 5,
) -> DataFrame:
    """Run the task grid on the cluster; returns the metric rows.

    The grid runs as one stage of ``k = min(#tasks, defaultParallelism)``
    Python tasks with no shuffle: partition ``i`` runs tasks ``i, i + k,
    ...`` of the ``build_task_grid`` order through ``run_fold_task``. An
    empty task table gives an empty frame with ``RESULT_SCHEMA``.
    """
    grid = build_task_grid(
        datasets=datasets, noises=noises, reps=reps, n_splits=n_splits
    )
    tasks = [
        (str(d), float(nz), int(r), int(f))
        for d, nz, r, f in grid.itertuples(index=False)
    ]
    k = max(1, min(len(tasks), spark.sparkContext.defaultParallelism))

    @python_task
    def run_share(batches):
        for batch in batches:
            for i in batch["id"]:
                for task in tasks[i::k]:
                    yield run_fold_task(
                        *task,
                        methods=methods,
                        classifiers=classifiers,
                        n_splits=n_splits,
                        rho=rho,
                    )

    # spark.range puts exactly one id in each of its k partitions.
    return spark.range(k, numPartitions=k).mapInPandas(run_share, schema=RESULT_SCHEMA)
