"""The benchmark's workloads: two ``run_grid`` grids and one distributed GBABS run.

Each workload has the same life cycle, driven by ``run.py``:

* ``prepare`` builds the inputs and runs a warm-up call (part of set-up);
* ``iteration`` is one timed, untraced end-to-end call; its output is
  kept for the check;
* ``check`` compares outputs that the program fixes bit for bit;
* ``traced`` re-runs the work with the program's public functions wrapped
  by the tracer and returns the per-layer metrics.
"""
from __future__ import annotations

import math
import random
import statistics
import time
from dataclasses import dataclass
from typing import Any

from tracer import Patch, Tracer

GRID_KEY = ("dataset", "noise", "rep", "fold", "method", "classifier")
GRID_VALUES = ("accuracy", "g_mean", "sampling_ratio", "n_train", "n_sampled")


@dataclass
class Result:
    """One iteration: its output plus what Spark reports for its jobs."""

    wall: float
    output: Any
    spark: dict  # jobs, stages, tasks, failed: see spark_counts


def spark_counts(spark, group: str) -> dict:
    """Jobs, stages and tasks Spark ran for one job group."""
    tracker = spark.sparkContext.statusTracker()
    jobs = tracker.getJobIdsForGroup(group)
    stage_ids = set()
    for jid in jobs:
        info = tracker.getJobInfo(jid)
        if info is not None:
            stage_ids.update(info.stageIds)
    stages = tasks = failed = 0
    for sid in stage_ids:
        info = tracker.getStageInfo(sid)
        if info is not None and info.numCompletedTasks + info.numFailedTasks > 0:
            stages += 1
            tasks += info.numCompletedTasks + info.numFailedTasks
            failed += info.numFailedTasks
    return {"jobs": len(jobs), "stages": stages, "tasks": tasks, "failed": failed}


def _same_counts(name: str, results: list[Result]) -> list[str]:
    """Spark's job, stage and task counts must repeat exactly across iterations."""
    if any(r.spark != results[0].spark for r in results):
        return [f"{name}: Spark job/stage/task counts differ between iterations: "
                f"{[r.spark for r in results]}"]
    return []


# ---------------------------------------------------------------- grids

def _row_value(v):
    v = v.item() if hasattr(v, "item") else v
    return "nan" if isinstance(v, float) and math.isnan(v) else v


def grid_rows(records) -> dict[tuple, tuple]:
    """Result rows keyed by (dataset, noise, rep, fold, method, classifier)."""
    out = {}
    for r in records:
        key = tuple(_row_value(r[k]) for k in GRID_KEY)
        if key in out:
            raise ValueError(f"duplicate grid row {key}")
        out[key] = tuple(_row_value(r[k]) for k in GRID_VALUES)
    return out


def _observe_rdgbg(args, kwargs, gbset) -> dict:
    return {
        "rdgbg.calls": 1,
        "rdgbg.rows": len(args[0]),
        "rdgbg.balls": len(gbset),
        "rdgbg.orphans": sum(b.radius == 0.0 for b in gbset.balls),
        "rdgbg.noise_rows": len(gbset.noise_idx),
    }


def _observe_pairs(args, kwargs, pairs) -> dict:
    return {"gbabs.pairs": len(pairs)}


def _observe_gbabs(args, kwargs, out) -> dict:
    return {"gbabs.rows": len(args[0]), "gbabs.sampled": len(out[0])}


# Modules whose public functions the traced grid pass wraps, with the
# observers that turn a call's result into counters.
GRID_LAYERS = {
    "repro.harness.grid": {},
    "repro.datasets.registry": {},
    "repro.stats.crossval": {},
    "repro.core.rdgbg": {"rd_gbg": _observe_rdgbg},
    "repro.core.gbabs": {"borderline_pairs": _observe_pairs, "gbabs_sample": _observe_gbabs},
    "repro.baselines.ggbs": {},
    "repro.baselines.simple": {},
}


class GridWorkload:
    """``run_grid`` over a fixed task table, collected with each row's partition.

    The grid's inputs are the registry's analogs, which the program fixes;
    the benchmark's seed picks the fold tasks that are re-run in-process
    for the output check.
    """

    def __init__(self, name: str, config: dict, warmup: dict, checked_tasks: int) -> None:
        self.name = name
        self.config = config  # run_grid keyword arguments
        self.warmup = warmup  # overrides that make the warm-up grid small
        self.checked_tasks = checked_tasks

    def prepare(self, spark, seed: int, cores: int) -> None:
        from repro.harness.grid import build_task_grid

        self.spark, self.cores = spark, cores
        cfg = self.config
        self.tasks = [
            (r.dataset, float(r.noise), int(r.rep), int(r.fold))
            for r in build_task_grid(datasets=cfg["datasets"], noises=cfg["noises"],
                                     n_splits=cfg["n_splits"]).itertuples()
        ]
        self.picked = random.Random(seed).sample(self.tasks, self.checked_tasks)
        # Warm-up: a smaller grid with more tasks than cores, so that every
        # Python worker is started and has imported the program before the
        # first timed iteration.
        from repro.harness.grid import run_grid

        run_grid(spark, **{**cfg, **self.warmup}).collect()

    @property
    def ops(self) -> int:
        return len(self.tasks)

    def _run_grid(self):
        from pyspark.sql import functions as F
        from repro.harness.grid import run_grid

        return run_grid(self.spark, **self.config).withColumn(
            "_pid", F.spark_partition_id()).collect()

    def iteration(self, group: str) -> Result:
        self.spark.sparkContext.setJobGroup(group, group)
        t0 = time.perf_counter()
        records = self._run_grid()
        wall = time.perf_counter() - t0
        per_part: dict[int, set] = {}
        for r in records:
            per_part.setdefault(r["_pid"], set()).add(tuple(r[k] for k in GRID_KEY[:4]))
        out = {"rows": grid_rows(records), "max_tasks": max(len(s) for s in per_part.values())}
        return Result(wall, out, spark_counts(self.spark, group))

    def _task_rows(self, task) -> dict[tuple, tuple]:
        from repro.harness import grid

        cfg = self.config
        pdf = grid.run_fold_task(*task, methods=cfg["methods"], classifiers=cfg["classifiers"],
                                 n_splits=cfg["n_splits"])
        return grid_rows(pdf.to_dict("records"))

    def _expected_keys(self) -> set:
        cfg = self.config
        return {(*t, m, c) for t in self.tasks for m in cfg["methods"] for c in cfg["classifiers"]}

    def check(self, results: list[Result]) -> list[str]:
        """Every iteration gives the same rows, and the picked tasks match in-process runs."""
        errors = []
        first = results[0].output["rows"]
        if set(first) != self._expected_keys():
            errors.append(f"{self.name}: grid rows do not cover the task table")
        for i, r in enumerate(results[1:], 1):
            if r.output != results[0].output:
                errors.append(f"{self.name}: iteration {i} rows or packing differ from iteration 0")
        errors += _same_counts(self.name, results)
        self.check_seconds = []
        for task in self.picked:
            t0 = time.perf_counter()
            rows = self._task_rows(task)
            self.check_seconds.append(time.perf_counter() - t0)
            errors += self._compare(rows, first, f"in-process task {task}")
        return errors

    def _compare(self, rows: dict, spark_rows: dict, what: str) -> list[str]:
        bad = [k for k, v in rows.items() if spark_rows.get(k) != v]
        return [f"{self.name}: {what}: {len(bad)} rows differ from the Spark grid, e.g. {bad[:1]}"] if bad else []

    def metrics(self, results: list[Result], wall: float) -> dict:
        rows = results[0].output["rows"]
        # One row per task carries its n_train: the first method's first classifier.
        first = (self.config["methods"][0], self.config["classifiers"][0])
        n_train = sum(v[3] for k, v in rows.items() if k[4:] == first)
        accuracy = [v[0] for _, v in sorted(rows.items())]
        return {
            "tasks_per_s": (len(self.tasks) / wall, "1/s"),
            "rows_per_s": (n_train / wall, "rows/s"),
            "accuracy_mean": (sum(accuracy) / len(accuracy), "share"),
        }

    def traced(self, results: list[Result], wall: float) -> tuple[dict, Tracer, list[str]]:
        """Run every task in-process with the layers wrapped; per-layer metrics."""
        from repro.classifiers import CLASSIFIER_NAMES, make_classifier

        tracer = Tracer()
        patch = Patch(tracer)
        for module, observers in GRID_LAYERS.items():
            patch.functions(module, observers)
        paper_name = {type(make_classifier(n)): n for n in CLASSIFIER_NAMES}
        for cls, label in paper_name.items():
            patch.methods(cls, ["fit", "predict"], f"classifiers.{label}")
        spark_rows = results[0].output["rows"]
        errors, traced_s = [], {}
        try:
            for task in self.tasks:
                errors += self._compare(self._task_rows(task), spark_rows, f"traced task {task}")
                traced_s[task] = tracer.spans[-1].seconds  # the task's root span ends last
        finally:
            patch.restore()

        by_id = {s.id: s for s in tracer.spans}
        self_s = tracer.self_seconds()

        def total(name: str, own: bool = False) -> float:
            return sum(self_s[s.id] if own else s.seconds for s in tracer.spans if s.name == name)

        task_s = list(traced_s.values())
        c = tracer.counters
        m = {
            "grid.task_s.sum": (sum(task_s), "s"),
            "grid.task_s.max": (max(task_s), "s"),
            "grid.parallel_efficiency": (sum(task_s) / (wall * self.cores), "share"),
            "grid.partitions.max_tasks": (results[0].output["max_tasks"], "count"),
            "grid.spark.tasks": (results[0].spark["tasks"], "count"),
            "registry.load_s": (total("datasets.registry.load_dataset"), "s"),
            "crossval.split_s": (total("stats.crossval.stratified_kfold"), "s"),
            "rdgbg.self_s": (total("core.rdgbg.rd_gbg", own=True), "s"),
            "rdgbg.calls": (c["rdgbg.calls"], "count"),
            "rdgbg.rows": (c["rdgbg.rows"], "count"),
            "rdgbg.balls": (c["rdgbg.balls"], "count"),
            "rdgbg.orphan_share": (c["rdgbg.orphans"] / max(c["rdgbg.balls"], 1), "share"),
            "rdgbg.noise_rows": (c["rdgbg.noise_rows"], "count"),
            "gbabs.extract_s": (total("core.gbabs.gbabs_from_balls"), "s"),
            "gbabs.pairs": (c["gbabs.pairs"], "count"),
            "gbabs.sampling_ratio": (c["gbabs.sampled"] / max(c["gbabs.rows"], 1), "share"),
            "baselines.ggbs_s": (total("baselines.ggbs.ggbs"), "s"),
            "baselines.srs_s": (total("baselines.simple.srs"), "s"),
            "classifiers.fit_rows": (sum(v[4] for v in spark_rows.values()), "count"),
        }
        for label in CLASSIFIER_NAMES:
            for op in ("fit", "predict"):
                spans = [s for s in tracer.spans if s.name == f"classifiers.{label}.{op}"
                         and not by_id.get(s.parent, s).name.startswith("classifiers.")]
                m[f"classifiers.{label}.{op}_s"] = (sum(s.seconds for s in spans), "s")
        # Untraced baseline: the picked tasks' check runs plus one more run
        # of each after the traced pass, so warm-up does not favour either side.
        untraced = list(self.check_seconds)
        for task in self.picked:
            t0 = time.perf_counter()
            self._task_rows(task)
            untraced.append(time.perf_counter() - t0)
        traced_picked = sum(traced_s[t] for t in self.picked)
        m["trace.overhead"] = (2 * traced_picked / sum(untraced) - 1.0, "share")
        return m, tracer, errors


# ---------------------------------------------------------- spark-gbabs

class SparkGbabsWorkload:
    """``gbabs_sample_df`` at one partition per core on a seeded blob dataset."""

    name = "spark-gbabs"
    ops = 1  # one GBABS run per iteration

    def __init__(self, rows: int, features: int, classes: int, clusters: int, slice_rows: int,
                 warmups: int, traced_calls: int) -> None:
        self.rows, self.features, self.classes, self.clusters = rows, features, classes, clusters
        self.slice_rows, self.warmups, self.traced_calls = slice_rows, warmups, traced_calls

    def prepare(self, spark, seed: int, cores: int) -> None:
        from repro.core.spark_gbabs import to_spark_df
        from repro.datasets.generators import make_blobs_classification

        self.spark, self.seed, self.cores = spark, seed, cores
        self.X, self.y = make_blobs_classification(
            n_samples=self.rows, n_features=self.features, n_classes=self.classes,
            clusters_per_class=self.clusters, seed=seed)
        self.df = to_spark_df(spark, self.X, self.y)
        # JIT warm-up of the JVM; its outputs join the determinism check.
        self.warm = [self._sample(self.df) for _ in range(self.warmups)]

    def _sample(self, df, partitions: int | None = None) -> list[int]:
        from repro.core.spark_gbabs import SID, gbabs_sample_df

        parts = partitions or self.cores
        out = gbabs_sample_df(df, rho=5, seed=self.seed, num_partitions=parts).select(SID).collect()
        # gbabs_sample_df caches its ball table and never releases it; drop
        # it so every call starts from the same state.
        self.spark.catalog.clearCache()
        return sorted(r[0] for r in out)

    def iteration(self, group: str) -> Result:
        self.spark.sparkContext.setJobGroup(group, group)
        t0 = time.perf_counter()
        sids = self._sample(self.df)
        wall = time.perf_counter() - t0
        return Result(wall, sids, spark_counts(self.spark, group))

    def check(self, results: list[Result]) -> list[str]:
        """Same sample on every call; numpy Alg. 2 equality at one partition."""
        from repro.core.gbabs import gbabs_sample
        from repro.core.spark_gbabs import to_spark_df

        errors = []
        first = results[0].output
        if not first or len(set(first)) != len(first) or not set(first) <= set(range(self.rows)):
            errors.append("spark-gbabs: sampled _sid set is empty or out of range")
        if any(r.output != first for r in results) or any(w != first for w in self.warm):
            errors.append("spark-gbabs: sampled _sid sets differ between calls")
        errors += _same_counts(self.name, results)
        Xs, ys = self.X[: self.slice_rows], self.y[: self.slice_rows]
        got = self._sample(to_spark_df(self.spark, Xs, ys), partitions=1)
        want, _ = gbabs_sample(Xs, ys, rho=5, seed=self.seed)
        if got != want.tolist():
            errors.append("spark-gbabs: one-partition sample differs from numpy gbabs_sample")
        # Jaccard agreement of the two samples: 1 unless the check above fails.
        self.agreement = len(set(got) & set(want.tolist())) / len(set(got) | set(want.tolist()))
        return errors

    def metrics(self, results: list[Result], wall: float) -> dict:
        return {
            "tasks_per_s": (1.0 / wall, "1/s"),
            "rows_per_s": (self.rows / wall, "rows/s"),
            # No classifier runs here. The figure that takes accuracy's place
            # must be as seed-independent as the grids' accuracy: agreement
            # of the one-partition sample with numpy Alg. 2.
            "accuracy_mean": (self.agreement, "share"),
        }

    def traced(self, results: list[Result], wall: float) -> tuple[dict, Tracer, list[str]]:
        """Full calls with the module wrapped, then each stage materialised alone."""
        from repro.core import spark_gbabs as sg

        tracer = Tracer()
        patch = Patch(tracer)
        errors, calls, plain, counts = [], [], [], []
        for i in range(2 * self.traced_calls):
            # Untraced calls, the baseline of trace.overhead, alternate with
            # traced ones so that JVM warm-up favours neither side.
            if i % 2:
                t0 = time.perf_counter()
                sids = self._sample(self.df)
                plain.append(time.perf_counter() - t0)
            else:
                group = f"traced-{i}"
                self.spark.sparkContext.setJobGroup(group, group)
                patch.functions("repro.core.spark_gbabs")
                try:
                    with tracer.span("spark_gbabs.call"):
                        sids = self._sample(self.df)
                finally:
                    patch.restore()
                calls.append(tracer.spans[-1].seconds)
                counts.append(spark_counts(self.spark, group))
            if sids != results[0].output:
                errors.append("spark-gbabs: a traced-run sample differs from the timed one")
        stages = []
        for _ in range(self.traced_calls):
            with tracer.span("spark_gbabs.to_df"):
                df = sg.to_spark_df(self.spark, self.X, self.y)
            with tracer.span("spark_gbabs.granulate"):
                balls = sg.granulate_partitions(
                    df, rho=5, seed=self.seed, num_partitions=self.cores).cache()
                ball_rows = balls.count()
            n_balls = balls.select("ball_key").distinct().count()
            with tracer.span("spark_gbabs.pairs"):
                pairs = sg.borderline_pairs_df(balls).count()
            balls.unpersist()
            stages.append((ball_rows, n_balls, pairs))
        if len(set(stages)) != 1 or len({tuple(c.values()) for c in counts}) != 1:
            errors.append("spark-gbabs: traced counts differ between repeats")

        def med(name: str) -> float:
            return statistics.median([s.seconds for s in tracer.spans if s.name == name])

        ball_rows, n_balls, pairs = stages[0]
        m = {
            "spark_gbabs.to_df_s": (med("spark_gbabs.to_df"), "s"),
            "spark_gbabs.granulate_s": (med("spark_gbabs.granulate"), "s"),
            "spark_gbabs.pairs_s": (med("spark_gbabs.pairs"), "s"),
            "spark_gbabs.pick_join_s": (statistics.median(calls) - med("spark_gbabs.granulate")
                                        - med("spark_gbabs.pairs"), "s"),
            "spark_gbabs.ball_rows": (ball_rows, "count"),
            "spark_gbabs.balls": (n_balls, "count"),
            "spark_gbabs.pairs": (pairs, "count"),
            "spark_gbabs.sampled_rows": (len(results[0].output), "count"),
            "spark_gbabs.jobs": (counts[0]["jobs"], "count"),
            "spark_gbabs.stages": (counts[0]["stages"], "count"),
            "spark_gbabs.tasks": (counts[0]["tasks"], "count"),
            "trace.overhead": (statistics.median(calls) / statistics.median(plain) - 1.0, "share"),
        }
        return m, tracer, errors
