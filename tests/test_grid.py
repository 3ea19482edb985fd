"""Tests for the Spark experiment grid and table assembly (+ oracle checks)."""
import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.harness.grid import (
    DEFAULT_METHODS,
    RESULT_COLUMNS,
    RESULT_SCHEMA,
    TIMING_COLUMNS,
    build_task_grid,
    run_fold_task,
    run_grid,
)
from repro.harness.tables import table1, table2, table3, table4
from repro.oracle import assert_equivalent


class TestFoldTask:
    @pytest.fixture(scope="class")
    def rows(self):
        return run_fold_task(
            "S2", 0.0, 0, 0, methods=DEFAULT_METHODS, classifiers=["DT", "kNN"]
        )

    def test_columns(self, rows):
        assert list(rows.columns) == RESULT_COLUMNS

    def test_one_row_per_method_classifier(self, rows):
        assert len(rows) == len(DEFAULT_METHODS) * 2
        assert set(rows["method"]) == set(DEFAULT_METHODS)

    def test_srs_ratio_matches_gbabs(self, rows):
        """Paper protocol: SRS uses GBABS's sampling ratio per dataset."""
        g = rows[rows["method"] == "GBABS"]["sampling_ratio"].iloc[0]
        s = rows[rows["method"] == "SRS"]["sampling_ratio"].iloc[0]
        assert abs(g - s) < 0.01

    def test_none_keeps_everything(self, rows):
        r = rows[rows["method"] == "none"]
        assert (r["sampling_ratio"] == 1.0).all()
        assert (r["n_sampled"] == r["n_train"]).all()

    def test_metrics_in_unit_interval(self, rows):
        assert rows["accuracy"].between(0, 1).all()
        assert rows["g_mean"].between(0, 1).all()

    def test_stage_timings(self, rows):
        """Every row carries its method's sampling time and its own fit/predict times."""
        assert (rows[TIMING_COLUMNS] >= 0).all().all()
        assert (rows.groupby("method")["t_sample_s"].nunique() == 1).all()
        assert (rows["t_fit_s"] > 0).all()

    def test_deterministic(self):
        """Every column but the wall-clock timings repeats exactly."""
        a = run_fold_task("S2", 0.0, 0, 1, methods=["GBABS"], classifiers=["DT"])
        b = run_fold_task("S2", 0.0, 0, 1, methods=["GBABS"], classifiers=["DT"])
        pd.testing.assert_frame_equal(
            a.drop(columns=TIMING_COLUMNS), b.drop(columns=TIMING_COLUMNS), check_exact=True
        )

    @pytest.mark.parametrize(
        "methods, classifiers", [([], []), (["none"], []), ([], ["DT"])]
    )
    def test_empty_selection_runs_nothing(self, methods, classifiers):
        """An empty list selects no method or classifier; only None means all."""
        rows = run_fold_task("S2", 0.0, 0, 0, methods=methods, classifiers=classifiers)
        assert rows.empty
        assert list(rows.columns) == RESULT_COLUMNS

    def test_noise_changes_labels_and_results(self):
        a = run_fold_task("S2", 0.0, 0, 0, methods=["none"], classifiers=["DT"])
        b = run_fold_task("S2", 0.3, 0, 0, methods=["none"], classifiers=["DT"])
        assert b["accuracy"].iloc[0] < a["accuracy"].iloc[0]

    @pytest.mark.parametrize(
        "method, message",
        [
            ("SM", "unknown sampling method"),
            ("IGBS", "unknown sampling method"),
            ("Tomek", "unknown sampling method"),
            ("SRS", "requires the GBABS ratio"),
        ],
    )
    def test_unknown_or_unordered_method_raises(self, method, message):
        """Only the tables' methods dispatch; SRS needs GBABS in the same task."""
        with pytest.raises(ValueError, match=message):
            run_fold_task("S2", 0.0, 0, 0, methods=[method], classifiers=["DT"])


class TestTaskGrid:
    def test_full_grid_size(self):
        g = build_task_grid(noises=[0.0, 0.1], reps=2, n_splits=5)
        assert len(g) == 13 * 2 * 2 * 5

    def test_subset(self):
        g = build_task_grid(datasets=["S1", "S2"], noises=[0.0], n_splits=3)
        assert len(g) == 6
        assert set(g["dataset"]) == {"S1", "S2"}

    def test_empty_datasets_select_none(self):
        assert len(build_task_grid(datasets=[], n_splits=2)) == 0
        assert len(build_task_grid(datasets=None, n_splits=2)) == 13 * 2


GRID_KEY = ["dataset", "noise", "rep", "fold", "method", "classifier"]

# 2 datasets x {0, 20%} noise x 2 folds = 8 fold tasks, more than a 4-core
# local cluster's defaultParallelism.
SMALL_GRID = dict(
    datasets=["S2", "S5"],
    noises=[0.0, 0.2],
    methods=DEFAULT_METHODS,
    classifiers=["DT"],
    n_splits=2,
)


@pytest.fixture(scope="module")
def small_results(spark):
    """A small but real grid: 2 datasets x {0, 20%} noise x 2 folds x DT."""
    results = run_grid(spark, **SMALL_GRID).cache()
    yield results
    results.unpersist()


class TestRunGrid:
    def test_row_count(self, small_results):
        # 2 datasets x 2 noises x 2 folds x 4 methods x 1 classifier
        assert small_results.count() == 2 * 2 * 2 * 4

    def test_one_stage_of_one_task_per_core(self, spark, job_shape):
        """The grid is one shuffle-free stage of min(#tasks, cores) Python tasks,
        and its rows are exactly the in-process fold-task rows."""
        sc = spark.sparkContext
        tasks = build_task_grid(
            datasets=SMALL_GRID["datasets"],
            noises=SMALL_GRID["noises"],
            n_splits=SMALL_GRID["n_splits"],
        )
        k = min(len(tasks), sc.defaultParallelism)
        results = run_grid(spark, **SMALL_GRID)

        # Under adaptive execution, resolving the partition count runs any
        # shuffle stage, so it runs inside the job group too.
        group = "test-grid-shape"
        sc.setJobGroup(group, "run_grid job shape")
        try:
            n_partitions = results.rdd.getNumPartitions()
            got = results.toPandas()
        finally:
            sc.setLocalProperty("spark.jobGroup.id", None)
        assert n_partitions == k
        assert job_shape(group)[1:] == (1, k)

        assert not got.duplicated(GRID_KEY).any()
        want = pd.concat(
            [
                run_fold_task(
                    t.dataset,
                    t.noise,
                    t.rep,
                    t.fold,
                    methods=SMALL_GRID["methods"],
                    classifiers=SMALL_GRID["classifiers"],
                    n_splits=SMALL_GRID["n_splits"],
                )
                for t in tasks.itertuples()
            ]
        )

        def by_key(df):
            return (
                df.drop(columns=TIMING_COLUMNS)
                .sort_values(GRID_KEY)
                .reset_index(drop=True)
            )

        pd.testing.assert_frame_equal(by_key(got), by_key(want), check_exact=True)

    def test_empty_task_table(self, spark):
        results = run_grid(spark, datasets=["S2"], noises=[], n_splits=2)
        assert results.schema == spark.createDataFrame([], RESULT_SCHEMA).schema
        assert results.count() == 0

    def test_aggregation_matches_duckdb_oracle(self, small_results):
        """Spark groupBy/avg == DuckDB over identical rows (the oracle)."""
        agg = (
            small_results.filter(F.col("noise") == 0.0)
            .groupBy("dataset", "method")
            .agg(F.avg("accuracy").alias("acc"))
        )
        sql = """
            SELECT dataset, method, avg(accuracy) AS acc
            FROM rows WHERE noise = 0.0
            GROUP BY dataset, method
        """
        assert_equivalent(agg, sql, rows=small_results.toPandas())

    def test_table2_shape(self, small_results):
        t = table2(small_results)
        assert list(t.columns) == ["GBABS-DT", "GGBS-DT", "SRS-DT", "DT"]
        assert list(t.index) == ["S2", "S5", "Average"]
        assert t.notna().all().all()

    def test_table2_average_row_is_mean(self, small_results):
        t = table2(small_results)
        body = t.drop(index="Average")
        assert np.allclose(t.loc["Average"], body.mean(), atol=1e-4)

    def test_table3_three_comparisons(self, small_results):
        t = table3(small_results)
        assert len(t) == 3
        assert t["p-value"].between(0, 1).all()

    def test_table4_shape(self, small_results):
        t = table4(small_results)
        assert list(t.columns) == ["20%"]
        assert set(t.index) == {"GBABS-DT", "GGBS-DT", "SRS-DT", "DT"}

    def test_table4_matches_duckdb_oracle(self, small_results):
        agg = (
            small_results.filter(F.col("noise") > 0.0)
            .groupBy("classifier", "method", "noise")
            .agg(F.avg("accuracy").alias("acc"))
        )
        sql = """
            SELECT classifier, method, noise, avg(accuracy) AS acc
            FROM rows WHERE noise > 0.0
            GROUP BY classifier, method, noise
        """
        assert_equivalent(agg, sql, rows=small_results.toPandas())


def test_table1_roster():
    t = table1()
    assert len(t) == 13
    assert (t["Samples(ours)"] <= t["Samples(paper)"]).all()
    assert (t["Features(ours)"] <= 32).all()
