"""Assemble the paper's Tables I–IV from grid results (Spark SQL aggregation).

Each ``table*`` function takes the metric DataFrame produced by
``repro.harness.grid.run_grid`` and returns a pandas frame shaped like
the corresponding table in the paper, ready for printing/diffing in
EXPERIMENTS.md. Aggregations run in Spark (groupBy/avg/pivot) — the
same aggregation is oracle-checked against DuckDB in the test suite.
"""
from __future__ import annotations

import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from ..classifiers import CLASSIFIER_NAMES
from ..datasets.registry import REGISTRY
from ..stats.wilcoxon import wilcoxon_signed_rank
from .grid import DEFAULT_METHODS

__all__ = ["table1", "table2", "table3", "table4"]


def table1() -> pd.DataFrame:
    """Dataset roster: the paper's Table I stats next to our analogs'."""
    rows = []
    for spec in REGISTRY.values():
        rows.append(
            {
                "Rename": spec.name,
                "Dataset": spec.source_name,
                "Samples(paper)": spec.paper_samples,
                "Samples(ours)": spec.n_samples,
                "Features(paper)": spec.paper_features,
                "Features(ours)": spec.n_features,
                "Classes": spec.paper_classes,
                "IR": spec.paper_ir,
            }
        )
    return pd.DataFrame(rows)


def _dataset_method_accuracy(results: DataFrame, classifier: str) -> pd.DataFrame:
    """Mean accuracy per (dataset, method) for one classifier, no noise."""
    agg = (
        results.filter((F.col("noise") == 0.0) & (F.col("classifier") == classifier))
        .groupBy("dataset", "method")
        .agg(F.avg("accuracy").alias("accuracy"))
    )
    pdf = agg.toPandas()
    wide = pdf.pivot(index="dataset", columns="method", values="accuracy")
    order = [d for d in REGISTRY if d in wide.index]
    cols = [m for m in DEFAULT_METHODS if m in wide.columns]
    return wide.loc[order, cols]


def table2(results: DataFrame, classifier: str = "DT") -> pd.DataFrame:
    """Testing accuracy of DT under each sampling method + Average row.

    Columns renamed to the paper's headers (``none`` → plain ``DT``).
    """
    wide = _dataset_method_accuracy(results, classifier)
    wide = wide.rename(
        columns={
            "GBABS": f"GBABS-{classifier}",
            "GGBS": f"GGBS-{classifier}",
            "SRS": f"SRS-{classifier}",
            "none": classifier,
        }
    )
    wide.loc["Average"] = wide.mean()
    return wide.round(4)


def table3(results: DataFrame, classifier: str = "DT") -> pd.DataFrame:
    """Wilcoxon signed-rank tests over the Table-II per-dataset accuracies."""
    wide = _dataset_method_accuracy(results, classifier)
    gbabs = wide["GBABS"].to_numpy()
    rows = []
    for rival in ["GGBS", "SRS", "none"]:
        if rival not in wide.columns:
            continue
        res = wilcoxon_signed_rank(gbabs, wide[rival].to_numpy())
        label = f"{classifier}" if rival == "none" else f"{rival}-{classifier}"
        rows.append(
            {
                "Comparison Method": f"GBABS-{classifier} vs. {label}",
                "p-value": round(res.p_value, 6),
                "Significance (alpha=0.05)": "Significant"
                if res.significant()
                else "Not significant",
            }
        )
    return pd.DataFrame(rows)


def table4(results: DataFrame) -> pd.DataFrame:
    """Average accuracy over datasets per (classifier, method, noise ratio).

    Rows are ``<method>-<classifier>`` (``none`` → bare classifier name)
    in the paper's order; columns the five noise ratios.
    """
    agg = (
        results.filter(F.col("noise") > 0.0)
        .groupBy("classifier", "method", "noise")
        .agg(F.avg("accuracy").alias("accuracy"))
    )
    pdf = agg.toPandas()
    pdf["row"] = [
        c if m == "none" else f"{m}-{c}" for m, c in zip(pdf["method"], pdf["classifier"])
    ]
    wide = pdf.pivot(index="row", columns="noise", values="accuracy")
    wide.columns = [f"{int(round(n * 100))}%" for n in wide.columns]
    row_order = []
    for clf in CLASSIFIER_NAMES:
        for m in DEFAULT_METHODS:
            name = clf if m == "none" else f"{m}-{clf}"
            if name in wide.index:
                row_order.append(name)
    return wide.loc[row_order].round(4)
