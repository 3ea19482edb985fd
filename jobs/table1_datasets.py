"""Table I — dataset roster: paper stats vs. our synthetic analogs.

Usage: spark-submit jobs/table1_datasets.py   (no Spark work needed, but
kept as a job for uniformity; also verifies every analog materialises).
"""
from __future__ import annotations

import numpy as np

from repro.datasets.registry import REGISTRY, load_dataset
from repro.harness.tables import table1


def main() -> None:
    t = table1()
    # Materialise every analog once so the roster is backed by real data.
    extra = []
    for name in REGISTRY:
        _, y, _ = load_dataset(name)
        _, counts = np.unique(y, return_counts=True)
        extra.append(round(counts.max() / counts.min(), 2))
    t["IR(ours)"] = extra
    print(t.to_string(index=False))


if __name__ == "__main__":
    main()
