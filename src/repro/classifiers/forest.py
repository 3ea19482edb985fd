"""Random forest: bagged CART trees with sqrt-feature subsampling.

Substitute for sklearn's RandomForestClassifier. 30 trees instead of
sklearn's 100 (runtime budget — documented in DESIGN.md); otherwise the
same estimator: bootstrap resampling, per-split random sqrt(p) feature
subset, soft-vote aggregation of leaf class distributions.

``fit`` draws every bootstrap from the forest's generator in tree order,
then grows the trees with the CART grower of ``tree.py``, in lockstep
within consecutive groups whose presorted blocks fit ``GROUP_BYTES``: each
tree enters as its distinct bootstrap rows with their counts, and
contributes one node per step in its own preorder, so tree ``t`` draws
its features from ``default_rng(seed * 1000 + t)`` in the order a
one-tree-at-a-time loop would, and equals the tree that loop grows,
whatever group it is in. The forest is one node table; ``predict_proba``
routes every row down every tree and adds the trees' leaf distributions
in tree order. A class missing from a tree's bootstrap adds an exact 0.
"""
from __future__ import annotations

import numpy as np

from .tree import NodeTable, _grow, concat_tables, route
from .validation import check_X, check_X_y

__all__ = ["RandomForestClassifier"]

# Bytes of the presorted (p, distinct rows) sample-id blocks of one group
# of trees grown in lockstep. A step's working arrays grow with the same
# rows, so the cap bounds a fit's memory (a peak of about 8x the cap on
# S13); it changes no tree.
GROUP_BYTES = 2 << 20


def _groups(block_bytes: np.ndarray) -> list[tuple[int, int]]:
    """Consecutive ``(start, stop)`` tree ranges whose blocks sum to at most
    ``GROUP_BYTES``, or hold one tree."""
    starts, total = [0], 0
    for t, size in enumerate(block_bytes.tolist()):
        if total and total + size > GROUP_BYTES:
            starts.append(t)
            total = 0
        total += size
    return list(zip(starts, starts[1:] + [len(block_bytes)]))


class RandomForestClassifier:
    def __init__(self, n_estimators: int = 30, max_depth: int | None = None, seed: int = 0):
        if n_estimators < 1:
            raise ValueError("n_estimators must be >= 1")
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.seed = seed
        self._table: NodeTable | None = None
        self._classes: np.ndarray | None = None
        self._n_features: int | None = None

    def fit(self, X: np.ndarray, y: np.ndarray) -> "RandomForestClassifier":
        X, y = check_X_y(X, y)
        n, p = X.shape
        self._classes = np.unique(y)
        rng = np.random.default_rng(self.seed)
        # Each bootstrap as a row multiplicity vector, drawn in tree order.
        counts = np.stack(
            [np.bincount(rng.integers(0, n, n), minlength=n) for _ in range(self.n_estimators)]
        )
        seeds = [self.seed * 1000 + t for t in range(self.n_estimators)]
        max_depth = 10**9 if self.max_depth is None else self.max_depth
        m = max(1, int(np.sqrt(p)))
        block_bytes = np.dtype(np.intp).itemsize * p * (counts > 0).sum(axis=1)
        self._table = concat_tables([
            _grow(X, y, counts[a:b], seeds[a:b], max_depth, min_samples_split=2, max_features=m)
            for a, b in _groups(block_bytes)
        ])
        self._n_features = p
        return self

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        if self._table is None:
            raise RuntimeError("fit before predict")
        X = check_X(X, self._n_features)
        leaves = route(self._table, X)
        agg = np.zeros((len(X), len(self._classes)))
        for leaf in leaves:
            agg += self._table.value[leaf]
        return agg / len(leaves)

    def predict(self, X: np.ndarray) -> np.ndarray:
        return self._classes[np.argmax(self.predict_proba(X), axis=1)]
