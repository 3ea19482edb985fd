"""Random forest: bagged CART trees with sqrt-feature subsampling.

Substitute for sklearn's RandomForestClassifier. 30 trees instead of
sklearn's 100 (runtime budget — documented in DESIGN.md); otherwise the
same estimator: bootstrap resampling, per-split random sqrt(p) feature
subset, soft-vote aggregation of leaf class distributions.

``fit`` draws every bootstrap from the forest's generator in tree order,
then grows all trees in lockstep with the CART grower of ``tree.py``:
each tree enters as its distinct bootstrap rows with their counts, and
contributes one node per step in its own preorder, so tree ``t`` draws
its features from ``default_rng(seed * 1000 + t)`` in the order a
one-tree-at-a-time loop would, and equals the tree that loop grows.
"""
from __future__ import annotations

import numpy as np

from .tree import DecisionTreeClassifier, _grow, _tree_proba
from .validation import check_X, check_X_y

__all__ = ["RandomForestClassifier"]


class RandomForestClassifier:
    def __init__(self, n_estimators: int = 30, max_depth: int | None = None, seed: int = 0):
        if n_estimators < 1:
            raise ValueError("n_estimators must be >= 1")
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.seed = seed
        self._trees: list[DecisionTreeClassifier] = []
        self._classes: np.ndarray | None = None

    def fit(self, X: np.ndarray, y: np.ndarray) -> "RandomForestClassifier":
        X, y = check_X_y(X, y)
        n, p = X.shape
        self._classes = np.unique(y)
        rng = np.random.default_rng(self.seed)
        # Each bootstrap as a row multiplicity vector, drawn in tree order.
        counts = np.stack(
            [np.bincount(rng.integers(0, n, n), minlength=n) for _ in range(self.n_estimators)]
        )
        m = max(1, int(np.sqrt(p)))
        self._trees = [
            DecisionTreeClassifier(
                max_depth=self.max_depth, max_features=m, seed=self.seed * 1000 + t
            )
            for t in range(self.n_estimators)
        ]
        first = self._trees[0]
        grown = _grow(
            X, y, counts, [tree.seed for tree in self._trees],
            first.max_depth, first.min_samples_split, m,
        )
        for tree, (tree._root, tree._classes) in zip(self._trees, grown):
            tree._n_features = p
        return self

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        if not self._trees:
            raise RuntimeError("fit before predict")
        X = check_X(X, self._trees[0]._n_features)
        # Trees may have seen a bootstrap without some rare class: align
        # each tree's class axis onto the forest's.
        agg = np.zeros((len(X), len(self._classes)))
        for tree in self._trees:
            cols = np.searchsorted(self._classes, tree._classes)
            agg[:, cols] += _tree_proba(tree._root, X, len(tree._classes))
        return agg / len(self._trees)

    def predict(self, X: np.ndarray) -> np.ndarray:
        return self._classes[np.argmax(self.predict_proba(X), axis=1)]
