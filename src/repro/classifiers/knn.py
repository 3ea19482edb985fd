"""k-nearest-neighbour classifier (vectorised, Euclidean, majority vote).

Mirrors sklearn's KNeighborsClassifier defaults (k=5, uniform weights).
Ties are broken toward the class of the nearest neighbour among the tied
classes, matching the deterministic behaviour sklearn gets from its
argmax over bincounts ordered by class id — we document the rule rather
than matching sklearn bit-for-bit.
"""
from __future__ import annotations

import numpy as np

from .validation import check_X, check_X_y

__all__ = ["KNNClassifier"]

# Bytes of the (rows, n_train, p) difference cube that one predict chunk
# builds. Each distance reduces within its own row, so the chunking does not
# change a single bit of the predictions.
CHUNK_BYTES = 16 << 20


class KNNClassifier:
    """Brute-force kNN. Memory-bounded by chunking the test rows to ``CHUNK_BYTES``."""

    def __init__(self, k: int = 5):
        if k < 1:
            raise ValueError("k must be >= 1")
        self.k = k
        self._X: np.ndarray | None = None
        self._classes: np.ndarray | None = None
        self._codes: np.ndarray | None = None

    def fit(self, X: np.ndarray, y: np.ndarray) -> "KNNClassifier":
        X, y = check_X_y(X, y)
        self._X = X
        self._classes, self._codes = np.unique(y, return_inverse=True)
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        if self._X is None:
            raise RuntimeError("fit before predict")
        X = check_X(X, self._X.shape[1])
        k = min(self.k, len(self._X))
        out = np.empty(len(X), dtype=self._classes.dtype)
        step = max(1, CHUNK_BYTES // max(1, self._X.nbytes))
        for lo in range(0, len(X), step):
            chunk = X[lo : lo + step]
            d2 = ((chunk[:, None, :] - self._X[None, :, :]) ** 2).sum(-1)
            nn = np.argpartition(d2, k - 1, axis=1)[:, :k]
            # Order the k neighbours by distance so the tie-break below is
            # "nearest first".
            rows = np.arange(len(chunk))[:, None]
            order = np.argsort(d2[rows, nn], axis=1, kind="stable")
            codes = self._codes[nn[rows, order]]  # (rows, k) class codes
            # votes[i, j]: how many of row i's neighbours share neighbour j's
            # class. The nearest neighbour of a most-voted class decides.
            votes = (codes[:, :, None] == codes[:, None, :]).sum(axis=2)
            nearest = np.argmax(votes == votes.max(axis=1, keepdims=True), axis=1)
            out[lo : lo + len(chunk)] = self._classes[codes[rows[:, 0], nearest]]
        return out
