"""CART decision tree (gini impurity, exact threshold search).

Substitute for sklearn's DecisionTreeClassifier (see DESIGN.md): same
algorithm — binary splits minimising weighted gini, grown to purity by
default.

``fit`` stable-argsorts every feature **once** into a ``(p, n)`` matrix of
row indices. A node holds that matrix restricted to its rows, and it
scores all candidate features in one vectorised pass: it gathers the
sorted values and one-hot labels, prefix-sums the labels along the sorted
axis, and takes each feature's best boundary by ``argmin``. A split
partitions every row of the matrix with one boolean mask, so each child's
rows stay sorted, with ties in the original row order — what a stable
argsort at that node would give. Splits, thresholds and leaf
distributions therefore equal a per-node, per-feature argsort scan bit
for bit.

The tree is grown from an explicit stack in preorder (left child first),
so depth is not bounded by Python's recursion limit and a random forest's
per-node feature draws keep their order.
"""
from __future__ import annotations

import numpy as np

__all__ = ["DecisionTreeClassifier"]


class _Node:
    __slots__ = ("feature", "threshold", "left", "right", "proba")

    def __init__(self):
        self.feature = -1
        self.threshold = 0.0
        self.left = None
        self.right = None
        self.proba = None  # class distribution at leaf


def _best_split_gini(
    X: np.ndarray,
    Y: np.ndarray,  # one-hot (n, q) float64
    S: np.ndarray,  # (p, m) node rows, each row sorted by its feature
    total: np.ndarray,  # (q,) class counts of the node
    feat_ids: np.ndarray,
) -> tuple[int, float, float]:
    """Return (feature, threshold, gain). gain < 0 means no valid split.

    Every boundary between distinct adjacent values of every feature in
    ``feat_ids`` is scored with the gini decrease in one pass over a
    ``(k, m - 1, q)`` table of left-class counts; boundaries inside runs
    of equal values score ``inf``. The first feature in ``feat_ids`` order
    whose best gain beats the running best by more than 1e-12 wins.
    """
    m = S.shape[1]
    gini_parent = 1.0 - ((total / m) ** 2).sum()
    Sk = S[feat_ids]  # (k, m)
    xs = X[Sk, feat_ids[:, None]]
    # Left-class counts after each position; exact integers in float64.
    left = Y[Sk]
    np.cumsum(left, axis=1, out=left)
    left = left[:, :-1]  # split after position i = 1..m-1
    nl = np.arange(1.0, m)
    nr = m - nl
    tmp = np.divide(left, nl[:, None])
    np.square(tmp, out=tmp)
    gini_l = tmp.sum(-1)
    np.subtract(total, left, out=tmp)  # right-class counts
    del left
    tmp /= nr[:, None]
    np.square(tmp, out=tmp)
    gini_r = tmp.sum(-1)
    del tmp
    np.subtract(1.0, gini_l, out=gini_l)
    np.subtract(1.0, gini_r, out=gini_r)
    gini_l *= nl
    gini_r *= nr
    weighted = np.add(gini_l, gini_r, out=gini_l)
    weighted /= m
    weighted[~(xs[:, 1:] > xs[:, :-1])] = np.inf  # only where the value changes
    pos = np.argmin(weighted, axis=1)
    best_w = weighted[np.arange(len(feat_ids)), pos]
    best = (-1, 0.0, -1.0)
    for f, j in enumerate(feat_ids):
        gain = gini_parent - best_w[f]
        if gain > best[2] + 1e-12:
            i = pos[f] + 1
            thr = 0.5 * (xs[f, i - 1] + xs[f, i])
            if not xs[f, i - 1] <= thr < xs[f, i]:  # midpoint rounded or overflowed
                thr = xs[f, i - 1]
            best = (int(j), float(thr), float(gain))
    return best


class DecisionTreeClassifier:
    """CART with gini; ``max_depth=None`` grows to purity like sklearn."""

    def __init__(
        self,
        max_depth: int | None = None,
        min_samples_split: int = 2,
        max_features: int | None = None,
        seed: int = 0,
    ):
        self.max_depth = max_depth if max_depth is not None else 10**9
        self.min_samples_split = min_samples_split
        self.max_features = max_features
        self.seed = seed
        self._root: _Node | None = None
        self._classes: np.ndarray | None = None

    def fit(self, X: np.ndarray, y: np.ndarray) -> "DecisionTreeClassifier":
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y)
        if len(X) == 0:
            raise ValueError("empty training set")
        self._classes, y_enc = np.unique(y, return_inverse=True)
        q = len(self._classes)
        n, p = X.shape
        Y = np.zeros((n, q))
        Y[np.arange(n), y_enc] = 1.0
        rng = np.random.default_rng(self.seed)
        S = np.argsort(X.T, axis=1, kind="stable")  # (p, n) presort
        self._root = _Node()
        stack = [(self._root, S, 0)]
        while stack:
            node, S, depth = stack.pop()
            counts = np.bincount(y_enc[S[0]], minlength=q).astype(np.float64)
            node.proba = counts / counts.sum()
            m = S.shape[1]
            if (
                depth >= self.max_depth
                or m < self.min_samples_split
                or (counts > 0).sum() == 1
            ):
                continue
            if self.max_features is not None and self.max_features < p:
                feat_ids = rng.choice(p, size=self.max_features, replace=False)
            else:
                feat_ids = np.arange(p)
            j, thr, gain = _best_split_gini(X, Y, S, counts, feat_ids)
            if gain <= 0:
                continue
            L = X[S, j] <= thr  # (p, m): each row of S split the same way
            m_l = int(L[0].sum())
            node.feature, node.threshold = j, thr
            node.left, node.right = _Node(), _Node()
            # Right first so the left child is popped next: preorder.
            stack.append((node.right, S[~L].reshape(p, m - m_l), depth + 1))
            stack.append((node.left, S[L].reshape(p, m_l), depth + 1))
        return self

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        if self._root is None:
            raise RuntimeError("fit before predict")
        X = np.asarray(X, dtype=np.float64)
        out = np.empty((len(X), len(self._classes)))
        # Iterative routing: partition index sets down the tree.
        stack = [(self._root, np.arange(len(X)))]
        while stack:
            node, idx = stack.pop()
            if node.left is None:
                out[idx] = node.proba
                continue
            mask = X[idx, node.feature] <= node.threshold
            stack.append((node.left, idx[mask]))
            stack.append((node.right, idx[~mask]))
        return out

    def predict(self, X: np.ndarray) -> np.ndarray:
        return self._classes[np.argmax(self.predict_proba(X), axis=1)]
