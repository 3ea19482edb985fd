"""Second-order gradient-boosted trees: XGBoost-like and LightGBM-like.

Substitutes for the xgboost / lightgbm packages (unavailable offline).
Both boost softmax cross-entropy with Newton (gradient/hessian) leaf
weights and gain-based splits

    gain = 1/2 * (G_L^2/(H_L+lambda) + G_R^2/(H_R+lambda) - G^2/(H+lambda))

over quantile-binned feature histograms. One best-first grower builds
every tree: it always splits the open leaf of highest gain, and stops at
a depth limit or a leaf limit. The two classes set one limit each, which
keeps the signature difference between the real libraries:

* ``XGBoostLikeClassifier`` — depth-bounded growth to ``max_depth``
  (default 3), learning rate 0.3 (xgboost defaults). With no leaf limit
  every splittable node shallower than the depth limit is split, so the
  tree is the one level-wise growth builds.
* ``LightGBMLikeClassifier`` — leaf-bounded growth to ``num_leaves``
  (default 15), learning rate 0.1 (lightgbm defaults, leaves scaled down
  with the datasets).

A fitted model is one node table of ``tree.py``, routed on raw rows by
CART's router: a split on bin ``b`` of feature ``f`` keeps ``edges[f][b]``
as its threshold, as ``code <= b`` exactly when ``x <= edges[f][b]`` (a
chosen bin has rows right of it, so ``b < len(edges[f])``).

30 boosting rounds instead of 100 for the experiment grid's time budget
(DESIGN.md). Binary problems are trained as 2-class softmax — equivalent
to logistic boosting up to a factor of 2 in the learning-rate/hessian
pairing.
"""
from __future__ import annotations

import heapq
import math

import numpy as np

from .tree import NodeTable, concat_tables, route
from .validation import check_X, check_X_y

__all__ = ["XGBoostLikeClassifier", "LightGBMLikeClassifier"]

_N_BINS = 32
_LAMBDA = 1.0


def _bin(X: np.ndarray, edges: list[np.ndarray]) -> np.ndarray:
    """uint8 bin codes of ``X``: per column, the count of edges below each value."""
    codes = np.empty(X.shape, dtype=np.uint8)
    for j, e in enumerate(edges):
        codes[:, j] = np.searchsorted(e, X[:, j], side="left")
    return codes


def _best_split_hist(
    sub: np.ndarray, gs: np.ndarray, hs: np.ndarray, G: float, H: float
) -> tuple[float, int, int]:
    """Best (gain, feature, bin) of a node with codes ``sub`` and sums G, H.

    One bincount fills the ``(p, _N_BINS)`` histograms of all features:
    feature j's codes are offset by ``j * _N_BINS`` and each row's g/h is
    repeated p times to follow the row-major code block, so every bin sums
    its rows in row order. A split sends codes <= bin left; the flat
    argmax picks the first (feature, bin) of the highest gain.
    """
    p = sub.shape[1]
    flat = (sub + _N_BINS * np.arange(p)).ravel()
    GL = np.bincount(flat, np.repeat(gs, p), p * _N_BINS).reshape(p, _N_BINS)
    HL = np.bincount(flat, np.repeat(hs, p), p * _N_BINS).reshape(p, _N_BINS)
    GL = GL.cumsum(axis=1)[:, :-1]
    HL = HL.cumsum(axis=1)[:, :-1]
    GR = G - GL
    HR = H - HL
    gains = 0.5 * (GL * GL / (HL + _LAMBDA) + GR * GR / (HR + _LAMBDA) - G * G / (H + _LAMBDA))
    # forbid empty sides
    gains = np.where((HL > 1e-12) & (HR > 1e-12), gains, -np.inf)
    i = int(np.argmax(gains))
    j, b = divmod(i, _N_BINS - 1)
    return float(gains[j, b]), j, b


def _grow(
    codes: np.ndarray, edges: list, g: np.ndarray, h: np.ndarray, max_depth: float, num_leaves: float
) -> tuple[NodeTable, np.ndarray]:
    """Best-first regression tree on binned ``codes``, gradients g, hessians h.

    Returns ``(tree, fitted)``: a node table whose thresholds are ``edges``
    values and whose values are leaf weights, and every training row's leaf weight.
    The open leaf of highest gain splits next; equal gains go to the leaf
    made first.
    """
    nodes: list[list] = []  # [feature, edge, left child, weight]
    leaf_rows: dict[int, np.ndarray] = {}
    heap: list[tuple[float, int, int, int, int]] = []

    def add(rows: np.ndarray, depth: int) -> int:
        ni = len(nodes)
        gs, hs = g[rows], h[rows]
        G, H = gs.sum(), hs.sum()
        nodes.append([-1, 0, -1, -G / (H + _LAMBDA)])
        leaf_rows[ni] = rows
        if depth < max_depth and len(rows) >= 2 and codes.shape[1] > 0:
            gain, f, b = _best_split_hist(codes[rows], gs, hs, G, H)
            if gain > 1e-12:
                heapq.heappush(heap, (-gain, ni, f, b, depth))
        return ni

    add(np.arange(len(g)), 0)
    while heap and len(leaf_rows) < num_leaves:
        _, ni, f, b, depth = heapq.heappop(heap)
        rows = leaf_rows.pop(ni)
        left = codes[rows, f] <= b
        nodes[ni][:3] = f, edges[f][b], add(rows[left], depth + 1)
        add(rows[~left], depth + 1)  # the right child, at left + 1
    fitted = np.empty(len(g))
    for ni, rows in leaf_rows.items():
        fitted[rows] = nodes[ni][3]
    f, b, c, w = np.array(nodes, dtype=np.float64).T
    return NodeTable(f.astype(np.intp), b, c.astype(np.intp), w, np.zeros(1, np.intp)), fitted


class _SoftmaxGBDT:
    max_depth: float = math.inf
    num_leaves: float = math.inf

    def __init__(self, n_rounds: int, lr: float):
        if n_rounds < 1:
            raise ValueError("n_rounds must be >= 1")
        self.n_rounds = n_rounds
        self.lr = lr
        self._table: NodeTable | None = None
        self._classes: np.ndarray | None = None
        self._n_features: int | None = None
        self._base: np.ndarray | None = None

    def fit(self, X: np.ndarray, y: np.ndarray):
        X, y = check_X_y(X, y)
        self._classes, y_enc = np.unique(y, return_inverse=True)
        q = len(self._classes)
        qs = np.linspace(0, 1, _N_BINS + 1)[1:-1]
        edges = [np.unique(np.quantile(X[:, j], qs)) for j in range(X.shape[1])]
        codes = _bin(X, edges)
        n = len(X)
        onehot = np.zeros((n, q))
        onehot[np.arange(n), y_enc] = 1.0
        prior = onehot.mean(axis=0)
        self._base = np.log(np.maximum(prior, 1e-12))
        F = np.tile(self._base, (n, 1))
        trees = []
        for _ in range(self.n_rounds):
            Fs = F - F.max(axis=1, keepdims=True)
            P = np.exp(Fs)
            P /= P.sum(axis=1, keepdims=True)
            g = P - onehot          # (n, q)
            h = P * (1.0 - P)       # (n, q)
            for k in range(q):
                tree, fitted = _grow(
                    codes, edges, g[:, k], np.maximum(h[:, k], 1e-6), self.max_depth, self.num_leaves
                )
                F[:, k] += self.lr * fitted
                trees.append(tree)
        self._table = concat_tables(trees)
        self._n_features = X.shape[1]
        return self

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        if self._table is None:
            raise RuntimeError("fit before predict")
        X = check_X(X, self._n_features)
        F = np.tile(self._base, (len(X), 1))
        q = len(self._classes)
        # Round-major: tree t is class t % q's tree of round t // q.
        for t, leaf in enumerate(route(self._table, X)):
            F[:, t % q] += self.lr * self._table.value[leaf]
        Fs = F - F.max(axis=1, keepdims=True)
        P = np.exp(Fs)
        return P / P.sum(axis=1, keepdims=True)

    def predict(self, X: np.ndarray) -> np.ndarray:
        return self._classes[np.argmax(self.predict_proba(X), axis=1)]


class XGBoostLikeClassifier(_SoftmaxGBDT):
    """Depth-bounded second-order GBDT (xgboost-style defaults, scaled)."""

    def __init__(self, n_rounds: int = 30, lr: float = 0.3, max_depth: int = 3):
        super().__init__(n_rounds, lr)
        self.max_depth = max_depth


class LightGBMLikeClassifier(_SoftmaxGBDT):
    """Leaf-bounded best-first GBDT (lightgbm-style defaults, scaled)."""

    def __init__(self, n_rounds: int = 30, lr: float = 0.1, num_leaves: int = 15):
        super().__init__(n_rounds, lr)
        self.num_leaves = num_leaves
