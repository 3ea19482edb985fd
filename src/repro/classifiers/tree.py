"""CART decision tree (gini impurity, exact threshold search), and the
node table and router that every tree model of the package predicts with.

Substitute for sklearn's DecisionTreeClassifier (see DESIGN.md): same
algorithm — binary splits minimising weighted gini, grown to purity by
default.

One grower, ``_grow``, builds every tree: a decision tree is its one-tree
call and a random forest grows all its bootstrap trees with it in
lockstep. A tree's training set is the rows of ``X`` with a multiplicity
each (1 for a decision tree, the bootstrap count for a forest's tree), so
a bootstrap goes in as its distinct rows. Each feature is stable-argsorted
**once**; every tree keeps a ``(p, n_t)`` block of sample ids in which a
node owns one column range, each row of the range sorted by its feature.

Each step takes a batch of open nodes and, in a few vectorised calls over
the concatenated (node, candidate feature) segments:

* prefix-sums the weighted one-hot labels along each segment (a global
  cumsum minus the segment base) and scores every boundary between
  distinct adjacent values with the weighted gini of its two sides;
* takes each segment's best boundary with ``minimum.reduceat`` and a
  first-occurrence pick, and each node's feature by the running-best rule
  (the first in draw order to beat the best so far by more than 1e-12);
* reads the children's class counts off the winning boundary's prefix
  sums, and partitions every feature row of every split node with one
  stable scatter, so each child's rows stay sorted.

A node's counts, boundary scores and thresholds are exact integers or the
same float operations whatever the batch, the order of tied rows or the
multiplicity encoding, so every tree equals a per-node, per-feature
argsort scan on its own (bootstrap) sample bit for bit. Two things keep
it so. Trees are batched only with trees of the same classes: the gini
sums run over each tree's own class axis, and numpy's pairwise sum groups
a longer axis differently. And a tree that draws a feature subset per
node (``max_features < p``) contributes exactly one node per step, popped
from its own stack in preorder (left child first), so its ``rng.choice``
draws happen in the order a recursive grower makes them. A tree that
draws nothing takes its whole frontier each step. Growth is iterative, so
depth is not bounded by Python's recursion limit.

Every tree model of the package keeps its trees in one ``NodeTable`` of
flat arrays, as scikit-learn's ``Tree`` does, and predicts with ``route``.
A grown tree's node values span every class of ``y``, with an exact 0 for
a class its sample lacks.
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .validation import check_X, check_X_y

__all__ = ["DecisionTreeClassifier"]


class NodeTable(NamedTuple):
    """Flat node arrays of one or more trees; a node id indexes every array."""

    feature: np.ndarray  # split feature; -1 marks a leaf
    threshold: np.ndarray  # a row goes left when X[row, feature] <= threshold
    child: np.ndarray  # left child at an internal node; the right one is child + 1
    value: np.ndarray  # per node: class distribution (CART) or leaf weight (GBDT)
    roots: np.ndarray  # root node of each tree


def concat_tables(tables: list[NodeTable]) -> NodeTable:
    """The trees of ``tables``, in order, as one table with offset node ids."""
    offsets = np.cumsum([0] + [len(t.feature) for t in tables[:-1]])
    tables = [t._replace(child=t.child + o, roots=t.roots + o) for t, o in zip(tables, offsets)]
    return NodeTable(*map(np.concatenate, zip(*tables)))


def route(table: NodeTable, X: np.ndarray) -> np.ndarray:
    """``(trees, rows)`` leaf ids: the leaf each row of ``X`` reaches in each tree.

    Each step moves every (tree, row) pair still at an internal node one level.
    """
    n, p = X.shape
    feature, threshold, child = table.feature, table.threshold, table.child
    leaf = np.repeat(table.roots, n)
    at = np.flatnonzero(feature[leaf] >= 0)  # pairs at internal nodes
    row_start = at % n * p  # offset of each such pair's row in X's flat buffer
    Xf = X.reshape(-1)
    while len(at):
        node = leaf[at]
        node = child[node] + (Xf[row_start + feature[node]] > threshold[node])
        leaf[at] = node
        inner = feature[node] >= 0
        at, row_start = at[inner], row_start[inner]
    return leaf.reshape(len(table.roots), n)


def _ragged_arange(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Concatenation of ``arange(s, s + l)`` over the (start, length) pairs."""
    offsets = np.cumsum(lengths) - lengths
    return np.repeat(starts - offsets, lengths) + np.arange(lengths.sum())


def _grow(
    X: np.ndarray,
    y: np.ndarray,
    weights: np.ndarray,  # (T, n) row multiplicities, one row per tree
    seeds: list[int],
    max_depth: int,
    min_samples_split: int,
    max_features: int | None,
) -> NodeTable:
    """Grow one tree per row of ``weights``; return them as one table whose
    values are class distributions over ``np.unique(y)``."""
    all_classes, y_code = np.unique(y, return_inverse=True)
    t_of, row_of = np.nonzero(weights > 0)
    has_class = np.zeros((len(weights), len(all_classes)), dtype=bool)
    has_class[t_of, y_code[row_of]] = True
    _, set_of = np.unique(has_class, axis=0, return_inverse=True)
    groups = [np.flatnonzero(set_of == i) for i in range(set_of.max() + 1)]
    table = concat_tables([
        _grow_same_q(
            X, y_code, weights[ts], has_class[ts], [seeds[t] for t in ts],
            max_depth, min_samples_split, max_features,
        )
        for ts in groups
    ])
    return table._replace(roots=table.roots[np.argsort(np.concatenate(groups))])


def _class_sum(a: np.ndarray) -> np.ndarray:
    """``a.T.sum(axis=1)`` of a class-major ``(q, m)`` array, bit for bit.

    numpy sums each contiguous row of a ``(m, q)`` array pairwise: fewer
    than 8 terms left to right; up to 128 in 8 interleaved accumulators
    combined as ((0+1)+(2+3))+((4+5)+(6+7)), then the tail left to right;
    longer rows as two halves. Summing whole class rows in that order
    gives every row's sum with long vectorised adds. ``a`` is overwritten.
    """
    n = len(a)
    if n > 128:
        half = n // 2 - (n // 2) % 8
        res = _class_sum(a[:half])
        res += _class_sum(a[half:])
        return res
    if n < 8:
        res, tail = a[0], range(1, n)
    else:
        r = a[:8]
        for i in range(8, n - n % 8, 8):
            r += a[i : i + 8]
        r[0::2] += r[1::2]  # 0+1, 2+3, 4+5, 6+7
        r[0::4] += r[2::4]  # (0+1)+(2+3), (4+5)+(6+7)
        res = r[0]
        res += r[4]
        tail = range(n - n % 8, n)
    for i in tail:
        res += a[i]
    return res


def _presort(X: np.ndarray, present: np.ndarray) -> np.ndarray:
    """``(p, N)`` sample ids: tree t's block of columns lists its samples by
    each feature, from one stable argsort of ``X``.

    Sample ids number the ``present`` (tree, row) pairs in row-major order.
    """
    order = np.argsort(X.T, axis=1, kind="stable")
    sid = np.full(present.shape, -1)
    sid[present] = np.arange(present.sum())
    blocks = []
    for row, n_t in zip(sid, present.sum(axis=1)):
        s = row[order]
        blocks.append(s[s >= 0].reshape(X.shape[1], n_t))
    return np.concatenate(blocks, axis=1)


def _boundary_scores(Yw, w, ss, vals, pstart, plen, tot, m, k):
    """Weighted gini of every boundary in a step's concatenated segments.

    Segment j holds node ``j // k``'s samples ``ss[pstart[j]:][:plen[j]]``
    sorted by one feature, with values ``vals``; ``tot`` and ``m`` are the
    nodes' class counts and sizes. Returns ``(at, per_pair, weighted)``:
    the positions e with a boundary after them, how many each segment
    has, and their scores, in segment order.
    """
    # Prefix sums that restart at every segment: its first element
    # also subtracts the total of the segment before it.
    tot_p = np.repeat(tot.T, k, axis=1)  # (q, B * k)
    m_p = np.repeat(m, k)
    cum = Yw.take(ss, axis=1)
    cum[:, pstart[1:]] -= tot_p[:, :-1]
    np.cumsum(cum, axis=1, out=cum)
    n_cum = w[ss]
    n_cum[pstart[1:]] -= m_p[:-1]
    np.cumsum(n_cum, out=n_cum)
    # Boundary after element e: its value is below the next one's.
    ok = np.empty(len(ss), dtype=bool)
    np.greater(vals[1:], vals[:-1], out=ok[:-1])
    ok[pstart + plen - 1] = False
    per_pair = np.add.reduceat(ok, pstart, dtype=np.intp)
    at = np.flatnonzero(ok)
    left = cum.take(at, axis=1)
    del cum  # before the right-side counts: the step's memory peak
    right = np.repeat(tot_p, per_pair, axis=1)
    right -= left
    nl = n_cum[at]
    mp = np.repeat(m_p, per_pair)
    nr = mp - nl
    left /= nl
    np.square(left, out=left)
    right /= nr
    np.square(right, out=right)
    gini_l = 1.0 - _class_sum(left)
    gini_r = 1.0 - _class_sum(right)
    gini_l *= nl
    gini_r *= nr
    weighted = np.add(gini_l, gini_r, out=gini_l)
    weighted /= mp
    return at, per_pair, weighted


def _grow_same_q(X, y_code, W, has_class, seeds, max_depth, min_samples_split, max_features):
    """``_grow`` for trees whose samples hold the same classes."""
    T, n = W.shape
    p = X.shape[1]
    q = int(has_class[0].sum())
    present = W > 0
    n_t = present.sum(axis=1)
    N = int(n_t.sum())
    t_of, row_of = np.nonzero(present)  # sample s is row row_of[s] of tree t_of[s]
    # Class-major one-hot over each tree's own classes, times the multiplicity.
    local_code = np.cumsum(has_class, axis=1) - 1
    Yw = np.zeros((q, N))
    w = W[present].astype(np.float64)
    Yw[local_code[t_of, y_code[row_of]], np.arange(N)] = w
    XS = np.ascontiguousarray(X[row_of].T)  # (p, N): XS[f, s] = X[row_of[s], f]
    S = _presort(X, present)
    S_flat, XS_flat = S.reshape(-1), XS.reshape(-1)

    # Node table. Each leaf owns at least one sample, so a tree of n_t
    # samples has at most 2 n_t - 1 nodes; nodes 0..T-1 are the roots.
    cap = 2 * N
    lo = np.empty(cap, dtype=np.intp)  # first column of the node's range
    nc = np.empty(cap, dtype=np.intp)  # its number of columns (distinct samples)
    depth = np.empty(cap, dtype=np.intp)
    counts = np.empty((cap, q))  # weighted class counts: exact integers
    mass = np.empty(cap)  # their sum, the node's bootstrap size
    feature = np.full(cap, -1, dtype=np.intp)
    threshold = np.zeros(cap)
    child = np.full(cap, -1, dtype=np.intp)  # left child; the right one is child + 1
    lo[:T] = np.cumsum(n_t) - n_t
    nc[:T] = n_t
    depth[:T] = 0
    counts[:T] = np.add.reduceat(Yw, lo[:T], axis=1).T
    mass[:T] = counts[:T].sum(axis=1)
    n_nodes = T

    def splittable(ids):
        return (
            (depth[ids] < max_depth)
            & (mass[ids] >= min_samples_split)
            & ((counts[ids] > 0).sum(axis=1) > 1)
            & (p > 0)
        )

    draws = max_features is not None and max_features < p
    k = max_features if draws else p
    rngs = [np.random.default_rng(s) for s in seeds]
    root_ok = splittable(np.arange(T))
    open_ = np.flatnonzero(root_ok)  # the frontier of a tree that draws nothing
    stacks = [[t] if ok else [] for t, ok in enumerate(root_ok.tolist())]
    all_features = np.arange(p)
    while True:
        if draws:
            owner = [t for t, stack in enumerate(stacks) if stack]
            if not owner:
                break
            batch = np.array([stacks[t].pop() for t in owner])
            feats = np.array([rngs[t].choice(p, size=k, replace=False) for t in owner])
        else:
            if len(open_) == 0:
                break
            batch = open_
            feats = np.broadcast_to(all_features, (len(batch), p))
        B = len(batch)
        m, tot = mass[batch], counts[batch]
        gini_parent = 1.0 - np.square(tot / m[:, None]).sum(axis=1)

        # Gather every (node, feature) segment: sample ids, values, labels.
        fk = feats.reshape(-1) * N
        plen = np.repeat(nc[batch], k)
        pstart = np.cumsum(plen) - plen
        ss = S_flat[_ragged_arange(fk + np.repeat(lo[batch], k), plen)]
        vals = XS_flat[np.repeat(fk, plen) + ss]
        at, per_pair, weighted = _boundary_scores(Yw, w, ss, vals, pstart, plen, tot, m, k)

        # Each segment's lowest score and its first boundary.
        best_w = np.full(B * k, np.inf)
        has = per_pair > 0
        v_start = np.cumsum(per_pair) - per_pair
        best_w[has] = np.minimum.reduceat(weighted, v_start[has])
        hit = np.flatnonzero(weighted == np.repeat(best_w, per_pair))
        hit_pair = np.searchsorted(v_start, hit, side="right") - 1
        first = np.ones(len(hit), dtype=bool)
        first[1:] = hit_pair[1:] != hit_pair[:-1]
        best_e = np.zeros(B * k, dtype=np.intp)
        best_e[hit_pair[first]] = at[hit[first]]
        # Running best over each node's features in draw order.
        gains = gini_parent[:, None] - best_w.reshape(B, k)
        best = np.full(B, -1.0)
        pick = np.zeros(B, dtype=np.intp)
        for r in range(k):
            better = gains[:, r] > best + 1e-12
            best[better] = gains[better, r]
            pick[better] = r
        sb = np.flatnonzero(best > 0)

        wp = sb * k + pick[sb]
        e = best_e[wp]
        v0, v1 = vals[e], vals[e + 1]
        thr = 0.5 * (v0 + v1)
        rounded = ~((v0 <= thr) & (thr < v1))  # midpoint rounded or overflowed
        thr[rounded] = v0[rounded]
        parents = batch[sb]
        feature[parents] = feats[sb, pick[sb]]
        threshold[parents] = thr
        n_left = e - pstart[wp] + 1
        left_ss = ss[_ragged_arange(pstart[wp], n_left)]  # each split node's left samples
        c_left = np.add.reduceat(Yw.take(left_ss, axis=1), np.cumsum(n_left) - n_left, axis=1).T

        # Stable partition of every feature row of the split nodes: each
        # row holds the same number of left samples per node, so the lefts
        # and the rights of all nodes land in the same columns in every row.
        s_lo, s_nc = lo[parents], nc[parents]
        goes_left = np.zeros(N, dtype=bool)
        goes_left[left_ss] = True
        sub = S.take(_ragged_arange(s_lo, s_nc), axis=1)
        fl = goes_left[sub]
        S[:, _ragged_arange(s_lo, n_left)] = sub[fl].reshape(p, -1)
        S[:, _ragged_arange(s_lo + n_left, s_nc - n_left)] = sub[~fl].reshape(p, -1)

        # Children: lefts at even offsets, rights at odd ones.
        L = n_nodes + 2 * np.arange(len(sb))
        R = L + 1
        child[parents] = L
        lo[L], nc[L] = s_lo, n_left
        lo[R], nc[R] = s_lo + n_left, s_nc - n_left
        depth[L] = depth[R] = depth[parents] + 1
        counts[L], counts[R] = c_left, tot[sb] - c_left
        mass[L] = c_left.sum(axis=1)
        mass[R] = m[sb] - mass[L]
        n_nodes += 2 * len(sb)
        ok_l, ok_r = splittable(L), splittable(R)
        if draws:
            # Right first so the left child is popped next: preorder.
            for b, l_id, l_ok, r_ok in zip(sb.tolist(), L.tolist(), ok_l.tolist(), ok_r.tolist()):
                stack = stacks[owner[b]]
                if r_ok:
                    stack.append(l_id + 1)
                if l_ok:
                    stack.append(l_id)
        else:
            open_ = np.concatenate([L[ok_l], R[ok_r]])

    proba = np.zeros((n_nodes, has_class.shape[1]))  # in the columns of the trees' classes
    proba[:, has_class[0]] = counts[:n_nodes] / mass[:n_nodes, None]
    return NodeTable(feature[:n_nodes], threshold[:n_nodes], child[:n_nodes], proba, np.arange(T))


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
        self._table: NodeTable | None = None
        self._classes: np.ndarray | None = None
        self._n_features: int | None = None

    def fit(self, X: np.ndarray, y: np.ndarray) -> "DecisionTreeClassifier":
        X, y = check_X_y(X, y)
        self._table = _grow(
            X, y, np.ones((1, len(X)), dtype=np.intp), [self.seed],
            self.max_depth, self.min_samples_split, self.max_features,
        )
        self._classes = np.unique(y)
        self._n_features = X.shape[1]
        return self

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        if self._table is None:
            raise RuntimeError("fit before predict")
        X = check_X(X, self._n_features)
        return self._table.value[route(self._table, X)[0]]

    def predict(self, X: np.ndarray) -> np.ndarray:
        return self._classes[np.argmax(self.predict_proba(X), axis=1)]
