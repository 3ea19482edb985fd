"""Tests for the from-scratch classifier substrate."""
import heapq
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.classifiers import CLASSIFIER_NAMES, knn, make_classifier
from repro.classifiers import forest as forest_module
from repro.classifiers.forest import RandomForestClassifier
from repro.classifiers.gbdt import LightGBMLikeClassifier, XGBoostLikeClassifier
from repro.classifiers.knn import KNNClassifier
from repro.classifiers.tree import DecisionTreeClassifier
from repro.datasets.generators import make_blobs_classification
from repro.datasets.registry import load_dataset
from repro.stats.crossval import stratified_kfold


def _easy(q=2, n=400, p=4, seed=0):
    return make_blobs_classification(
        n_samples=n, n_features=p, n_classes=q, class_sep=6.0,
        clusters_per_class=1, seed=seed,
    )


ALL_CLASSES = [
    DecisionTreeClassifier,
    RandomForestClassifier,
    KNNClassifier,
    XGBoostLikeClassifier,
    LightGBMLikeClassifier,
]


@pytest.mark.parametrize("cls", ALL_CLASSES)
@pytest.mark.parametrize("q", [2, 3])
def test_learns_separable_blobs(cls, q):
    X, y = _easy(q=q)
    clf = cls().fit(X[:300], y[:300])
    acc = (clf.predict(X[300:]) == y[300:]).mean()
    assert acc > 0.9, f"{cls.__name__} acc={acc}"


@pytest.mark.parametrize("name", CLASSIFIER_NAMES)
def test_factory_names(name):
    X, y = _easy()
    clf = make_classifier(name, seed=0).fit(X, y)
    assert len(clf.predict(X[:10])) == 10


def test_factory_rejects_unknown():
    with pytest.raises(ValueError):
        make_classifier("SVM")


@pytest.mark.parametrize("cls", ALL_CLASSES)
def test_predict_before_fit_raises(cls):
    with pytest.raises(RuntimeError):
        cls().predict(np.zeros((1, 2)))


@pytest.mark.parametrize("cls", ALL_CLASSES)
def test_empty_train_raises(cls):
    with pytest.raises(ValueError):
        cls().fit(np.empty((0, 2)), np.empty(0, dtype=int))


@pytest.mark.parametrize("cls", ALL_CLASSES)
def test_single_class_training(cls):
    X = np.random.default_rng(0).normal(0, 1, (30, 3))
    y = np.full(30, 7)
    clf = cls().fit(X, y)
    assert (clf.predict(X) == 7).all()


@pytest.mark.parametrize("cls", ALL_CLASSES)
def test_noninteger_labels_roundtrip(cls):
    X, y = _easy()
    y = y + 10  # labels {10, 11}
    clf = cls().fit(X, y)
    assert set(np.unique(clf.predict(X))) <= {10, 11}


# --- input validation, shared by every classifier ---


@pytest.mark.parametrize("cls", ALL_CLASSES)
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_fit_rejects_nonfinite_features(cls, bad):
    X, y = _easy(n=40)
    X[3, 1] = bad
    with pytest.raises(ValueError, match="NaN or infinite"):
        cls().fit(X, y)


@pytest.mark.parametrize("cls", ALL_CLASSES)
def test_fit_rejects_1d_features(cls):
    with pytest.raises(ValueError, match="2-D"):
        cls().fit(np.arange(10.0), np.arange(10) % 2)


@pytest.mark.parametrize("cls", ALL_CLASSES)
def test_fit_rejects_2d_labels(cls):
    X, y = _easy(n=40)
    with pytest.raises(ValueError, match="y must be 1-D"):
        cls().fit(X, y[:, None])


@pytest.mark.parametrize("cls", ALL_CLASSES)
def test_fit_rejects_length_mismatch(cls):
    X, y = _easy(n=40)
    with pytest.raises(ValueError, match="rows"):
        cls().fit(X, y[:-1])


@pytest.mark.parametrize("cls", ALL_CLASSES)
def test_predict_rejects_wrong_feature_count(cls):
    X, y = _easy(n=40, p=3)
    clf = cls().fit(X, y)
    with pytest.raises(ValueError, match="features"):
        clf.predict(X[:, :1])


@pytest.mark.parametrize("cls", ALL_CLASSES)
def test_predict_rejects_nonfinite_features(cls):
    X, y = _easy(n=40)
    clf = cls().fit(X, y)
    X = X[:5].copy()
    X[0, 0] = np.nan
    with pytest.raises(ValueError, match="NaN or infinite"):
        clf.predict(X)


@pytest.mark.parametrize("cls", ALL_CLASSES)
def test_predict_rejects_1d_features(cls):
    X, y = _easy(n=40)
    clf = cls().fit(X, y)
    with pytest.raises(ValueError, match="2-D"):
        clf.predict(X[0])


@pytest.mark.parametrize("cls", [c for c in ALL_CLASSES if c is not KNNClassifier])
def test_zero_features_fit_the_prior(cls):
    y = np.array([0, 1, 1, 2, 2, 2])
    clf = cls().fit(np.empty((6, 0)), y)
    assert (clf.predict(np.empty((3, 0))) == 2).all()


def test_zero_feature_tree_is_one_leaf():
    y = np.array([0, 1, 1, 2, 2, 2])
    clf = DecisionTreeClassifier().fit(np.empty((6, 0)), y)
    [(feature, _, value)] = _preorder(clf._table)
    assert feature == -1
    assert value.tolist() == [1 / 6, 2 / 6, 3 / 6]


@pytest.mark.parametrize("n_estimators", [0, -3])
def test_forest_rejects_no_trees(n_estimators):
    with pytest.raises(ValueError, match="n_estimators"):
        RandomForestClassifier(n_estimators=n_estimators)


@pytest.mark.parametrize("cls", [XGBoostLikeClassifier, LightGBMLikeClassifier])
def test_gbdt_rejects_no_rounds(cls):
    with pytest.raises(ValueError, match="n_rounds"):
        cls(n_rounds=0)


class TestDecisionTree:
    def test_pure_fit_memorises_training_set(self):
        X, y = _easy(n=200)
        clf = DecisionTreeClassifier().fit(X, y)
        assert (clf.predict(X) == y).mean() == 1.0

    def test_max_depth_limits_tree(self):
        X, y = _easy(n=300)
        stump = DecisionTreeClassifier(max_depth=1).fit(X, y)
        feature, child = stump._table.feature, stump._table.child
        assert feature[0] >= 0 and feature[child[0]] == -1

    def test_proba_rows_sum_to_one(self):
        X, y = _easy(q=3)
        P = DecisionTreeClassifier().fit(X, y).predict_proba(X[:50])
        assert np.allclose(P.sum(axis=1), 1.0)

    def test_deterministic(self):
        X, y = _easy(seed=1)
        a = DecisionTreeClassifier(seed=3).fit(X, y).predict(X)
        b = DecisionTreeClassifier(seed=3).fit(X, y).predict(X)
        assert np.array_equal(a, b)

    def test_constant_features_fall_back_to_leaf(self):
        X = np.ones((40, 3))
        y = np.array([0, 1] * 20)
        clf = DecisionTreeClassifier().fit(X, y)
        assert clf._table.feature.tolist() == [-1]  # unsplittable → leaf


class TestForest:
    def test_beats_single_tree_on_noisy_overlap(self):
        X, y = make_blobs_classification(
            n_samples=900, n_features=6, n_classes=2, class_sep=1.2, seed=5
        )
        tr, te = slice(0, 600), slice(600, None)
        acc_t = (DecisionTreeClassifier(seed=0).fit(X[tr], y[tr]).predict(X[te]) == y[te]).mean()
        acc_f = (RandomForestClassifier(seed=0).fit(X[tr], y[tr]).predict(X[te]) == y[te]).mean()
        assert acc_f >= acc_t - 0.02

    def test_n_estimators_respected(self):
        X, y = _easy(n=100)
        clf = RandomForestClassifier(n_estimators=5).fit(X, y)
        assert len(clf._table.roots) == 5


class TestKNN:
    def test_k1_memorises(self):
        X, y = _easy(n=100)
        assert (KNNClassifier(k=1).fit(X, y).predict(X) == y).all()

    def test_k_larger_than_train(self):
        X, y = _easy(n=20)
        clf = KNNClassifier(k=50).fit(X[:4], y[:4])
        assert len(clf.predict(X)) == len(X)

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            KNNClassifier(k=0)


class TestGBDT:
    def test_proba_valid(self):
        X, y = _easy(q=3)
        P = XGBoostLikeClassifier(n_rounds=5).fit(X, y).predict_proba(X[:20])
        assert np.allclose(P.sum(axis=1), 1.0) and (P >= 0).all()

    def test_more_rounds_fit_tighter(self):
        X, y = make_blobs_classification(
            n_samples=500, n_features=4, n_classes=2, class_sep=2.0, seed=6
        )
        weak = XGBoostLikeClassifier(n_rounds=2).fit(X, y)
        strong = XGBoostLikeClassifier(n_rounds=30).fit(X, y)
        assert (strong.predict(X) == y).mean() >= (weak.predict(X) == y).mean()

    def test_leafwise_and_levelwise_both_learn(self):
        X, y = _easy(n=300)
        for cls in (XGBoostLikeClassifier, LightGBMLikeClassifier):
            acc = (cls(n_rounds=10).fit(X, y).predict(X) == y).mean()
            assert acc > 0.95


# --- CART equivalence: presorted all-feature scan vs per-node argsort ---


def _oracle_best_split(X, Y, feat_ids):
    """Per-node, per-feature stable-argsort split search (reference)."""
    n, q = Y.shape
    total = Y.sum(axis=0)
    gini_parent = 1.0 - ((total / n) ** 2).sum()
    best = (-1, 0.0, -1.0)
    for j in feat_ids:
        order = np.argsort(X[:, j], kind="stable")
        xs = X[order, j]
        ys = Y[order]
        valid = np.nonzero(xs[1:] > xs[:-1])[0] + 1
        if len(valid) == 0:
            continue
        left_counts = np.cumsum(ys, axis=0)[valid - 1]
        nl = valid.astype(np.float64)
        nr = n - nl
        right_counts = total[None, :] - left_counts
        gini_l = 1.0 - ((left_counts / nl[:, None]) ** 2).sum(1)
        gini_r = 1.0 - ((right_counts / nr[:, None]) ** 2).sum(1)
        weighted = (nl * gini_l + nr * gini_r) / n
        i = int(np.argmin(weighted))
        gain = gini_parent - weighted[i]
        if gain > best[2] + 1e-12:
            pos = valid[i]
            best = (int(j), float(0.5 * (xs[pos - 1] + xs[pos])), float(gain))
    return best


def _oracle_tree(X, y, max_depth=None, min_samples_split=2, max_features=None, seed=0):
    """Preorder ``(feature, threshold, proba)`` of a recursively grown CART."""
    X = np.asarray(X, dtype=np.float64)
    classes, y_enc = np.unique(y, return_inverse=True)
    Y = np.zeros((len(y), len(classes)))
    Y[np.arange(len(y)), y_enc] = 1.0
    rng = np.random.default_rng(seed)
    max_depth = 10**9 if max_depth is None else max_depth
    out = []

    def grow(Xn, Yn, depth):
        counts = Yn.sum(axis=0)
        rec = [-1, 0.0, counts / counts.sum()]
        out.append(rec)
        if depth >= max_depth or len(Xn) < min_samples_split or (counts > 0).sum() == 1:
            return
        p = Xn.shape[1]
        if max_features is not None and max_features < p:
            feat_ids = rng.choice(p, size=max_features, replace=False)
        else:
            feat_ids = np.arange(p)
        j, thr, gain = _oracle_best_split(Xn, Yn, feat_ids)
        if gain <= 0:
            return
        rec[0], rec[1] = j, thr
        mask = Xn[:, j] <= thr
        grow(Xn[mask], Yn[mask], depth + 1)
        grow(Xn[~mask], Yn[~mask], depth + 1)

    grow(X, Y, 0)
    return out


def _preorder(table, root=0):
    """Preorder ``(feature, threshold, value)`` of the tree at ``root`` of a node table."""
    out, stack = [], [root]
    while stack:
        i = stack.pop()
        out.append([table.feature[i], table.threshold[i], table.value[i]])
        if table.feature[i] >= 0:
            stack += [table.child[i] + 1, table.child[i]]
    return out


def _walk(nodes, X):
    """Each row's leaf value in a preorder ``(feature, threshold, value)`` tree,
    one node at a time: a node sends its rows with ``x[feature] <= threshold``
    left (reference)."""
    out = np.empty((len(X), len(nodes[0][2])))
    stack = [np.arange(len(X))]  # the rows of the nodes still to visit
    for f, thr, value in nodes:
        rows = stack.pop()
        if f < 0:
            out[rows] = value
        else:
            left = X[rows, f] <= thr
            stack += [rows[~left], rows[left]]
    return out


def _assert_same_tree(got, want):
    assert len(got) == len(want)
    for (f, t, pr), (fo, to, pro) in zip(got, want):
        assert f == fo and t == to
        assert pr.shape == pro.shape and pr.tobytes() == pro.tobytes()


def _check_tree(X, y, X_test=None, **kw):
    clf = DecisionTreeClassifier(**kw).fit(X, y)
    want = _oracle_tree(X, y, **kw)
    _assert_same_tree(_preorder(clf._table), want)
    X_test = X if X_test is None else X_test
    assert clf.predict_proba(X_test).tobytes() == _walk(want, X_test).tobytes()


class TestPresortedCartEquivalence:
    @pytest.mark.parametrize("q", [1, 2, 10])
    @pytest.mark.parametrize("p", [1, 3, 12])
    def test_blobs_match_per_node_argsort(self, q, p):
        rng = np.random.default_rng(10 * q + p)
        X = rng.normal(0, 1, (300, p))
        y = rng.integers(0, q, 300)
        _check_tree(X, y)

    def test_duplicate_rows_and_tied_values(self):
        rng = np.random.default_rng(1)
        base = np.round(rng.normal(0, 1, (60, 3)), 1)  # many ties per column
        X = np.concatenate([base, base[:40], base[:20]])  # duplicated rows
        y = rng.integers(0, 3, len(X))  # duplicates may disagree on the label
        _check_tree(X, y)

    def test_integer_valued_columns(self):
        rng = np.random.default_rng(2)
        X = rng.integers(0, 4, (400, 5)).astype(float)
        y = (X[:, 0] + rng.integers(0, 2, 400)) % 3
        _check_tree(X, y)

    @pytest.mark.parametrize("dataset", [f"S{i}" for i in range(1, 14)])
    def test_datasets_match_per_node_argsort(self, dataset):
        X, y, X_test = _fold0(dataset, 0.2)
        _check_tree(X, y, X_test)

    @pytest.mark.parametrize("depth, split", [(2, 2), (4, 10), (None, 25)])
    def test_stopping_rules(self, depth, split):
        X, y = _easy(q=3, n=300, seed=3)
        _check_tree(X, y, max_depth=depth, min_samples_split=split)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_forest_feature_draws_on_bootstraps(self, seed):
        X, y, _ = load_dataset("S1", noise_ratio=0.2, noise_seed=seed)
        X, y = X[:600], y[:600]
        forest = RandomForestClassifier(n_estimators=3, seed=seed).fit(X, y)
        rng = np.random.default_rng(seed)
        k = max(1, int(np.sqrt(X.shape[1])))
        for t, (_, got) in enumerate(_forest_trees(forest)):
            idx = rng.integers(0, len(X), len(X))  # bootstrap, with duplicates
            want = _oracle_tree(X[idx], y[idx], max_features=k, seed=seed * 1000 + t)
            _assert_same_tree(got, want)

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(2, 80),
        p=st.integers(1, 5),
        q=st.integers(1, 4),
        levels=st.integers(2, 6),
        max_features=st.one_of(st.none(), st.integers(1, 5)),
        seed=st.integers(0, 2**16),
    )
    def test_generated_inputs(self, n, p, q, levels, max_features, seed):
        rng = np.random.default_rng(seed)
        X = rng.integers(0, levels, (n, p)) * 0.5 - 1.0  # coarse grid: ties
        y = rng.integers(0, q, n)
        _check_tree(X, y, _at_thresholds(rng, levels, p), max_features=max_features, seed=seed)


def _at_thresholds(rng, levels, p):
    """Test rows on the grid of ``levels`` values and the midpoints between
    them, where every split of a tree grown on that grid puts its threshold."""
    return rng.integers(0, 2 * levels - 1, (30, p)) * 0.25 - 1.0


def test_rows_at_a_threshold_go_left():
    X = np.array([[0.0], [1.0]])
    clf = DecisionTreeClassifier().fit(X, np.array([0, 1]))
    assert clf._table.threshold[0] == 0.5
    assert clf.predict(np.array([[0.5], [np.nextafter(0.5, 1.0)]])).tolist() == [0, 1]


def test_deep_tree_fits_without_recursion():
    """A chain-shaped tree deeper than Python's recursion limit."""
    X = np.arange(2500.0)[:, None]
    y = np.arange(2500) % 2
    clf = DecisionTreeClassifier().fit(X, y)
    assert (clf.predict(X) == y).all()


def test_threshold_between_adjacent_floats_separates():
    # The midpoint of two adjacent floats can round up to the upper value;
    # the split must still send the lower row left and the upper row right.
    lo = 1.0 + 2.0**-52
    X = np.array([[lo], [np.nextafter(lo, 2.0)]])
    y = np.array([0, 1])
    clf = DecisionTreeClassifier().fit(X, y)
    assert clf._table.feature[0] == 0
    assert (clf.predict(X) == y).all()


# --- GBDT equivalence: one best-first grower vs per-feature level/leaf-wise ---


def _oracle_gbdt_split(codes, idx, g, h):
    """Per-feature histogram split search with a running best (reference)."""
    G, H = g[idx].sum(), h[idx].sum()
    parent = G * G / (H + 1.0)
    best = (0.0, -1, -1)
    sub, gs, hs = codes[idx], g[idx], h[idx]
    for j in range(codes.shape[1]):
        c = sub[:, j]
        GL = np.cumsum(np.bincount(c, weights=gs, minlength=32))[:-1]
        HL = np.cumsum(np.bincount(c, weights=hs, minlength=32))[:-1]
        GR, HR = G - GL, H - HL
        gains = 0.5 * (GL * GL / (HL + 1.0) + GR * GR / (HR + 1.0) - parent)
        gains = np.where((HL > 1e-12) & (HR > 1e-12), gains, -np.inf)
        b = int(np.argmax(gains))
        if gains[b] > best[0]:
            best = (float(gains[b]), j, b)
    return best


def _oracle_levelwise(codes, idx, g, h, max_depth):
    nodes = []

    def build(idx, depth):
        ni = len(nodes)
        nodes.append((-1, -1, -1, -1, -g[idx].sum() / (h[idx].sum() + 1.0)))
        if depth >= max_depth or len(idx) < 2:
            return ni
        gain, f, b = _oracle_gbdt_split(codes, idx, g, h)
        if f < 0 or gain <= 1e-12:
            return ni
        mask = codes[idx, f] <= b
        left = build(idx[mask], depth + 1)
        nodes[ni] = (f, b, left, build(idx[~mask], depth + 1), 0.0)
        return ni

    build(idx, 0)
    return nodes


def _oracle_leafwise(codes, idx, g, h, num_leaves):
    def weight(sub):
        return -g[sub].sum() / (h[sub].sum() + 1.0)

    nodes = [(-1, -1, -1, -1, weight(idx))]
    heap, counter = [], 0

    def push(ni, sub):
        nonlocal counter
        if len(sub) < 2:
            return
        gain, f, b = _oracle_gbdt_split(codes, sub, g, h)
        if f >= 0 and gain > 1e-12:
            heapq.heappush(heap, (-gain, counter, ni, (f, b, sub)))
            counter += 1

    push(0, idx)
    leaves = 1
    while heap and leaves < num_leaves:
        _, _, ni, (f, b, sub) = heapq.heappop(heap)
        mask = codes[sub, f] <= b
        li, ri = len(nodes), len(nodes) + 1
        nodes += [(-1, -1, -1, -1, weight(sub[mask])), (-1, -1, -1, -1, weight(sub[~mask]))]
        nodes[ni] = (f, b, li, ri, 0.0)
        leaves += 1
        push(li, sub[mask])
        push(ri, sub[~mask])
    return nodes


def _oracle_predict_codes(nodes, codes):
    out = np.empty(len(codes))
    stack = [(0, np.arange(len(codes)))]
    while stack:
        ni, idx = stack.pop()
        f, b, left, right, w = nodes[ni]
        if f < 0:
            out[idx] = w
            continue
        mask = codes[idx, f] <= b
        stack += [(left, idx[mask]), (right, idx[~mask])]
    return out


def _oracle_gbdt_proba(X, y, X_test, n_rounds, lr, max_depth=None, num_leaves=None):
    """Softmax GBDT whose F update re-walks each new tree (reference)."""
    classes, y_enc = np.unique(y, return_inverse=True)
    n, q = len(X), len(classes)
    qs = np.linspace(0, 1, 33)[1:-1]
    edges = [np.unique(np.quantile(X[:, j], qs)) for j in range(X.shape[1])]

    def codes_for(Z):
        codes = np.empty(Z.shape, dtype=np.uint8)
        for j, e in enumerate(edges):
            codes[:, j] = np.searchsorted(e, Z[:, j], side="left").astype(np.uint8)
        return codes

    codes = codes_for(X)
    onehot = np.zeros((n, q))
    onehot[np.arange(n), y_enc] = 1.0
    base = np.log(np.maximum(onehot.mean(axis=0), 1e-12))
    F = np.tile(base, (n, 1))
    trees = []
    for _ in range(n_rounds):
        P = np.exp(F - F.max(axis=1, keepdims=True))
        P /= P.sum(axis=1, keepdims=True)
        g, h = P - onehot, P * (1.0 - P)
        for k in range(q):
            hk = np.maximum(h[:, k], 1e-6)
            if max_depth is not None:
                tree = _oracle_levelwise(codes, np.arange(n), g[:, k], hk, max_depth)
            else:
                tree = _oracle_leafwise(codes, np.arange(n), g[:, k], hk, num_leaves)
            F[:, k] += lr * _oracle_predict_codes(tree, codes)
            trees.append((k, tree))
    test_codes = codes_for(X_test)
    F = np.tile(base, (len(X_test), 1))
    for k, tree in trees:
        F[:, k] += lr * _oracle_predict_codes(tree, test_codes)
    P = np.exp(F - F.max(axis=1, keepdims=True))
    return P / P.sum(axis=1, keepdims=True)


def _check_gbdt(X, y, X_test, n_rounds=30, max_depth=3, num_leaves=15):
    cases = [
        (XGBoostLikeClassifier(n_rounds, max_depth=max_depth), dict(lr=0.3, max_depth=max_depth)),
        (LightGBMLikeClassifier(n_rounds, num_leaves=num_leaves), dict(lr=0.1, num_leaves=num_leaves)),
    ]
    for clf, kw in cases:
        got = clf.fit(X, y).predict_proba(X_test)
        want = _oracle_gbdt_proba(X, y, X_test, n_rounds, **kw)
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), type(clf).__name__


def _fold0(dataset, noise):
    X, y, _ = load_dataset(dataset, noise_ratio=noise, noise_seed=0)
    tr, te = stratified_kfold(y, n_splits=5, seed=0)[0]
    return X[tr], y[tr], X[te]


class TestGBDTEquivalence:
    @pytest.mark.parametrize("noise", [0.0, 0.2])
    @pytest.mark.parametrize("dataset", [f"S{i}" for i in range(1, 14)])
    def test_datasets_match_per_feature_growers(self, dataset, noise):
        _check_gbdt(*_fold0(dataset, noise), n_rounds=3)

    @pytest.mark.parametrize("dataset", ["S1", "S2"])
    def test_default_settings(self, dataset):
        _check_gbdt(*_fold0(dataset, 0.2))

    def test_no_features_predicts_the_prior(self):
        y = np.array([0, 1, 1, 2, 2, 2])
        _check_gbdt(np.empty((6, 0)), y, np.empty((2, 0)), n_rounds=2)

    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(1, 119),
        p=st.integers(1, 5),
        q=st.integers(1, 5),
        kind=st.sampled_from(["normal", "grid", "constant"]),
        n_rounds=st.integers(1, 7),
        max_depth=st.integers(1, 5),
        num_leaves=st.integers(2, 19),
        seed=st.integers(0, 2**16),
    )
    def test_generated_inputs(self, n, p, q, kind, n_rounds, max_depth, num_leaves, seed):
        rng = np.random.default_rng(seed)
        if kind == "grid":
            X = rng.integers(0, 4, (n, p)).astype(float)  # tied codes
        else:
            X = rng.normal(0, 1, (n, p))
            if kind == "constant":
                X[:, rng.integers(0, p)] = 3.0
        y = rng.integers(0, q, n)
        X_test = np.concatenate([X, rng.normal(0, 2, (10, p))])
        _check_gbdt(X, y, X_test, n_rounds, max_depth, num_leaves)


# --- Forest equivalence: lockstep grower vs one presorted tree at a time ---


def _oracle_best_split_presorted(X, Y, S, total, feat_ids):
    """One node's all-feature presorted split scan (reference)."""
    m = S.shape[1]
    gini_parent = 1.0 - ((total / m) ** 2).sum()
    Sk = S[feat_ids]
    xs = X[Sk, feat_ids[:, None]]
    left = np.cumsum(Y[Sk], axis=1)[:, :-1]
    nl = np.arange(1.0, m)
    nr = m - nl
    gini_l = 1.0 - np.square(left / nl[:, None]).sum(-1)
    gini_r = 1.0 - np.square((total - left) / nr[:, None]).sum(-1)
    weighted = (gini_l * nl + gini_r * nr) / m
    weighted[~(xs[:, 1:] > xs[:, :-1])] = np.inf
    pos = np.argmin(weighted, axis=1)
    best_w = weighted[np.arange(len(feat_ids)), pos]
    best = (-1, 0.0, -1.0)
    for f, j in enumerate(feat_ids):
        gain = gini_parent - best_w[f]
        if gain > best[2] + 1e-12:
            i = pos[f] + 1
            thr = 0.5 * (xs[f, i - 1] + xs[f, i])
            if not xs[f, i - 1] <= thr < xs[f, i]:
                thr = xs[f, i - 1]
            best = (int(j), float(thr), float(gain))
    return best


def _oracle_presorted_tree(X, y, max_depth, max_features, seed):
    """``(preorder, classes)`` of one CART grown node by node from a stack."""
    classes, y_enc = np.unique(y, return_inverse=True)
    n, p = X.shape
    Y = np.zeros((n, len(classes)))
    Y[np.arange(n), y_enc] = 1.0
    rng = np.random.default_rng(seed)
    max_depth = 10**9 if max_depth is None else max_depth
    out, stack = [], [(np.argsort(X.T, axis=1, kind="stable"), 0)]
    while stack:
        S, depth = stack.pop()
        counts = np.bincount(y_enc[S[0]], minlength=len(classes)).astype(np.float64)
        rec = [-1, 0.0, counts / counts.sum()]
        out.append(rec)
        if depth >= max_depth or S.shape[1] < 2 or (counts > 0).sum() == 1:
            continue
        if max_features < p:
            feat_ids = rng.choice(p, size=max_features, replace=False)
        else:
            feat_ids = np.arange(p)
        j, thr, gain = _oracle_best_split_presorted(X, Y, S, counts, feat_ids)
        if gain <= 0:
            continue
        rec[0], rec[1] = j, thr
        L = X[S, j] <= thr
        stack.append((S[~L].reshape(p, -1), depth + 1))
        stack.append((S[L].reshape(p, -1), depth + 1))
    return out, classes


def _oracle_forest(X, y, n_estimators, max_depth, seed):
    """Per-tree loop: draw a bootstrap, grow its tree, next tree (reference)."""
    rng = np.random.default_rng(seed)
    k = max(1, int(np.sqrt(X.shape[1])))
    trees = []
    for t in range(n_estimators):
        idx = rng.integers(0, len(X), len(X))
        trees.append(_oracle_presorted_tree(X[idx], y[idx], max_depth, k, seed * 1000 + t))
    return trees


def _forest_trees(forest):
    """Each tree of a fitted forest as ``(classes, preorder)`` over its own classes.

    A tree's own classes are those of its bootstrap, the ones its root
    holds; every other class must read an exact 0 in each of its nodes.
    """
    table = forest._table
    for root in table.roots:
        nodes = _preorder(table, root)
        own = nodes[0][2] > 0
        assert all(not value[~own].any() for _, _, value in nodes)
        yield forest._classes[own], [[f, t, value[own]] for f, t, value in nodes]


def _oracle_forest_proba(trees, classes, X):
    """Soft vote of per-tree reference walks, each tree on its own class axis."""
    agg = np.zeros((len(X), len(classes)))
    for nodes, tree_classes in trees:
        agg[:, np.searchsorted(classes, tree_classes)] += _walk(nodes, X)
    return agg / len(trees)


def _check_forest(X, y, n_estimators=30, max_depth=None, seed=1, X_test=None):
    forest = RandomForestClassifier(n_estimators, max_depth=max_depth, seed=seed).fit(X, y)
    want = _oracle_forest(X, y, n_estimators, max_depth, seed)
    got = list(_forest_trees(forest))
    assert len(got) == len(want)
    for (tree_classes, nodes), (want_nodes, classes) in zip(got, want):
        assert tree_classes.dtype == classes.dtype
        assert np.array_equal(tree_classes, classes)
        _assert_same_tree(nodes, want_nodes)
    X_test = X if X_test is None else X_test
    proba = forest.predict_proba(X_test)
    assert proba.tobytes() == _oracle_forest_proba(want, forest._classes, X_test).tobytes()
    return forest


def _tree_class_counts(forest):
    return [len(classes) for classes, _ in _forest_trees(forest)]


def _fold0_2(dataset, noise):
    X, y, _ = load_dataset(dataset, noise_ratio=noise, noise_seed=0)
    tr, te = stratified_kfold(y, n_splits=2, seed=0)[0]
    return X[tr], y[tr], X[te]


class TestForestEquivalence:
    @pytest.mark.parametrize("noise", [0.0, 0.2])
    @pytest.mark.parametrize("dataset", [f"S{i}" for i in range(1, 14)])
    def test_datasets_match_per_tree_loop(self, dataset, noise):
        X, y, X_test = _fold0_2(dataset, noise)
        forest = _check_forest(X, y, X_test=X_test)
        if dataset in ("S6", "S11") and noise == 0.0:
            # rare classes: some bootstrap misses one, and its tree keeps
            # its own, shorter class axis
            assert min(_tree_class_counts(forest)) < len(forest._classes)

    @pytest.mark.parametrize("max_depth", [2, 5])
    @pytest.mark.parametrize("dataset", ["S1", "S3", "S6", "S11", "S13"])
    def test_depth_limits(self, dataset, max_depth):
        X, y, X_test = _fold0_2(dataset, 0.2)
        _check_forest(X, y, max_depth=max_depth, X_test=X_test)

    @pytest.mark.parametrize("dataset", ["S6", "S13"])
    def test_groups_of_trees_match_per_tree_loop(self, dataset):
        # A cap of a few trees' blocks: the forest grows in several groups.
        X, y, X_test = _fold0_2(dataset, 0.0)
        cap = 3 * 8 * X.shape[1] * len(X) // 2
        with mock.patch.object(forest_module, "GROUP_BYTES", cap), \
                mock.patch.object(forest_module, "_grow", wraps=forest_module._grow) as grow:
            fitted = _check_forest(X, y, X_test=X_test)
        assert 3 < grow.call_count < 30
        if dataset == "S6":
            assert min(_tree_class_counts(fitted)) < len(fitted._classes)

    def test_missing_rare_class_among_many(self):
        # 10 classes, one of them a single row: trees with 9 and with 10
        # classes grow side by side, past the class count where numpy's
        # class-axis sum stops adding left to right.
        rng = np.random.default_rng(4)
        X = rng.normal(0, 1, (300, 6))
        y = rng.integers(0, 9, 300)
        y[17] = 9
        forest = _check_forest(X, y, n_estimators=12, seed=3)
        assert set(_tree_class_counts(forest)) == {9, 10}

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 80),
        p=st.integers(1, 6),
        q=st.integers(1, 4),
        levels=st.integers(2, 6),
        n_estimators=st.integers(1, 6),
        max_depth=st.one_of(st.none(), st.integers(1, 6)),
        seed=st.integers(0, 2**16),
    )
    def test_generated_inputs(self, n, p, q, levels, n_estimators, max_depth, seed):
        rng = np.random.default_rng(seed)
        X = rng.integers(0, levels, (n, p)) * 0.5 - 1.0  # coarse grid: ties
        y = rng.integers(0, q, n)
        _check_forest(X, y, n_estimators, max_depth, seed, _at_thresholds(rng, levels, p))


def test_class_sum_matches_numpy_row_sum():
    from repro.classifiers.tree import _class_sum

    rng = np.random.default_rng(0)
    for q in [*range(1, 40), 127, 128, 129, 200, 300]:
        A = rng.random((50, q)) * 10.0 ** rng.integers(-6, 6, (50, q))
        got = _class_sum(np.ascontiguousarray(A.T))
        assert got.tobytes() == A.sum(axis=1).tobytes(), q


# --- kNN vote: vectorised counts vs the per-row np.unique loop ---


def _oracle_knn_predict(X_tr, y_tr, X, k=5):
    """Per-row vote with np.unique; ties go to the nearest tied neighbour."""
    k = min(k, len(X_tr))
    out = np.empty(len(X), dtype=y_tr.dtype)
    for lo in range(0, len(X), 512):
        chunk = X[lo : lo + 512]
        d2 = ((chunk[:, None, :] - X_tr[None, :, :]) ** 2).sum(-1)
        nn = np.argpartition(d2, k - 1, axis=1)[:, :k]
        rows = np.arange(len(chunk))[:, None]
        order = np.argsort(d2[rows, nn], axis=1, kind="stable")
        labels = y_tr[nn[rows, order]]
        for i in range(len(chunk)):
            vals, counts = np.unique(labels[i], return_counts=True)
            tied = set(vals[counts == counts.max()].tolist())
            out[lo + i] = next(l for l in labels[i] if l in tied)
    return out


class TestKNNVote:
    @pytest.mark.parametrize("dataset", [f"S{i}" for i in range(1, 14)])
    def test_datasets_match_per_row_loop(self, dataset):
        X, y, _ = load_dataset(dataset, noise_ratio=0.2, noise_seed=0)
        tr, te = stratified_kfold(y, n_splits=2, seed=0)[0]
        got = KNNClassifier().fit(X[tr], y[tr]).predict(X[te])
        want = _oracle_knn_predict(X[tr], y[tr], X[te])
        assert got.dtype == want.dtype and np.array_equal(got, want)

    def test_string_labels(self):
        X, y = _easy(n=60, q=3)
        labels = np.array(["a", "bb", "c"])[y]
        got = KNNClassifier(k=4).fit(X[:40], labels[:40]).predict(X[40:])
        assert np.array_equal(got, _oracle_knn_predict(X[:40], labels[:40], X[40:], k=4))

    @settings(max_examples=100, deadline=None)
    @given(
        n=st.integers(1, 60),
        p=st.integers(1, 4),
        q=st.integers(1, 4),
        k=st.integers(1, 8),
        seed=st.integers(0, 2**16),
    )
    def test_generated_tied_votes(self, n, p, q, k, seed):
        rng = np.random.default_rng(seed)
        X = rng.integers(0, 3, (n, p)).astype(float)  # tied distances
        y = rng.integers(0, q, n) * 10 - 5
        X_test = rng.integers(0, 3, (30, p)).astype(float)
        got = KNNClassifier(k=k).fit(X, y).predict(X_test)
        assert np.array_equal(got, _oracle_knn_predict(X, y, X_test, k=k))


# --- kNN chunking: byte-capped chunks vs one-row chunks ---


def _one_row_predict(clf: KNNClassifier, X: np.ndarray) -> np.ndarray:
    with mock.patch.object(knn, "CHUNK_BYTES", 1):
        return clf.predict(X)


class TestKNNChunks:
    @pytest.mark.parametrize("dataset", [f"S{i}" for i in range(1, 14)])
    def test_datasets_match_one_row_chunks(self, dataset):
        X, y, _ = load_dataset(dataset, noise_ratio=0.2, noise_seed=0)
        tr, te = stratified_kfold(y, n_splits=2, seed=0)[0]
        clf = KNNClassifier().fit(X[tr], y[tr])
        assert knn.CHUNK_BYTES // X[tr].nbytes > 1  # several test rows per chunk
        got = clf.predict(X[te])
        assert got.tobytes() == _one_row_predict(clf, X[te]).tobytes()

    @settings(max_examples=100, deadline=None)
    @given(
        n=st.integers(1, 60),
        p=st.integers(1, 4),
        k=st.integers(1, 8),
        seed=st.integers(0, 2**16),
    )
    def test_generated_tied_distances(self, n, p, k, seed):
        rng = np.random.default_rng(seed)
        X = rng.integers(0, 3, (n, p)).astype(float)  # tied distances
        y = rng.integers(0, 3, n)
        X_test = rng.integers(0, 3, (30, p)).astype(float)
        clf = KNNClassifier(k=k).fit(X, y)
        assert clf.predict(X_test).tobytes() == _one_row_predict(clf, X_test).tobytes()
