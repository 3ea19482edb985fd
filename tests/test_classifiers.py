"""Tests for the from-scratch classifier substrate."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.classifiers import CLASSIFIER_NAMES, make_classifier
from repro.classifiers.forest import RandomForestClassifier
from repro.classifiers.gbdt import LightGBMLikeClassifier, XGBoostLikeClassifier
from repro.classifiers.knn import KNNClassifier
from repro.classifiers.tree import DecisionTreeClassifier
from repro.datasets.generators import make_blobs_classification
from repro.datasets.registry import load_dataset


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


class TestDecisionTree:
    def test_pure_fit_memorises_training_set(self):
        X, y = _easy(n=200)
        clf = DecisionTreeClassifier().fit(X, y)
        assert (clf.predict(X) == y).mean() == 1.0

    def test_max_depth_limits_tree(self):
        X, y = _easy(n=300)
        stump = DecisionTreeClassifier(max_depth=1).fit(X, y)
        root = stump._root
        assert root.left is not None and root.left.left is None

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
        assert clf._root.left is None  # unsplittable → leaf


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
        assert len(clf._trees) == 5


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


def _preorder(clf):
    out, stack = [], [clf._root]
    while stack:
        node = stack.pop()
        out.append([node.feature, node.threshold, node.proba])
        if node.left is not None:
            stack += [node.right, node.left]
    return out


def _assert_same_tree(got, want):
    assert len(got) == len(want)
    for (f, t, pr), (fo, to, pro) in zip(got, want):
        assert f == fo and t == to
        assert pr.shape == pro.shape and pr.tobytes() == pro.tobytes()


def _check_tree(X, y, **kw):
    clf = DecisionTreeClassifier(**kw).fit(X, y)
    _assert_same_tree(_preorder(clf), _oracle_tree(X, y, **kw))


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
        for t, tree in enumerate(forest._trees):
            idx = rng.integers(0, len(X), len(X))  # bootstrap, with duplicates
            want = _oracle_tree(X[idx], y[idx], max_features=k, seed=seed * 1000 + t)
            _assert_same_tree(_preorder(tree), want)

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
        _check_tree(X, y, max_features=max_features, seed=seed)


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
    assert clf._root.left is not None
    assert (clf.predict(X) == y).all()
