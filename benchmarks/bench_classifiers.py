"""Benchmarks for the classifier layer alone (no Spark).

Two inputs. One fold of the 32-d, 10-class S13 analog, as the grid's
fold task 0 of 5 sees it; CART, the random forest and the two GBDTs are
the fits the Table II and Table IV grids spend most of their classifier
time in, and the four tree models predict its test fold through one
router. And S1's GBABS-sampled training set of a 2-fold split
at 20% noise (about 320 x 15), the size the Table IV grid trains its
random forest and kNN on.
"""
import pytest

from repro.classifiers import make_classifier
from repro.classifiers.forest import RandomForestClassifier
from repro.classifiers.gbdt import LightGBMLikeClassifier, XGBoostLikeClassifier
from repro.classifiers.knn import KNNClassifier
from repro.classifiers.tree import DecisionTreeClassifier
from repro.core.gbabs import gbabs_sample
from repro.datasets.registry import load_dataset
from repro.stats.crossval import stratified_kfold


@pytest.fixture(scope="module")
def s13_fold():
    X, y, _ = load_dataset("S13")
    tr, te = stratified_kfold(y, n_splits=5, seed=0)[0]
    return X[tr], y[tr], X[te]


@pytest.fixture(scope="module")
def s13_train(s13_fold):
    X, y, _ = s13_fold
    return X, y


@pytest.fixture(scope="module")
def s1_gbabs():
    """(sampled X, sampled y, test X) of S1's 2-fold task 0 at 20% noise."""
    X, y, _ = load_dataset("S1", noise_ratio=0.2, noise_seed=0)
    tr, te = stratified_kfold(y, n_splits=2, seed=0)[0]
    idx, _ = gbabs_sample(X[tr], y[tr], rho=5, seed=0)
    return X[tr][idx], y[tr][idx], X[te]


def test_bench_dt_fit(benchmark, s13_train):
    """CART grown to purity on S13's training fold (1600 x 32, q = 10)."""
    X, y = s13_train
    clf = benchmark(DecisionTreeClassifier(seed=0).fit, X, y)
    assert (clf.predict(X) == y).all()


def test_bench_rf_fit(benchmark, s13_train):
    """Random forest (30 bootstrap trees, sqrt(p) features per split)."""
    X, y = s13_train
    clf = benchmark.pedantic(
        RandomForestClassifier(seed=0).fit, args=(X, y), rounds=3, iterations=1
    )
    assert len(clf._table.roots) == 30


@pytest.mark.parametrize("cls", [XGBoostLikeClassifier, LightGBMLikeClassifier])
def test_bench_gbdt_fit(benchmark, s13_train, cls):
    """30 softmax boosting rounds, one tree per class per round (default limits)."""
    X, y = s13_train
    clf = benchmark.pedantic(cls().fit, args=(X, y), rounds=3, iterations=1)
    assert len(clf._table.roots) == 30 * 10


def test_bench_rf_fit_gbabs_s1(benchmark, s1_gbabs):
    """Random forest on a GBABS-sampled S1 training set, as Table IV fits it."""
    X, y, _ = s1_gbabs
    clf = benchmark(RandomForestClassifier(seed=0).fit, X, y)
    assert len(clf._table.roots) == 30


@pytest.mark.parametrize("name", ["DT", "RF", "XGBoost", "LightGBM"])
def test_bench_tree_predict(benchmark, s13_fold, name):
    """A tree model's ``predict_proba`` of S13's test fold (400 x 32)."""
    X, y, X_test = s13_fold
    clf = make_classifier(name, seed=0).fit(X, y)
    proba = benchmark(clf.predict_proba, X_test)
    assert proba.shape == (len(X_test), 10)


def test_bench_knn_predict_gbabs_s1(benchmark, s1_gbabs):
    """kNN (k = 5) predicting S1's test fold from its GBABS-sampled training set."""
    X, y, X_test = s1_gbabs
    clf = KNNClassifier(k=5).fit(X, y)
    pred = benchmark(clf.predict, X_test)
    assert len(pred) == len(X_test)
