"""Benchmarks for the classifier layer alone (no sampling, no Spark).

One training fold of the 32-d, 10-class S13 analog, as the grid's fold
task 0 of 5 sees it; CART, the random forest and the two GBDTs are the
fits the Table II and Table IV grids spend most of their classifier time
in.
"""
import pytest

from repro.classifiers.forest import RandomForestClassifier
from repro.classifiers.gbdt import LightGBMLikeClassifier, XGBoostLikeClassifier
from repro.classifiers.tree import DecisionTreeClassifier
from repro.datasets.registry import load_dataset
from repro.stats.crossval import stratified_kfold


@pytest.fixture(scope="module")
def s13_train():
    X, y, _ = load_dataset("S13")
    tr, _ = stratified_kfold(y, n_splits=5, seed=0)[0]
    return X[tr], y[tr]


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
    assert len(clf._trees) == 30


@pytest.mark.parametrize("cls", [XGBoostLikeClassifier, LightGBMLikeClassifier])
def test_bench_gbdt_fit(benchmark, s13_train, cls):
    """30 softmax boosting rounds, one tree per class per round (default limits)."""
    X, y = s13_train
    clf = benchmark.pedantic(cls().fit, args=(X, y), rounds=3, iterations=1)
    assert len(clf._trees) == 30
