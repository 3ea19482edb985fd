"""Tests for the k-division GBG baseline (GGBS granulation stage)."""
import numpy as np
import pytest

from repro.baselines.gbg_kdivision import k_division_gbg
from repro.datasets.generators import make_blobs_classification
from repro.datasets.registry import load_dataset


def _blobs(n=400, p=4, q=3, sep=3.0, seed=0):
    return make_blobs_classification(
        n_samples=n, n_features=p, n_classes=q, class_sep=sep, seed=seed
    )


def test_covers_every_sample_exactly_once():
    X, y = _blobs()
    gbset = k_division_gbg(X, y, seed=0)
    counts = np.zeros(len(X), dtype=int)
    for b in gbset.balls:
        counts[b.idx] += 1
    assert (counts == 1).all()


def test_stop_condition_purity_or_small():
    X, y = _blobs()
    p = X.shape[1]
    gbset = k_division_gbg(X, y, purity_threshold=1.0, seed=0)
    for b in gbset.balls:
        assert b.purity >= 1.0 or b.n_samples <= 2 * p


@pytest.mark.parametrize("thr", [0.8, 0.9, 1.0])
def test_threshold_respected(thr):
    X, y = _blobs(seed=1)
    p = X.shape[1]
    for b in k_division_gbg(X, y, purity_threshold=thr, seed=1).balls:
        assert b.purity >= thr or b.n_samples <= 2 * p


def test_eq1_center_and_radius():
    """Ball geometry follows Eq. 1: mean center, mean-distance radius."""
    X, y = _blobs(seed=2)
    gbset = k_division_gbg(X, y, seed=2)
    big = max(gbset.balls, key=lambda b: b.n_samples)
    pts = X[big.idx]
    assert np.allclose(big.center, pts.mean(axis=0))
    assert np.isclose(big.radius, np.linalg.norm(pts - big.center, axis=1).mean())


def test_label_is_majority():
    X, y = _blobs(seed=3)
    for b in k_division_gbg(X, y, seed=3).balls:
        vals, counts = np.unique(y[b.idx], return_counts=True)
        assert b.label == vals[np.argmax(counts)]


def test_deterministic_in_seed():
    X, y = _blobs(seed=4)
    a = k_division_gbg(X, y, seed=9)
    b = k_division_gbg(X, y, seed=9)
    assert len(a) == len(b)
    assert all(np.array_equal(x.idx, z.idx) for x, z in zip(a.balls, b.balls))


def test_overlap_exists_on_real_data():
    """The baseline's known defect the paper fixes: balls may overlap."""
    X, y, _ = load_dataset("S5")
    gbset = k_division_gbg(X, y, seed=0)
    C, R = gbset.centers(), np.array([b.radius for b in gbset.balls])
    d = np.linalg.norm(C[:, None, :] - C[None, :, :], axis=-1)
    np.fill_diagonal(d, np.inf)
    assert (d < (R[:, None] + R[None, :])).any()


def test_empty_input():
    assert len(k_division_gbg(np.empty((0, 3)), np.empty(0, dtype=int))) == 0


def test_pure_input_single_ball():
    X = np.random.default_rng(0).normal(0, 1, (100, 3))
    y = np.zeros(100, dtype=int)
    gbset = k_division_gbg(X, y, seed=0)
    assert len(gbset) == 1 and gbset.balls[0].purity == 1.0


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_features_raise(bad):
    X, y = _blobs()
    X[3, 2] = bad
    with pytest.raises(ValueError, match="finite"):
        k_division_gbg(X, y)


def test_non_2d_features_raise():
    X, y = _blobs()
    with pytest.raises(ValueError, match="2-D"):
        k_division_gbg(X[:, 0], y)


def test_2d_labels_raise():
    X, y = _blobs()
    with pytest.raises(ValueError, match="1-D"):
        k_division_gbg(X, y[:, None])


def test_length_mismatch_raises():
    X, y = _blobs()
    with pytest.raises(ValueError, match="rows"):
        k_division_gbg(X, y[:-1])
