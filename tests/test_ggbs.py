"""Tests for the GGBS undersampling baseline."""
import numpy as np
import pytest

from repro.baselines.gbg_kdivision import k_division_gbg
from repro.baselines.ggbs import ggbs, ggbs_indices
from repro.datasets.generators import make_blobs_classification
from repro.datasets.registry import load_dataset


def _blobs(n=500, p=3, q=2, sep=3.0, seed=0):
    return make_blobs_classification(
        n_samples=n, n_features=p, n_classes=q, class_sep=sep, seed=seed
    )


class TestGGBS:
    def test_returns_subset(self):
        X, y = _blobs()
        Xs, ys = ggbs(X, y, seed=0)
        assert 0 < len(Xs) <= len(X)

    def test_small_balls_fully_kept(self):
        X, y = _blobs(seed=1)
        p = X.shape[1]
        idx, gbset = ggbs_indices(X, y, seed=1)
        chosen = set(idx.tolist())
        for b in gbset.balls:
            if b.n_samples <= 2 * p:
                assert set(b.idx.tolist()) <= chosen

    def test_large_balls_keep_at_most_2p(self):
        X, y = _blobs(seed=2)
        p = X.shape[1]
        idx, gbset = ggbs_indices(X, y, seed=2)
        chosen = set(idx.tolist())
        for b in gbset.balls:
            if b.n_samples > 2 * p:
                kept = chosen & set(b.idx.tolist())
                # axis-intersection rule picks at most 2p per large ball
                # (a sample may also be kept via another small ball)
                assert len(kept) <= 2 * p + 2

    def test_large_ball_picks_are_homogeneous(self):
        X, y = _blobs(seed=3)
        p = X.shape[1]
        idx, gbset = ggbs_indices(X, y, seed=3)
        small_rows = set()
        for b in gbset.balls:
            if b.n_samples <= 2 * p:
                small_rows |= set(b.idx.tolist())
        for b in gbset.balls:
            if b.n_samples > 2 * p:
                for i in set(idx.tolist()) & set(b.idx.tolist()) - small_rows:
                    assert y[i] == b.label

    def test_deterministic(self):
        X, y = _blobs(seed=4)
        a = ggbs(X, y, seed=7)[1]
        b = ggbs(X, y, seed=7)[1]
        assert np.array_equal(a, b)

    def test_compression_fails_on_high_dim_like_paper(self):
        """§V-B: GGBS ratio ≈ 1.0 on the high-dim S7 analog (its defect)."""
        X, y, _ = load_dataset("S7")
        Xs, _ = ggbs(X, y, seed=0)
        assert len(Xs) / len(X) > 0.9
