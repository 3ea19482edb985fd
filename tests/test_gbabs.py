"""Tests for GBABS (Algorithm 2): borderline pair detection and sampling."""
import numpy as np
import pytest

from repro.core.gbabs import (
    ball_extremes,
    borderline_pairs,
    gbabs_from_balls,
    gbabs_sample,
)
from repro.core.granular_ball import GBSet, GranularBall
from repro.core.rdgbg import rd_gbg
from repro.datasets.generators import make_blobs_classification
from repro.datasets.registry import load_dataset


def _pairs_loop(centers, labels):
    """Per-dimension lexsort loop over ``(dim, lower, upper)`` (reference)."""
    out = []
    m, p = centers.shape
    for dim in range(p):
        order = np.lexsort((np.arange(m), centers[:, dim]))
        lo, hi = order[:-1], order[1:]
        het = labels[lo] != labels[hi]
        out += [[dim, a, b] for a, b in zip(lo[het].tolist(), hi[het].tolist())]
    return out


class TestBorderlinePairs:
    def test_simple_line(self):
        # centers on a line: labels 0,0,1,1 → one heterogeneous adjacency
        centers = np.array([[0.0], [1.0], [2.0], [3.0]])
        labels = np.array([0, 0, 1, 1])
        pairs = borderline_pairs(centers, labels)
        assert pairs.tolist() == [[0, 1, 2]]

    def test_alternating_labels(self):
        centers = np.array([[0.0], [1.0], [2.0]])
        labels = np.array([0, 1, 0])
        pairs = borderline_pairs(centers, labels)
        assert pairs.tolist() == [[0, 0, 1], [0, 1, 2]]

    def test_homogeneous_no_pairs(self):
        centers = np.array([[0.0, 0.0], [1.0, 1.0]])
        assert borderline_pairs(centers, np.array([1, 1])).shape == (0, 3)

    def test_two_dims_detect_different_pairs(self):
        # along x: 0(a) then 1(b); along y: 1(b) then 0(a) — both dims report
        centers = np.array([[0.0, 1.0], [1.0, 0.0]])
        labels = np.array([0, 1])
        pairs = borderline_pairs(centers, labels).tolist()
        assert [0, 0, 1] in pairs and [1, 1, 0] in pairs

    def test_single_ball_no_pairs(self):
        assert borderline_pairs(np.array([[0.0]]), np.array([0])).shape == (0, 3)

    def test_ties_deterministic(self):
        centers = np.zeros((3, 1))  # all tied → order by ball index
        labels = np.array([0, 1, 0])
        assert borderline_pairs(centers, labels).tolist() == [[0, 0, 1], [0, 1, 2]]

    def test_matches_per_dimension_loop(self):
        """Same pairs in the same order as the lexsort loop, on tied integer centers."""
        rng = np.random.default_rng(0)
        for _ in range(300):
            m, p = rng.integers(0, 40), rng.integers(1, 5)
            centers = rng.integers(0, 5, (m, p)).astype(np.float64)
            labels = rng.integers(0, 3, m)
            assert borderline_pairs(centers, labels).tolist() == _pairs_loop(centers, labels)


class TestGbabsFromBalls:
    def _toy(self):
        # two balls: class 0 at x∈{0,1,2}, class 1 at x∈{5,6,7}
        X = np.array([[0.0], [1.0], [2.0], [5.0], [6.0], [7.0]])
        balls = [
            GranularBall(center=X[1], radius=1.0, label=0, idx=np.array([1, 0, 2])),
            GranularBall(center=X[4], radius=1.0, label=1, idx=np.array([4, 3, 5])),
        ]
        return X, GBSet(balls=balls)

    def test_facing_extremes_sampled(self):
        X, gbset = self._toy()
        idx = gbabs_from_balls(X, gbset)
        # lower ball's max (x=2) and upper ball's min (x=5)
        assert idx.tolist() == [2, 3]

    def test_no_duplicates_and_sorted(self):
        X, y, _ = load_dataset("S5")
        gbset = rd_gbg(X, y, rho=5, seed=0)
        idx = gbabs_from_balls(X, gbset)
        assert (np.diff(idx) > 0).all()

    def test_single_class_fallback_keeps_centers(self):
        X = np.random.default_rng(0).normal(0, 1, (30, 2))
        y = np.zeros(30, dtype=int)
        gbset = rd_gbg(X, y, rho=5, seed=0)
        idx = gbabs_from_balls(X, gbset)
        assert len(idx) == len(gbset)  # one per ball (the centers)

    def test_empty_ballset(self):
        assert len(gbabs_from_balls(np.empty((0, 2)), GBSet())) == 0


class TestGbabsSample:
    @pytest.mark.parametrize("name", ["S2", "S5"])
    def test_sampled_is_strict_subset(self, name):
        X, y, _ = load_dataset(name)
        idx, gbset = gbabs_sample(X, y, rho=5, seed=0)
        assert 0 < len(idx) < len(X)
        assert set(idx.tolist()) <= set(range(len(X)))

    def test_no_noise_rows_sampled(self):
        X, y, _ = load_dataset("S5", noise_ratio=0.2, noise_seed=1)
        idx, gbset = gbabs_sample(X, y, rho=5, seed=0)
        assert not set(idx.tolist()) & set(gbset.noise_idx.tolist())

    def test_sampled_rows_come_from_borderline_balls(self):
        X, y, _ = load_dataset("S5")
        idx, gbset = gbabs_sample(X, y, rho=5, seed=0)
        covered = set(np.concatenate([b.idx for b in gbset.balls]).tolist())
        assert set(idx.tolist()) <= covered

    def test_deterministic(self):
        X, y, _ = load_dataset("S2")
        a, _ = gbabs_sample(X, y, rho=5, seed=3)
        b, _ = gbabs_sample(X, y, rho=5, seed=3)
        assert np.array_equal(a, b)

    def test_low_dim_compresses_harder_than_high_dim(self):
        """Fig. 6a shape: S5 (2-d) compresses far more than S1 (15-d)."""
        Xa, ya, _ = load_dataset("S5")
        Xb, yb, _ = load_dataset("S1")
        ra = len(gbabs_sample(Xa, ya, seed=0)[0]) / len(Xa)
        rb = len(gbabs_sample(Xb, yb, seed=0)[0]) / len(Xb)
        assert ra < rb

    @pytest.mark.parametrize("noise", [0.2, 0.4])
    def test_noise_lowers_sampling_ratio_vs_retaining_all(self, noise):
        """RD-GBG noise elimination keeps the ratio bounded under noise."""
        X, y, _ = load_dataset("S5", noise_ratio=noise, noise_seed=1)
        idx, gbset = gbabs_sample(X, y, rho=5, seed=0)
        assert len(idx) / len(X) < 0.95
        assert len(gbset.noise_idx) > 0

    @pytest.mark.parametrize("rho", [3, 7, 11, 19])
    def test_rho_insensitivity_of_ratio(self, rho):
        """Fig. 10 shape: ratio varies mildly with the density tolerance."""
        X, y, _ = load_dataset("S5")
        base = len(gbabs_sample(X, y, rho=5, seed=0)[0]) / len(X)
        r = len(gbabs_sample(X, y, rho=rho, seed=0)[0]) / len(X)
        assert abs(r - base) < 0.25


# --- Extraction equivalence: ball-extreme table vs per-pair arg-max/min ---


def _oracle_extraction(X, gbset):
    """Per-pair ``argmax``/``argmin`` over each ball's members (reference)."""
    if len(gbset) == 0:
        return np.array([], dtype=np.int64)
    picked = set()
    for dim, a, b in borderline_pairs(gbset.centers(), gbset.labels()):
        ia, ib = gbset.balls[a].idx, gbset.balls[b].idx
        picked.add(int(ia[np.argmax(X[ia, dim])]))
        picked.add(int(ib[np.argmin(X[ib, dim])]))
    if not picked:
        picked = {int(b.idx[0]) for b in gbset.balls}
    return np.array(sorted(picked), dtype=np.int64)


def _assert_extremes_match(X, gbset):
    top, bot = ball_extremes(X, gbset)
    assert top.shape == bot.shape == (len(gbset), X.shape[1])
    for k, b in enumerate(gbset.balls):
        assert np.array_equal(top[k], b.idx[np.argmax(X[b.idx], axis=0)])
        assert np.array_equal(bot[k], b.idx[np.argmin(X[b.idx], axis=0)])


class TestExtractionEquivalence:
    @pytest.mark.parametrize("noise", [0.0, 0.2])
    @pytest.mark.parametrize("name", [f"S{i}" for i in range(1, 14)])
    def test_registry_matches_per_pair_oracle(self, name, noise):
        X, y, _ = load_dataset(name, noise_ratio=noise, noise_seed=1)
        gbset = rd_gbg(X, y, rho=5, seed=0)
        got = gbabs_from_balls(X, gbset)
        want = _oracle_extraction(X, gbset)
        assert got.dtype == want.dtype and np.array_equal(got, want)
        _assert_extremes_match(X, gbset)

    def test_tied_members_take_first_occurrence(self):
        # Integer grid: every ball has ties on its extremes in every dim.
        X = np.array([[0.0, 1.0], [1.0, 1.0], [1.0, 0.0], [0.0, 0.0],
                      [5.0, 5.0], [5.0, 5.0], [6.0, 4.0]])
        balls = [
            GranularBall(center=X[2], radius=1.5, label=0, idx=np.array([2, 0, 1, 3])),
            GranularBall(center=X[5], radius=1.5, label=1, idx=np.array([5, 4, 6])),
        ]
        gbset = GBSet(balls=balls)
        top, bot = ball_extremes(X, gbset)
        assert top.tolist() == [[2, 0], [6, 5]]
        assert bot.tolist() == [[0, 2], [5, 6]]
        _assert_extremes_match(X, gbset)
        assert np.array_equal(gbabs_from_balls(X, gbset), _oracle_extraction(X, gbset))

    def test_single_class_fallback_matches_oracle(self):
        X = np.random.default_rng(0).normal(0, 1, (30, 2))
        gbset = rd_gbg(X, np.zeros(30, dtype=int), rho=5, seed=0)
        got = gbabs_from_balls(X, gbset)
        assert np.array_equal(got, _oracle_extraction(X, gbset))
        assert got.tolist() == sorted(b.idx[0] for b in gbset.balls)
