"""Tests for RD-GBG (Algorithm 1): purity, non-overlap, completeness."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.gbabs import gbabs_sample
from repro.core.granular_ball import GBSet, GranularBall
from repro.core.rdgbg import rd_gbg
from repro.datasets.generators import make_blobs_classification
from repro.datasets.registry import load_dataset
from repro.stats.crossval import stratified_kfold


def _blobs(n=300, p=3, q=3, sep=3.0, seed=0):
    return make_blobs_classification(
        n_samples=n, n_features=p, n_classes=q, class_sep=sep, seed=seed
    )


class TestInvariants:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_balls_are_pure(self, seed):
        X, y = _blobs(seed=seed)
        gbset = rd_gbg(X, y, rho=5, seed=seed)
        for b in gbset.balls:
            assert (y[b.idx] == b.label).all()

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_no_overlap(self, seed):
        X, y = _blobs(seed=seed)
        gbset = rd_gbg(X, y, rho=5, seed=seed)
        C, R = gbset.centers(), np.array([b.radius for b in gbset.balls])
        d = np.linalg.norm(C[:, None, :] - C[None, :, :], axis=-1)
        lim = R[:, None] + R[None, :]
        np.fill_diagonal(d, np.inf)
        assert (d >= lim - 1e-9).all()

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_completeness_partition(self, seed):
        """Every row is in exactly one ball or flagged as noise."""
        X, y = _blobs(seed=seed)
        gbset = rd_gbg(X, y, rho=5, seed=seed)
        counts = np.zeros(len(X), dtype=int)
        for b in gbset.balls:
            counts[b.idx] += 1
        counts[gbset.noise_idx] += 1
        assert (counts == 1).all()

    def test_members_within_radius(self):
        X, y = _blobs(seed=3)
        gbset = rd_gbg(X, y, rho=5, seed=3)
        for b in gbset.balls:
            d = np.linalg.norm(X[b.idx] - b.center, axis=1)
            assert (d <= b.radius + 1e-9).all()

    def test_center_is_a_real_sample(self):
        X, y = _blobs(seed=4)
        gbset = rd_gbg(X, y, rho=5, seed=4)
        for b in gbset.balls:
            assert np.allclose(X[b.idx[0]], b.center)

    def test_deterministic_in_seed(self):
        X, y = _blobs(seed=5)
        a = rd_gbg(X, y, rho=5, seed=9)
        b = rd_gbg(X, y, rho=5, seed=9)
        assert len(a) == len(b)
        for ba, bb in zip(a.balls, b.balls):
            assert np.array_equal(ba.idx, bb.idx)
            assert ba.radius == bb.radius

    def test_orphan_balls_have_zero_radius_and_one_sample(self):
        X, y = _blobs(n=100, sep=0.5, seed=6)  # heavy overlap → orphans
        gbset = rd_gbg(X, y, rho=5, seed=6)
        orphans = [b for b in gbset.balls if b.radius == 0.0]
        assert orphans, "low-separation data should produce orphan balls"
        for b in orphans:
            assert b.n_samples == 1


class TestNoiseDetection:
    def test_isolated_flipped_label_removed_as_noise(self):
        """A single flipped label deep inside the other class is eliminated."""
        rng = np.random.default_rng(0)
        X0 = rng.normal(0, 0.3, (60, 2))
        X1 = rng.normal(5, 0.3, (60, 2))
        X = np.vstack([X0, X1])
        y = np.array([0] * 60 + [1] * 60)
        y[0] = 1  # class noise inside cluster 0
        found = False
        for seed in range(10):
            gbset = rd_gbg(X, y, rho=5, seed=seed)
            if 0 in gbset.noise_idx:
                found = True
                break
        assert found, "flipped sample should be detected as noise for some seed"

    @pytest.mark.parametrize("noise_ratio", [0.1, 0.3])
    def test_more_noise_more_eliminations(self, noise_ratio):
        X, y, _ = load_dataset("S5", noise_ratio=noise_ratio, noise_seed=1)
        gbset = rd_gbg(X, y, rho=5, seed=0)
        clean = rd_gbg(*load_dataset("S5")[:2], rho=5, seed=0)
        assert len(gbset.noise_idx) > len(clean.noise_idx)

    def test_clean_well_separated_data_keeps_everything(self):
        X, y = _blobs(n=200, sep=8.0, seed=7)
        gbset = rd_gbg(X, y, rho=5, seed=7)
        assert len(gbset.noise_idx) <= 2  # essentially nothing flagged


class TestEdgesAndValidation:
    def test_empty_input(self):
        gbset = rd_gbg(np.empty((0, 2)), np.empty(0, dtype=int))
        assert len(gbset) == 0

    def test_single_class(self):
        X = np.random.default_rng(0).normal(0, 1, (50, 2))
        y = np.zeros(50, dtype=int)
        gbset = rd_gbg(X, y, rho=5, seed=0)
        assert np.unique(np.concatenate([b.idx for b in gbset.balls])).tolist() == list(range(50))
        # one diffusion ball should swallow (nearly) everything
        assert len(gbset) < 50

    def test_two_samples(self):
        X = np.array([[0.0, 0.0], [1.0, 1.0]])
        gbset = rd_gbg(X, np.array([0, 1]), rho=5, seed=0)
        assert np.unique(np.concatenate([b.idx for b in gbset.balls])).tolist() == [0, 1]

    def test_rho_validation(self):
        X, y = _blobs(n=50)
        with pytest.raises(ValueError):
            rd_gbg(X, y, rho=1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_features_raise(self, bad):
        X, y = _blobs(n=50)
        X[7, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            rd_gbg(X, y)

    def test_length_mismatch_raises(self):
        X, y = _blobs(n=50)
        with pytest.raises(ValueError, match="rows"):
            rd_gbg(X, y[:-1])

    def test_one_dimensional_X_raises(self):
        X, y = _blobs(n=50)
        with pytest.raises(ValueError, match="2-D"):
            rd_gbg(X[:, 0], y)

    def test_two_dimensional_y_raises(self):
        X, y = _blobs(n=50)
        with pytest.raises(ValueError, match="1-D"):
            rd_gbg(X, y[:, None])

    @pytest.mark.parametrize("rho", [2.5, 5.0, "5", True])
    def test_non_integer_rho_raises(self, rho):
        X, y = _blobs(n=50)
        with pytest.raises(ValueError, match="integer >= 2"):
            rd_gbg(X, y, rho=rho)

    def test_fractional_labels_raise(self):
        """int() would merge 0.2 and 0.7 into one class."""
        X, y = _blobs(n=200, q=2)
        with pytest.raises(ValueError, match="integer class codes"):
            rd_gbg(X, np.where(y == 0, 0.2, 0.7))

    def test_non_finite_labels_raise(self):
        X, y = _blobs(n=50)
        labels = y.astype(float)
        labels[3] = np.nan
        with pytest.raises(ValueError, match="integer class codes"):
            rd_gbg(X, labels)

    def test_string_labels_raise(self):
        X, y = _blobs(n=50)
        with pytest.raises(ValueError, match="integer class codes"):
            rd_gbg(X, np.array(["a", "b"])[y % 2])

    @pytest.mark.parametrize("dtype", [np.float64, np.int32, np.uint8, np.bool_])
    def test_integer_valued_labels_of_any_dtype_still_work(self, dtype):
        X, y = _blobs(n=200, q=3, seed=1)
        labels = y.astype(dtype)
        _assert_same_gbset(rd_gbg(X, labels, seed=1), _rd_gbg_full_sort(X, labels, seed=1))

    @pytest.mark.parametrize("rho", [3, 5, 9, 15])
    def test_any_rho_keeps_invariants(self, rho):
        X, y = _blobs(n=200, seed=8)
        gbset = rd_gbg(X, y, rho=rho, seed=8)
        for b in gbset.balls:
            assert (y[b.idx] == b.label).all()
        counts = np.zeros(len(X), dtype=int)
        for b in gbset.balls:
            counts[b.idx] += 1
        counts[gbset.noise_idx] += 1
        assert (counts == 1).all()


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(min_value=5, max_value=80),
    p=st.integers(min_value=1, max_value=4),
    q=st.integers(min_value=1, max_value=3),
    seed=st.integers(min_value=0, max_value=10_000),
    levels=st.none() | st.integers(min_value=2, max_value=4),
)
def test_property_invariants_random_data(n, p, q, seed, levels):
    """Purity, partition, non-overlap, seed determinism and noise never
    sampled, on random data; ``levels`` draws X from a small integer grid
    so duplicate points and tied distances occur."""
    rng = np.random.default_rng(seed)
    X = rng.random((n, p)) if levels is None else rng.integers(0, levels, (n, p)) * 1.0
    y = rng.integers(0, q, n)
    gbset = rd_gbg(X, y, rho=5, seed=seed)
    sampled, again = gbabs_sample(X, y, rho=5, seed=seed)  # a second rd_gbg, same seed
    assert len(again) == len(gbset)
    for a, b in zip(again.balls, gbset.balls):
        assert np.array_equal(a.idx, b.idx) and np.array_equal(a.center, b.center)
        assert a.radius == b.radius and a.label == b.label
    assert np.array_equal(again.noise_idx, gbset.noise_idx)
    assert not np.isin(sampled, gbset.noise_idx).any()
    counts = np.zeros(n, dtype=int)
    for b in gbset.balls:
        assert (y[b.idx] == b.label).all()
        counts[b.idx] += 1
    counts[gbset.noise_idx] += 1
    assert (counts == 1).all()
    C, R = gbset.centers(), np.array([b.radius for b in gbset.balls])
    d = np.linalg.norm(C[:, None, :] - C[None, :, :], axis=-1)
    np.fill_diagonal(d, np.inf)
    assert (d >= (R[:, None] + R[None, :]) - 1e-9).all()


# --------------------------------------------------- full-sort oracle

def _rd_gbg_full_sort(X, y, rho=5, seed=0):
    """Algorithm 1 as a full stable sort of every neighbour per candidate.

    The loop ``rd_gbg`` replaced, kept as the reference its prefix kernel
    must match bit for bit (validation trimmed to what the cases need).
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y)
    n = len(X)
    if n == 0:
        return GBSet()
    rng = np.random.default_rng(seed)
    in_U = np.ones(n, dtype=bool)
    in_L = np.zeros(n, dtype=bool)
    is_noise = np.zeros(n, dtype=bool)
    balls = []
    centers, radii = [], []
    while True:
        t_idx = np.flatnonzero(in_U & ~in_L)
        if len(t_idx) == 0:
            break
        classes, counts = np.unique(y[t_idx], return_counts=True)
        order = np.argsort(-counts, kind="stable")
        candidates = [int(rng.choice(t_idx[y[t_idx] == classes[k]])) for k in order]
        for c in candidates:
            if not in_U[c] or in_L[c]:
                continue
            u_idx = np.flatnonzero(in_U)
            u_idx = u_idx[u_idx != c]
            if len(u_idx) == 0:
                in_L[c] = True
                continue
            d = np.linalg.norm(X[u_idx] - X[c], axis=1)
            o = np.argsort(d, kind="stable")
            nbr, nbr_d = u_idx[o], d[o]
            if y[nbr[0]] != y[c]:
                k = min(rho, len(nbr))
                h = int((y[nbr[:k]] != y[c]).sum())
                if h == k and k < rho:
                    in_L[c] = True
                    continue
                if h == rho:
                    in_U[c] = False
                    is_noise[c] = True
                    continue
                if h == 1 and k >= 2:
                    nn = nbr[0]
                    in_U[nn] = False
                    in_L[nn] = False
                    is_noise[nn] = True
                    nbr, nbr_d = nbr[1:], nbr_d[1:]
                    if len(nbr) == 0:
                        in_L[c] = True
                        continue
                else:
                    in_L[c] = True
                    continue
            hetero = y[nbr] != y[c]
            omega = int(np.argmax(hetero)) if hetero.any() else len(nbr)
            if omega == 0:
                in_L[c] = True
                continue
            cr = float(nbr_d[omega - 1])
            if centers:
                cd = np.linalg.norm(np.stack(centers) - X[c], axis=1)
                r_conf = float(np.min(cd - np.array(radii)))
            else:
                r_conf = np.inf
            if cr <= r_conf:
                r = cr
            else:
                ok = nbr_d[:omega] <= r_conf
                r = float(nbr_d[:omega][ok][-1]) if ok.any() else 0.0
            if r > 0.0:
                m = min(int(np.searchsorted(nbr_d, r, side="right")), omega)
                members = np.concatenate([[c], nbr[:m]])
                balls.append(
                    GranularBall(center=X[c].copy(), radius=r, label=int(y[c]), idx=members)
                )
                centers.append(X[c])
                radii.append(r)
                in_U[members] = False
                in_L[members] = False
            else:
                in_L[c] = True
    for i in np.flatnonzero(in_U):
        balls.append(
            GranularBall(center=X[i].copy(), radius=0.0, label=int(y[i]), idx=np.array([i]))
        )
    return GBSet(balls=balls, noise_idx=np.flatnonzero(is_noise))


def _assert_same_gbset(got, want):
    """Same balls in the same order, equal bit for bit, and same noise rows."""
    assert len(got) == len(want)
    for i, (a, b) in enumerate(zip(got.balls, want.balls)):
        assert a.idx.dtype == b.idx.dtype and np.array_equal(a.idx, b.idx), i
        assert a.center.dtype == b.center.dtype, i
        assert a.center.tobytes() == b.center.tobytes(), i
        assert type(a.radius) is type(b.radius) and a.radius == b.radius, i
        assert type(a.label) is type(b.label) and a.label == b.label, i
    assert got.noise_idx.dtype == want.noise_idx.dtype
    assert np.array_equal(got.noise_idx, want.noise_idx)


class TestRDGBGEquivalence:
    @pytest.mark.parametrize("noise", [0.0, 0.2, 0.4])
    @pytest.mark.parametrize("dataset", [f"S{i}" for i in range(1, 14)])
    def test_registry_fold0(self, dataset, noise):
        X, y, _ = load_dataset(dataset, noise_ratio=noise, noise_seed=0)
        tr, _ = stratified_kfold(y, n_splits=2, seed=0)[0]
        _assert_same_gbset(rd_gbg(X[tr], y[tr], 5, 0), _rd_gbg_full_sort(X[tr], y[tr], 5, 0))

    @settings(max_examples=300, deadline=None)
    @given(
        n=st.integers(1, 150),
        p=st.integers(1, 5),
        q=st.integers(1, 4),
        rho=st.integers(2, 8),
        levels=st.none() | st.integers(2, 4),
        seed=st.integers(0, 2**16),
    )
    def test_generated_inputs(self, n, p, q, rho, levels, seed):
        """``levels`` draws X from a small integer grid: duplicate points
        and tied distances, where only the row index orders neighbours."""
        rng = np.random.default_rng(seed)
        X = rng.random((n, p)) if levels is None else rng.integers(0, levels, (n, p)) * 1.0
        y = rng.integers(0, q, n)
        _assert_same_gbset(rd_gbg(X, y, rho, seed), _rd_gbg_full_sort(X, y, rho, seed))
