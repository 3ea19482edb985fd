"""GGBS undersampling (§III-B of the paper; Xia et al. TNNLS'23).

GGBS runs on the k-division ball set. A ball is *small* if it holds at
most ``2p`` samples, else *large*. Keep every sample of small balls;
from each large ball keep, for each of the ``2p`` intersection points of
the ball surface with the coordinate axes through its center
(``c ± r·e_j``), the homogeneous sample (label == ball label) closest to
that point.
"""
from __future__ import annotations

import numpy as np

from ..core.granular_ball import GBSet, GranularBall
from .gbg_kdivision import k_division_gbg

__all__ = ["ggbs_indices", "ggbs"]


def _axis_samples(X: np.ndarray, ball: GranularBall, y: np.ndarray) -> np.ndarray:
    """GGBS's 2p picks for one large ball (deduplicated)."""
    p = X.shape[1]
    homo = ball.idx[y[ball.idx] == ball.label]
    if len(homo) == 0:  # possible when purity threshold < 0.5 edge cases
        return np.array([], dtype=np.int64)
    pts = X[homo]
    picked = set()
    for j in range(p):
        for sign in (1.0, -1.0):
            target = ball.center.copy()
            target[j] += sign * ball.radius
            d2 = ((pts - target) ** 2).sum(1)
            picked.add(int(homo[np.argmin(d2)]))
    return np.array(sorted(picked), dtype=np.int64)


def ggbs_indices(
    X: np.ndarray, y: np.ndarray, purity_threshold: float = 1.0, seed: int = 0
) -> tuple[np.ndarray, GBSet]:
    """Sampled row indices under GGBS plus the ball set used."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y)
    gbset = k_division_gbg(X, y, purity_threshold=purity_threshold, seed=seed)
    p = X.shape[1]
    picked: list[np.ndarray] = []
    for ball in gbset.balls:
        if ball.n_samples <= 2 * p:
            picked.append(ball.idx)
        else:
            picked.append(_axis_samples(X, ball, y))
    idx = np.unique(np.concatenate(picked)) if picked else np.array([], dtype=np.int64)
    return idx, gbset


def ggbs(
    X: np.ndarray, y: np.ndarray, purity_threshold: float = 1.0, seed: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    idx, _ = ggbs_indices(X, y, purity_threshold, seed)
    return X[idx], y[idx]
