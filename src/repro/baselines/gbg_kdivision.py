"""k-division granular-ball generation — the GBG stage of GGBS.

Re-implements the method the paper describes in §III-B (from Xia et al.):
start from one ball covering the dataset; while a ball's purity is below
the threshold **and** it holds more than ``2p`` samples, split it into
``k`` finer balls, where ``k`` is the number of distinct classes inside
and the initial centers are one random sample per class; each sample
joins its nearest center (single assignment pass). Ball center and
radius follow Eq. 1 (mean point, mean distance); the label is the
majority class. Unlike RD-GBG these balls may overlap and be impure —
exactly the weaknesses the paper's method is designed to fix.
"""
from __future__ import annotations

import numpy as np

from ..core.granular_ball import GBSet, GranularBall
from ..core.rdgbg import check_points

__all__ = ["k_division_gbg"]


def _make_ball(X: np.ndarray, y: np.ndarray, idx: np.ndarray) -> GranularBall:
    pts = X[idx]
    center = pts.mean(axis=0)
    radius = float(np.linalg.norm(pts - center, axis=1).mean())
    vals, counts = np.unique(y[idx], return_counts=True)
    label = int(vals[np.argmax(counts)])
    purity = float(counts.max() / counts.sum())
    return GranularBall(center=center, radius=radius, label=label, idx=idx, purity=purity)


def k_division_gbg(
    X: np.ndarray, y: np.ndarray, purity_threshold: float = 1.0, seed: int = 0
) -> GBSet:
    """Split until each ball is pure enough or small (``<= 2p`` samples).

    Raises ``ValueError`` unless ``X`` is finite and 2-D and ``y`` 1-D of
    the same length (``rd_gbg``'s checks).
    """
    X, y = check_points(X, y)
    if len(X) == 0:
        return GBSet()
    p = X.shape[1]
    rng = np.random.default_rng(seed)
    done: list[GranularBall] = []
    queue: list[np.ndarray] = [np.arange(len(X))]
    while queue:
        idx = queue.pop()
        ball = _make_ball(X, y, idx)
        if ball.purity >= purity_threshold or len(idx) <= 2 * p:
            done.append(ball)
            continue
        classes = np.unique(y[idx])
        centers = np.stack(
            [X[rng.choice(idx[y[idx] == c])] for c in classes]
        )
        d2 = ((X[idx][:, None, :] - centers[None, :, :]) ** 2).sum(-1)
        assign = np.argmin(d2, axis=1)
        parts = [idx[assign == k] for k in range(len(classes))]
        parts = [q for q in parts if len(q)]
        if len(parts) <= 1:  # degenerate draw (duplicate points): stop splitting
            done.append(ball)
            continue
        queue.extend(parts)
    return GBSet(balls=done)
