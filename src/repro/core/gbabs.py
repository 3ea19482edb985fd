"""GBABS: GB-based approximate borderline sampling (Alg. 2).

Given the ball set from RD-GBG, ball *centers* stand in for ball
positions. Along every feature dimension the centers are sorted; an
adjacent pair with different labels marks both balls as **borderline**
(heterogeneous-nearest-neighbour idea, §IV-C). From each such pair the
two facing extreme samples are taken: the arg-max of that feature in the
lower ball and the arg-min in the upper ball — the samples closest to
the class boundary along that axis. The union over all dimensions (no
duplicates) is the sampled dataset.

Both facing extremes of a ball depend only on the ball and the dimension,
so ``ball_extremes`` computes them once for every ball and dimension: a
``(n_balls, p)`` table of first-occurrence arg-max rows (``top``) and one
of arg-min rows (``bot``), with segmented ``reduceat`` passes over the
concatenated members. Extraction is then one gather of ``top[lower, dim]``
and ``bot[upper, dim]`` over all borderline pairs. The distributed variant
(``spark_gbabs``) ships the same table per shard.
"""
from __future__ import annotations

import numpy as np

from .granular_ball import GBSet
from .rdgbg import rd_gbg

__all__ = ["ball_extremes", "borderline_pairs", "gbabs_from_balls", "gbabs_sample"]


def borderline_pairs(centers: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """All adjacent heterogeneous pairs, as ``(n_pairs, 3)`` int rows
    ``(dim, lower_ball, upper_ball)`` in dimension-major order.

    Adjacency is in the sorted order of center coordinates per dimension;
    ties are broken by ball index (a stable sort) so the result is
    deterministic.
    """
    order = np.argsort(centers, axis=0, kind="stable")
    lo, hi = order[:-1], order[1:]
    dim, i = np.nonzero((labels[lo] != labels[hi]).T)
    return np.stack([dim, lo[i, dim], hi[i, dim]], axis=1)


def ball_extremes(X: np.ndarray, gbset: GBSet) -> tuple[np.ndarray, np.ndarray]:
    """Per ball and dimension, the rows holding the max and the min value.

    Returns ``(top, bot)``, each ``(n_balls, p)`` int64 row indices into
    ``X``: ``top[b, d]`` is ``idx[np.argmax(X[idx, d])]`` for ball ``b``'s
    member rows ``idx`` and ``bot[b, d]`` the same with ``argmin`` — the
    first member in ``idx`` order that attains the extreme.
    """
    rows = np.concatenate([b.idx for b in gbset.balls])
    sizes = np.array([len(b.idx) for b in gbset.balls])
    starts = np.concatenate(([0], np.cumsum(sizes)[:-1]))
    V = X[rows]  # (members, p), each ball's members contiguous
    pos = np.arange(len(rows))[:, None]
    none = len(rows)

    def first(reduce: np.ufunc) -> np.ndarray:
        hit = V == np.repeat(reduce.reduceat(V, starts, axis=0), sizes, axis=0)
        return rows[np.minimum.reduceat(np.where(hit, pos, none), starts, axis=0)]

    return first(np.maximum), first(np.minimum)


def gbabs_from_balls(X: np.ndarray, gbset: GBSet) -> np.ndarray:
    """Borderline sample rows (sorted, unique) for a pre-built ball set."""
    if len(gbset) == 0:
        return np.array([], dtype=np.int64)
    pairs = borderline_pairs(gbset.centers(), gbset.labels())
    if len(pairs) == 0:
        # Degenerate single-class input: no boundary exists. Keep one
        # representative (the center) per ball so downstream training has
        # data; documented deviation for a case the paper never hits.
        return np.unique([b.idx[0] for b in gbset.balls]).astype(np.int64)
    dim, lo, hi = pairs.T
    top, bot = ball_extremes(X, gbset)
    # lower ball's max facing up, upper ball's min facing down
    return np.unique(np.concatenate([top[lo, dim], bot[hi, dim]])).astype(np.int64)


def gbabs_sample(
    X: np.ndarray, y: np.ndarray, rho: int = 5, seed: int = 0
) -> tuple[np.ndarray, GBSet]:
    """Full Algorithm 2: RD-GBG then borderline extraction.

    Returns ``(sampled_row_indices, ball_set)``; the sampled dataset is
    ``X[idx], y[idx]`` and the sampling ratio ``len(idx) / len(X)``.
    """
    gbset = rd_gbg(X, y, rho=rho, seed=seed)
    return gbabs_from_balls(np.asarray(X, dtype=np.float64), gbset), gbset
