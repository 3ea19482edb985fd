"""RD-GBG: restricted diffusion-based granular-ball generation (Alg. 1).

Covers a labelled dataset with pure, non-overlapping granular balls:

1. **Local-density centers** (§IV-B1): one random candidate per class of
   the still-undivided, non-low-density samples (larger classes first).
   A candidate whose nearest undivided neighbour is heterogeneous is
   triaged by the heterogeneity count ``h`` among its ρ nearest
   neighbours (Eq. 2): ``h == ρ`` → the candidate is class noise and is
   *eliminated*; ``h == 1`` → the nearest neighbour is the noise and is
   eliminated, the candidate stays a center; ``1 < h < ρ`` → the
   candidate is low-density and is shelved to ``L``.
2. **Restricted diffusion** (§IV-B2): the ball grows from the center to
   the locally-consistent radius ``CR`` (distance to the ω-th neighbour
   where the (ω+1)-th is the first heterogeneous one, Eq. 3), clipped by
   the conflict radius to the nearest existing ball (Eq. 4–6) so balls
   never overlap. A zero radius shelves the center to ``L``.
3. Iterate until every undivided sample is low-density (``U ⊆ L``), then
   materialise each leftover as an **orphan ball** of radius 0 —
   completeness: every non-noise sample ends up in exactly one ball.
"""
from __future__ import annotations

import numpy as np

from .granular_ball import GBSet, GranularBall

__all__ = ["rd_gbg"]


def rd_gbg(X: np.ndarray, y: np.ndarray, rho: int = 5, seed: int = 0) -> GBSet:
    """Run Algorithm 1 on ``(X, y)`` with density tolerance ``rho``.

    Returns a :class:`GBSet` whose balls partition the non-noise rows.
    Deterministic in ``seed`` (candidate centers are drawn from a local
    generator).
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y)
    n = len(X)
    if n != len(y):
        raise ValueError(f"X has {n} rows but y has {len(y)} labels")
    if not np.isfinite(X).all():
        raise ValueError("features must be finite (no NaN or inf)")
    if n == 0:
        return GBSet()
    if rho < 2:
        raise ValueError("density tolerance rho must be >= 2")
    rng = np.random.default_rng(seed)

    in_U = np.ones(n, dtype=bool)   # undivided
    in_L = np.zeros(n, dtype=bool)  # low-density (subset of U)
    is_noise = np.zeros(n, dtype=bool)
    balls: list[GranularBall] = []
    # Running arrays of existing ball centers/radii for Eq. 4.
    centers: list[np.ndarray] = []
    radii: list[float] = []

    while True:
        t_mask = in_U & ~in_L
        t_idx = np.flatnonzero(t_mask)
        if len(t_idx) == 0:
            break  # U ⊆ L: terminate
        classes, counts = np.unique(y[t_idx], return_counts=True)
        order = np.argsort(-counts, kind="stable")  # larger groups first
        candidates = [
            int(rng.choice(t_idx[y[t_idx] == classes[k]])) for k in order
        ]
        progress = False
        for c in candidates:
            if not in_U[c] or in_L[c]:
                continue  # consumed or shelved earlier this round
            u_idx = np.flatnonzero(in_U)
            u_idx = u_idx[u_idx != c]
            if len(u_idx) == 0:
                in_L[c] = True
                progress = True
                continue
            d = np.linalg.norm(X[u_idx] - X[c], axis=1)
            o = np.argsort(d, kind="stable")
            nbr = u_idx[o]       # neighbours of c by increasing distance
            nbr_d = d[o]

            if y[nbr[0]] != y[c]:
                k = min(rho, len(nbr))
                h = int((y[nbr[:k]] != y[c]).sum())
                if h == k and k < rho:
                    # Fewer than ρ neighbours remain: not enough evidence
                    # for the noise verdict — shelve as low-density.
                    in_L[c] = True
                    progress = True
                    continue
                if h == rho:  # Eq. 2 rule 1: candidate is class noise
                    in_U[c] = False
                    is_noise[c] = True
                    progress = True
                    continue
                if h == 1 and k >= 2:  # rule 2: the nearest neighbour is noise
                    nn = nbr[0]
                    in_U[nn] = False
                    in_L[nn] = False
                    is_noise[nn] = True
                    nbr, nbr_d = nbr[1:], nbr_d[1:]
                    progress = True
                    if len(nbr) == 0:
                        in_L[c] = True
                        continue
                else:  # rule 3: low-density sample
                    in_L[c] = True
                    progress = True
                    continue

            # ω = length of the homogeneous neighbour prefix (Eq. 3).
            hetero = y[nbr] != y[c]
            omega = int(np.argmax(hetero)) if hetero.any() else len(nbr)
            if omega == 0:
                # Only possible via distance ties after noise removal.
                in_L[c] = True
                progress = True
                continue
            cr = float(nbr_d[omega - 1])

            # Conflict radius to previously built balls (Eq. 4).
            if centers:
                cd = np.linalg.norm(np.stack(centers) - X[c], axis=1)
                r_conf = float(np.min(cd - np.array(radii)))
            else:
                r_conf = np.inf
            if cr <= r_conf:
                r = cr
            else:  # Eq. 5–6: farthest homogeneous neighbour not conflicting
                ok = nbr_d[:omega] <= r_conf
                r = float(nbr_d[:omega][ok][-1]) if ok.any() else 0.0

            if r > 0.0:
                # Members: the homogeneous prefix within r (Eq. 7). Capped
                # at ω so a heterogeneous tie at distance r is excluded and
                # the ball stays pure.
                m = int(np.searchsorted(nbr_d, r, side="right"))
                m = min(m, omega)
                members = np.concatenate([[c], nbr[:m]])
                balls.append(
                    GranularBall(
                        center=X[c].copy(), radius=r, label=int(y[c]), idx=members
                    )
                )
                centers.append(X[c])
                radii.append(r)
                in_U[members] = False
                in_L[members] = False
                progress = True
            else:
                in_L[c] = True
                progress = True
        if not progress:
            break  # safety net; unreachable when every branch advances state

    # Orphan balls: completeness for low-density leftovers (radius 0).
    for i in np.flatnonzero(in_U):
        balls.append(
            GranularBall(center=X[i].copy(), radius=0.0, label=int(y[i]), idx=np.array([i]))
        )
    return GBSet(balls=balls, noise_idx=np.flatnonzero(is_noise))
