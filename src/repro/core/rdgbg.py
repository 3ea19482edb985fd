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

**The kernel: prefixes instead of full sorts.** A candidate's neighbours
are the other undivided rows in (Euclidean distance, row index) order,
and every rule above reads only a prefix of that order: Eq. 2 the first
``k = min(ρ, |U| - 1)`` neighbours; Eq. 5–7 the homogeneous run before
the first heterogeneous neighbour (Eq. 3), cut at the conflict radius.
The radius is the farthest run distance within ``r_conf`` (that is
``CR`` when ``CR <= r_conf``), the members are the run rows within it,
and the radius is 0 when the first homogeneous neighbour lies beyond
``r_conf``. So the kernel never sorts all of ``U``:

* ``U`` is kept compacted (row ids, feature rows, class codes) in
  ascending row order, and re-compacted only after rows leave it (a ball
  or a noise verdict). A stable sort by distance over positions is then a
  sort by (distance, row).
* Distances are ``sqrt(add.reduce(diff * diff, axis=1))``, the formula of
  ``np.linalg.norm(diff, axis=1)``, so every distance has the same bits
  as a norm over any subset of the same rows. The candidate's own
  distance is set to -1, below every distance, so it sorts first.
* Triage: ``np.partition`` finds the k-th neighbour distance ``dk``;
  every row with distance ``<= dk`` is taken (ties at ``dk`` complete)
  and stable-sorted. Such a set is an exact prefix of the order.
* The run: only rows within ``r_conf`` can matter. The first
  heterogeneous one among them, ``(dh, ph)``, is the lowest position of
  least distance (a masked ``argmin``); the run is every row with
  ``d < dh``, or ``d == dh`` at a position below ``ph``, and only the
  run is stable-sorted. With no heterogeneous row within ``r_conf`` the
  run is every row within it.
* Eq. 4 reads the existing centers and radii from preallocated buffers.
  The per-round draw groups rows by class with one ``bincount`` and one
  stable ``argsort``; ``rng.integers(0, count)`` consumes the generator
  exactly as ``rng.choice`` over the class's rows does.

Each step yields the same rows in the same order, with the same
distances, as a full stable sort of every neighbour, so the balls (order,
members, centers, radii, labels) and ``noise_idx`` equal those of the
full-sort loop bit for bit. ``tests/test_rdgbg.py`` keeps that loop as an
oracle.
"""
from __future__ import annotations

import numpy as np

from .granular_ball import GBSet, GranularBall

__all__ = ["check_points", "rd_gbg"]


def _distances(A: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Euclidean distance from each row of ``A`` to ``x`` (``norm``'s formula)."""
    diff = A - x
    np.multiply(diff, diff, out=diff)
    s = np.add.reduce(diff, axis=1)
    return np.sqrt(s, out=s)


def check_points(X, y) -> tuple[np.ndarray, np.ndarray]:
    """``(X, y)`` as arrays, X float64; raises ``ValueError`` unless ``X`` is
    finite and 2-D and ``y`` 1-D of the same length."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y)
    if X.ndim != 2:
        raise ValueError(f"X must be a 2-D (rows, features) array, got shape {X.shape}")
    if y.ndim != 1:
        raise ValueError(f"y must be a 1-D label array, got shape {y.shape}")
    if len(X) != len(y):
        raise ValueError(f"X has {len(X)} rows but y has {len(y)} labels")
    if not np.isfinite(X).all():
        raise ValueError("features must be finite (no NaN or inf)")
    return X, y


def _validate(y: np.ndarray, rho) -> None:
    if isinstance(rho, bool) or not isinstance(rho, (int, np.integer)) or rho < 2:
        raise ValueError(f"density tolerance rho must be an integer >= 2, got {rho!r}")
    if y.dtype.kind not in "biuf":
        raise ValueError(f"labels must be integer class codes, got dtype {y.dtype}")
    if y.dtype.kind == "f" and not (np.isfinite(y) & (y == np.trunc(y))).all():
        raise ValueError("labels must be integer class codes, got non-integer values")


def rd_gbg(X: np.ndarray, y: np.ndarray, rho: int = 5, seed: int = 0) -> GBSet:
    """Run Algorithm 1 on ``(X, y)`` with density tolerance ``rho``.

    Returns a :class:`GBSet` whose balls partition the non-noise rows.
    Deterministic in ``seed`` (candidate centers are drawn from a local
    generator). Raises ``ValueError`` unless ``X`` is a finite 2-D array,
    ``y`` a 1-D array of integer-valued labels of the same length, and
    ``rho`` an integer ``>= 2``.
    """
    X, y = check_points(X, y)
    _validate(y, rho)
    n = len(X)
    if n == 0:
        return GBSet()
    rng = np.random.default_rng(seed)
    classes, code = np.unique(y, return_inverse=True)

    in_U = np.ones(n, dtype=bool)   # undivided
    in_L = np.zeros(n, dtype=bool)  # low-density (subset of U)
    is_noise = np.zeros(n, dtype=bool)
    # U compacted in ascending row order; stale while `dirty`.
    u_idx, XU, cU = np.arange(n), X, code
    dirty = False
    balls: list[GranularBall] = []
    # Centers/radii of the balls built so far (Eq. 4). A ball holds at
    # least two rows, so at most n // 2 are built here.
    C = np.empty((n // 2, X.shape[1]))
    R = np.empty(n // 2)
    nb = 0

    while True:
        t_idx = u_idx[in_U[u_idx] & ~in_L[u_idx]]
        if len(t_idx) == 0:
            break  # U ⊆ L: terminate
        # One candidate per class, larger groups first (ties: lower class).
        t_code = code[t_idx]
        counts = np.bincount(t_code, minlength=len(classes))
        grouped = t_idx[np.argsort(t_code, kind="stable")]
        starts = np.cumsum(counts) - counts
        present = np.flatnonzero(counts)
        order = present[np.argsort(-counts[present], kind="stable")]
        candidates = [
            int(grouped[starts[k] + rng.integers(0, counts[k])]) for k in order
        ]
        for c in candidates:
            if not in_U[c] or in_L[c]:
                continue  # consumed or shelved earlier this round
            if dirty:
                keep = in_U[u_idx]
                u_idx, XU, cU = u_idx[keep], XU[keep], cU[keep]
                dirty = False
            m = len(u_idx)
            if m == 1:
                in_L[c] = True
                continue
            pc = int(np.searchsorted(u_idx, c))
            yc = cU[pc]
            d = _distances(XU, XU[pc])
            d[pc] = -1.0

            # Exact (distance, row) prefix holding the first k neighbours.
            k = min(rho, m - 1)
            dk = np.partition(d, k)[k]
            nbr = np.flatnonzero(d <= dk)
            nbr = nbr[np.argsort(d[nbr], kind="stable")][1:]
            het = cU[nbr] != yc
            nn = -1
            if het[0]:
                h = int(het[:k].sum())
                if h == k and k < rho:
                    # Fewer than ρ neighbours remain: not enough evidence
                    # for the noise verdict — shelve as low-density.
                    in_L[c] = True
                    continue
                if h == rho:  # Eq. 2 rule 1: candidate is class noise
                    in_U[c] = False
                    is_noise[c] = True
                    dirty = True
                    continue
                if h > 1:  # rule 3: low-density sample
                    in_L[c] = True
                    continue
                # rule 2 (h == 1, k >= 2): the nearest neighbour is noise.
                nn = nbr[0]
                in_U[u_idx[nn]] = False
                in_L[u_idx[nn]] = False
                is_noise[u_idx[nn]] = True
                dirty = True
                nbr = nbr[1:]

            # Conflict radius to previously built balls (Eq. 4).
            if nb:
                r_conf = float(np.min(_distances(C[:nb], X[c]) - R[:nb]))
            else:
                r_conf = np.inf
            # Eq. 3, 5–7: the radius is the farthest distance within r_conf
            # of the homogeneous run before the first heterogeneous
            # neighbour, and the members are that run within r_conf. The
            # run starts at nbr[0], which is homogeneous here.
            r = 0.0
            if d[nbr[0]] <= r_conf:
                near = np.flatnonzero(d <= r_conf)
                near = near[(near != pc) & (near != nn)]
                near_d = d[near]
                het = cU[near] != yc
                if het.any():
                    # First heterogeneous row in (distance, row) order.
                    ph = near[het][np.argmin(near_d[het])]
                    dh = d[ph]
                    ahead = (near_d < dh) | ((near_d == dh) & (near < ph))
                    near, near_d = near[ahead], near_d[ahead]
                run = near[np.argsort(near_d, kind="stable")]
                r = float(d[run[-1]])

            if r > 0.0:
                members = np.concatenate([[c], u_idx[run]])
                balls.append(
                    GranularBall(
                        center=X[c].copy(), radius=r, label=int(y[c]), idx=members
                    )
                )
                C[nb], R[nb] = X[c], r
                nb += 1
                in_U[members] = False
                in_L[members] = False
                dirty = True
            else:
                in_L[c] = True

    # Orphan balls: completeness for low-density leftovers (radius 0).
    for i in np.flatnonzero(in_U):
        balls.append(
            GranularBall(center=X[i].copy(), radius=0.0, label=int(y[i]), idx=np.array([i]))
        )
    return GBSet(balls=balls, noise_idx=np.flatnonzero(is_noise))
