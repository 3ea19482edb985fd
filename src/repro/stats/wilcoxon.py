"""Wilcoxon signed-rank test (scipy substitute) for Table III.

Two-sided paired test. Zero differences are dropped (Wilcox's original
treatment, scipy's ``zero_method="wilcox"``). With no ties among the
non-zero |differences| and n <= 25 the *exact* null distribution of W+ is
computed by dynamic programming (scipy ``mode="exact"``); with ties or
larger n we use the normal approximation with tie correction and
continuity correction (scipy ``mode="approx"``, ``correction=True``).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["WilcoxonResult", "wilcoxon_signed_rank"]


@dataclass(frozen=True)
class WilcoxonResult:
    statistic: float      # min(W+, W-), scipy convention
    p_value: float
    n_used: int           # pairs remaining after zero removal
    method: str           # "exact" | "approx"

    def significant(self, alpha: float = 0.05) -> bool:
        return self.p_value < alpha


def _rank_abs(d: np.ndarray) -> np.ndarray:
    """Average ranks of |d| (1-based, ties share the mean rank)."""
    a = np.abs(d)
    order = np.argsort(a, kind="stable")
    ranks = np.empty(len(a))
    sorted_a = a[order]
    i = 0
    while i < len(a):
        j = i
        while j + 1 < len(a) and sorted_a[j + 1] == sorted_a[i]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def _exact_sf_counts(n: int) -> np.ndarray:
    """counts[w] = #sign assignments with W+ == w, ranks 1..n (no ties)."""
    max_w = n * (n + 1) // 2
    counts = np.zeros(max_w + 1, dtype=np.float64)
    counts[0] = 1.0
    for r in range(1, n + 1):
        shifted = np.zeros_like(counts)
        shifted[r:] = counts[:-r]
        counts = counts + shifted
    return counts


def wilcoxon_signed_rank(x: np.ndarray, y: np.ndarray) -> WilcoxonResult:
    """Two-sided Wilcoxon signed-rank test on paired samples ``x`` and ``y``."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("x and y must be 1-d arrays of equal length")
    d = x - y
    d = d[d != 0.0]
    n = len(d)
    if n == 0:
        return WilcoxonResult(statistic=0.0, p_value=1.0, n_used=0, method="exact")
    ranks = _rank_abs(d)
    w_plus = float(ranks[d > 0].sum())
    w_minus = float(ranks[d < 0].sum())
    stat = min(w_plus, w_minus)
    has_ties = len(np.unique(np.abs(d))) != n
    if not has_ties and n <= 25:
        counts = _exact_sf_counts(n)
        total = counts.sum()
        # two-sided: P(W+ <= stat) doubled, capped at 1. stat is integral here.
        cdf = counts[: int(round(stat)) + 1].sum() / total
        p = min(1.0, 2.0 * cdf)
        return WilcoxonResult(stat, float(p), n, "exact")
    # normal approximation with tie correction
    mean = n * (n + 1) / 4.0
    _, tie_counts = np.unique(np.abs(d), return_counts=True)
    tie_term = float(((tie_counts**3 - tie_counts) / 2.0).sum())
    var = n * (n + 1) * (2 * n + 1) / 24.0 - tie_term / 24.0
    if var <= 0:
        return WilcoxonResult(stat, 1.0, n, "approx")
    z = (stat - mean + 0.5) / np.sqrt(var)  # continuity correction toward the mean
    # two-sided p from the standard normal
    p = float(min(1.0, 2.0 * _norm_cdf(z)))
    return WilcoxonResult(stat, p, n, "approx")


def _norm_cdf(z: float) -> float:
    """Standard normal CDF via erf (math.erf is exact enough here)."""
    import math

    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))
