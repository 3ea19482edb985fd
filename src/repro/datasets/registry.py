"""S1–S13 dataset analogs mirroring Table I of the paper.

Each spec records the paper's published (samples, features, classes, IR)
and our scaled-down analog parameters (``N <= 2000``, ``p <= 32`` — see
DESIGN.md § Dataset scaling). ``cat_dims`` marks nominal features: the
generated values in those columns are quantised to a small integer
alphabet, modelling datasets like Credit Approval and Car Evaluation
whose features are nominal.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .generators import inject_class_noise, make_blobs_classification

__all__ = ["DatasetSpec", "REGISTRY", "load_dataset", "dataset_names"]


@dataclass(frozen=True)
class DatasetSpec:
    """One Table-I row: the paper's stats plus our analog's parameters."""

    name: str          # paper rename, e.g. "S1"
    source_name: str   # original dataset name in the paper
    paper_samples: int
    paper_features: int
    paper_classes: int
    paper_ir: float
    # --- analog parameters ---
    n_samples: int
    n_features: int
    clusters_per_class: int = 2
    class_sep: float = 1.6
    noise_dims: int = 0
    cat_dims: tuple[int, ...] = field(default_factory=tuple)
    seed: int = 0

    @property
    def n_classes(self) -> int:
        return self.paper_classes

    @property
    def ir(self) -> float:
        return self.paper_ir


def _cap(n: int, cap: int = 2000) -> int:
    return min(n, cap)


# class_sep tuned per family: low-dim easy boundaries (banana, shuttle)
# get higher separation; overlapping-class datasets (Car Evaluation,
# Diabetes, coil2000) get lower separation; noise_dims models datasets
# where most features are weakly informative (coil2000, Gas Sensor, USPS).
REGISTRY: dict[str, DatasetSpec] = {
    s.name: s
    for s in [
        DatasetSpec("S1", "Credit Approval", 690, 15, 2, 1.25,
                    n_samples=690, n_features=15, clusters_per_class=3,
                    class_sep=1.5, cat_dims=(9, 10, 11, 12, 13, 14), seed=101),
        DatasetSpec("S2", "Diabetes", 768, 8, 2, 1.87,
                    n_samples=768, n_features=8, clusters_per_class=3,
                    class_sep=1.0, seed=102),
        DatasetSpec("S3", "Car Evaluation", 1728, 6, 4, 18.62,
                    n_samples=1728, n_features=6, clusters_per_class=2,
                    class_sep=2.5, cat_dims=(0, 1, 2, 3, 4, 5), seed=103),
        DatasetSpec("S4", "Pumpkin Seeds", 2500, 12, 2, 1.08,
                    n_samples=_cap(2500), n_features=12, clusters_per_class=2,
                    class_sep=1.5, seed=104),
        DatasetSpec("S5", "banana", 5300, 2, 2, 1.23,
                    n_samples=_cap(5300), n_features=2, clusters_per_class=3,
                    class_sep=7.0, seed=105),
        DatasetSpec("S6", "page-blocks", 5473, 11, 5, 175.46,
                    n_samples=_cap(5473), n_features=11, clusters_per_class=2,
                    class_sep=7.0, seed=106),
        DatasetSpec("S7", "coil2000", 9822, 85, 2, 15.76,
                    n_samples=_cap(9822), n_features=32, clusters_per_class=2,
                    class_sep=1.0, noise_dims=20, seed=107),
        DatasetSpec("S8", "Dry Bean", 13611, 16, 7, 6.79,
                    n_samples=_cap(13611), n_features=16, clusters_per_class=2,
                    class_sep=4.0, seed=108),
        DatasetSpec("S9", "HTRU2", 17898, 8, 2, 9.92,
                    n_samples=_cap(17898), n_features=8, clusters_per_class=2,
                    class_sep=2.0, seed=109),
        DatasetSpec("S10", "magic", 19020, 10, 2, 1.84,
                    n_samples=_cap(19020), n_features=10, clusters_per_class=3,
                    class_sep=2.0, seed=110),
        DatasetSpec("S11", "shuttle", 58000, 9, 7, 4558.6,
                    n_samples=_cap(58000), n_features=9, clusters_per_class=1,
                    class_sep=14.0, seed=111),
        DatasetSpec("S12", "Gas Sensor", 13910, 128, 6, 1.83,
                    n_samples=_cap(13910), n_features=32, clusters_per_class=2,
                    class_sep=6.0, noise_dims=12, seed=112),
        DatasetSpec("S13", "USPS", 9298, 256, 10, 2.19,
                    n_samples=_cap(9298), n_features=32, clusters_per_class=2,
                    class_sep=4.0, noise_dims=8, seed=113),
    ]
}


def dataset_names() -> list[str]:
    """S1..S13 in Table-I order."""
    return list(REGISTRY)


def _quantise_categorical(X: np.ndarray, cat_dims: tuple[int, ...], levels: int = 5) -> np.ndarray:
    """Bin the given columns into ``levels`` integer codes (equal-width).

    Keeps the geometry (codes are ordered by the underlying continuous
    value) while making the columns nominal-like, as in Credit Approval
    and Car Evaluation.
    """
    if not cat_dims:
        return X
    X = X.copy()
    for d in cat_dims:
        col = X[:, d]
        lo, hi = col.min(), col.max()
        width = (hi - lo) / levels or 1.0
        X[:, d] = np.clip(((col - lo) / width).astype(int), 0, levels - 1).astype(float)
    return X


def load_dataset(
    name: str, *, noise_ratio: float = 0.0, noise_seed: int = 0
) -> tuple[np.ndarray, np.ndarray, DatasetSpec]:
    """Materialise analog ``name`` (deterministic), optionally label-noised.

    Features are min-max scaled to [0, 1] per column — the preprocessing
    the GB-sampling literature applies before distance computations.
    """
    spec = REGISTRY[name]
    X, y = make_blobs_classification(
        n_samples=spec.n_samples,
        n_features=spec.n_features,
        n_classes=spec.n_classes,
        imbalance_ratio=spec.ir,
        clusters_per_class=spec.clusters_per_class,
        class_sep=spec.class_sep,
        noise_dims=spec.noise_dims,
        seed=spec.seed,
    )
    X = _quantise_categorical(X, spec.cat_dims)
    span = X.max(axis=0) - X.min(axis=0)
    X = (X - X.min(axis=0)) / np.where(span == 0, 1.0, span)
    if noise_ratio > 0:
        y = inject_class_noise(y, noise_ratio, spec.n_classes, seed=noise_seed)
    return X, y, spec
