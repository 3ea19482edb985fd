"""Input checks shared by every classifier's ``fit`` and ``predict``."""
from __future__ import annotations

import numpy as np

__all__ = ["check_X", "check_X_y"]


def check_X(X, n_features: int | None = None) -> np.ndarray:
    """``X`` as a finite 2-D float64 array, with ``n_features`` columns if given."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError(f"X must be 2-D (rows, features), got shape {X.shape}")
    if not np.isfinite(X).all():
        raise ValueError("X contains NaN or infinite values")
    if n_features is not None and X.shape[1] != n_features:
        raise ValueError(f"X has {X.shape[1]} features, the model was fit on {n_features}")
    return X


def check_X_y(X, y) -> tuple[np.ndarray, np.ndarray]:
    """A non-empty training set: ``check_X(X)`` and a 1-D ``y`` of the same length."""
    X = check_X(X)
    y = np.asarray(y)
    if y.ndim != 1:
        raise ValueError(f"y must be 1-D, got shape {y.shape}")
    if len(X) != len(y):
        raise ValueError(f"X has {len(X)} rows but y has {len(y)}")
    if len(X) == 0:
        raise ValueError("empty training set")
    return X, y
