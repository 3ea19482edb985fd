"""Granular-ball data structures shared by RD-GBG, GBABS, and the baselines.

A granular ball (GB) is ``gb = (O, (c, r, l))``: a set of samples ``O``
covered by a ball of center ``c``, radius ``r``, and label ``l``. In
RD-GBG the center is a *real sample* (the chosen local-density center)
and every covered sample is homogeneous with it (purity 1.0); in the
k-division GBG used by the GGBS baseline the center is the mean and the
radius the mean distance (Eq. 1 of the paper).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["GranularBall", "GBSet"]


@dataclass
class GranularBall:
    """One ball: center coordinates, radius, majority/only label, member rows.

    ``idx`` indexes into the source feature matrix; for RD-GBG balls
    ``idx[0]`` is the center sample itself. ``purity`` is 1.0 for RD-GBG
    balls by construction.
    """

    center: np.ndarray
    radius: float
    label: int
    idx: np.ndarray
    purity: float = 1.0

    @property
    def n_samples(self) -> int:
        return len(self.idx)


@dataclass
class GBSet:
    """A granulation result: the balls plus the class-noise rows removed.

    ``noise_idx`` are source rows RD-GBG's center detection eliminated;
    they belong to no ball and never reach the sampled dataset.
    """

    balls: list[GranularBall] = field(default_factory=list)
    noise_idx: np.ndarray = field(default_factory=lambda: np.array([], dtype=np.int64))

    def __len__(self) -> int:
        return len(self.balls)

    def centers(self) -> np.ndarray:
        return np.stack([b.center for b in self.balls])

    def labels(self) -> np.ndarray:
        return np.array([b.label for b in self.balls])
