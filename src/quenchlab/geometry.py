"""Parabolic space-time geometry: points, distance, cylinders."""

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .errors import UsageError, ValidationError


@dataclass(frozen=True)
class ParabolicPoint:
    """A space-time point X = (x, t)."""

    x: Tuple[float, ...]
    t: float

    def __post_init__(self):
        object.__setattr__(self, "x", tuple(float(v) for v in np.atleast_1d(self.x)))
        object.__setattr__(self, "t", float(self.t))

    @property
    def n(self) -> int:
        return len(self.x)


def parabolic_distance(X: ParabolicPoint, Y: ParabolicPoint) -> float:
    """max(|x - y|, sqrt(|t - s|)), the natural metric of the heat operator."""
    if X.n != Y.n:
        raise UsageError(f"dimension mismatch: {X.n} vs {Y.n}")
    dx = np.linalg.norm(np.subtract(X.x, Y.x))
    return max(dx, np.sqrt(abs(X.t - Y.t)))


@dataclass(frozen=True)
class ParabolicCylinder:
    """The backward cylinder B_r(x) x (t - r^2, t]."""

    center: ParabolicPoint
    radius: float

    def __post_init__(self):
        if not self.radius > 0:
            raise ValidationError(f"cylinder radius must be positive, got {self.radius}")

    def time_window(self) -> Tuple[float, float]:
        return (self.center.t - self.radius ** 2, self.center.t)

    def contains(self, xs: np.ndarray, ts: np.ndarray) -> np.ndarray:
        """Vectorized membership for points given as xs (m, n) and ts (m,)."""
        xs = np.atleast_2d(xs)
        c = np.asarray(self.center.x)
        lo, hi = self.time_window()
        in_ball = np.linalg.norm(xs - c, axis=-1) <= self.radius
        # half open at the past end, closed at the top
        in_time = (ts > lo) & (ts <= hi)
        return in_ball & in_time
