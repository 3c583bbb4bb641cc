"""Parabolic space-time geometry: points, distance, cylinders."""

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .errors import UsageError, ValidationError

BACKWARD = "backward"
TWO_SIDED = "two_sided"


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
    """B_r(x) x (t - r^2, t] (backward) or B_r(x) x (t - r^2, t + r^2)."""

    center: ParabolicPoint
    radius: float
    kind: str = BACKWARD

    def __post_init__(self):
        if not self.radius > 0:
            raise ValidationError(f"cylinder radius must be positive, got {self.radius}")
        if self.kind not in (BACKWARD, TWO_SIDED):
            raise ValidationError(f"cylinder kind must be backward or two_sided, got {self.kind!r}")

    def time_window(self) -> Tuple[float, float]:
        t, r2 = self.center.t, self.radius ** 2
        if self.kind == BACKWARD:
            return (t - r2, t)
        return (t - r2, t + r2)

    def contains(self, xs: np.ndarray, ts: np.ndarray) -> np.ndarray:
        """Vectorized membership for points given as xs (m, n) and ts (m,)."""
        xs = np.atleast_2d(xs)
        c = np.asarray(self.center.x)
        lo, hi = self.time_window()
        in_ball = np.linalg.norm(xs - c, axis=-1) <= self.radius
        # backward cylinders are half open at the past end, closed at the top
        in_time = (ts > lo) & (ts <= hi)
        return in_ball & in_time
