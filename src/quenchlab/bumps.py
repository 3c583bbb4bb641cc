"""Smooth compactly supported cutoffs and test fields.

The transition profile is pinned bit-exactly so residual reports are
reproducible:

    q(s) = 1                          for s <= 0
    q(s) = A / (A + B)                for 0 < s < 1,  A = exp(-1/(1-s)), B = exp(-1/s)
    q(s) = 0                          for s >= 1

which equals sigma(1/s - 1/(1-s)) with the logistic sigma; that form is what
the code evaluates (stable in float64, flat to all orders at both ends).  q,
q' and q'' come from one pass over the transition, and a cutoff measures its
offsets and radii once for its value, gradient or Laplacian.
"""

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .errors import ValidationError


def _sigma(z):
    return 0.5 * (1.0 + np.tanh(0.5 * z))


def _profiles(s, *orders):
    """q (order 0), q' (1) or q'' (2) at s for each order given, from one pass over 0 < s < 1."""
    s = np.asarray(s, dtype=float)
    mid = (s > 0.0) & (s < 1.0)
    sm = s[mid]
    q = _sigma(1.0 / sm - 1.0 / (1.0 - sm))
    if max(orders) >= 1:
        gp = -1.0 / sm ** 2 - 1.0 / (1.0 - sm) ** 2
    outs = []
    for order in orders:
        out = np.zeros_like(s)
        if order == 0:
            out[s <= 0.0] = 1.0
            out[mid] = q
        elif order == 1:
            out[mid] = q * (1.0 - q) * gp
        else:
            gpp = 2.0 / sm ** 3 - 2.0 / (1.0 - sm) ** 3
            out[mid] = q * (1.0 - q) * ((1.0 - 2.0 * q) * gp ** 2 + gpp)
        outs.append(out)
    return outs


def bump_profile(s):
    """q(s) as above; vectorized."""
    return _profiles(s, 0)[0]


def bump_profile_d1(s):
    return _profiles(s, 1)[0]


def bump_profile_d2(s):
    return _profiles(s, 2)[0]


@dataclass(frozen=True)
class CutoffSpec:
    """Radial plateau cutoff: 1 on B_inner(center), 0 outside B_outer(center)."""

    center: Tuple[float, ...]
    inner_radius: float
    outer_radius: float

    def __post_init__(self):
        if not (0.0 <= self.inner_radius < self.outer_radius):
            raise ValidationError(
                f"need 0 <= inner < outer, got {self.inner_radius}, {self.outer_radius}")
        object.__setattr__(self, "center",
                           tuple(float(v) for v in np.atleast_1d(self.center)))

    def _s(self, xs):
        """Offsets d = xs - center, radii |d| and the profile argument s."""
        d = np.asarray(xs) - np.asarray(self.center)
        r = np.linalg.norm(d, axis=-1)
        return d, r, (r - self.inner_radius) / (self.outer_radius - self.inner_radius)

    def value(self, xs):
        return bump_profile(self._s(xs)[2])

    def grad(self, xs):
        d, r, s = self._s(xs)
        dq = bump_profile_d1(s) / (self.outer_radius - self.inner_radius)
        safe_r = np.where(r > 0, r, 1.0)
        return dq[..., None] * d / safe_r[..., None]

    def laplacian(self, xs, n: int):
        r, s = self._s(xs)[1:]
        width = self.outer_radius - self.inner_radius
        dq, d2q = _profiles(s, 1, 2)
        dq /= width
        d2q /= width ** 2
        safe_r = np.where(r > 0, r, 1.0)
        out = d2q + dq * (n - 1) / safe_r
        # inside the plateau (and at the exact center) everything vanishes
        return np.where(s <= 0.0, 0.0, out)


@dataclass(frozen=True)
class TimeWindow:
    """Smooth 1-d bump in t: 1 on [c-inner, c+inner], 0 outside [c-outer, c+outer]."""

    center: float
    inner: float
    outer: float

    def __post_init__(self):
        if not (0.0 <= self.inner < self.outer):
            raise ValidationError("need 0 <= inner < outer for the time window")

    def _s(self, t):
        return (np.abs(np.asarray(t, dtype=float) - self.center) - self.inner) / (self.outer - self.inner)

    def value(self, t):
        return bump_profile(self._s(t))

    def d1(self, t):
        t = np.asarray(t, dtype=float)
        width = self.outer - self.inner
        return bump_profile_d1(self._s(t)) / width * np.sign(t - self.center)

    def support(self) -> Tuple[float, float]:
        return (self.center - self.outer, self.center + self.outer)


@dataclass(frozen=True)
class SpaceTimeBump:
    """psi(x, t) = eta(x) * w(t): the scalar test function of the weak forms.

    Being separable, psi is evaluated as eta's arrays on fixed points (once)
    times w(t) (once per time): psi = eta w, psi_t = eta w', grad psi =
    grad eta w, Lap psi = Lap eta w, each product in that operand order.
    """

    space: CutoffSpec
    time: TimeWindow

    def support_box(self) -> Tuple[Tuple[float, ...], Tuple[float, ...]]:
        c = np.asarray(self.space.center)
        r = self.space.outer_radius
        return (tuple(c - r), tuple(c + r))

    def time_support(self) -> Tuple[float, float]:
        return self.time.support()


COORDINATE = "coordinate_bump"
RADIAL = "radial_bump"


@dataclass(frozen=True)
class TestVectorField:
    """Compactly supported vector field Y = psi p, held in that product form:
    p = e_axis (coordinate_bump, c = 0) or x - center (radial_bump, c = 1), so
    DY = p (x) grad psi + c psi I and div Y = c n psi + grad psi . p.
    """

    kind: str
    bump: SpaceTimeBump
    axis: int = 0

    def __post_init__(self):
        if self.kind not in (COORDINATE, RADIAL):
            raise ValidationError(f"unknown vector-field kind {self.kind!r}")

    def at(self, xs):
        """psi, grad psi, p, div Y and c at the points xs, at time factor w = 1:
        at time t, psi, grad psi and div Y are w(t) times these, p and c stay."""
        space = self.bump.space
        psi, g = space.value(xs), space.grad(xs)
        if self.kind == COORDINATE:
            p, c = np.zeros(xs.shape), 0.0
            p[..., self.axis] = 1.0
        else:
            p, c = xs - np.asarray(space.center), 1.0
        return psi, g, p, c * xs.shape[-1] * psi + np.sum(g * p, axis=-1), c
