"""Closed-form solutions and parabolic rescaling maps.

These are the oracle layer: the space-independent collapse solution, the
homogeneous radial steady state, and the backward rescaling operator that
every self-similarity diagnostic is built on.
"""

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import DomainError, UsageError, ValidationError
from .field import SpaceTimeField, field_from_function, sample_many
from .geometry import ParabolicCylinder, ParabolicPoint
from .grid import GridSpec
from .params import ModelParams


def ode_solution(params: ModelParams, t) -> np.ndarray:
    """Space-independent collapse u(t) = (p+1)^(1/(p+1)) (-t)^(1/(p+1)), t < 0.

    Solves u' = -u^-p exactly and touches zero at t = 0.
    """
    t = np.asarray(t, dtype=float)
    if np.any(t >= 0):
        raise DomainError("ode_solution is defined for t < 0 only (quenched at t = 0)")
    e = 1.0 / (params.p + 1.0)
    return (params.p + 1.0) ** e * (-t) ** e


def radial_steady_coeff(params: ModelParams) -> float:
    """Coefficient c with u(x) = c |x|^alpha solving Lap u = u^-p away from 0."""
    inner = (2.0 / (params.p + 1.0)) * (params.n - 2.0 + 2.0 / (params.p + 1.0))
    if inner <= 0.0:
        raise DomainError(
            f"radial steady state needs n - 2 + 2/(p+1) > 0; got n={params.n}, p={params.p}")
    return inner ** (-1.0 / (params.p + 1.0))


def radial_steady(params: ModelParams, x) -> np.ndarray:
    """Homogeneous steady profile c_{n,p} |x|^(2/(p+1)), n >= 2."""
    c = radial_steady_coeff(params)
    x = np.atleast_2d(np.asarray(x, dtype=float))
    r = np.linalg.norm(x, axis=-1)
    out = c * r ** (2.0 / (params.p + 1.0))
    return out if out.size > 1 else float(out[0])


@dataclass(frozen=True)
class BlowupSpec:
    """Base point, scale and normalization for u -> L^-1 lam^-alpha u(x0+lam x, t0+lam^2 t)."""

    base_point: ParabolicPoint
    lam: float
    normalization: float = 1.0

    def __post_init__(self):
        if not 0 < self.lam < np.inf:
            raise ValidationError(f"lambda must be positive and finite, got {self.lam}")
        if not self.normalization > 0:
            raise ValidationError("normalization must be positive")

    def source(self, xs, ts):
        """The points x0 + lam xs and times t0 + lam^2 ts that the blow-up
        coordinates (xs, ts) read."""
        return (np.asarray(self.base_point.x) + self.lam * xs,
                self.base_point.t + self.lam ** 2 * np.asarray(ts, dtype=float))


def rescale(field: SpaceTimeField, spec: BlowupSpec, target_grid: GridSpec,
            target_times) -> SpaceTimeField:
    """Resample the parabolic rescaling of `field` onto a caller grid.

    v(x, t) = L^-1 lam^-alpha u(x0 + lam x, t0 + lam^2 t).  With L = 1 and u a
    solution, v is again a solution of the same equation.
    """
    target_times = np.asarray(target_times, dtype=float)
    scale = spec.normalization * spec.lam ** field.params.alpha
    src_pts, src_times = spec.source(target_grid.node_points(), target_times)
    field.require_inside(src_pts, src_times, f"rescaled window at lambda={float(spec.lam)}")

    vals = np.empty((target_times.size,) + target_grid.node_shape)
    for j, ts in enumerate(src_times):
        v = sample_many(field, src_pts, np.full(src_pts.shape[0], ts))
        vals[j] = (v / scale).reshape(target_grid.node_shape)
    return SpaceTimeField(field.params, target_grid, target_times, vals,
                          boundary_kind="analytic")


def self_similarity_residual(field: SpaceTimeField, base_point: ParabolicPoint,
                             lambdas: Sequence[float], window: ParabolicCylinder) -> float:
    """Worst deviation from backward self-similarity about the base point.

    Returns max over lambda of sup over sampled window nodes of
    |u(X) - lam^-alpha u(x0 + lam (x - x0), t0 + lam^2 (t - t0))|, the map
    `BlowupSpec.source` of X - X0.  Zero (to float precision) iff the field is
    backward self-similar on the sampled set.  The window must lie in t <= t0
    and, with its image under every lambda, in the stored data.  No lambda,
    or lambda = 1, tests nothing and is refused.
    """
    specs = [BlowupSpec(base_point, lam) for lam in lambdas]
    if not specs or any(spec.lam == 1 for spec in specs):
        raise UsageError(f"lambdas {list(lambdas)} is vacuous: give at least one, none of them 1")
    lo, hi = window.time_window()
    if hi > base_point.t + 1e-12:
        raise DomainError("self-similarity window must lie in t <= t0 of the base point")
    c = np.asarray(window.center.x)
    x0 = np.asarray(base_point.x)
    alpha = field.params.alpha
    field.require_inside((c - window.radius, c + window.radius), (lo, hi),
                         "self-similarity window")

    # sample the window on the source grid resolution
    pts = field.grid.node_points()
    pts = pts[np.all((pts >= c - window.radius) & (pts <= c + window.radius), axis=-1)]
    pts = pts[np.linalg.norm(pts - c, axis=-1) <= window.radius]
    times = field.times[(field.times > lo) & (field.times <= hi)]
    if times.size == 0 or pts.shape[0] == 0:
        raise DomainError("window contains no stored samples")

    maps = [(spec.lam, *spec.source(pts - x0, times - base_point.t)) for spec in specs]
    for lam, mapped, ts_m in maps:
        field.require_inside(mapped, ts_m, f"rescaled window at lambda={float(lam)}")
    # the unmapped side does not depend on lambda: sample it once per time
    worst = 0.0
    for j, t in enumerate(times):
        u = sample_many(field, pts, np.full(pts.shape[0], t))
        for lam, mapped, ts_m in maps:
            v = sample_many(field, mapped, np.full(pts.shape[0], ts_m[j]))
            worst = max(worst, float(np.max(np.abs(u - lam ** (-alpha) * v))))
    return worst


# -- oracle field builders ----------------------------------------------------

def ode_field(params: ModelParams, grid: GridSpec, times) -> SpaceTimeField:
    """Field filled with the space-independent collapse solution."""
    return field_from_function(params, grid, times,
                               lambda xs, t: np.full(xs.shape[0], ode_solution(params, t)))


def radial_field(params: ModelParams, grid: GridSpec, times) -> SpaceTimeField:
    """Time-constant field filled with the radial steady profile."""
    c = radial_steady_coeff(params)
    a = 2.0 / (params.p + 1.0)

    def fn(xs, t):
        return c * np.linalg.norm(xs, axis=-1) ** a

    return field_from_function(params, grid, times, fn)


_PROFILES = {
    "abs_x1": lambda xs: np.abs(xs[:, 0]),
    "abs_x1x2": lambda xs: np.abs(xs[:, 0] * xs[:, 1]),
    "relu_x1": lambda xs: np.maximum(xs[:, 0], 0.0),
}


def profile_field(params: ModelParams, grid: GridSpec, times, profile: str,
                  exponent: Optional[float] = None,
                  value: Optional[float] = None) -> SpaceTimeField:
    """Time-constant synthetic fields used as caloric / counterexample oracles.

    profile: abs_x1 | abs_x1x2 | relu_x1 | abs_x1_pow (with `exponent`)
             | constant (with `value`, default 1)
    """
    if profile == "abs_x1_pow":
        if exponent is None:
            raise ValidationError("abs_x1_pow requires an exponent")
        fn = lambda xs, t: np.abs(xs[:, 0]) ** exponent
    elif profile == "constant":
        if exponent is not None:
            raise ValidationError("constant takes a value, not an exponent")
        value = 1.0 if value is None else value
        fn = lambda xs, t: np.full(xs.shape[0], value)
    elif profile in _PROFILES:
        base = _PROFILES[profile]
        if profile == "abs_x1x2" and grid.n < 2:
            raise ValidationError("abs_x1x2 needs n >= 2")
        fn = lambda xs, t: base(xs)
    else:
        raise ValidationError(f"unknown profile {profile!r}; "
                              f"known: {sorted(_PROFILES) + ['abs_x1_pow', 'constant']}")
    return field_from_function(params, grid, times, fn)


def geometric_times(t_from: float, t_to: float, ratio: float) -> np.ndarray:
    """Strictly increasing times from t_from toward t_to < 0 with |t| shrinking
    geometrically (both negative, |t_to| < |t_from|)."""
    if not (t_from < t_to < 0):
        raise ValidationError("geometric_times expects t_from < t_to < 0")
    if not (0 < ratio < 1):
        raise ValidationError("ratio must be in (0, 1)")
    out = [t_from]
    t = t_from
    while abs(t) * ratio > abs(t_to):
        t = -abs(t) * ratio
        out.append(t)
    if out[-1] != t_to:
        out.append(t_to)
    return np.asarray(out)


def dyadic_times(t_from: float, levels: int) -> np.ndarray:
    """Times -|t_from| * 2^-k for k = 0..levels (exact under rescaling by 2)."""
    return -np.abs(t_from) * 2.0 ** (-np.arange(levels + 1, dtype=float))
