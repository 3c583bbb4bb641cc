"""Sampled space-time fields and their discrete calculus.

A SpaceTimeField stores one spatial slab of node values per stored time.
Interpolation is multilinear in space and linear in time; derivatives use
second order differences interpolated to the query point.  Everything here
treats fields as immutable snapshots, so concurrent reads are safe.
"""

import itertools
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .errors import DomainError, UsageError, ValidationError
from .geometry import ParabolicCylinder, ParabolicPoint
from .grid import GridSpec
from .params import ModelParams

DIRICHLET_TRACED = "dirichlet_traced"
PERIODIC = "periodic"
ANALYTIC = "analytic"
_BOUNDARY_KINDS = (DIRICHLET_TRACED, PERIODIC, ANALYTIC)


class SpaceTimeField:
    """Scalar field sampled on grid nodes x ordered time stamps."""

    def __init__(self, params: ModelParams, grid: GridSpec, times, values,
                 boundary_kind: str = ANALYTIC):
        times = np.asarray(times, dtype=float)
        values = np.asarray(values, dtype=float)
        if times.ndim != 1 or times.size < 1:
            raise ValidationError("times must be a nonempty 1-d sequence")
        if np.any(np.diff(times) <= 0):
            raise ValidationError("times must be strictly increasing")
        span = grid.time_end - grid.time_start
        if times[0] < grid.time_start - 1e-12 * span or times[-1] > grid.time_end + 1e-12 * span:
            raise ValidationError("times must lie within [time_start, time_end]")
        if params.n != grid.n:
            raise ValidationError("params and grid disagree on spatial dimension")
        if values.shape != (times.size,) + grid.node_shape:
            raise ValidationError(
                f"values shape {values.shape} does not match "
                f"(ntimes,)+nodes {(times.size,) + grid.node_shape}")
        if not np.all(np.isfinite(values)):
            raise ValidationError("field values must all be finite")
        if boundary_kind not in _BOUNDARY_KINDS:
            raise ValidationError(f"unknown boundary kind {boundary_kind!r}")
        self.params = params
        self.grid = grid
        self.times = times
        self.values = values
        self.boundary_kind = boundary_kind
        self.values.setflags(write=False)
        self.times.setflags(write=False)

    @property
    def n(self) -> int:
        return self.grid.n

    @property
    def h(self) -> float:
        return self.grid.spacing

    def __repr__(self):
        return (f"SpaceTimeField(n={self.n}, nodes={self.grid.node_shape}, "
                f"ntimes={self.times.size}, t=[{self.times[0]:g},{self.times[-1]:g}])")

    # -- time interpolation -------------------------------------------------

    def time_bracket(self, t: float) -> Tuple[int, float]:
        """Interval index i and weight w with t = (1-w) t_i + w t_{i+1}."""
        i, w = self.time_brackets(np.asarray([t], dtype=float))
        return int(i[0]), float(w[0])

    def time_brackets(self, ts: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """time_bracket for every entry of ts: index and weight arrays."""
        times = self.times
        span = max(times[-1] - times[0], 1e-300)
        bad = (ts < times[0] - 1e-12 * span) | (ts > times[-1] + 1e-12 * span)
        if bad.any():
            raise DomainError(f"time {ts[bad].min()} outside stored range "
                              f"[{times[0]}, {times[-1]}]")
        if times.size == 1:
            return np.zeros(ts.shape, dtype=int), np.zeros(ts.shape)
        i = np.clip(np.searchsorted(times, ts, side="right") - 1, 0, times.size - 2)
        w = (ts - times[i]) / (times[i + 1] - times[i])
        return i, np.clip(w, 0.0, 1.0)

    def slab(self, t: float) -> np.ndarray:
        """Node values at time t (linear interpolation between stored slabs)."""
        i, w = self.time_bracket(t)
        if w == 0.0 or self.times.size == 1:
            return self.values[i]
        return (1.0 - w) * self.values[i] + w * self.values[i + 1]

    def local_dt(self, t: float) -> float:
        """Stored-time spacing of the interval containing t."""
        if self.times.size < 2:
            raise UsageError("field stores a single slab; no time spacing defined")
        i, _ = self.time_bracket(t)
        return float(self.times[i + 1] - self.times[i])


# -- interpolation ----------------------------------------------------------

def _spatial_weights(grid: GridSpec, xs: np.ndarray):
    """Cell indices and fractional offsets per axis for points xs (m, n)."""
    h = grid.spacing
    idx, frac = [], []
    for k in range(grid.n):
        xi = (xs[:, k] - grid.origin[k]) / h
        i = np.floor(xi).astype(int)
        i = np.clip(i, 0, grid.cells[k] - 1)
        idx.append(i)
        frac.append(np.clip(xi - i, 0.0, 1.0))
    return idx, frac


def _interp_slab(grid: GridSpec, slab: np.ndarray, idx, frac, lead=()) -> np.ndarray:
    """Multilinear interpolation of one slab at precomputed weights.

    lead holds index arrays for leading axes of slab, so values (ntimes, ...)
    with lead=(i,) interpolates every point in its own stored slab.
    """
    n = grid.n
    out = np.zeros(idx[0].shape, dtype=float)
    for corner in itertools.product((0, 1), repeat=n):
        w = np.ones_like(out)
        ix = []
        for k, c in enumerate(corner):
            w = w * (frac[k] if c else 1.0 - frac[k])
            ix.append(idx[k] + c)
        out += w * slab[tuple(lead) + tuple(ix)]
    return out


def sample_many(field: SpaceTimeField, xs: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """Interpolated values at points xs (m, n), ts (m,).  Exact at nodes."""
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    if xs.shape[1] != field.n:
        raise UsageError(f"points have dimension {xs.shape[1]}, field has {field.n}")
    inside = field.grid.contains(xs)
    if not np.all(inside):
        bad = xs[~inside][0]
        raise DomainError(f"point {tuple(bad)} outside the spatial domain")
    idx, frac = _spatial_weights(field.grid, xs)
    i, w = field.time_brackets(ts)
    va = _interp_slab(field.grid, field.values, idx, frac, lead=(i,))
    if field.times.size == 1:
        return va
    vb = _interp_slab(field.grid, field.values, idx, frac, lead=(i + 1,))
    return (1.0 - w) * va + w * vb


def sample(field: SpaceTimeField, X: ParabolicPoint) -> float:
    """Value at X; multilinear in space, linear in time."""
    return float(sample_many(field, np.asarray([X.x]), np.asarray([X.t]))[0])


# -- derivatives ------------------------------------------------------------

def _check_interior(field: SpaceTimeField, X: ParabolicPoint, margin: float = 1.0):
    h = field.h
    lo = np.asarray(field.grid.origin)
    hi = np.asarray(field.grid.upper())
    x = np.asarray(X.x)
    slack = 1e-12 * max(field.grid.extent)
    if np.any(x < lo + margin * h - slack) or np.any(x > hi - margin * h + slack):
        raise DomainError(
            f"point {tuple(x)} is within {margin} spacing of the spatial boundary; "
            "derivatives are interior objects here")


def _central_diff_slab(slab: np.ndarray, axis: int, h: float) -> np.ndarray:
    """Central difference along one axis; boundary entries are left as NaN."""
    out = np.full_like(slab, np.nan)
    sl_mid = [slice(None)] * slab.ndim
    sl_up = [slice(None)] * slab.ndim
    sl_dn = [slice(None)] * slab.ndim
    sl_mid[axis] = slice(1, -1)
    sl_up[axis] = slice(2, None)
    sl_dn[axis] = slice(0, -2)
    out[tuple(sl_mid)] = (slab[tuple(sl_up)] - slab[tuple(sl_dn)]) / (2.0 * h)
    return out


def _second_diff_slab(slab: np.ndarray, axis: int, h: float) -> np.ndarray:
    out = np.full_like(slab, np.nan)
    sl_mid = [slice(None)] * slab.ndim
    sl_up = [slice(None)] * slab.ndim
    sl_dn = [slice(None)] * slab.ndim
    sl_mid[axis] = slice(1, -1)
    sl_up[axis] = slice(2, None)
    sl_dn[axis] = slice(0, -2)
    out[tuple(sl_mid)] = (slab[tuple(sl_up)] - 2.0 * slab[tuple(sl_mid)] + slab[tuple(sl_dn)]) / h ** 2
    return out


def _interp_derived(field: SpaceTimeField, X: ParabolicPoint, node_op) -> float:
    """Apply node_op to the two bracketing slabs, interpolate to X."""
    i, w = field.time_bracket(X.t)
    xs = np.asarray([X.x])
    idx, frac = _spatial_weights(field.grid, xs)
    da = _interp_slab(field.grid, node_op(field.values[i]), idx, frac)[0]
    if w == 0.0 or field.times.size == 1:
        val = da
    else:
        db = _interp_slab(field.grid, node_op(field.values[i + 1]), idx, frac)[0]
        val = (1.0 - w) * da + w * db
    if not np.isfinite(val):
        raise DomainError("derivative stencil touched the spatial boundary")
    return float(val)


def gradient(field: SpaceTimeField, X: ParabolicPoint) -> np.ndarray:
    """Spatial gradient at X from central second order differences."""
    _check_interior(field, X)
    h = field.h
    return np.array([
        _interp_derived(field, X, lambda s, k=k: _central_diff_slab(s, k, h))
        for k in range(field.n)
    ])


def laplacian(field: SpaceTimeField, X: ParabolicPoint) -> float:
    """Standard 2n+1 point Laplacian at X, second order."""
    _check_interior(field, X)
    h = field.h

    def op(slab):
        acc = np.zeros_like(slab)
        for k in range(field.n):
            acc = acc + _second_diff_slab(slab, k, h)
        return acc

    return _interp_derived(field, X, op)


def time_derivative(field: SpaceTimeField, X: ParabolicPoint) -> float:
    """du/dt at X from the quadratic through three neighboring slabs.

    Exact for fields quadratic in t, uniform steps or not.  Refused at the
    temporal endpoints.
    """
    times = field.times
    if times.size < 3:
        raise UsageError("time_derivative needs at least three stored slabs")
    span = times[-1] - times[0]
    if X.t <= times[0] + 1e-14 * span or X.t >= times[-1] - 1e-14 * span:
        raise DomainError(f"time {X.t} is at or beyond the stored endpoints")
    i, w = field.time_bracket(X.t)
    # pick the centered triple around the containing interval
    if i == 0:
        j = 0
    elif i >= times.size - 2:
        j = times.size - 3
    else:
        j = i - 1 if (X.t - times[i]) < (times[i + 1] - X.t) else i
        j = min(max(j, 0), times.size - 3)
    t0, t1, t2 = times[j], times[j + 1], times[j + 2]
    xs = np.asarray([X.x])
    idx, frac = _spatial_weights(field.grid, xs)
    u0 = _interp_slab(field.grid, field.values[j], idx, frac)[0]
    u1 = _interp_slab(field.grid, field.values[j + 1], idx, frac)[0]
    u2 = _interp_slab(field.grid, field.values[j + 2], idx, frac)[0]
    t = X.t
    # derivative of the Lagrange quadratic through (t0,u0),(t1,u1),(t2,u2)
    d0 = u0 * (2 * t - t1 - t2) / ((t0 - t1) * (t0 - t2))
    d1 = u1 * (2 * t - t0 - t2) / ((t1 - t0) * (t1 - t2))
    d2 = u2 * (2 * t - t0 - t1) / ((t2 - t0) * (t2 - t1))
    return float(d0 + d1 + d2)


# -- restriction ------------------------------------------------------------

@dataclass
class CylinderPatch:
    """A grid-aligned sub-field together with a node mask for the cylinder."""

    field: SpaceTimeField
    node_mask: np.ndarray          # shape (ntimes,) + node_shape of the sub-field
    cylinder: ParabolicCylinder

    def mask_measure(self) -> float:
        """Space-time volume of the cylinder seen by the sub-grid.

        Counts spatial cells whose center lies in the ball and clips stored
        time intervals against the cylinder's window, so the estimate
        converges to |B_r| * (time window length).
        """
        f = self.field
        lo, hi = self.cylinder.time_window()
        centers = np.meshgrid(*[f.grid.axis_cell_centers(k) for k in range(f.n)],
                              indexing="ij")
        pts = np.stack([c.ravel() for c in centers], axis=-1)
        c = np.asarray(self.cylinder.center.x)
        in_ball = np.linalg.norm(pts - c, axis=-1) <= self.cylinder.radius
        space = in_ball.sum() * f.h ** f.n
        tgrid = np.clip(f.times, lo, hi)
        tlen = float(tgrid[-1] - tgrid[0]) if f.times.size > 1 else 0.0
        return float(space * tlen)


def restrict(field: SpaceTimeField, Q: ParabolicCylinder) -> CylinderPatch:
    """Sub-field on the smallest grid-aligned box containing Q, plus mask."""
    g = field.grid
    if Q.center.n != field.n:
        raise UsageError("cylinder dimension does not match field")
    h = g.spacing
    c = np.asarray(Q.center.x)
    lo_idx, hi_idx = [], []
    for k in range(g.n):
        a = int(np.floor((c[k] - Q.radius - g.origin[k]) / h))
        b = int(np.ceil((c[k] + Q.radius - g.origin[k]) / h))
        a = max(a, 0)
        b = min(b, g.cells[k])
        if a > b:
            raise DomainError("cylinder does not intersect the spatial domain")
        if a == b:   # grazing contact: widen to one full cell
            if b < g.cells[k]:
                b += 1
            else:
                a -= 1
        lo_idx.append(a)
        hi_idx.append(b)
    t_lo, t_hi = Q.time_window()
    times = field.times
    if t_hi < times[0] or t_lo > times[-1]:
        raise DomainError("cylinder does not intersect the stored time range")
    j0 = int(np.searchsorted(times, t_lo, side="left"))
    j0 = max(j0 - 1, 0)
    j1 = int(np.searchsorted(times, t_hi, side="right"))
    j1 = min(j1 + 1, times.size)
    if j1 - j0 < 1:
        raise DomainError("cylinder time window contains no stored slabs")

    sub_times = times[j0:j1]
    slicer = tuple(slice(a, b + 1) for a, b in zip(lo_idx, hi_idx))
    sub_values = field.values[(slice(j0, j1),) + slicer].copy()
    sub_grid = GridSpec(
        origin=tuple(g.origin[k] + lo_idx[k] * h for k in range(g.n)),
        extent=tuple((hi_idx[k] - lo_idx[k]) * h for k in range(g.n)),
        cells=tuple(hi_idx[k] - lo_idx[k] for k in range(g.n)),
        time_start=min(g.time_start, sub_times[0]),
        time_end=max(g.time_end, sub_times[-1]),
    )
    sub = SpaceTimeField(field.params, sub_grid, sub_times, sub_values,
                         boundary_kind=field.boundary_kind)
    axes = np.meshgrid(*[sub_grid.axis_nodes(k) for k in range(g.n)], indexing="ij")
    pts = np.stack([a.ravel() for a in axes], axis=-1)
    mask = np.zeros((sub_times.size,) + sub_grid.node_shape, dtype=bool)
    for j, t in enumerate(sub_times):
        mask[j] = Q.contains(pts, np.full(pts.shape[0], t)).reshape(sub_grid.node_shape)
    return CylinderPatch(field=sub, node_mask=mask, cylinder=Q)


def field_from_function(params: ModelParams, grid: GridSpec, times, fn,
                        boundary_kind: str = ANALYTIC) -> SpaceTimeField:
    """Fill a field from fn(xs, t) with xs (m, n) -> (m,) values."""
    times = np.asarray(times, dtype=float)
    axes = np.meshgrid(*[grid.axis_nodes(k) for k in range(grid.n)], indexing="ij")
    pts = np.stack([a.ravel() for a in axes], axis=-1)
    vals = np.empty((times.size,) + grid.node_shape)
    for j, t in enumerate(times):
        vals[j] = np.asarray(fn(pts, float(t)), dtype=float).reshape(grid.node_shape)
    return SpaceTimeField(params, grid, times, vals, boundary_kind=boundary_kind)
