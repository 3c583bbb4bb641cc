"""Sampled space-time fields and their interpolation.

A SpaceTimeField stores one spatial slab of node values per stored time.
Interpolation is multilinear in space and linear in time.  Derivatives live
with their users: cell-centre gradients and interval slopes in `quadrature`,
the nodal Laplacian in `solver`.  `require_inside` decides for every op
whether a space-time window lies in the stored data; a window that does not
is refused, never clipped.  Everything here treats fields as immutable
snapshots, so concurrent reads are safe.
"""

import itertools
from typing import Tuple

import numpy as np

from .errors import DomainError, UsageError, ValidationError
from .geometry import ParabolicPoint
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
        if not np.all(np.isfinite(times)) or np.any(np.diff(times) <= 0):
            raise ValidationError("times must be finite and strictly increasing")
        span = grid.time_end - grid.time_start
        if times[0] < grid.time_start - 1e-12 * span or times[-1] > grid.time_end + 1e-12 * span:
            raise ValidationError("times must lie within [time_start, time_end]")
        if params.n != grid.n:
            raise ValidationError("params and grid disagree on spatial dimension")
        if values.shape != (times.size,) + grid.node_shape:
            raise ValidationError(
                f"values shape {values.shape} does not match "
                f"(ntimes,)+nodes {(times.size,) + grid.node_shape}")
        # NaN propagates through min and max, so two reductions check every value
        lo, hi = float(values.min()), float(values.max())
        if not (np.isfinite(lo) and np.isfinite(hi)):
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
        # the values are read-only, so their extremes cannot go stale
        self.min_value, self.max_value = lo, hi

    @property
    def n(self) -> int:
        return self.grid.n

    @property
    def h(self) -> float:
        return self.grid.spacing

    @property
    def sup_norm(self) -> float:
        """max |u| over the whole history."""
        return max(self.max_value, -self.min_value)

    def __repr__(self):
        return (f"SpaceTimeField(n={self.n}, nodes={self.grid.node_shape}, "
                f"ntimes={self.times.size}, t=[{self.times[0]:g},{self.times[-1]:g}])")

    # -- time interpolation -------------------------------------------------

    def time_bracket(self, t: float) -> Tuple[int, float]:
        """Interval index i and weight w with t = (1-w) t_i + w t_{i+1}."""
        i, w = self.time_brackets(np.asarray([t], dtype=float))
        return int(i[0]), float(w[0])

    def require_inside(self, box, ts, what: str = ""):
        """Raise DomainError, naming the window what, unless every time in ts
        lies in the stored history and every row of box (its lo and hi corners,
        or any points; None skips) in the grid.  Times may pass the ends by
        1e-12 of the history's span, points the grid by `GridSpec.contains`'
        slack.  Every window an op reads is checked here, so none is clipped.
        """
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        times = self.times
        slack = 1e-12 * max(times[-1] - times[0], 1e-300)
        bad = (ts < times[0] - slack) | (ts > times[-1] + slack)
        prefix = f"{what}: " if what else ""
        if bad.any():
            raise DomainError(f"{prefix}time {float(ts[bad].min())!r} outside stored range "
                              f"[{float(times[0])!r}, {float(times[-1])!r}]")
        if box is not None:
            pts = np.atleast_2d(np.asarray(box, dtype=float))
            out = ~self.grid.contains(pts)
            if out.any():
                raise DomainError(f"{prefix}point {pts[out][0].tolist()} outside the grid "
                                  f"{list(self.grid.origin)} to {list(self.grid.upper())}")

    def time_brackets(self, ts: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """time_bracket for every entry of ts: index and weight arrays."""
        self.require_inside(None, ts)
        times = self.times
        if times.size == 1:
            return np.zeros(ts.shape, dtype=int), np.zeros(ts.shape)
        i = np.clip(np.searchsorted(times, ts, side="right") - 1, 0, times.size - 2)
        w = (ts - times[i]) / (times[i + 1] - times[i])
        return i, np.clip(w, 0.0, 1.0)

    def slab(self, t: float, window: Tuple[slice, ...] = ()) -> np.ndarray:
        """Node values in window (per-axis node slices) at time t, linear between slabs."""
        i, w = self.time_bracket(t)
        lo = self.values[i][window]
        if w == 0.0 or self.times.size == 1:
            return lo
        return (1.0 - w) * lo + w * self.values[i + 1][window]

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
    field.require_inside(xs, ts, "sample")
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


def field_from_function(params: ModelParams, grid: GridSpec, times, fn,
                        boundary_kind: str = ANALYTIC) -> SpaceTimeField:
    """Fill a field from fn(xs, t) with xs (m, n) -> (m,) values."""
    times = np.asarray(times, dtype=float)
    pts = grid.node_points()
    vals = np.empty((times.size,) + grid.node_shape)
    for j, t in enumerate(times):
        vals[j] = np.asarray(fn(pts, float(t)), dtype=float).reshape(grid.node_shape)
    return SpaceTimeField(params, grid, times, vals, boundary_kind=boundary_kind)
