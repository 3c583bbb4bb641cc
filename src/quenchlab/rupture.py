"""Rupture-set analysis: Hölder seminorms, box dimensions, scaling laws.

The parabolic box dimension uses anisotropic tiles (spatial side r, temporal
length r^2), matching coverings by parabolic cylinders: a time line has
parabolic dimension 2, a spatial line 1.  The a priori laws refuse a
cylinder Q_r that leaves the stored data (`SpaceTimeField.require_inside`),
except that its top may pass the last slab by 1% of (4h)^2, a slack of the
point and the grid that every radius shares.
"""

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import (AccuracyError, DegenerateFitError, DomainError, UsageError,
                     ValidationError)
from .exact import BlowupSpec, rescale
from .field import SpaceTimeField
from .geometry import ParabolicPoint
from .grid import GridSpec
from .quadrature import Integrand, floored_power, integrate, singular_floor

_REFINE_CELLS = 4
_BLOCK = 1024


@dataclass
class HolderEstimate:
    exponent: float
    seminorm: float
    witness_pair: Tuple[ParabolicPoint, ParabolicPoint]
    pairs_sampled: int

    def __post_init__(self):
        if self.seminorm < 0:
            raise ValidationError("seminorm must be nonnegative")


@dataclass
class RuptureSet:
    """Grid nodes with u <= threshold, as a space-time point cloud."""

    threshold: float
    xs: np.ndarray          # (m, n) spatial coordinates
    ts: np.ndarray          # (m,) times
    source_grid: GridSpec

    def __post_init__(self):
        if self.threshold <= 0:
            raise ValidationError("rupture threshold must be positive")
        self.xs = np.atleast_2d(np.asarray(self.xs, dtype=float))
        self.ts = np.atleast_1d(np.asarray(self.ts, dtype=float))

    def __len__(self):
        return int(self.ts.size)


@dataclass
class DimensionFit:
    radii: np.ndarray        # decreasing
    counts: np.ndarray
    fitted_dim: float
    fit_range: Tuple[int, int]
    residual: float

    def __post_init__(self):
        if self.fitted_dim < -1e-9:
            raise ValidationError("fitted dimension must be nonnegative")
        counts = np.asarray(self.counts, dtype=float)
        d = np.diff(counts)
        tol = 1e-9 * np.maximum(counts[:-1], 1.0)
        # box counts grow as radii shrink; scaling integrals shrink with them;
        # either way the ladder must be monotone
        if np.any(d < -tol) and np.any(d > tol):
            raise ValidationError("counts must be monotone along the radius ladder")


# -- Hoelder seminorm ---------------------------------------------------------

def _quotients(xs, times, vals, ia_t, ia_s, ib_t, ib_s, exponent):
    du = np.abs(vals[ia_t, ia_s] - vals[ib_t, ib_s])
    dx = np.linalg.norm(xs[ia_s] - xs[ib_s], axis=-1)
    dt = np.abs(times[ia_t] - times[ib_t])
    delta = np.maximum(dx, np.sqrt(dt))
    ok = delta > 0
    out = np.zeros_like(du)
    out[ok] = du[ok] / delta[ok] ** exponent
    return out


def holder_seminorm(field: SpaceTimeField, exponent: float, budget: int,
                    seed: int = 0) -> HolderEstimate:
    """Estimate sup |u(X) - u(Y)| / delta(X, Y)^exponent over grid nodes.

    The budget fixes the number of random seed pairs, rounded up to whole
    blocks of 1024 drawn from a counter-based Philox stream.  The best pair
    of each block seeds a coordinate climb: every node within 4 cells and
    parabolic time window (4h)^2 of one endpoint is tried against the other,
    fixed endpoint, then the roles swap, until neither side improves (at
    most 100 steps).  Climb pairs come on top of the budget, and
    pairs_sampled counts both.  Runs are reproducible, and a larger budget
    strictly extends the evaluated set, so the estimate never decreases when
    the budget grows under the same seed.  The returned seminorm is exactly
    realized by the witness pair.
    """
    if not 0 < exponent <= 1:
        raise UsageError("exponent must lie in (0, 1]")
    if budget < 1000:
        raise UsageError("budget must be at least 10^3 pairs")
    xs = field.grid.node_points()
    vals = field.values.reshape(field.times.size, -1)
    nt, ns = vals.shape
    if nt * ns < 2:
        raise UsageError("need at least two nodes")
    times = field.times
    rng = np.random.Generator(np.random.Philox(key=int(seed)))
    g = field.grid
    shape = np.asarray(g.node_shape)
    window = (_REFINE_CELLS * g.spacing) ** 2
    # the (2R+1)^n spatial offsets in lexicographic order, last axis fastest
    span = np.arange(-_REFINE_CELLS, _REFINE_CELLS + 1)
    stencil = np.stack(np.meshgrid(*[span] * g.n, indexing="ij"), axis=-1).reshape(-1, g.n)

    evaluated = 0

    def _neighbors(it, isp):
        """(time, space) indices of the nodes within the refinement window."""
        multi = np.asarray(np.unravel_index(isp, g.node_shape)) + stencil
        multi = multi[np.all((multi >= 0) & (multi < shape), axis=1)]
        flat = np.ravel_multi_index(tuple(multi.T), g.node_shape)
        tsel = np.flatnonzero(np.abs(times - times[it]) <= window)
        return np.repeat(tsel, flat.size), np.tile(flat, tsel.size)

    def climb(q0, pair):
        nonlocal evaluated
        cur_q, cur = q0, list(pair)
        for _ in range(100):
            improved = False
            for side in (0, 1):
                mt, ms = _neighbors(*cur[side])
                ft, fs = cur[1 - side]
                q = _quotients(xs, times, vals, mt, ms, ft, fs, exponent)
                evaluated += q.size
                j = int(np.argmax(q))
                if q[j] > cur_q * (1 + 1e-15):
                    cur_q = float(q[j])
                    cur[side] = (int(mt[j]), int(ms[j]))
                    improved = True
            if not improved:
                break
        return cur_q, tuple(cur)

    best = (0.0, ((0, 0), (0, 0)))
    climbed = {}
    n_blocks = (budget + _BLOCK - 1) // _BLOCK
    for _ in range(n_blocks):
        ia = rng.integers(0, nt * ns, size=_BLOCK)
        ib = rng.integers(0, nt * ns, size=_BLOCK)
        q = _quotients(xs, times, vals, ia // ns, ia % ns, ib // ns, ib % ns, exponent)
        evaluated += _BLOCK
        j = int(np.argmax(q))
        start = ((int(ia[j] // ns), int(ia[j] % ns)), (int(ib[j] // ns), int(ib[j] % ns)))
        if start not in climbed:
            climbed[start] = climb(float(q[j]), start)
        if climbed[start][0] > best[0]:
            best = climbed[start]

    (at, asp), (bt, bsp) = best[1]
    wa = ParabolicPoint(tuple(xs[asp]), float(times[at]))
    wb = ParabolicPoint(tuple(xs[bsp]), float(times[bt]))
    return HolderEstimate(exponent=exponent, seminorm=max(best[0], 0.0),
                          witness_pair=(wa, wb), pairs_sampled=evaluated)


# -- rupture set and dimensions -------------------------------------------------

def rupture_threshold(field: SpaceTimeField, kappa: float = 4.0) -> float:
    """Recommended threshold kappa * h^alpha.

    An alpha-Hoelder field with a true zero within parabolic distance h of a
    node has node value at most [u] h^alpha, so kappa above the seminorm
    captures every node parabolically adjacent to the zero set.
    """
    return kappa * field.h ** field.params.alpha


def rupture_set(field: SpaceTimeField, tau: float) -> RuptureSet:
    """All space-time grid nodes with u <= tau (may be empty)."""
    if tau <= 0:
        raise UsageError("tau must be positive")
    it, isp = np.nonzero(field.values.reshape(field.times.size, -1) <= tau)
    return RuptureSet(threshold=tau, xs=field.grid.node_points()[isp], ts=field.times[it],
                      source_grid=field.grid)


def _fit_window(radii: np.ndarray) -> Tuple[int, int]:
    """Trim one octave at each end of the (decreasing) ladder."""
    r = np.asarray(radii, dtype=float)
    keep = np.flatnonzero((r <= r[0] / 2.0 + 1e-12 * r[0]) & (r >= 2.0 * r[-1] - 1e-12 * r[0]))
    if keep.size >= 2:
        return int(keep[0]), int(keep[-1] + 1)
    # ladder too short to trim; fall back to the middle half, then everything
    m = len(r)
    if m >= 4:
        return m // 4, m - m // 4
    return 0, m


def _loglog_fit(radii, counts, fit_range) -> Tuple[float, float]:
    i0, i1 = fit_range
    lr = np.log(np.asarray(radii[i0:i1], dtype=float))
    lc = np.log(np.asarray(counts[i0:i1], dtype=float))
    if np.unique(lr).size < 2:
        raise DegenerateFitError("fewer than two distinct radii in the fit window",
                                 radii=np.asarray(radii), counts=np.asarray(counts))
    coef, res, *_ = np.polyfit(lr, lc, 1, full=True)
    rms = float(np.sqrt(res[0] / lc.size)) if len(res) else 0.0
    return float(coef[0]), rms


def _validate_radii(radii, h: float, size: float):
    r = np.asarray(radii, dtype=float)
    if r.ndim != 1 or r.size < 2 or not np.isfinite(r).all() or np.any(np.diff(r) >= 0):
        raise UsageError("radii must be a decreasing list of >= 2 finite entries")
    if r[-1] < 4.0 * h - 1e-12 or r[0] > size / 4.0 + 1e-12:
        raise UsageError(
            f"radii must lie within [4h, domain/4] = [{4*h:g}, {size/4:g}]")
    return r


def _count_tiles(cols: Sequence[np.ndarray], refs: Sequence[float],
                 sides: Sequence[float]) -> int:
    """Number of distinct tiles (of the given sides, from refs) that the rows of cols meet.

    Each column's tile index folds into one int64 in C order, as
    np.ravel_multi_index does over the key extents, so a 1-D unique does the
    count; extents whose product would overflow fall back to rows.
    """
    def keys():
        return (np.floor((c - ref) / side).astype(np.int64)
                for c, ref, side in zip(cols, refs, sides))

    flat, size = 0, 1
    for key in keys():
        extent = int(key.max()) + 1
        size *= extent
        if size > np.iinfo(np.int64).max:
            return int(np.unique(np.column_stack(list(keys())), axis=0).shape[0])
        flat = flat * extent + key
    return int(np.unique(flat).size)


def _box_fit(cols: Sequence[np.ndarray], r: np.ndarray, parabolic: bool) -> DimensionFit:
    """Count the tiles of side r that the rows of the columns cols meet, per radius, and fit.

    With parabolic, the last column is time and its tiles last r^2.  A cloud
    whose counts never change reads as dimension zero (every finite point set
    does, once the radii resolve its gaps).
    """
    refs = [col.min() for col in cols]
    counts = []
    for rad in r:
        sides = [rad] * len(cols)
        if parabolic:
            sides[-1] = rad ** 2
        counts.append(_count_tiles(cols, refs, sides))
    counts = np.asarray(counts)
    window = _fit_window(r)
    if np.all(counts == counts[0]):
        return DimensionFit(r, counts, 0.0, window, 0.0)
    slope, rms = _loglog_fit(r, counts, window)
    return DimensionFit(r, counts, max(-slope, 0.0), window, rms)


def parabolic_box_dimension(S: RuptureSet, radii: Sequence[float]) -> DimensionFit:
    """Box-counting dimension with parabolic tiles (side r, duration r^2).

    fitted_dim is minus the log-log slope of counts against r over the
    trimmed window.
    """
    if len(S) == 0:
        raise UsageError("rupture set is empty")
    r = _validate_radii(radii, S.source_grid.spacing, max(S.source_grid.extent))
    return _box_fit(list(S.xs.T) + [S.ts], r, parabolic=True)


def slice_dimension(S: RuptureSet, t: float, radii: Sequence[float]) -> DimensionFit:
    """Euclidean box counting of the spatial slice {x : (x, t) in S}."""
    h = S.source_grid.spacing
    sel = np.abs(S.ts - t) <= h ** 2
    if not sel.any():
        raise DomainError(f"no rupture points within h^2 of t={t}")
    r = _validate_radii(radii, h, max(S.source_grid.extent))
    return _box_fit(list(S.xs[sel].T), r, parabolic=False)


# -- a priori scaling laws ------------------------------------------------------

_QUANTITIES = ("u_inv_p", "energy", "mass")


def apriori_scaling_check(field: SpaceTimeField, X0: ParabolicPoint, quantity: str,
                          radii: Sequence[float],
                          u_floor: Optional[float] = None) -> DimensionFit:
    """Fit the growth exponent of a local integral over backward cylinders.

    quantity u_inv_p: int u^-p       (expected n + 2/(p+1))
             energy:  int |grad u|^2 + u^(1-p)   (expected n + 4/(p+1))
             mass:    int u          (expected n + 2 + 2/(p+1), a lower bound)

    fitted_dim carries the exponent itself (positive slope of log I vs log r).
    """
    if quantity not in _QUANTITIES:
        raise UsageError(f"quantity must be one of {_QUANTITIES}")
    r = np.sort(np.asarray(radii, dtype=float))[::-1]
    if not (np.isfinite(r) & (r > 0)).all():
        raise UsageError(f"radii must be finite and positive, got {r.tolist()}")
    p = field.params.p
    c = np.asarray(X0.x)

    def terms(blk, inside, ok, wt):
        if quantity == "mass":
            return [blk.u * inside], inside
        if quantity == "u_inv_p":
            density = floored_power(blk.u, ok, -p)
        else:
            density = blk.grad2() + floored_power(blk.u, ok, 1.0 - p)
        return [density * inside], inside

    # Q_r's top may pass the last slab by 1% of (4h)^2, the default ladder's
    # smallest cylinder, for every r alike: a collapse history ends just before
    # its quench point (1e-9 before t0 = 0 in criterion 6)
    top = field.times[-1] if 0 < X0.t - field.times[-1] <= 0.01 * (4.0 * field.h) ** 2 else X0.t
    # every cylinder is checked against the stored data, largest first,
    # before the one integrate sweep over all of them
    balls = []
    for rad in r:
        box = (tuple(c - rad), tuple(c + rad))
        field.require_inside(box, (X0.t - rad ** 2, top), f"Q_r at r={float(rad)}")
        # the ball of Q_r is spatial, so it is prepared once
        balls.append(Integrand(terms, box,
                               lambda pts, rad=rad: np.sum((pts - c) ** 2, axis=-1) <= rad ** 2,
                               span=(X0.t - rad ** 2, X0.t)))
    vals = []
    for rad, res in zip(r, integrate(field, balls, floor=None if quantity == "mass"
                                     else singular_floor(field, u_floor))):
        if res.excluded_fraction > 0.01:
            raise AccuracyError(
                f"singular cells carry {res.excluded_fraction:.1%} of Q_r at r={rad:g}")
        if res.value <= 0:
            raise DegenerateFitError(f"integral vanished at r={rad:g}", radii=r)
        vals.append(res.value)
    vals = np.asarray(vals)
    slope, rms = _loglog_fit(r, vals, (0, len(r)))
    return DimensionFit(r, vals, max(slope, 0.0), (0, len(r)), rms)


# -- blow-up sequences ----------------------------------------------------------

@dataclass
class BlowupDiagnostics:
    sup_norms: List[float]
    sup_diffs: List[float]          # successive rescaling differences
    converged: bool


def blowup_sequence(field: SpaceTimeField, X0: ParabolicPoint,
                    lambdas: Sequence[float], target_grid: GridSpec,
                    target_times) -> Tuple[List[SpaceTimeField], BlowupDiagnostics]:
    """Rescalings lam^-alpha u(x0 + lam x, t0 + lam^2 t) on a common grid.

    Successive sup differences are the Cauchy diagnostic for tangent-function
    convergence; at a positivity point the sup norms blow up like lam^-alpha
    and the report flags non-convergence.
    """
    lams = list(lambdas)
    if any(l2 >= l1 for l1, l2 in zip(lams, lams[1:])):
        raise UsageError("lambdas must be strictly decreasing")
    fields = [rescale(field, BlowupSpec(X0, lam), target_grid, target_times) for lam in lams]
    sups = [float(np.abs(f.values).max()) for f in fields]
    diffs = [float(np.abs(a.values - b.values).max())
             for a, b in zip(fields, fields[1:])]
    converged = True
    if diffs:
        if sups[-1] > 4.0 * sups[0] + 1e-12:
            converged = False
        if len(diffs) >= 2 and diffs[-1] > diffs[0] + 1e-12 and diffs[-1] > 1e-10:
            converged = False
    return fields, BlowupDiagnostics(sup_norms=sups, sup_diffs=diffs, converged=converged)
