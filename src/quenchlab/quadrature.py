"""Cell-centered quadrature on the multilinear interpolant.

All analysis functionals integrate with the midpoint rule per (space-time)
cell.  Values and gradients at cell centers are those of the multilinear
interpolant, so fields that are polynomial of degree one per cell and axis
(|x1|, |x1 x2| on aligned grids, ...) are integrated without interpolation
error in u itself.  Every space-time integral (weak forms, scaling laws)
goes through `integrate`, which streams `spacetime_blocks` one stored time
interval at a time.
"""

from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

import numpy as np

from .field import SpaceTimeField
from .grid import GridSpec


def pool_corners(a: np.ndarray, n: int) -> np.ndarray:
    """Mean over the 2^n corners of every spatial cell (last n axes)."""
    for k in range(n):
        ax = a.ndim - n + k
        sl_lo = [slice(None)] * a.ndim
        sl_hi = [slice(None)] * a.ndim
        sl_lo[ax] = slice(0, -1)
        sl_hi[ax] = slice(1, None)
        a = 0.5 * (a[tuple(sl_lo)] + a[tuple(sl_hi)])
    return a


def cell_gradient(slab: np.ndarray, h: float) -> List[np.ndarray]:
    """Per-axis gradient of the multilinear interpolant at cell centers."""
    n = slab.ndim
    out = []
    for k in range(n):
        sl_lo = [slice(None)] * n
        sl_hi = [slice(None)] * n
        sl_lo[k] = slice(0, -1)
        sl_hi[k] = slice(1, None)
        d = (slab[tuple(sl_hi)] - slab[tuple(sl_lo)]) / h
        # average over the remaining axes to land on cell centers
        for m in range(n):
            if m == k:
                continue
            sl_a = [slice(None)] * n
            sl_b = [slice(None)] * n
            sl_a[m] = slice(0, -1)
            sl_b[m] = slice(1, None)
            d = 0.5 * (d[tuple(sl_a)] + d[tuple(sl_b)])
        out.append(d)
    return out


def _axis_windows(grid: GridSpec, box: Optional[Tuple]) -> List[Tuple[int, int]]:
    """Cell index ranges [a, b) per axis covering the requested box."""
    if box is None:
        return [(0, c) for c in grid.cells]
    lo, hi = box
    h = grid.spacing
    ranges = []
    for k in range(grid.n):
        a = int(np.floor((lo[k] - grid.origin[k]) / h))
        b = int(np.ceil((hi[k] - grid.origin[k]) / h))
        ranges.append((max(a, 0), min(b, grid.cells[k])))
    return ranges


@dataclass
class SlabCells:
    """Cell-center data of one spatial slab."""

    centers: Tuple[np.ndarray, ...]   # 1-d center coordinates per axis
    u: np.ndarray                     # cell-center values
    grad: List[np.ndarray]            # per-axis gradient components
    volume: float                     # cell volume h^n

    def points(self) -> np.ndarray:
        """Cell-center coordinates, shape u.shape + (n,)."""
        return np.stack(np.meshgrid(*self.centers, indexing="ij"), axis=-1)


def slab_cells(field: SpaceTimeField, t: float, box=None) -> SlabCells:
    """Cell-center values and gradients of the slab at time t."""
    g = field.grid
    ranges = _axis_windows(g, box)
    if any(b <= a for a, b in ranges):
        # an empty window; caller treats the integral as zero
        empty = tuple(np.empty(0) for _ in range(g.n))
        z = np.zeros((0,) * g.n)
        return SlabCells(empty, z, [z] * g.n, g.spacing ** g.n)
    slab = field.slab(t)
    slicer = tuple(slice(a, b + 1) for a, b in ranges)
    window = slab[slicer]
    centers = tuple(g.axis_cell_centers(k)[ranges[k][0]:ranges[k][1]] for k in range(g.n))
    return SlabCells(
        centers=centers,
        u=pool_corners(window, g.n),
        grad=cell_gradient(window, g.spacing),
        volume=g.spacing ** g.n,
    )


@dataclass
class SpaceTimeBlock:
    """Cell-center data of one stored time interval (possibly clipped)."""

    t_mid: float
    dt: float                          # clipped interval length
    centers: Tuple[np.ndarray, ...]
    u: np.ndarray
    grad: List[np.ndarray]
    dtu: np.ndarray
    volume: float                      # spatial cell volume h^n


def spacetime_blocks(field: SpaceTimeField, t_lo=None, t_hi=None,
                     box=None) -> Iterator[SpaceTimeBlock]:
    """Iterate space-time cells between stored slabs, clipped to [t_lo, t_hi].

    u and grad are evaluated at the (clipped) interval midpoint via the
    linear-in-time interpolant; dtu is its exact slope over the interval.
    """
    g = field.grid
    times = field.times
    if times.size < 2:
        return
    a = times[0] if t_lo is None else max(t_lo, times[0])
    b = times[-1] if t_hi is None else min(t_hi, times[-1])
    if b <= a:
        return
    ranges = _axis_windows(g, box)
    if any(r1 <= r0 for r0, r1 in ranges):
        return
    slicer = tuple(slice(r0, r1 + 1) for r0, r1 in ranges)
    centers = tuple(g.axis_cell_centers(k)[ranges[k][0]:ranges[k][1]] for k in range(g.n))
    h = g.spacing
    vol = h ** g.n
    for j in range(times.size - 1):
        lo = max(times[j], a)
        hi = min(times[j + 1], b)
        if hi <= lo:
            continue
        w_lo = field.values[j][slicer]
        w_hi = field.values[j + 1][slicer]
        dt_full = times[j + 1] - times[j]
        t_mid = 0.5 * (lo + hi)
        wm = (t_mid - times[j]) / dt_full
        window = (1.0 - wm) * w_lo + wm * w_hi
        slope = (w_hi - w_lo) / dt_full
        yield SpaceTimeBlock(
            t_mid=float(t_mid),
            dt=float(hi - lo),
            centers=centers,
            u=pool_corners(window, g.n),
            grad=cell_gradient(window, h),
            dtu=pool_corners(slope, g.n),
            volume=vol,
        )


@dataclass
class Integral:
    """Midpoint-rule sums of one integrand over a space-time window."""

    value: float        # sum over cells of w * (sum of the terms)
    scale: float        # sum over cells of w * (sum of |term|)
    cells: int          # space-time cells visited
    measure: float      # weighted measure of the support
    excluded: float     # weighted measure of the support where u < floor

    @property
    def excluded_fraction(self) -> float:
        return self.excluded / self.measure if self.measure > 0 else 0.0


def integrate(field: SpaceTimeField, integrand, t_lo=None, t_hi=None, box=None,
              floor: Optional[float] = None) -> Integral:
    """Integrate over the space-time cells of `spacetime_blocks`, block by block.

    integrand(blk, pts, ok) returns (terms, support): a list of signed arrays
    over the block's cells and a boolean support mask (None: every cell).  pts
    holds the cell centers with shape blk.u.shape + (n,); ok is u >= floor,
    or None without a floor.  Every cell carries the weight w = dt * h^n.  The
    excluded measure counts support cells below the floor.
    """
    value = scale = measure = excluded = 0.0
    cells = 0
    pts = None
    for blk in spacetime_blocks(field, t_lo, t_hi, box=box):
        if pts is None:   # every block of one window shares its cell centers
            pts = np.stack(np.meshgrid(*blk.centers, indexing="ij"), axis=-1)
        ok = None if floor is None else blk.u >= floor
        terms, support = integrand(blk, pts, ok)
        w = blk.dt * blk.volume
        value += w * float(sum(terms).sum())
        scale += w * float(sum(np.abs(t) for t in terms).sum())
        cells += int(blk.u.size)
        measure += w * (blk.u.size if support is None else float(support.sum()))
        if ok is not None:
            excluded += w * float((~ok if support is None else support & ~ok).sum())
    return Integral(value, scale, cells, measure, excluded)
