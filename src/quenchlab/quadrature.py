"""Cell-centered quadrature on the multilinear interpolant.

All analysis functionals integrate with the midpoint rule per (space-time)
cell.  Values and gradients at cell centers are those of the multilinear
interpolant, so fields that are polynomial of degree one per cell and axis
(|x1|, |x1 x2| on aligned grids, ...) are integrated without interpolation
error in u itself.  Every space-time integral (weak forms, scaling laws)
goes through `integrate`, which takes several integrands, each with its own
box, over one shared time window.  It streams `spacetime_blocks` one stored
time interval at a time, builds each interval's block once over the union of
the boxes and hands every integrand its slice.  An integrand's `prepare`
step runs once per window on its cell centres, so spatial factors (a test
function's eta, grad eta, Lap eta) are not re-evaluated per block.

This module decides which cells cover a box, for slabs and blocks alike
(`_cell_window`; stored slabs are cut to it before they are combined), and
which cells are singular: u below the floor, by default h^alpha
(`singular_floor`), where a u-power term is 0 (`floored_power`).
"""

from dataclasses import dataclass
from typing import Any, Callable, Iterator, List, Optional, Sequence, Tuple

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


def _cell_window(grid: GridSpec, box: Optional[Tuple]):
    """The cells covering box (None: every cell), clipped to the grid.

    Returns the node slicer of those cells and their per-axis centres, or None
    when the box covers no cell.
    """
    ranges = [(0, c) for c in grid.cells]
    if box is not None:
        lo, hi = box
        h = grid.spacing
        ranges = [(max(int(np.floor((lo[k] - o) / h)), 0), min(int(np.ceil((hi[k] - o) / h)), c))
                  for k, (o, c) in enumerate(zip(grid.origin, grid.cells))]
    if any(b <= a for a, b in ranges):
        return None
    return (tuple(slice(a, b + 1) for a, b in ranges),
            tuple(grid.axis_cell_centers(k)[a:b] for k, (a, b) in enumerate(ranges)))


def singular_floor(field: SpaceTimeField, u_floor: Optional[float] = None) -> float:
    """u_floor, or by default h^alpha: cells with u below it are singular."""
    return field.h ** field.params.alpha if u_floor is None else u_floor


def floored_power(u: np.ndarray, ok: np.ndarray, e: float) -> np.ndarray:
    """u ** e on the cells where ok, 0 on the singular cells (no power taken there)."""
    return np.where(ok, np.where(ok, u, 1.0) ** e, 0.0)


def cell_points(centers: Tuple[np.ndarray, ...]) -> np.ndarray:
    """Cell-center coordinates from per-axis centers, shape (len(c) for c) + (n,)."""
    return np.stack(np.meshgrid(*centers, indexing="ij"), axis=-1)


@dataclass
class SlabCells:
    """Cell-center data of one spatial slab."""

    centers: Tuple[np.ndarray, ...]   # 1-d center coordinates per axis
    u: np.ndarray                     # cell-center values
    grad: List[np.ndarray]            # per-axis gradient components
    volume: float                     # cell volume h^n

    def points(self) -> np.ndarray:
        """Cell-center coordinates, shape u.shape + (n,)."""
        return cell_points(self.centers)


def slab_cells(field: SpaceTimeField, t: float, box=None) -> SlabCells:
    """Cell-center values and gradients of the slab at time t."""
    g = field.grid
    win = _cell_window(g, box)
    if win is None:
        # an empty window; caller treats the integral as zero
        empty = tuple(np.empty(0) for _ in range(g.n))
        z = np.zeros((0,) * g.n)
        return SlabCells(empty, z, [z] * g.n, g.spacing ** g.n)
    slicer, centers = win
    window = field.slab(t, slicer)
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
    a = -np.inf if t_lo is None else t_lo
    b = np.inf if t_hi is None else t_hi
    win = _cell_window(g, box)
    if win is None:
        return
    slicer, centers = win
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


@dataclass(frozen=True)
class Integrand:
    """One integrand of `integrate`: its spatial box and how to evaluate it.

    terms(blk, prep, ok) returns (terms, support): a list of signed arrays over
    the cells of blk and a boolean support mask (None: every cell).  blk holds
    the integrand's slice of the interval's block; ok is blk.u >= floor, or
    None without a floor.  prepare(pts) runs once per window on the cell
    centers (shape blk.u.shape + (n,)) and returns prep; without it prep is
    pts.  box None covers the whole grid.
    """

    terms: Callable[[SpaceTimeBlock, Any, Optional[np.ndarray]],
                    Tuple[List[np.ndarray], Optional[np.ndarray]]]
    box: Optional[Tuple] = None
    prepare: Optional[Callable[[np.ndarray], Any]] = None


def _union_box(boxes: List[Optional[Tuple]]) -> Optional[Tuple]:
    """The smallest box holding every box; None if one of them is None."""
    if any(b is None for b in boxes):
        return None
    return (tuple(np.min([b[0] for b in boxes], axis=0)),
            tuple(np.max([b[1] for b in boxes], axis=0)))


def integrate(field: SpaceTimeField, integrands: Sequence[Integrand], t_lo=None, t_hi=None,
              floor: Optional[float] = None) -> List[Integral]:
    """Integrate each integrand over its box and the shared window [t_lo, t_hi].

    Each stored interval's block is built once, over the union of the boxes,
    and every integrand gets its slice of it; values are those of the block
    built over its own box, so each result equals a one-integrand call bit for
    bit.  Every cell carries the weight w = dt * h^n, and per integrand the
    sums run in block order.  The excluded measure counts support cells below
    the floor.  Returns one Integral per integrand, in order.
    """
    g = field.grid
    out = [Integral(0.0, 0.0, 0, 0.0, 0.0) for _ in integrands]
    live = {i: win for i, win in enumerate(_cell_window(g, it.box) for it in integrands)
            if win is not None}
    if not live:
        return out
    union = _union_box([integrands[i].box for i in live])
    outer, _ = _cell_window(g, union)
    # each integrand's cells within the union block's cells
    slices = {i: tuple(slice(a.start - o.start, a.stop - 1 - o.start) for a, o in zip(nodes, outer))
              for i, (nodes, _) in live.items()}
    preps = None
    for blk in spacetime_blocks(field, t_lo, t_hi, box=union):
        if preps is None:   # every block of one window shares its cell centers
            preps = {}
            for i, (_, centers) in live.items():
                pts = cell_points(centers)
                prepare = integrands[i].prepare
                preps[i] = pts if prepare is None else prepare(pts)
        w = blk.dt * blk.volume
        for i, (_, centers) in live.items():
            sl = slices[i]
            sub = SpaceTimeBlock(blk.t_mid, blk.dt, centers, blk.u[sl],
                                 [gk[sl] for gk in blk.grad], blk.dtu[sl], blk.volume)
            ok = None if floor is None else sub.u >= floor
            terms, support = integrands[i].terms(sub, preps[i], ok)
            res = out[i]
            res.value += w * float(sum(terms).sum())
            res.scale += w * float(sum(np.abs(t) for t in terms).sum())
            res.cells += int(sub.u.size)
            res.measure += w * (sub.u.size if support is None else float(support.sum()))
            if ok is not None:
                res.excluded += w * float((~ok if support is None else support & ~ok).sum())
    return out
