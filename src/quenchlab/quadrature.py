"""Cell-centered quadrature on the multilinear interpolant.

All analysis functionals integrate with the midpoint rule per (space-time)
cell.  Values and gradients at cell centers are those of the multilinear
interpolant, so fields that are polynomial of degree one per cell and axis
(|x1|, |x1 x2| on aligned grids, ...) are integrated without interpolation
error in u itself.  The cells of a slab (`slab_cells`) and of a stored time
interval (`spacetime_blocks`, which adds dt and u_t) are one type, `Cells`,
made by one builder; the cell quantities the functionals share live on it:
|grad u|^2, grad u . v and the energy density |grad u|^2/2 - u^(1-p)/(p-1).
Every space-time integral (weak forms, scaling laws) goes through
`integrate`, which takes several integrands, each with its own box, over one
shared time window.  It streams `spacetime_blocks` one stored time interval
at a time, builds each interval's block once over the union of the boxes and
hands every integrand its slice (`Cells.sub`).  An integrand's `prepare`
step runs once per window on its cell centres, so spatial factors (a test
function's eta, grad eta, Lap eta) are not re-evaluated per block.

This module decides which cells cover a box, for slabs and blocks alike
(`_cell_window`; stored slabs are cut to it before they are combined), and
which cells are singular: u below the floor, by default h^alpha
(`singular_floor`), where a u-power term is 0 (`floored_power`, which the
energy density's u^(1-p) goes through too).
"""

from dataclasses import dataclass
from typing import Any, Callable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .field import SpaceTimeField
from .grid import GridSpec


def _ends(ax: int):
    """Index tuples of the lower and the upper node of every cell along axis ax."""
    before = (slice(None),) * ax
    return before + (slice(0, -1),), before + (slice(1, None),)


def pool_corners(a: np.ndarray, skip: Optional[int] = None) -> np.ndarray:
    """Mean over the corners of every cell of the node array a, along every axis but skip."""
    for ax in range(a.ndim):
        if ax != skip:
            lo, hi = _ends(ax)
            a = 0.5 * (a[lo] + a[hi])
    return a


def cell_gradient(slab: np.ndarray, h: float) -> List[np.ndarray]:
    """Per-axis gradient of the multilinear interpolant at cell centers: the
    difference along the axis, pooled over the cell's corners along the others."""
    out = []
    for k in range(slab.ndim):
        lo, hi = _ends(k)
        out.append(pool_corners((slab[hi] - slab[lo]) / h, skip=k))
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


@dataclass
class Cells:
    """Cell-center data of one spatial slab, or of one stored time interval
    (possibly clipped), where u and grad are taken at its midpoint t_mid."""

    t_mid: float                       # the slab's time, or the interval's midpoint
    centers: Tuple[np.ndarray, ...]    # 1-d center coordinates per axis
    u: np.ndarray                      # cell-center values
    grad: List[np.ndarray]             # per-axis gradient components
    volume: float                      # spatial cell volume h^n
    dt: float = 0.0                    # clipped interval length; 0 for a slab
    dtu: Optional[np.ndarray] = None   # the interval's slope; None for a slab

    def points(self) -> np.ndarray:
        """Cell-center coordinates, shape u.shape + (n,)."""
        return np.stack(np.meshgrid(*self.centers, indexing="ij"), axis=-1)

    def sub(self, sl: Tuple[slice, ...], centers: Tuple[np.ndarray, ...]) -> "Cells":
        """The cells sl of these, whose per-axis centers are centers."""
        return Cells(self.t_mid, centers, self.u[sl], [gk[sl] for gk in self.grad],
                     self.volume, self.dt, None if self.dtu is None else self.dtu[sl])

    def grad2(self) -> np.ndarray:
        """|grad u|^2."""
        return sum(gk ** 2 for gk in self.grad)

    def grad_dot(self, v: np.ndarray) -> np.ndarray:
        """grad u . v for v of shape u.shape + (n,)."""
        return sum(gk * v[..., k] for k, gk in enumerate(self.grad))

    def energy_density(self, ok: Optional[np.ndarray], p: float) -> np.ndarray:
        """|grad u|^2/2 - u^(1-p)/(p-1); no u-power term when ok is None."""
        density = 0.5 * self.grad2()
        if ok is None:
            return density
        return density - floored_power(self.u, ok, 1.0 - p) / (p - 1.0)


def _cells(grid: GridSpec, t: float, centers: Tuple[np.ndarray, ...], window: np.ndarray,
           dt: float = 0.0, slope: Optional[np.ndarray] = None) -> Cells:
    """The cells of a node window interpolated to time t; an interval's cells
    also carry its clipped length dt and the cell means of its slope."""
    return Cells(float(t), centers, pool_corners(window), cell_gradient(window, grid.spacing),
                 grid.spacing ** grid.n, dt, None if slope is None else pool_corners(slope))


def slab_cells(field: SpaceTimeField, t: float, box=None) -> Cells:
    """Cell-center values and gradients of the slab at time t."""
    g = field.grid
    win = _cell_window(g, box)
    if win is None:
        # an empty window (one node, no cell); caller treats the integral as zero
        return _cells(g, t, tuple(np.empty(0) for _ in range(g.n)), np.zeros((1,) * g.n))
    slicer, centers = win
    return _cells(g, t, centers, field.slab(t, slicer))


def spacetime_blocks(field: SpaceTimeField, t_lo=None, t_hi=None,
                     box=None) -> Iterator[Cells]:
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
        yield _cells(g, t_mid, centers, (1.0 - wm) * w_lo + wm * w_hi, float(hi - lo),
                     (w_hi - w_lo) / dt_full)


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

    terms: Callable[[Cells, Any, Optional[np.ndarray]],
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
    preps = {}
    for blk in spacetime_blocks(field, t_lo, t_hi, box=union):
        w = blk.dt * blk.volume
        for i, (_, centers) in live.items():
            sub = blk.sub(slices[i], centers)
            if i not in preps:   # every block of one window shares its cell centers
                prepare = integrands[i].prepare
                preps[i] = sub.points() if prepare is None else prepare(sub.points())
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
