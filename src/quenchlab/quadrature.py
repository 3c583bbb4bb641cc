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
`integrate`, which takes several integrands, each with its own box and its
own time span, and sweeps the stored time intervals once over the union of
them.  It streams `spacetime_blocks`, builds each interval's block once over
the union of the boxes, builds a clipped block only where a span cuts the
interval, and hands every integrand its slice (`Cells.sub`).  An integrand's
`prepare` step runs once per call and piece on its cell centres, so spatial
factors (a test function's eta, grad eta, Lap eta, a vector field Y) are not
re-evaluated per block.  `integrate` is also the one place a test function's
time factor is sampled: w(t) and w'(t) of each distinct `TimeWindow` are
evaluated once per block, at its midpoint, and handed to every integrand
naming that window.  An integrand can also ask for its terms summed over the
blocks cell by cell (`Integrand.moments`), which is how a dictionary of test
functions linear in u is contracted over time.

Large windows are swept in row bands (`_bands`), so no cell array spans a
large window.  The partition is fixed per grid: bands of rows along axis 0,
anchored at row 0, each holding at most `_BAND` cells.  A window of fewer
than 2 * `_BAND` cells is one piece, itself; a larger one is summed piece by
piece, its pieces being its cells in each band.  `integrate` builds the
union block band by band, and a clipped block only in the bands where an
integrand making that clip has cells; a whole window that straddles bands is
stitched from the band blocks, which is bitwise since cell values are local
to their corners.  An integrand's pieces thus depend only on its own window
and the grid, and each result of a joint call equals a one-integrand call
bit for bit.  The slab sums of `monotonicity` and of the energy inequality's
sides read the same rule.

This module decides which cells cover a box, for slabs and blocks alike
(`_cell_window`; stored slabs are cut to it before they are combined, and a
slab over no cell is refused), which cells of an enclosing window a sub-box
takes (`_sub_cells`), how a window is cut into bands (`_bands`), and which
cells are singular: u below the floor, by default h^alpha
(`singular_floor`), where a u-power term is 0 (`floored_power`, which the
energy density's u^(1-p) goes through too).
"""

import math
from dataclasses import dataclass
from typing import Any, Callable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .bumps import TimeWindow
from .errors import DomainError
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


def _cell_window(grid: GridSpec, box: Optional[Tuple], rows: Optional[Tuple[int, int]] = None):
    """The cells covering box (None: every cell), clipped to the grid and to
    the cell rows [rows[0], rows[1]) along axis 0 when rows is given.

    Returns the node slicer of those cells and their per-axis centres, or None
    when the box covers no cell.
    """
    ranges = [(0, c) for c in grid.cells]
    if box is not None:
        lo, hi = box
        h = grid.spacing
        ranges = [(max(int(np.floor((lo[k] - o) / h)), 0), min(int(np.ceil((hi[k] - o) / h)), c))
                  for k, (o, c) in enumerate(zip(grid.origin, grid.cells))]
    if rows is not None:
        ranges[0] = (max(ranges[0][0], rows[0]), min(ranges[0][1], rows[1]))
    if any(b <= a for a, b in ranges):
        return None
    return (tuple(slice(a, b + 1) for a, b in ranges),
            tuple(grid.axis_cell_centers(k)[a:b] for k, (a, b) in enumerate(ranges)))


_BAND = 2 ** 13   # cells of one band: 64 KiB a float64 array


def _bands(grid: GridSpec, box: Optional[Tuple]) -> List[Optional[Tuple[int, int]]]:
    """The pieces of box's cells, as the cell rows each takes along axis 0.

    Bands are fixed per grid: rows along axis 0 from row 0, each holding at
    most _BAND cells (one row at least).  A window of fewer than 2 * _BAND
    cells, or of none, is one piece, [None] (the whole window); a larger one
    has one piece per band it meets, its cells in that band.
    """
    win = _cell_window(grid, box)
    if win is None or math.prod(s.stop - 1 - s.start for s in win[0]) < 2 * _BAND:
        return [None]
    height = max(_BAND // math.prod(grid.cells[1:]), 1)
    a, b = win[0][0].start, win[0][0].stop - 1
    cuts = [a, *range((a // height + 1) * height, b, height), b]
    return list(zip(cuts[:-1], cuts[1:]))


def _sub_cells(nodes: Tuple[slice, ...], outer: Tuple[slice, ...]) -> Tuple[slice, ...]:
    """The cells of node slicer nodes as a slice of the cells of enclosing node slicer outer."""
    return tuple(slice(a.start - o.start, a.stop - 1 - o.start) for a, o in zip(nodes, outer))


def _points(centers: Tuple[np.ndarray, ...]) -> np.ndarray:
    """The points of the grid with per-axis coordinates centers, shape (len(c) for c) + (n,)."""
    return np.stack(np.meshgrid(*centers, indexing="ij"), axis=-1)


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
        return _points(self.centers)

    def sub(self, sl: Tuple[slice, ...], centers: Tuple[np.ndarray, ...]) -> "Cells":
        """The cells sl of these, whose per-axis centers are centers."""
        return Cells(self.t_mid, centers, self.u[sl], [gk[sl] for gk in self.grad],
                     self.volume, self.dt, None if self.dtu is None else self.dtu[sl])

    def grad2(self) -> np.ndarray:
        """|grad u|^2."""
        return sum(gk ** 2 for gk in self.grad)

    def grad_dot(self, v: np.ndarray) -> np.ndarray:
        """grad u . v for v broadcasting against u.shape + (n,)."""
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


def slab_cells(field: SpaceTimeField, t: float, box=None,
               rows: Optional[Tuple[int, int]] = None) -> Cells:
    """Cell-center values and gradients of the slab at time t over box's cells
    (those in rows, when given); refused if they are none."""
    g = field.grid
    win = _cell_window(g, box, rows)
    if win is None:
        raise DomainError(f"box {np.asarray(box, dtype=float).tolist()} covers no grid cell")
    slicer, centers = win
    return _cells(g, t, centers, field.slab(t, slicer))


def _clips(times: np.ndarray, t_lo: float, t_hi: float) -> Tuple[np.ndarray, np.ndarray]:
    """Each stored interval [t_j, t_j+1] clipped to [t_lo, t_hi]: the arrays of its ends."""
    return np.maximum(times[:-1], t_lo), np.minimum(times[1:], t_hi)


def spacetime_blocks(field: SpaceTimeField, t_lo=None, t_hi=None, box=None,
                     rows: Optional[Tuple[int, int]] = None) -> Iterator[Cells]:
    """Iterate space-time cells between stored slabs, clipped to [t_lo, t_hi],
    over box's cells (those in rows, when given).

    u and grad are evaluated at the (clipped) interval midpoint via the
    linear-in-time interpolant; dtu is its exact slope over the interval.
    """
    g = field.grid
    times = field.times
    win = _cell_window(g, box, rows)
    if win is None:
        return
    slicer, centers = win
    los, his = _clips(times, -np.inf if t_lo is None else t_lo, np.inf if t_hi is None else t_hi)
    for j in np.flatnonzero(his > los):
        lo, hi = los[j], his[j]
        w_lo = field.values[j][slicer]
        w_hi = field.values[j + 1][slicer]
        dt_full = times[j + 1] - times[j]
        t_mid = 0.5 * (lo + hi)
        wm = (t_mid - times[j]) / dt_full
        yield _cells(g, t_mid, centers, (1.0 - wm) * w_lo + wm * w_hi, float(hi - lo),
                     (w_hi - w_lo) / dt_full)


@dataclass
class Integral:
    """Midpoint-rule sums of one integrand over its space-time window."""

    value: float        # sum over cells of w * (sum of the terms)
    scale: float        # sum over cells of w * (sum of |term|)
    cells: int          # space-time cells visited
    measure: float      # weighted measure of the support
    excluded: float     # weighted measure of the support where u < floor
    moments: Optional[List[np.ndarray]] = None   # per term, sum over blocks of w * term

    @property
    def excluded_fraction(self) -> float:
        return self.excluded / self.measure if self.measure > 0 else 0.0


@dataclass(frozen=True)
class Integrand:
    """One integrand of `integrate`: its space-time window and how to evaluate it.

    terms(blk, prep, ok, wt) returns (terms, support): a list of signed arrays
    over the cells of blk and a boolean support mask (None: every cell).  blk
    holds the integrand's slice of the interval's block; ok is blk.u >= floor,
    or None without a floor; wt is (w, w') of the test function's time factor
    at blk.t_mid, or None without one.  blk is one piece of the window
    (`_bands`): the whole window, or its cells in one band.  prepare(pts) runs
    once per call and piece on the cell centers (shape blk.u.shape + (n,))
    and returns prep; without it prep is None.  box None covers the whole
    grid, span None the whole stored history.  With moments, each term is
    summed over the blocks cell by cell into Integral.moments, and value and
    scale stay 0.
    """

    terms: Callable[[Cells, Any, Optional[np.ndarray], Optional[Tuple[float, float]]],
                    Tuple[List[np.ndarray], Optional[np.ndarray]]]
    box: Optional[Tuple] = None
    prepare: Optional[Callable[[np.ndarray], Any]] = None
    time: Optional[TimeWindow] = None
    span: Optional[Tuple[float, float]] = None
    moments: bool = False


def _union_box(boxes: List[Optional[Tuple]]) -> Optional[Tuple]:
    """The smallest box holding every box; None if one of them is None."""
    if any(b is None for b in boxes):
        return None
    return (tuple(np.min([b[0] for b in boxes], axis=0)),
            tuple(np.max([b[1] for b in boxes], axis=0)))


def integrate(field: SpaceTimeField, integrands: Sequence[Integrand],
              floor: Optional[float] = None) -> List[Integral]:
    """Integrate each integrand over its box and its time span, in one sweep.

    The sweep visits each stored interval once, over the union of the boxes
    and of the spans.  It builds the interval's block once over the union box,
    band by band when the union box is cut (`_bands`), and one more block for
    each distinct clip of the interval by a span that cuts it more than the
    union does, in each band where an integrand making that clip has cells.
    Every integrand gets its slice of the block of its own clip: one per
    piece of its window, a whole window that straddles bands stitched from
    its band slices.  Values are those of the blocks built over its own box
    and span, and its pieces depend on its own window only, so each result
    equals a one-integrand call bit for bit.  Each distinct time window (by
    value) is sampled once per block.  Every cell carries the weight
    w = dt * h^n, and per integrand the sums run in block order, piece by
    piece.  The excluded measure counts support cells below the floor.
    Returns one Integral per integrand, in order.
    """
    g = field.grid
    out = [Integral(0.0, 0.0, 0, 0.0, 0.0) for _ in integrands]
    wins = {i: _cell_window(g, it.box) for i, it in enumerate(integrands)}
    live = [i for i, win in wins.items() if win is not None]
    if not live:
        return out
    union = _union_box([integrands[i].box for i in live])
    bands = _bands(g, union)
    # per band, each integrand's cells there: their slice of the band's union
    # block, their centres, and their slice of the integrand's own window
    parts = []
    for rows in bands:
        outer = _cell_window(g, union, rows)[0]
        parts.append({})
        for i in live:
            win = _cell_window(g, integrands[i].box, rows)
            if win is not None:
                parts[-1][i] = (_sub_cells(win[0], outer), win[1], _sub_cells(win[0], wins[i][0]))
    # a whole window met by several bands is stitched; its prep is keyed by i alone
    whole = {i for i in live if _bands(g, integrands[i].box) == [None]}
    last = {i: k for k, part in enumerate(parts) for i in part}
    stitched = {i for i in whole if sum(i in part for part in parts) > 1}
    spans = {i: integrands[i].span or (-np.inf, np.inf) for i in live}
    clips = {i: _clips(field.times, *span) for i, span in spans.items()}
    sweep = (min(a for a, _ in spans.values()), max(b for _, b in spans.values()))
    los, his = _clips(field.times, *sweep)
    preps = {}

    def add(i: int, blk: Cells, own, key, wt):
        # own: the cells of blk within the integrand's window, where its moments go
        it = integrands[i]
        if key not in preps:   # every block of one call shares a piece's cell centers
            preps[key] = None if it.prepare is None else it.prepare(blk.points())
        ok = None if floor is None else blk.u >= floor
        terms, support = it.terms(blk, preps[key], ok, wt)
        w = blk.dt * blk.volume
        res = out[i]
        if not it.moments:
            res.value += w * float(sum(terms).sum())
            res.scale += w * float(sum(np.abs(t) for t in terms).sum())
        else:
            if res.moments is None:
                shape = tuple(len(c) for c in wins[i][1])
                res.moments = [np.zeros(shape) for _ in terms]
            for m, t in zip(res.moments, terms):
                m[own] += w * t
        res.cells += int(blk.u.size)
        res.measure += w * (blk.u.size if support is None else float(support.sum()))
        if ok is not None:
            res.excluded += w * float((~ok if support is None else support & ~ok).sum())

    def band(j: int, k: int, blk: Cells, wts: dict, pending: dict):
        # a function, so the band's blocks are freed before the next band's are built
        built = {(los[j], his[j]): blk}   # the band's blocks of the interval, by clip
        for i, (sl, centers, own) in parts[k].items():
            it = integrands[i]
            clip = (clips[i][0][j], clips[i][1][j])
            if clip[1] <= clip[0]:
                continue
            if clip not in built:
                built[clip], = spacetime_blocks(field, *clip, box=union, rows=bands[k])
            b = built[clip]
            if it.time is not None and (clip, it.time) not in wts:
                wts[clip, it.time] = (it.time.value(b.t_mid), it.time.d1(b.t_mid))
            wt = wts.get((clip, it.time))
            if i not in stitched:
                add(i, b.sub(sl, centers), own, i if i in whole else (i, k), wt)
                continue
            if i not in pending:   # filled band by band, evaluated at its last band
                shape = tuple(len(c) for c in wins[i][1])
                pending[i] = Cells(b.t_mid, wins[i][1], np.empty(shape),
                                   [np.empty(shape) for _ in b.grad], b.volume, b.dt,
                                   np.empty(shape))
            stitch = pending[i]
            for dst, src in zip([stitch.u, stitch.dtu, *stitch.grad], [b.u, b.dtu, *b.grad]):
                dst[own] = src[sl]
            if k == last[i]:
                add(i, pending.pop(i), ..., i, wt)

    sweeps = [spacetime_blocks(field, *sweep, box=union, rows=rows) for rows in bands]
    for j in np.flatnonzero(his > los):
        wts, pending = {}, {}
        for k, blocks in enumerate(sweeps):
            band(j, k, next(blocks), wts, pending)
    return out
