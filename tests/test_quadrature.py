import dataclasses
import inspect
import tracemalloc
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import quenchlab as ql
import quenchlab.quadrature as quadrature
import quenchlab.residuals as residuals
from quenchlab.errors import DomainError
from quenchlab.quadrature import (Integrand, cell_gradient, integrate, slab_cells,
                                  spacetime_blocks)


def constant_field(value, times):
    mp = ql.ModelParams(p=3.0, n=2)
    grid = ql.GridSpec(origin=[-1.0, -1.0], extent=[2.0, 2.0], cells=[16, 16],
                       time_start=times[0], time_end=times[-1])
    return ql.field_from_function(mp, grid, times, lambda xs, t: np.full(xs.shape[0], value))


def points(pts):
    """A prepare step that keeps the cell centers."""
    return pts


def test_integrate_sums_terms_weights_and_support():
    f = constant_field(0.5, [0.0, 0.1, 1.0])
    res, = integrate(f, [Integrand(lambda blk, pts, ok, wt: ([blk.u, -2.0 * blk.u], None))])
    # value sums signed terms, scale their magnitudes, over |box| x duration = 4
    assert res.value == pytest.approx(-2.0, rel=1e-14)
    assert res.scale == pytest.approx(6.0, rel=1e-14)
    assert res.cells == 2 * 16 * 16
    assert res.measure == pytest.approx(4.0, rel=1e-14)
    assert res.excluded == 0.0 and res.excluded_fraction == 0.0

    def left_half(blk, pts, ok, wt):
        return [blk.u], pts[..., 0] < 0.0

    below, = integrate(f, [Integrand(left_half, ((-1.0, -1.0), (1.0, 0.0)), points,
                                     span=(0.05, 1.0))], floor=1.0)
    assert below.measure == pytest.approx(0.95, rel=1e-14)
    assert below.excluded_fraction == 1.0
    assert integrate(f, [Integrand(left_half, prepare=points)],
                     floor=0.25)[0].excluded_fraction == 0.0


# integrands that read every part of the slice they are handed: u, grad, dtu,
# ok, the block time and the prepared cell centers.  Those without a span get
# a drawn one; the stored times start at 0 with steps of 0.05 to 0.5
KINDS = [
    Integrand(lambda blk, pts, ok, wt: ([blk.u, -blk.dtu * blk.t_mid], None)),
    Integrand(lambda blk, pts, ok, wt: (
        [blk.u * pts[..., 0], sum(gk * gk for gk in blk.grad)],
        pts[..., -1] < 0.1 if ok is None else ok & (pts[..., -1] < 0.1)), prepare=points),
    Integrand(lambda blk, prep, ok, wt: ([prep * blk.dtu, -prep * blk.u], prep > 0.0),
              prepare=lambda pts: np.cos(3.0 * pts.sum(axis=-1))),
    # time factors: two windows with one support, told apart by value
    Integrand(lambda blk, pts, ok, wt: ([blk.u * wt[0], blk.dtu * wt[1]], None),
              time=ql.TimeWindow(0.5, 0.1, 0.6)),
    Integrand(lambda blk, pts, ok, wt: ([blk.u * wt[0] - blk.dtu * wt[1]], None),
              time=ql.TimeWindow(0.5, 0.3, 0.6)),
    # spans that cut the first interval at its low end and (0.7) a later one at
    # its high end, cut the first interval at its high end, and cover no interval
    Integrand(lambda blk, pts, ok, wt: ([blk.u * wt[0], -blk.dtu * wt[1]], None),
              time=ql.TimeWindow(0.5, 0.1, 0.6), span=(0.03, 0.7)),
    Integrand(lambda blk, pts, ok, wt: ([blk.u - blk.t_mid * blk.dtu], None), span=(-0.5, 0.04)),
    Integrand(lambda blk, pts, ok, wt: ([blk.u], None), span=(2.5, 3.0)),
    # cell-by-cell sums over the blocks
    Integrand(lambda blk, pts, ok, wt: ([blk.u * wt[1], blk.dtu * pts[..., 0]], None),
              prepare=points, time=ql.TimeWindow(0.5, 0.3, 0.6), span=(0.03, 0.7),
              moments=True),
]


@st.composite
def _multi_case(draw):
    n = draw(st.integers(1, 3))
    cells = draw(st.lists(st.integers(1, 5), min_size=n, max_size=n))
    h = 0.25
    origin = draw(st.lists(st.sampled_from([-1.0, -0.5, 0.0]), min_size=n, max_size=n))
    nt = draw(st.integers(1, 5))
    times = np.cumsum([0.0] + draw(st.lists(st.floats(0.05, 0.5), min_size=nt - 1,
                                            max_size=nt - 1)))
    grid = ql.GridSpec(origin=origin, extent=[h * c for c in cells], cells=cells,
                       time_start=0.0, time_end=max(float(times[-1]), 1.0))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    values = rng.uniform(0.0, 2.0, (nt,) + grid.node_shape)
    field = ql.SpaceTimeField(ql.ModelParams(p=3.0, n=n), grid, times, values)

    def box():
        # empty, inverted, clipped by or outside the grid, or None (the whole grid)
        if draw(st.booleans()) and draw(st.booleans()):
            return None
        lo = [draw(st.floats(o - 0.5, o + h * c + 0.25)) for o, c in zip(origin, cells)]
        return (tuple(lo), tuple(a + draw(st.floats(-0.1, 1.0)) for a in lo))

    def span():
        # the whole history, or a window that may clip intervals or miss them all
        if draw(st.booleans()) and draw(st.booleans()):
            return None
        return tuple(sorted(draw(st.lists(st.floats(-0.2, 2.0), min_size=2, max_size=2))))

    integrands = [dataclasses.replace(k, box=box(), span=k.span or span())
                  for k in draw(st.lists(st.sampled_from(KINDS), min_size=1, max_size=6))]
    floor = draw(st.sampled_from([None, 0.5, 1.0]))
    return field, integrands, floor


@settings(max_examples=150, deadline=None)
@given(_multi_case())
def test_several_integrands_equal_one_call_each(case):
    # one sweep over the union of the boxes and spans, one call per integrand
    field, integrands, floor = case
    together = integrate(field, integrands, floor=floor)
    alone = [integrate(field, [it], floor=floor)[0] for it in integrands]
    for a, b in zip(together, alone):
        assert (a.value, a.scale, a.cells, a.measure, a.excluded) == \
            (b.value, b.scale, b.cells, b.measure, b.excluded)
        assert (a.moments is None) == (b.moments is None)
        assert all(np.array_equal(x, y) for x, y in zip(a.moments or (), b.moments or ()))


@settings(max_examples=100, deadline=None)
@given(_multi_case())
def test_slab_cells_equal_every_block_at_its_midpoint(case):
    # slabs and blocks come from one builder: a block's u and grad are the
    # slab's at the block's (clipped) midpoint, bit for bit, over the same box
    field, integrands, _ = case
    for box, span in {(it.box, it.span) for it in integrands}:
        for blk in spacetime_blocks(field, *(span or (None, None)), box):
            cells = slab_cells(field, blk.t_mid, box)
            assert (cells.t_mid, cells.dt, cells.dtu) == (blk.t_mid, 0.0, None)
            assert all(np.array_equal(a, b) for a, b in zip(cells.centers, blk.centers))
            assert np.array_equal(cells.u, blk.u)
            assert all(np.array_equal(a, b) for a, b in zip(cells.grad, blk.grad))


def test_slab_cells_refuses_a_box_off_the_grid():
    f = constant_field(0.5, [0.0, 1.0])
    box = ((2.0, -0.5), (3.0, 0.5))
    with pytest.raises(DomainError, match=re.escape("box [[2.0, -0.5], [3.0, 0.5]] covers no")):
        slab_cells(f, 0.5, box)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_cell_gradient_and_dtu_second_order(n):
    # observed order >= 1.8 from three refinements of h and dt on
    # sin(2 x1) cos(t): the cell-centre gradient and the interval slope that
    # every weak form rests on
    errs_g, errs_t = [], []
    for cells in (8, 16, 32):
        grid = ql.GridSpec(origin=[-1.0] * n, extent=[2.0] * n, cells=[cells] * n,
                           time_start=0.0, time_end=1.0)
        f = ql.field_from_function(ql.ModelParams(p=3.0, n=n), grid,
                                   np.linspace(0.0, 1.0, cells // 2 + 1),
                                   lambda xs, t: np.sin(2 * xs[:, 0]) * np.cos(t))
        x1 = grid.axis_cell_centers(0).reshape((-1,) + (1,) * (n - 1))
        err = 0.0
        for t, slab in zip(f.times, f.values):
            g = cell_gradient(slab, grid.spacing)
            err = max(err, np.max(np.abs(g[0] - 2 * np.cos(2 * x1) * np.cos(t))),
                      *(np.max(np.abs(gk)) for gk in g[1:]))
        errs_g.append(err)
        errs_t.append(max(np.max(np.abs(blk.dtu + np.sin(2 * x1) * np.sin(blk.t_mid)))
                          for blk in spacetime_blocks(f)))
    for errs in (errs_g, errs_t):
        assert np.log2(errs[0] / errs[2]) / 2 >= 1.8, errs


# Reports of two_valued_caloric_check and apriori_scaling_check recorded before
# these integrals moved onto `integrate`; the kernel must reproduce them bit
# for bit: (value, scale, cells) per condition, the integral ladder per quantity.
# Three leaves were re-recorded when (ii)'s dictionary was contracted over time
# and Y was prepared at w = 1: abs_x1x2's (ii) (four mirror-image bumps tie to
# roundoff, and the contracted values pick another of them) and both (iv)
# values, which moved by at most 3e-17 of their scale.
TWO_VALUED = {
    "abs_x1x2": {
        "i": (5.328125, 8.0, 8192),
        "ii": (-0.3687653710031618, 11.180642479045495, 2048),
        "iii": (-0.0001251121151971562, 0.02244345298901796, 845),
        "iv": (0.001686902557628189, 0.24685910960230195, 1536),
        "v": (0.024805050156479734, 0.027103370837404696, 845),
    },
    "breathing": {
        "i": (16.144948462730166, 8.0, 16384),
        "ii": (-0.5988403261733409, 16.107084598145004, 3584),
        "iii": (-0.0025114930990526975, 0.051339697759455905, 1521),
        "iv": (0.007327124101887846, 0.46519239778908167, 2560),
        "v": (-0.026497875707833227, 0.16793282068675755, 1521),
    },
}

APRIORI = {
    "u_inv_p": [0.11665322305217876, 0.04613326905230159, 0.018956809390338218,
                0.007306969890119633, 0.0028697834961475977],
    "energy": [0.10210393552608207, 0.03513147071446242, 0.013081821207258497,
               0.004541262010937716, 0.0016641610923469226],
    "mass": [0.007249843818559629, 0.0013850328667418148, 0.00032067291741077575,
             6.12195771917102e-05, 1.276659587115936e-05],
}


def pinned_field(name):
    mp = ql.ModelParams(p=3.0, n=2)
    grid = ql.GridSpec(origin=[-1.0, -1.0], extent=[2.0, 2.0], cells=[32, 32],
                       time_start=-1.0, time_end=1.0)
    if name == "abs_x1x2":
        return ql.profile_field(mp, grid, np.linspace(-1.0, 1.0, 9), "abs_x1x2")
    # time-dependent, so the u_t terms of (iii)-(v) are pinned too
    return ql.field_from_function(
        mp, grid, np.linspace(-1.0, 1.0, 17),
        lambda xs, t: (np.abs(xs[:, 0] * xs[:, 1]) * (1.3 + np.sin(2 * t))
                       + 0.1 * (xs[:, 0] ** 2 + t) ** 2))


@pytest.mark.parametrize("name", sorted(TWO_VALUED))
def test_two_valued_reports_bitwise(name):
    f = pinned_field(name)
    bump = ql.SpaceTimeBump(space=ql.CutoffSpec((0.0, 0.0), 0.25, 0.5),
                            time=ql.TimeWindow(center=0.0, inner=0.3, outer=0.6))
    ys = [ql.TestVectorField(kind="coordinate_bump", bump=bump, axis=k) for k in range(2)]
    ys.append(ql.TestVectorField(kind="radial_bump", bump=bump))
    # off centre and off the stored times, so clipped blocks enter (iii) and (v)
    off = ql.SpaceTimeBump(space=ql.CutoffSpec((0.1, 0.1), 0.2, 0.4),
                           time=ql.TimeWindow(center=0.1, inner=0.2, outer=0.5))
    reports = ql.two_valued_caloric_check(f, [bump, off], ys)
    got = {k: (r.value, r.scale, r.quadrature_cells) for k, r in reports.items()}
    assert got == TWO_VALUED[name]


def test_two_valued_builds_each_interval_once_per_window(monkeypatch):
    # (i)-(v) share one sweep: every stored interval once over the whole
    # history, plus one block per interval a span cuts, once per distinct cut.
    # Then the worst (ii) bump's own pass over the dictionary's time window
    calls = []
    blocks = quadrature.spacetime_blocks

    def counted(field, t_lo=None, t_hi=None, box=None, rows=None):
        call = [(t_lo, t_hi), 0]
        calls.append(call)
        for blk in blocks(field, t_lo, t_hi, box=box, rows=rows):
            call[1] += 1
            yield blk

    monkeypatch.setattr(quadrature, "spacetime_blocks", counted)
    test_two_valued_reports_bitwise("breathing")
    t = pinned_field("breathing").times
    spans = [(-0.8, 0.8),                                        # the default dictionary's
             ql.TimeWindow(center=0.0, inner=0.3, outer=0.6).support(),
             ql.TimeWindow(center=0.1, inner=0.2, outer=0.5).support()]
    cuts = {(max(t[j], a), min(t[j + 1], b)) for a, b in spans for j in range(t.size - 1)
            if t[j] < a < t[j + 1] or t[j] < b < t[j + 1]}
    assert len(cuts) == 5
    sweep, *single, worst = calls
    assert sweep == [(-np.inf, np.inf), t.size - 1]
    assert sorted(single) == sorted([cut, 1] for cut in cuts)
    assert worst == [spans[0], 14]


def test_apriori_ladders_bitwise():
    mp = ql.ModelParams(p=3.0, n=2)
    grid = ql.GridSpec(origin=[-1.0, -1.0], extent=[2.0, 2.0], cells=[64, 64],
                       time_start=-0.25, time_end=-1e-5)
    f = ql.radial_field(mp, grid, ql.geometric_times(-0.25, -1e-5, 0.7))
    x0 = ql.ParabolicPoint((0.0, 0.0), -1e-5)
    for q, ladder in APRIORI.items():
        fit = ql.apriori_scaling_check(f, x0, q, [0.25, 0.177, 0.125, 0.0884, 0.0625],
                                       u_floor=1e-4)
        assert fit.counts.tolist() == ladder, q


# -- row bands ---------------------------------------------------------------------
#
# Windows of 2 * _BAND cells or more are summed band by band.  On a 2D grid of
# 160 x 128 cells a band is 64 rows, on a 3D grid of 48 x 32 x 32 cells 8 rows.

def _banded_field(cells, h):
    n = len(cells)
    grid = ql.GridSpec(origin=[-0.5 * h * c for c in cells], extent=[h * c for c in cells],
                       cells=cells, time_start=0.0, time_end=0.8)
    times = np.array([0.0, 0.1, 0.35, 0.8])
    values = np.random.default_rng(n).uniform(0.0, 2.0, (times.size,) + grid.node_shape)
    return ql.SpaceTimeField(ql.ModelParams(p=3.0, n=n), grid, times, values)


def _cell_box(grid, ranges):
    """The box whose window is the cells [a, b) along each axis."""
    h = grid.spacing
    return (tuple(o + (a + 0.25) * h for o, (a, _) in zip(grid.origin, ranges)),
            tuple(o + (b - 0.25) * h for o, (_, b) in zip(grid.origin, ranges)))


BANDED = {
    # cells, h, and the cell ranges of: a cut window, a whole window across a
    # band edge, and a whole window inside one band (None, every cell, is cut too)
    2: ([160, 128], 1.0 / 64, [((10, 150), (3, 123)), ((50, 90), (20, 60)),
                               ((70, 100), (0, 128))]),
    3: ([48, 32, 32], 1.0 / 16, [((4, 44), (0, 32), (2, 30)), ((6, 12), (8, 24), (8, 24)),
                                 ((16, 24), (0, 32), (0, 32))]),
}


def _banded_case(n):
    cells, h, ranges = BANDED[n]
    field = _banded_field(cells, h)
    g = field.grid
    boxes = [None] + [_cell_box(g, r) for r in ranges]
    cut, across, inside = (quadrature._bands(g, b) for b in boxes[1:])
    assert quadrature._bands(g, None) != [None] and len(cut) > 1
    # whole windows: one across a band edge, one inside a band
    height = quadrature._BAND // int(np.prod(cells[1:]))
    assert across == inside == [None]
    assert ranges[1][0][0] // height != (ranges[1][0][1] - 1) // height
    assert ranges[2][0][0] // height == (ranges[2][0][1] - 1) // height
    integrands = [dataclasses.replace(k, box=box, span=k.span or (None, (0.05, 0.6))[j % 2])
                  for j, (k, box) in enumerate((k, box) for k in KINDS for box in boxes)]
    return field, integrands


def _whole_window(field, it, floor):
    """One integrand's sums over whole-window blocks: integrate without bands."""
    res = quadrature.Integral(0.0, 0.0, 0, 0.0, 0.0)
    win = quadrature._cell_window(field.grid, it.box)
    prep = None if it.prepare is None else it.prepare(quadrature._points(win[1]))
    for blk in spacetime_blocks(field, *(it.span or (None, None)), box=it.box):
        ok = None if floor is None else blk.u >= floor
        wt = None if it.time is None else (it.time.value(blk.t_mid), it.time.d1(blk.t_mid))
        terms, support = it.terms(blk, prep, ok, wt)
        w = blk.dt * blk.volume
        if it.moments:
            res.moments = [m + w * t for m, t in zip(res.moments or [0.0] * len(terms), terms)]
        else:
            res.value += w * float(sum(terms).sum())
            res.scale += w * float(sum(np.abs(t) for t in terms).sum())
        res.cells += blk.u.size
        res.measure += w * (blk.u.size if support is None else float(support.sum()))
        if ok is not None:
            res.excluded += w * float((~ok if support is None else support & ~ok).sum())
    return res


# banded and whole-window sums differ only in the order of their additions
SUM_ORDER_REL = 64 * np.finfo(float).eps


@settings(max_examples=150, deadline=None)
@given(_multi_case(), st.integers(1, 6))
def test_several_integrands_equal_one_call_each_in_small_bands(case, band):
    # the drawn fields, boxes and spans of the case above, with bands of a few
    # cells, so that cut, straddling and one-band windows meet at random
    field, integrands, floor = case
    saved = quadrature._BAND
    quadrature._BAND = band
    try:
        together = integrate(field, integrands, floor=floor)
        alone = [integrate(field, [it], floor=floor)[0] for it in integrands]
    finally:
        quadrature._BAND = saved
    for it, a, b in zip(integrands, together, alone):
        assert (a.value, a.scale, a.cells, a.measure, a.excluded) == \
            (b.value, b.scale, b.cells, b.measure, b.excluded)
        assert all(np.array_equal(x, y) for x, y in zip(a.moments or (), b.moments or ()))
        if quadrature._cell_window(field.grid, it.box) is None:
            continue
        ref = _whole_window(field, it, floor)
        assert a.cells == ref.cells
        assert abs(a.value - ref.value) <= SUM_ORDER_REL * ref.scale
        assert abs(a.measure - ref.measure) <= SUM_ORDER_REL * ref.measure
        assert all(np.array_equal(x, y) for x, y in zip(a.moments or (), ref.moments or ()))


@pytest.mark.parametrize("n", sorted(BANDED))
@pytest.mark.parametrize("floor", [None, 1.0])
def test_banded_integrands_equal_one_call_each_and_whole_window_sums(n, floor):
    field, integrands = _banded_case(n)
    together = integrate(field, integrands, floor=floor)
    alone = [integrate(field, [it], floor=floor)[0] for it in integrands]
    for it, a, b in zip(integrands, together, alone):
        assert (a.value, a.scale, a.cells, a.measure, a.excluded) == \
            (b.value, b.scale, b.cells, b.measure, b.excluded)
        assert (a.moments is None) == (b.moments is None)
        assert all(np.array_equal(x, y) for x, y in zip(a.moments or (), b.moments or ()))
        ref = _whole_window(field, it, floor)
        assert a.cells == ref.cells
        assert abs(a.value - ref.value) <= SUM_ORDER_REL * ref.scale
        for got, want in ((a.scale, ref.scale), (a.measure, ref.measure),
                          (a.excluded, ref.excluded)):
            assert abs(got - want) <= SUM_ORDER_REL * want
        # cell by cell, the moments are the same sums in the same order
        assert all(np.array_equal(x, y) for x, y in zip(a.moments or (), ref.moments or ()))
    assert sum(r.cells > 0 for r in together) > len(integrands) // 2
    assert any(r.moments is not None for r in together)


def _whole_weights(field, x0, s, w):
    """The slab t0 - s over the whole kernel box and its G*eta weights, with no bands."""
    from quenchlab import monotonicity as mono
    c = np.asarray(x0.x)
    cells = slab_cells(field, x0.t - s, box=mono._kernel_box(c, w, s))
    y2 = np.sum((cells.points() - c) ** 2, axis=-1)
    G = (4.0 * np.pi * s) ** (-field.n / 2.0) * np.exp(-y2 / (4.0 * s))
    G = np.where(y2 <= (w.truncation_multiple * np.sqrt(s)) ** 2, G, 0.0)
    eta = 1.0 if w.eta is None else ql.CutoffSpec(x0.x, *w.eta).value(cells.points())
    return cells, G * eta * cells.volume


@pytest.mark.parametrize("n", sorted(BANDED))
def test_banded_energy_and_frequency_equal_whole_window_sums(n):
    from quenchlab import monotonicity as mono
    field, _ = _banded_case(n)
    g = field.grid
    x0 = ql.ParabolicPoint((0.0,) * n, 0.8)
    cut = ql.WeightSpec(eta=(0.5, 1.0))
    bare = ql.WeightSpec(eta=None)
    p = field.params.p
    for s in (0.2, 0.4):
        for w in (cut, bare):
            assert len(quadrature._bands(g, mono._kernel_box(np.zeros(n), w, s))) > 1
        cells, wgt = _whole_weights(field, x0, s, cut)
        ok = cells.u >= quadrature.singular_floor(field)
        a, b = s ** ((p - 1.0) / (p + 1.0)), s ** (-2.0 / (p + 1.0)) / (2.0 * (p + 1.0))
        e_ref = (a * float((wgt * cells.energy_density(ok, p)).sum())
                 - b * float((wgt * cells.u ** 2).sum()))
        scale = (a * float((wgt * np.abs(cells.energy_density(ok, p))).sum())
                 + b * float((wgt * cells.u ** 2).sum()))
        assert abs(mono.weighted_energy_detail(field, x0, s, cut).value - e_ref) <= \
            SUM_ORDER_REL * scale
        cells, wgt = _whole_weights(field, x0, s, bare)
        H, D, _ = ql.frequency(field, x0, s, bare)
        assert abs(H - float((wgt * cells.u ** 2).sum())) <= SUM_ORDER_REL * H
        assert abs(D - s * float((wgt * cells.grad2()).sum())) <= SUM_ORDER_REL * D


def _radial_256():
    # time-constant, so the stored times only need to resolve density's s_min
    grid = ql.GridSpec(origin=[-1.0, -1.0], extent=[2.0, 2.0], cells=[256, 256],
                       time_start=-0.25, time_end=-1e-5)
    return ql.radial_field(ql.ModelParams(p=3.0, n=2), grid, [-0.25, -0.011, -0.009, -1e-5])


def _two_valued_tests(field):
    """The two_valued_check op's test functions: one bump, two coordinate fields, one radial."""
    bump = ql.SpaceTimeBump(space=ql.CutoffSpec((0.0, 0.0), 0.25, 0.5),
                            time=residuals.default_time_window(field))
    ys = [ql.TestVectorField(kind="coordinate_bump", bump=bump, axis=k) for k in range(2)]
    return bump, ys + [ql.TestVectorField(kind="radial_bump", bump=bump)]


def _traced_peak(fn, *args, **kwargs):
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# the working set of the bands: at most 24 float arrays of _BAND cells alive at
# once (1.5 MiB), i.e. two blocks of n + 2 arrays, their node windows and the
# term temporaries; one whole 256^2 block alone is 4 arrays of 8 * _BAND cells
BAND_SLACK = 24 * 8 * quadrature._BAND


def test_two_valued_and_density_peaks_are_their_persistent_arrays_plus_bands():
    field = _radial_256()
    g = field.grid
    bump, ys = _two_valued_tests(field)

    def prep_bytes(it):
        prep = it.prepare(quadrature._points(quadrature._cell_window(g, it.box)[1]))
        return sum(a.nbytes for a in prep if isinstance(a, np.ndarray))

    # the sweep's preps, and (ii)'s two moments over the dictionary's boxes
    sweep = ([residuals._contact(bump)] + [residuals._stationary(field, Y) for Y in ys]
             + [residuals._energy(field, bump, bump.time_support())])
    dictionary = quadrature._union_box([psi.support_box()
                                        for psi in residuals.default_bump_dictionary(field)])
    moments = 2 * 8 * int(np.prod([c.size for c in quadrature._cell_window(g, dictionary)[1]]))
    persistent = sum(prep_bytes(it) for it in sweep) + moments
    assert quadrature._bands(g, bump.support_box()) != [None]
    peak = _traced_peak(ql.two_valued_caloric_check, field, [bump], ys)
    assert peak <= persistent + BAND_SLACK, (peak, persistent)

    # the prepared |y - x0|^2 and cutoff over the box of s_top = 2 s_max
    from quenchlab import monotonicity as mono
    x0 = ql.ParabolicPoint((0.0, 0.0), -1e-5)
    w = ql.WeightSpec()
    prepared = mono._prepare_weights(field, x0, w, 0.2)
    persistent = prepared.y2.nbytes + prepared.eta.nbytes
    assert persistent == 2 * 8 * 256 ** 2
    peak = _traced_peak(ql.density_estimate, field, x0, w, 0.01, 0.1)
    assert peak <= persistent + BAND_SLACK, (peak, persistent)


def _tracing():
    import importlib.util
    import pathlib
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_cell_count_builds_each_interval_once_across_bands(monkeypatch):
    # spacetime_blocks wrapped as perfbench/tracing.py wraps it: quadrature.cells
    # counts every cell of every block it yields
    field = _radial_256()
    g = field.grid
    bump, ys = _two_valued_tests(field)
    # an eta whose time window differs from the dictionary's: its clips are its own
    off = ql.SpaceTimeBump(space=bump.space, time=ql.TimeWindow(-0.12, 0.02, 0.1))

    def traced_run(band):
        monkeypatch.setattr(quadrature, "_BAND", band)
        tracer = _tracing().Tracer("bands")
        wrapped = tracer.wrap_generator("quadrature.spacetime_blocks", spacetime_blocks,
                                        lambda blk: tracer.counters.update(
                                            {"quadrature.blocks": 1,
                                             "quadrature.cells": blk.u.size}))
        calls = []

        def recorded(field, t_lo=None, t_hi=None, box=None, rows=None):
            call = [(t_lo, t_hi), rows, 0]
            calls.append(call)
            for blk in wrapped(field, t_lo, t_hi, box=box, rows=rows):
                call[2] += blk.u.size
                yield blk

        monkeypatch.setattr(quadrature, "spacetime_blocks", recorded)
        reports = ql.two_valued_caloric_check(field, [bump, off], ys)
        monkeypatch.undo()
        assert inspect.isgeneratorfunction(quadrature.spacetime_blocks)
        return reports, calls, tracer.counters

    # no window reaches 2 * 2^62 cells: every window whole, the sweep without bands
    whole, whole_calls, whole_count = traced_run(2 ** 62)
    banded, calls, count = traced_run(quadrature._BAND)
    assert {k: r.quadrature_cells for k, r in banded.items()} == \
        {k: r.quadrature_cells for k, r in whole.items()}
    t = field.times
    sweep = [c for c in calls if c[0] == (-np.inf, np.inf)]
    clipped = [c for c in calls if c not in sweep]
    whole_sweep, *whole_clipped, whole_worst = whole_calls
    assert whole_sweep[:2] == [(-np.inf, np.inf), None]
    # the sweep: every stored interval's cells once, band by band
    bands = quadrature._bands(g, None)
    assert [rows for _, rows, _ in sweep] == bands and len(bands) == 8
    assert sum(c[2] for c in sweep) == whole_sweep[2] == (t.size - 1) * 256 ** 2
    # clipped band blocks only where a span cuts an interval, and only in the
    # bands where an integrand making that clip has cells
    *clipped, worst = clipped
    assert worst[2] == whole_worst[2]
    spans = {"dictionary": residuals.default_time_window(field).support(),
             "bump": bump.time_support(), "off": off.time_support()}
    cuts = {name: {(max(t[j], a), min(t[j + 1], b)) for j in range(t.size - 1)
                   if t[j] < a < t[j + 1] or t[j] < b < t[j + 1]}
            for name, (a, b) in spans.items()}
    assert sorted(c[0] for c in whole_clipped) == sorted(cuts["dictionary"] | cuts["off"])
    eta_rows = quadrature._bands(g, bump.support_box())
    assert len(eta_rows) == 4
    expected = sorted([(cut, rows) for cut in cuts["dictionary"] for rows in bands]
                      + [(cut, rows) for cut in cuts["off"] - cuts["dictionary"]
                         for rows in bands if any(rows[0] < b and a < rows[1]
                                                  for a, b in eta_rows)])
    assert sorted((c[0], c[1]) for c in clipped) == expected
    assert cuts["off"] - cuts["dictionary"]
    # so the traced count is the unbanded one, less the clipped cells no integrand needs
    assert count["quadrature.cells"] == sum(c[2] for c in calls)
    assert whole_count["quadrature.cells"] - count["quadrature.cells"] == \
        sum(c[2] for c in whole_clipped) - sum(c[2] for c in clipped) > 0
