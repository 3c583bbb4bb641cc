import dataclasses
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import quenchlab as ql
import quenchlab.quadrature as quadrature
from quenchlab.errors import DomainError
from quenchlab.quadrature import (Integrand, cell_gradient, integrate, slab_cells,
                                  spacetime_blocks)


def constant_field(value, times):
    mp = ql.ModelParams(p=3.0, n=2)
    grid = ql.GridSpec(origin=[-1.0, -1.0], extent=[2.0, 2.0], cells=[16, 16],
                       time_start=times[0], time_end=times[-1])
    return ql.field_from_function(mp, grid, times, lambda xs, t: np.full(xs.shape[0], value))


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

    below, = integrate(f, [Integrand(left_half, ((-1.0, -1.0), (1.0, 0.0)))], 0.05, 1.0,
                       floor=1.0)
    assert below.measure == pytest.approx(0.95, rel=1e-14)
    assert below.excluded_fraction == 1.0
    assert integrate(f, [Integrand(left_half)], floor=0.25)[0].excluded_fraction == 0.0


# integrands that read every part of the slice they are handed: u, grad, dtu,
# ok, the block time and the prepared cell centers
KINDS = [
    Integrand(lambda blk, pts, ok, wt: ([blk.u, -blk.dtu * blk.t_mid], None)),
    Integrand(lambda blk, pts, ok, wt: (
        [blk.u * pts[..., 0], sum(gk * gk for gk in blk.grad)],
        pts[..., -1] < 0.1 if ok is None else ok & (pts[..., -1] < 0.1))),
    Integrand(lambda blk, prep, ok, wt: ([prep * blk.dtu, -prep * blk.u], prep > 0.0),
              prepare=lambda pts: np.cos(3.0 * pts.sum(axis=-1))),
    # time factors: two windows with one support, told apart by value
    Integrand(lambda blk, pts, ok, wt: ([blk.u * wt[0], blk.dtu * wt[1]], None),
              time=ql.TimeWindow(0.5, 0.1, 0.6)),
    Integrand(lambda blk, pts, ok, wt: ([blk.u * wt[0] - blk.dtu * wt[1]], None),
              time=ql.TimeWindow(0.5, 0.3, 0.6)),
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

    integrands = [dataclasses.replace(k, box=box())
                  for k in draw(st.lists(st.sampled_from(KINDS), min_size=1, max_size=5))]
    window = sorted(draw(st.lists(st.floats(-0.2, 2.0), min_size=2, max_size=2)))
    floor = draw(st.sampled_from([None, 0.5, 1.0]))
    return field, integrands, window, floor


@settings(max_examples=150, deadline=None)
@given(_multi_case())
def test_several_integrands_equal_one_call_each(case):
    field, integrands, (t_lo, t_hi), floor = case
    together = integrate(field, integrands, t_lo, t_hi, floor=floor)
    alone = [integrate(field, [it], t_lo, t_hi, floor=floor)[0] for it in integrands]
    for a, b in zip(together, alone):
        assert (a.value, a.scale, a.cells, a.measure, a.excluded) == \
            (b.value, b.scale, b.cells, b.measure, b.excluded)


@settings(max_examples=100, deadline=None)
@given(_multi_case())
def test_slab_cells_equal_every_block_at_its_midpoint(case):
    # slabs and blocks come from one builder: a block's u and grad are the
    # slab's at the block's (clipped) midpoint, bit for bit, over the same box
    field, integrands, (t_lo, t_hi), _ = case
    for box in {it.box for it in integrands}:
        for blk in spacetime_blocks(field, t_lo, t_hi, box):
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
TWO_VALUED = {
    "abs_x1x2": {
        "i": (5.328125, 8.0, 8192),
        "ii": (-0.3687653710031619, 11.180642479045495, 2048),
        "iii": (-0.0001251121151971562, 0.02244345298901796, 845),
        "iv": (0.0016869025576282028, 0.24685910960230195, 1536),
        "v": (0.024805050156479734, 0.027103370837404696, 845),
    },
    "breathing": {
        "i": (16.144948462730166, 8.0, 16384),
        "ii": (-0.5988403261733409, 16.107084598145004, 3584),
        "iii": (-0.0025114930990526975, 0.051339697759455905, 1521),
        "iv": (0.0073271241018878506, 0.46519239778908167, 2560),
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
    # (ii)-(v) share one block pass per distinct time support: the default
    # dictionary's 27 bumps, both etas and the three Ys build no interval twice
    built = Counter()
    blocks = quadrature.spacetime_blocks

    def counted(field, t_lo=None, t_hi=None, box=None):
        for blk in blocks(field, t_lo, t_hi, box=box):
            built[(t_lo, t_hi, blk.t_mid)] += 1
            yield blk

    monkeypatch.setattr(quadrature, "spacetime_blocks", counted)
    test_two_valued_reports_bitwise("breathing")
    assert built and max(built.values()) == 1
    # (i) over the full range, then the dictionary's, the centred and the
    # off-centre time supports
    assert len({key[:2] for key in built}) == 4


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
