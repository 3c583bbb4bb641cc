"""Axis permutations and reflections of the solve and the ops, and the periodic seam.

On the isotropic grid the discrete problem commutes with every permutation
of the axes and every reflection about the box centre.  The dip centres
below are dyadic, so the initial data map bit for bit; the solve does not,
because the transforms and the stencil visit the axes in a fixed order and
the dt law reads min u.  So slab and step counts must agree exactly, values
within 64 ulp of max |u| (20-32 ulp seen) and stored times within 256 ulp of
the last stored time (up to 151 ulp seen).
"""

import numpy as np
import pytest

import quenchlab as ql
from quenchlab.ops import OPS

VALUE_ULP, TIME_ULP = 64, 256


def _dip(center, width=0.35):
    c = np.asarray(center)
    return lambda xs, t: 1.0 - 0.75 * np.exp(-np.sum((xs - c) ** 2, axis=-1) / width ** 2)


def _periodic_dip(center, width=0.35):
    """A dip of period 2 per axis, Gaussian of the given width near its centre."""
    c = np.asarray(center)
    return lambda xs, t: 1.0 - 0.75 * np.exp(
        2.0 * np.sum(np.cos(np.pi * (xs - c)) - 1.0, axis=-1) / (np.pi * width) ** 2)


def _solve(n, cells, fn, periodic=False, time_end=1.0):
    mp = ql.ModelParams(p=3.0, n=n)
    grid = ql.GridSpec(origin=[-1.0] * n, extent=[2.0] * n, cells=[cells] * n,
                       time_start=0.0, time_end=time_end)
    init = ql.field_from_function(mp, grid, [0.0], fn)
    bd = ql.BoundaryData(kind="periodic") if periodic else ql.BoundaryData(kind="constant")
    return ql.solve_until_quench(init, bd, ql.SolverConfig(dt_initial=1e-3, safety=0.2))


C2, C3 = (0.375, 0.125), (0.25, 0.125, -0.375)

# name: (dimension, cells, initial data, periodic, image's initial data, map of values)
CASES = {
    "axis_swap_2d": (2, 32, _dip(C2), False, _dip(C2[::-1]),
                     lambda v: np.swapaxes(v, 1, 2)),
    "reflection_2d": (2, 32, _dip(C2), False, _dip((-C2[0], C2[1])),
                      lambda v: v[:, ::-1, :]),
    # u'(y) = u(y1, y2, y0) for the centre rolled by one axis
    "cyclic_3d": (3, 16, _dip(C3), False, _dip(np.roll(C3, 1)),
                  lambda v: np.transpose(v, (0, 3, 1, 2))),
    "periodic_reflection_2d": (2, 32, _periodic_dip(C2), True, _periodic_dip((-C2[0], C2[1])),
                               lambda v: v[:, ::-1, :]),
}


@pytest.mark.parametrize("case", CASES)
def test_solve_is_equivariant(case):
    n, cells, fn, periodic, fn_image, image = CASES[case]
    field, rep = _solve(n, cells, fn, periodic)
    mirror, rep_m = _solve(n, cells, fn_image, periodic)
    assert rep.quench_time is not None
    assert field.times.size == mirror.times.size
    assert rep.steps_taken == rep_m.steps_taken
    top = np.abs(field.values).max()
    assert np.abs(image(field.values) - mirror.values).max() <= VALUE_ULP * np.spacing(top)
    last = abs(field.times[-1])
    assert np.abs(field.times - mirror.times).max() <= TIME_ULP * np.spacing(last)
    assert abs(rep.quench_time - rep_m.quench_time) <= TIME_ULP * np.spacing(last)


def test_periodic_first_slab_is_stored_on_its_seam():
    # a dip centred at (0.3, 0.1) is not periodic: node N differs from node 0
    # by 1.4e-2 on axis 0 and 9.7e-4 on axis 1.  The solve drops node N, so the
    # first stored slab takes node 0's values there, as every later slab does.
    field, _ = _solve(2, 32, _dip((0.3, 0.1)), periodic=True, time_end=0.01)
    v = field.values
    assert np.array_equal(v[:, 0, :], v[:, -1, :])
    assert np.array_equal(v[:, :, 0], v[:, :, -1])
    # off the seam the first slab is the initial data itself
    nodes = field.grid.node_points()
    first = _dip((0.3, 0.1))(nodes, 0.0).reshape(field.grid.node_shape)
    assert np.array_equal(v[0, :-1, :-1], first[:-1, :-1])


def _analysis_field(center, cells=32):
    """u = (1 - 0.75 exp(-|x - c|^2 / 0.35^2)) (1 - t/2) on cells^n and 33 slabs."""
    n = len(center)
    mp = ql.ModelParams(p=3.0, n=n)
    grid = ql.GridSpec(origin=[-1.0] * n, extent=[2.0] * n, cells=[cells] * n,
                       time_start=0.0, time_end=1.0)
    dip = _dip(center)
    return ql.field_from_function(mp, grid, np.linspace(0.0, 1.0, 33),
                                  lambda xs, t: dip(xs, t) * (1.0 - t / 2.0))


C3_OPS = (0.25, -0.125, 0.0625)

# name: (dip centre, image's dip centre, map of values, map of a point's space
# coordinates, cells per axis, ulp bound of density_estimate's CSV)
OP_CASES = {
    "axis_swap": (C2, C2[::-1], lambda v: np.swapaxes(v, 1, 2), lambda x: [x[1], x[0]], 32, 0),
    "reflection": (C2, (-C2[0], C2[1]), lambda v: v[:, ::-1, :], lambda x: [-x[0], x[1]],
                   32, 0),
    # the 3D cells add up in another order after the permutation: 2 ulp seen
    "cyclic_3d": (C3_OPS, tuple(np.roll(C3_OPS, 1)), lambda v: np.transpose(v, (0, 3, 1, 2)),
                  lambda x: [x[2], x[0], x[1]], 16, 2),
}


def _run(op, field, **options):
    return OPS[op](field, {"seed": 7}, **options)


def _assert_rows_close(csv, csv_m, ulp):
    (header, rows), (header_m, rows_m) = csv["trace"], csv_m["trace"]
    assert header == header_m
    for row, row_m in zip(rows, rows_m, strict=True):
        assert np.all(np.abs(np.subtract(row, row_m)) <= ulp * np.spacing(np.abs(row)))


@pytest.mark.parametrize("case", OP_CASES)
def test_analysis_ops_are_equivariant(case):
    center, center_image, image, image_x, cells, density_ulp = OP_CASES[case]
    field, mirror = _analysis_field(center, cells), _analysis_field(center_image, cells)
    assert np.array_equal(image(field.values), mirror.values)
    point = list(center) + [1.0]
    point_image = image_x(center) + [1.0]

    def both(op, **options):
        (res, csv), (res_m, csv_m) = (_run(op, f, point=pt, **options)
                                      for f, pt in ((field, point), (mirror, point_image)))
        assert res.pop("point") == point and res_m.pop("point") == point_image
        return res, csv, res_m, csv_m

    # the cutoff and the kernel read only |y - x0|^2, so in 2D E(s) maps bit for bit
    res, csv, res_m, csv_m = both("density_estimate", s_min=0.125, s_max=0.5,
                                  eta_inner=0.25, eta_outer=0.5)
    assert res == res_m
    _assert_rows_close(csv, csv_m, density_ulp)
    # H and D add the mirrored cells in another order, which rounds afresh: 2 ulp seen
    _, csv, _, csv_m = both("almgren_scan")
    _assert_rows_close(csv, csv_m, 2)
    # u_inv_p is refused here: 13.9% of the cells fall below the singular floor
    res, csv, res_m, csv_m = both("apriori_scaling", quantity="mass", radii=[0.5, 0.25, 0.125])
    assert res == res_m and csv == csv_m
    # the default test functions sit on the box centre, which every map fixes; the
    # reflection turns the worst coordinate field Y of (iv) into -Y
    res, _ = _run("two_valued_check", field)
    res_m, _ = _run("two_valued_check", mirror)
    for key in ("i", "ii", "iii", "iv", "v"):
        a, b = res[f"cond_{key}"], res_m[f"cond_{key}"]
        ulp = np.spacing(a["scale"])
        assert abs(a["scale"] - b["scale"]) <= ulp
        if key == "iv":
            assert abs(abs(a["value"]) - abs(b["value"])) <= ulp
        else:
            assert abs(a["value"] - b["value"]) <= ulp
        assert a["pass"] == b["pass"]
