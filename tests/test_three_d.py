import numpy as np
import pytest

import quenchlab as ql
from quenchlab.solver import _Workspace


def test_laplacian_3d_quadratic():
    mp = ql.ModelParams(p=3.0, n=3)
    grid = ql.GridSpec(origin=[-1.0] * 3, extent=[2.0] * 3, cells=[24] * 3,
                       time_start=0.0, time_end=1.0)
    f = ql.field_from_function(mp, grid, [0.0, 1.0],
                               lambda xs, t: np.sum(xs ** 2, axis=-1))
    # the solver's nodal stencil is exact on |x|^2 up to roundoff
    val = _Workspace(grid, periodic=False).laplacian(f.values[0])
    assert val == pytest.approx(6.0, abs=1e-8)


def test_solver_3d_constant_run():
    mp = ql.ModelParams(p=3.0, n=3)
    grid = ql.GridSpec(origin=[0.0] * 3, extent=[1.0] * 3, cells=[12] * 3,
                       time_start=0.0, time_end=0.02)
    init = ql.field_from_function(mp, grid, [0.0], lambda xs, t: np.ones(xs.shape[0]))
    bd = ql.BoundaryData(kind="constant", value=1.0)
    field, rep = ql.solve_until_quench(init, bd, ql.SolverConfig(dt_initial=2e-3))
    assert rep.quench_time is None
    assert field.values.min() > 0
    assert field.values.max() <= 1.0 + 1e-12


def test_frequency_3d_abs_x1():
    mp = ql.ModelParams(p=3.0, n=3)
    grid = ql.GridSpec(origin=[-3.0] * 3, extent=[6.0] * 3, cells=[96] * 3,
                       time_start=-1.0, time_end=1.0)
    f = ql.profile_field(mp, grid, [-1.0, 1.0], "abs_x1")
    H, D, N = ql.frequency(f, ql.ParabolicPoint((0.0, 0.0, 0.0), 0.5), 0.1,
                           ql.WeightSpec(truncation_multiple=8.0, eta=None))
    assert H == pytest.approx(0.2, rel=1e-3)
    assert N == pytest.approx(0.5, abs=2e-3)
