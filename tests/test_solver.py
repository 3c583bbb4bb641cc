import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, strategies as st

import quenchlab as ql
from quenchlab import solver
from quenchlab.errors import BudgetError, StiffnessError, UsageError, ValidationError
from quenchlab.solver import _CHUNK, _Workspace, step


def ode_setup(cells=200, dt_initial=2e-3, safety=0.2, time_end=1.05, **kw):
    mp = ql.ModelParams(p=3.0, n=1)
    grid = ql.GridSpec(origin=[-1.0], extent=[2.0], cells=[cells],
                       time_start=0.0, time_end=time_end)
    init = ql.field_from_function(mp, grid, [0.0],
                                  lambda xs, t: np.full(xs.shape[0], ql.ode_solution(mp, -1.0)))
    bd = ql.BoundaryData(kind="analytic_trace",
                         value_fn=lambda xs, t: np.full(xs.shape[0], ql.ode_solution(mp, t - 1.0)))
    cfg = ql.SolverConfig(dt_initial=dt_initial, safety=safety, **kw)
    return mp, init, bd, cfg


def test_regularized_nonlinearity_branches(p3_1d):
    f = ql.regularized_nonlinearity
    assert f(p3_1d, 0.1, 1.0) == pytest.approx(1.0)
    # both branches meet at u = eps
    assert f(p3_1d, 0.1, 0.1) == pytest.approx(1000.0, rel=1e-12)
    assert f(p3_1d, 0.1, np.nextafter(0.1, 1)) == pytest.approx(1000.0, rel=1e-9)
    assert f(p3_1d, 0.1, 0.0) == 0.0
    assert f(p3_1d, 0.1, -0.2) == pytest.approx(-0.2 * 0.1 ** -4.0)
    with pytest.raises(UsageError):
        f(p3_1d, 0.0, 1.0)


@given(st.floats(min_value=1.001, max_value=8.0), st.floats(min_value=1e-6, max_value=1.0))
def test_regularized_nonlinearity_continuous_and_monotone(p, eps):
    mp = ql.ModelParams(p=p, n=1)
    below = ql.regularized_nonlinearity(mp, eps, eps * (1 - 1e-9))
    above = ql.regularized_nonlinearity(mp, eps, eps * (1 + 1e-9))
    at = ql.regularized_nonlinearity(mp, eps, eps)
    assert below == pytest.approx(at, rel=1e-6)
    assert above == pytest.approx(at, rel=1e-6)
    # nonnegative on u >= 0 and vanishing at 0
    assert ql.regularized_nonlinearity(mp, eps, 0.0) == 0.0
    u = np.linspace(0, 2 * eps, 64)
    assert np.all(ql.regularized_nonlinearity(mp, eps, u) >= 0)


def test_solver_config_invariant():
    with pytest.raises(ValidationError):
        ql.SolverConfig(epsilon_reg=1e-3, quench_threshold=1e-3)  # < 2 eps


def test_step_rejects_small_dt():
    mp, init, bd, cfg = ode_setup(cells=16)
    ws = _Workspace(init.grid, periodic=False)
    with pytest.raises(UsageError):
        step(init.values[0], 0.0, cfg.dt_min / 2, mp, ws, bd, cfg)


def test_step_heat_preserves_linear():
    # reaction off: implicit heat step keeps a Dirichlet-pinned linear state
    mp = ql.ModelParams(p=3.0, n=1)
    grid = ql.GridSpec(origin=[0.0], extent=[1.0], cells=[32], time_start=0.0, time_end=1.0)
    init = ql.field_from_function(mp, grid, [0.0], lambda xs, t: 1.0 + 2.0 * xs[:, 0])
    bd = ql.BoundaryData(kind="analytic_trace",
                         value_fn=lambda xs, t: 1.0 + 2.0 * xs[:, 0])
    ws = _Workspace(grid, periodic=False)
    out = step(init.values[0], 0.0, 0.01, mp, ws, bd, ql.SolverConfig(), reaction=False)
    assert np.max(np.abs(out - init.values[0])) < 1e-12


def test_step_reproduces_collapse_locally():
    # spatially constant state + matching trace: one step lands on the closed
    # form to third order in dt (midpoint treatment of the reaction)
    mp, init, bd, cfg = ode_setup(cells=32)
    ws = _Workspace(init.grid, periodic=False)
    errs = []
    for dt in (2e-3, 1e-3):
        out = step(init.values[0], 0.0, dt, mp, ws, bd, cfg)
        errs.append(abs(out[16] - ql.ode_solution(mp, dt - 1.0)))
    assert errs[0] < 1e-9
    assert 4.0 <= errs[0] / errs[1] <= 16.0   # local order 3 => factor ~8


def test_quench_time_against_collapse_oracle():
    mp, init, bd, cfg = ode_setup()
    field, rep = ql.solve_until_quench(init, bd, cfg)
    assert rep.quench_time == pytest.approx(1.0, abs=0.01)
    assert rep.steps_taken > 0
    assert field.times[0] == 0.0
    # all slabs strictly positive, max-norm under the data envelope
    assert field.values.min() > 0
    assert field.values.max() <= np.sqrt(2.0) + 1e-12
    # quench report invariant
    assert 0.0 < rep.quench_time <= init.grid.time_end


def test_no_quench_short_horizon():
    # constant data 1 on a short horizon: no quench, field stays <= 1, decreasing
    mp = ql.ModelParams(p=3.0, n=1)
    grid = ql.GridSpec(origin=[-1.0], extent=[2.0], cells=[64], time_start=0.0, time_end=0.05)
    init = ql.field_from_function(mp, grid, [0.0], lambda xs, t: np.ones(xs.shape[0]))
    bd = ql.BoundaryData(kind="constant", value=1.0)
    field, rep = ql.solve_until_quench(init, bd, ql.SolverConfig(dt_initial=1e-3))
    assert rep.quench_time is None
    assert field.values.max() <= 1.0 + 1e-12
    mins = [m for _, m in rep.min_history]
    assert all(b <= a + 1e-14 for a, b in zip(mins, mins[1:]))


def test_initial_below_threshold_rejected():
    mp = ql.ModelParams(p=3.0, n=1)
    grid = ql.GridSpec(origin=[-1.0], extent=[2.0], cells=[16], time_start=0.0, time_end=1.0)
    init = ql.field_from_function(mp, grid, [0.0],
                                  lambda xs, t: np.full(xs.shape[0], 5e-4))
    bd = ql.BoundaryData(kind="constant", value=1.0)
    with pytest.raises(UsageError):
        ql.solve_until_quench(init, bd, ql.SolverConfig())


def test_budget_error_carries_partial_field():
    mp, init, bd, cfg = ode_setup(max_steps=10)
    with pytest.raises(BudgetError) as exc:
        ql.solve_until_quench(init, bd, cfg)
    partial = exc.value.partial
    assert partial is not None and partial.times.size >= 2


# fixed steps of 0.2 * dt_initial while (min u)^4 > dt_initial: the first
# 0.1 of the 1D collapse oracle, so a horizon of k steps stores k + 1 slabs
_DT = 0.2 * 2e-3


@pytest.mark.parametrize("steps, stride, max_steps, stored", [
    (2 * _CHUNK - 1, 1, 500_000, 2 * _CHUNK),            # two full chunks
    (2 * _CHUNK, 1, 500_000, 2 * _CHUNK + 1),            # one slab past them
    (100, 3, 500_000, 35),                               # every third step, then the last
    (200, 1, _CHUNK + 7, _CHUNK + 8),                    # BudgetError.partial
], ids=["chunk_multiple", "one_past", "stride_3", "partial"])
def test_chunked_history_matches_list_reference(monkeypatch, steps, stride, max_steps, stored):
    # the reference is the history as a list of per-step copies, stacked
    slabs = []

    def recording_step(values, t, dt, *args, **kwargs):
        out = step(values, t, dt, *args, **kwargs)
        slabs.append((t + dt, out.copy()))
        return out

    monkeypatch.setattr(solver, "step", recording_step)
    mp, init, bd, cfg = ode_setup(cells=16, time_end=steps * _DT, store_stride=stride,
                                  max_steps=max_steps)
    try:
        field, _ = ql.solve_until_quench(init, bd, cfg)
    except BudgetError as exc:
        field = exc.partial
    kept = [slabs[k - 1] for k in range(stride, len(slabs) + 1, stride)]
    if kept[-1] is not slabs[-1]:
        kept.append(slabs[-1])
    ref_times = np.asarray([0.0] + [t for t, _ in kept])
    ref_values = np.asarray([init.values[0]] + [v for _, v in kept])
    assert field.times.size == stored
    assert np.array_equal(field.times, ref_times)
    assert np.array_equal(field.values, ref_values)


_PEAK_SCRIPT = """
import json, resource
import numpy as np
import quenchlab as ql

# the collapse_2d benchmark solve: 515 stored slabs of 97^2 nodes, 37 MB
mp = ql.ModelParams(p=3.0, n=2)
grid = ql.GridSpec(origin=[-1.0, -1.0], extent=[2.0, 2.0], cells=[96, 96],
                   time_start=0.0, time_end=1.05)
u0 = ql.ode_solution(mp, -1.0)
init = ql.field_from_function(mp, grid, [0.0], lambda xs, t: np.full(xs.shape[0], u0))
bd = ql.BoundaryData(kind="analytic_trace", value_fn=lambda xs, t: np.full(
    xs.shape[0], ql.ode_solution(mp, t - 1.0)))
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
field, _ = ql.solve_until_quench(init, bd, ql.SolverConfig(dt_initial=1e-2, safety=0.2))
after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(json.dumps({"growth": (after - before) * 1024, "nbytes": field.values.nbytes}))
"""


@pytest.mark.parametrize("mmap_threshold", ["131072", None], ids=["mmap_128k", "default"])
def test_solve_holds_history_once(mmap_threshold):
    # a fresh interpreter: freed chunks return to the OS only through munmap,
    # and glibc's dynamic mmap threshold drifts in a long-lived process
    env = dict(os.environ)
    env.pop("MALLOC_MMAP_THRESHOLD_", None)
    if mmap_threshold is not None:
        env["MALLOC_MMAP_THRESHOLD_"] = mmap_threshold
    src = os.path.dirname(os.path.dirname(os.path.abspath(ql.__file__)))
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run([sys.executable, "-c", _PEAK_SCRIPT], env=env, check=True,
                         capture_output=True, text=True).stdout
    peak = json.loads(out)
    assert peak["nbytes"] >= 20 * 2 ** 20
    # ru_maxrss counts KiB on Linux; per-step copies stacked into one array read 2.16
    assert peak["growth"] <= 1.5 * peak["nbytes"]


def test_stiffness_error_on_dt_underflow():
    mp, init, bd, _ = ode_setup()
    cfg = ql.SolverConfig(dt_initial=2e-3, dt_min=1e-3, safety=0.2,
                          epsilon_reg=1e-4, quench_threshold=1e-3)
    # dt law hits safety*min(...) < dt_min once min u collapses
    with pytest.raises(StiffnessError):
        ql.solve_until_quench(init, bd, cfg)


def test_spatially_constant_invariance():
    # constant-compatible data: each step introduces <= 1e-10 of spatial
    # spread (the boundary trace vs midpoint-update mismatch, O(dt^3))
    mp, init, bd, cfg = ode_setup(cells=64, time_end=0.5)
    field, _ = ql.solve_until_quench(init, bd, cfg)
    spread = field.values.max(axis=1) - field.values.min(axis=1)
    assert np.diff(spread).max() <= 1e-10
    assert spread.max() <= 1e-7


def test_convergence_under_refinement():
    # quench-time error vs the collapse oracle: factor >= 3 per joint
    # (h, dt) halving, or already at the extrapolation floor
    t_errs, sup_errs = [], []
    for cells, dt0 in ((100, 0.2), (200, 0.1)):
        mp, init, bd, cfg = ode_setup(cells=cells, dt_initial=dt0, store_stride=1)
        field, rep = ql.solve_until_quench(init, bd, cfg)
        t_errs.append(abs(rep.quench_time - 1.0))
        sup_errs.append(max(
            np.abs(field.values[j][1:-1] - ql.ode_solution(mp, t - 1.0)).max()
            for j, t in enumerate(field.times) if 0 < t <= 0.9))
    assert t_errs[0] / max(t_errs[1], 1e-15) >= 3.0 or t_errs[1] < 1e-10
    assert sup_errs[0] / sup_errs[1] >= 3.0


def test_radial_steady_3d_spatial_order():
    # 3D radial steady state held by its own trace: the run drifts to the
    # discrete steady state, which sits O(h^2) from the closed form
    mp = ql.ModelParams(p=3.0, n=3)
    exact = lambda xs, t: np.atleast_1d(ql.radial_steady(mp, xs))
    bd = ql.BoundaryData(kind="analytic_trace", value_fn=exact)
    errs = []
    for cells in (8, 16, 32):
        grid = ql.GridSpec(origin=[0.5] * 3, extent=[1.0] * 3, cells=[cells] * 3,
                           time_start=0.0, time_end=0.1)
        init = ql.field_from_function(mp, grid, [0.0], exact)
        field, _ = ql.solve_until_quench(init, bd, ql.SolverConfig(dt_initial=1e-3))
        errs.append(np.abs(field.values[-1] - init.values[0]).max())
    orders = np.log2(np.array(errs[:-1]) / errs[1:])
    assert np.all(orders >= 1.8), orders


@pytest.mark.parametrize("n, cells", [(2, (32, 64, 128)), (3, (16, 32, 64))], ids=["2d", "3d"])
def test_dip_quench_time_self_convergence(n, cells):
    # Richardson ratio of the quench time over h, h/2, h/4: 4 for a second
    # order operator (the dt law is h-independent, so time error cancels)
    mp = ql.ModelParams(p=3.0, n=n)
    bd = ql.BoundaryData(kind="constant", value=1.0)
    cfg = ql.SolverConfig(dt_initial=1e-2, safety=0.1, store_stride=10 ** 6)
    times = []
    for c in cells:
        grid = ql.GridSpec(origin=[-1.0] * n, extent=[2.0] * n, cells=[c] * n,
                           time_start=0.0, time_end=1.0)
        init = ql.field_from_function(
            mp, grid, [0.0], lambda xs, t: 1.0 - 0.5 * np.exp(-np.sum(xs ** 2, axis=-1) / 0.25))
        _, rep = ql.solve_until_quench(init, bd, cfg)
        times.append(rep.quench_time)
    ratio = (times[0] - times[1]) / (times[1] - times[2])
    assert 3.0 <= ratio <= 5.5, (times, ratio)


def test_comparison_guard_examples():
    # completed quench run: guard below discretization tolerance
    mp, init, bd, cfg = ode_setup()
    field, _ = ql.solve_until_quench(init, bd, cfg)
    assert ql.comparison_guard(field, bd, cfg) <= 1e-6
    # pure heat diagnostic: identical schemes agree to roundoff
    ws = _Workspace(init.grid, periodic=False)
    times = np.linspace(0.0, 0.5, 51)
    heat = [init.values[0]]
    for t0, t1 in zip(times[:-1], times[1:]):
        heat.append(step(heat[-1], t0, t1 - t0, mp, ws, bd, cfg, reaction=False))
    f2 = ql.SpaceTimeField(mp, init.grid, times, heat, boundary_kind="dirichlet_traced")
    assert abs(ql.comparison_guard(f2, bd, cfg)) <= 1e-12
    # constant-1 data: u sits strictly below the caloric majorant
    grid = ql.GridSpec(origin=[-1.0], extent=[2.0], cells=[64], time_start=0.0, time_end=0.05)
    init1 = ql.field_from_function(mp, grid, [0.0], lambda xs, t: np.ones(xs.shape[0]))
    bd1 = ql.BoundaryData(kind="constant", value=1.0)
    f3, _ = ql.solve_until_quench(init1, bd1, ql.SolverConfig(dt_initial=1e-3))
    assert ql.comparison_guard(f3, bd1) < 0.0


def test_periodic_boundary_mass_behavior():
    mp = ql.ModelParams(p=3.0, n=1)
    grid = ql.GridSpec(origin=[0.0], extent=[1.0], cells=[64], time_start=0.0, time_end=0.01)
    init = ql.field_from_function(mp, grid, [0.0],
                                  lambda xs, t: 1.2 + 0.1 * np.sin(2 * np.pi * xs[:, 0]))
    bd = ql.BoundaryData(kind="periodic")
    field, rep = ql.solve_until_quench(init, bd, ql.SolverConfig(dt_initial=1e-3))
    # seam stays identified and values stay positive
    assert np.array_equal(field.values[:, 0], field.values[:, -1])
    assert field.values.min() > 0


def test_interior_quench_localizes():
    mp = ql.ModelParams(p=3.0, n=1)
    grid = ql.GridSpec(origin=[-1.0], extent=[2.0], cells=[256], time_start=0.0, time_end=0.02)
    init = ql.field_from_function(
        mp, grid, [0.0], lambda xs, t: 1.0 - 0.75 * np.exp(-xs[:, 0] ** 2 / 0.35 ** 2))
    bd = ql.BoundaryData(kind="constant", value=1.0)
    field, rep = ql.solve_until_quench(init, bd, ql.SolverConfig(dt_initial=5e-5))
    assert rep.quench_time is not None
    assert len(rep.quench_points) == 1
    assert rep.quench_points[0].x[0] == pytest.approx(0.0, abs=field.h)


@pytest.mark.parametrize("cells", (1, 2, 3))
def test_periodic_collapse_on_few_cells(cells):
    # space-constant periodic data follows the collapse ODE whatever the
    # cell count: the stencil must annihilate constants on 1- and 2-cell axes
    mp = ql.ModelParams(p=3.0, n=1)
    grid = ql.GridSpec(origin=[0.0], extent=[1.0], cells=[cells],
                       time_start=0.0, time_end=1.05)
    init = ql.field_from_function(mp, grid, [0.0],
                                  lambda xs, t: np.full(xs.shape[0], ql.ode_solution(mp, -1.0)))
    _, rep = ql.solve_until_quench(init, ql.BoundaryData(kind="periodic"),
                                   ql.SolverConfig(dt_initial=2e-3))
    assert rep.quench_time == pytest.approx(1.0, abs=1e-3)


def _dense_laplacian(shape, h, periodic):
    """Assembled (2n+1)-point Laplacian; Dirichlet boundary rows are left empty."""
    size = int(np.prod(shape))
    lap = np.zeros((size, size))
    for idx in np.ndindex(*shape):
        if not periodic and any(i in (0, m - 1) for i, m in zip(idx, shape)):
            continue
        row = np.ravel_multi_index(idx, shape)
        lap[row, row] -= 2.0 * len(shape) / h ** 2
        for k, m in enumerate(shape):
            for s in (-1, 1):
                nb = list(idx)
                nb[k] = (nb[k] + s) % m
                lap[row, np.ravel_multi_index(nb, shape)] += 1.0 / h ** 2
    return lap


@pytest.mark.parametrize("dt", (1e-4, 3.7e-3, 5e-2))
@pytest.mark.parametrize("kind, cells", [
    ("analytic_trace", [24]), ("analytic_trace", [12, 16]), ("analytic_trace", [12, 16, 8]),
    ("periodic", [24]), ("periodic", [12, 16]), ("periodic", [12, 16, 8]),
    ("analytic_trace", [1, 4]), ("periodic", [1, 2, 3]),
], ids=["dirichlet-1d", "dirichlet-2d", "dirichlet-3d", "periodic-1d", "periodic-2d",
        "periodic-3d", "dirichlet-1x4", "periodic-1x2x3"])
def test_step_matches_dense_reference(kind, cells, dt):
    # the spectral step against a dense solve of the same scheme: predictor
    # on the assembled stencil, pinned Dirichlet rows, np.linalg.solve
    n, h = len(cells), 1.0 / 16
    mp = ql.ModelParams(p=3.0, n=n)
    grid = ql.GridSpec(origin=[0.0] * n, extent=[h * c for c in cells], cells=cells,
                       time_start=0.0, time_end=1.0)
    periodic = kind == "periodic"
    shape = tuple(cells) if periodic else grid.node_shape
    work = 1.0 + 0.5 * np.random.default_rng(len(cells)).random(shape)
    values = np.pad(work, [(0, 1)] * n, mode="wrap") if periodic else work
    fn = lambda xs, t: 1.0 + 0.3 * np.sin(3.0 * xs.sum(axis=-1)) + t
    bd = ql.BoundaryData(kind=kind, value_fn=None if periodic else fn)
    cfg = ql.SolverConfig()
    out = step(values, 0.0, dt, mp, _Workspace(grid, periodic), bd, cfg)

    lap = _dense_laplacian(shape, h, periodic)
    f = lambda u: ql.regularized_nonlinearity(mp, cfg.epsilon_reg, u)
    u = work.ravel()
    rhs = u - dt * f(u + 0.5 * dt * (lap @ u - f(u)))
    if not periodic:
        pinned = np.ones(shape, dtype=bool)
        pinned[tuple(slice(1, -1) for _ in range(n))] = False
        axes = np.meshgrid(*[grid.axis_nodes(k) for k in range(n)], indexing="ij")
        xs = np.stack([a.ravel() for a in axes], axis=-1)
        rhs[pinned.ravel()] = fn(xs[pinned.ravel()], dt)
    ref = np.linalg.solve(np.eye(u.size) - dt * lap, rhs).reshape(shape)
    got = out[tuple(slice(0, m) for m in shape)]
    assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()
    if periodic:
        assert np.array_equal(out, np.pad(got, [(0, 1)] * n, mode="wrap"))
