import numpy as np
import pytest

import quenchlab as ql
from quenchlab.errors import DomainError, ValidationError
from quenchlab.field import _interp_slab, _spatial_weights, sample_many


def make_field(fn, cells=64, n=1, times=None, extent=2.0):
    mp = ql.ModelParams(p=3.0, n=n)
    grid = ql.GridSpec(origin=[-1.0] * n, extent=[extent] * n, cells=[cells] * n,
                       time_start=0.0, time_end=1.0)
    if times is None:
        times = np.linspace(0.0, 1.0, 11)
    return ql.field_from_function(mp, grid, times, fn)


def test_model_params_validation():
    assert ql.ModelParams(p=3.0, n=1).alpha == 0.5
    with pytest.raises(ValidationError):
        ql.ModelParams(p=0.5, n=1)
    with pytest.raises(ValidationError):
        ql.ModelParams(p=3.0, n=4)


def test_grid_isotropy_enforced():
    with pytest.raises(ValidationError):
        ql.GridSpec(origin=[0.0, 0.0], extent=[1.0, 2.0], cells=[10, 10],
                    time_start=0.0, time_end=1.0)


def test_field_invariants():
    mp = ql.ModelParams(p=3.0, n=1)
    grid = ql.GridSpec(origin=[0.0], extent=[1.0], cells=[4], time_start=0.0, time_end=1.0)
    with pytest.raises(ValidationError):   # non-increasing times
        ql.SpaceTimeField(mp, grid, [0.0, 0.0], np.zeros((2, 5)))
    with pytest.raises(ValidationError):   # non-finite values
        ql.SpaceTimeField(mp, grid, [0.0], np.full((1, 5), np.nan))
    with pytest.raises(ValidationError):   # slab count mismatch
        ql.SpaceTimeField(mp, grid, [0.0, 0.5], np.zeros((1, 5)))


def test_sample_exact_at_nodes():
    f = make_field(lambda xs, t: np.sin(xs[:, 0]) + t ** 2)
    x = f.grid.axis_nodes(0)[3]
    t = f.times[4]
    got = ql.sample(f, ql.ParabolicPoint((x,), t))
    assert got == pytest.approx(np.sin(x) + t ** 2, abs=0)


def test_sample_midpoint_mean_of_linear():
    f = make_field(lambda xs, t: 2.0 * xs[:, 0] + 1.0)
    nodes = f.grid.axis_nodes(0)
    mid = 0.5 * (nodes[3] + nodes[4])
    got = ql.sample(f, ql.ParabolicPoint((mid,), 0.5))
    assert got == pytest.approx(0.5 * ((2 * nodes[3] + 1) + (2 * nodes[4] + 1)), abs=1e-14)


def test_sample_linear_field_exact():
    f = make_field(lambda xs, t: xs[:, 0])
    got = ql.sample(f, ql.ParabolicPoint((0.3,), 0.25))
    assert got == pytest.approx(0.3, abs=1e-12)


def test_sample_out_of_domain():
    f = make_field(lambda xs, t: xs[:, 0])
    with pytest.raises(DomainError):
        ql.sample(f, ql.ParabolicPoint((1.5,), 0.5))
    with pytest.raises(DomainError):
        ql.sample(f, ql.ParabolicPoint((0.0,), 2.0))


def _sample_reference(f, xs, ts):
    """A scalar time bracket and two slab interpolations per point."""
    out = []
    last = max(f.times.size - 2, 0)
    for x, t in zip(xs, ts):
        i = min(max(int(np.searchsorted(f.times, t, side="right")) - 1, 0), last)
        if f.times.size > 1:
            w = min(max((t - f.times[i]) / (f.times[i + 1] - f.times[i]), 0.0), 1.0)
        idx, frac = _spatial_weights(f.grid, x[None, :])
        va = _interp_slab(f.grid, f.values[i], idx, frac)[0]
        if f.times.size == 1:
            out.append(va)
        else:
            vb = _interp_slab(f.grid, f.values[i + 1], idx, frac)[0]
            out.append((1.0 - w) * va + w * vb)
    return np.asarray(out)


_LADDER = np.sort(np.r_[0.0, 1.0, np.random.default_rng(1).uniform(0.0, 1.0, 9)])


@pytest.mark.parametrize("times", [_LADDER, np.array([0.5])], ids=["ladder", "single_slab"])
def test_sample_many_matches_per_point_reference(times):
    f = make_field(lambda xs, t: np.sin(3.0 * xs[:, 0]) * np.cos(xs[:, 1]) + t ** 2,
                   cells=16, n=2, times=times)
    rng = np.random.default_rng(2)
    m = 400
    xs = rng.uniform(-1.0, 1.0, size=(m, 2))
    ts = rng.uniform(times[0], times[-1], size=m)
    ts[:times.size] = times                 # every stored time, first and last included
    ts[-3:] = times[0], times[-1], times[times.size // 2]
    got = sample_many(f, xs, ts)
    assert np.array_equal(got, _sample_reference(f, xs, ts))


def test_sample_many_time_out_of_range():
    f = make_field(lambda xs, t: xs[:, 0])
    xs = np.zeros((3, 1))
    with pytest.raises(DomainError, match="time 1.5 outside"):
        sample_many(f, xs, [0.5, 1.5, 2.0])
    with pytest.raises(DomainError, match="time -0.5 outside"):
        sample_many(f, xs, [-0.5, 0.5, 2.0])


def test_gradient_examples():
    const = make_field(lambda xs, t: np.full(xs.shape[0], 3.0))
    assert ql.gradient(const, ql.ParabolicPoint((0.2,), 0.5)) == pytest.approx([0.0])
    lin = make_field(lambda xs, t: xs[:, 0], n=2)
    g = ql.gradient(lin, ql.ParabolicPoint((0.1, -0.3), 0.5))
    assert g == pytest.approx([1.0, 0.0], abs=1e-12)
    quad = make_field(lambda xs, t: xs[:, 0] ** 2)
    g = ql.gradient(quad, ql.ParabolicPoint((0.5,), 0.5))
    assert g[0] == pytest.approx(1.0, abs=1e-10)


def test_gradient_refuses_boundary():
    f = make_field(lambda xs, t: xs[:, 0])
    with pytest.raises(DomainError):
        ql.gradient(f, ql.ParabolicPoint((-1.0 + 0.4 * f.h,), 0.5))


def test_laplacian_examples():
    lin = make_field(lambda xs, t: 2.0 * xs[:, 0] - 1.0)
    assert ql.laplacian(lin, ql.ParabolicPoint((0.3,), 0.5)) == pytest.approx(0.0, abs=1e-10)
    quad2 = make_field(lambda xs, t: np.sum(xs ** 2, axis=-1), n=2, cells=48)
    val = ql.laplacian(quad2, ql.ParabolicPoint((0.2, 0.1), 0.5))
    assert val == pytest.approx(4.0, abs=1e-8)


def test_laplacian_cubic_exact_quartic_refines():
    # the 2n+1 stencil's Taylor remainder is (h^2/12) u'''' per axis: zero on
    # x^3 (node-aligned query), second order on x^4
    f3 = make_field(lambda xs, t: xs[:, 0] ** 3, cells=32)
    x = f3.grid.axis_nodes(0)[24]
    assert ql.laplacian(f3, ql.ParabolicPoint((x,), 0.5)) == pytest.approx(6 * x, abs=1e-10)
    errs = []
    for cells in (32, 64, 128):
        f = make_field(lambda xs, t: xs[:, 0] ** 4, cells=cells)
        x = f.grid.axis_nodes(0)[cells * 3 // 4]
        errs.append(abs(ql.laplacian(f, ql.ParabolicPoint((x,), 0.5)) - 12 * x ** 2))
    order = np.log2(errs[0] / errs[2]) / 2
    assert order >= 1.8


def test_time_derivative_examples():
    const = make_field(lambda xs, t: np.full(xs.shape[0], 2.0))
    assert ql.time_derivative(const, ql.ParabolicPoint((0.1,), 0.5)) == pytest.approx(0.0)
    lin = make_field(lambda xs, t: np.full(xs.shape[0], t))
    assert ql.time_derivative(lin, ql.ParabolicPoint((0.1,), 0.5)) == pytest.approx(1.0, abs=1e-12)
    quad = make_field(lambda xs, t: np.full(xs.shape[0], t ** 2))
    assert ql.time_derivative(quad, ql.ParabolicPoint((0.1,), 0.5)) == pytest.approx(1.0, abs=1e-8)


def test_time_derivative_nonuniform_steps_quadratic():
    times = np.array([0.0, 0.13, 0.21, 0.4, 0.55, 0.8, 1.0])
    f = make_field(lambda xs, t: np.full(xs.shape[0], t ** 2), times=times)
    got = ql.time_derivative(f, ql.ParabolicPoint((0.0,), 0.3))
    assert got == pytest.approx(0.6, abs=1e-12)


def test_time_derivative_rejects_endpoints():
    f = make_field(lambda xs, t: np.full(xs.shape[0], t))
    with pytest.raises(DomainError):
        ql.time_derivative(f, ql.ParabolicPoint((0.0,), 0.0))
    with pytest.raises(DomainError):
        ql.time_derivative(f, ql.ParabolicPoint((0.0,), 1.0))


def test_derivative_convergence_orders_smooth():
    # observed order >= 1.8 from three refinement levels on sin(x) cos(t)
    X = ql.ParabolicPoint((0.217,), 0.53)
    errs_g, errs_l, errs_t = [], [], []
    for cells, ntimes in ((16, 9), (32, 17), (64, 33)):
        f = make_field(lambda xs, t: np.sin(2 * xs[:, 0]) * np.cos(t),
                       cells=cells, times=np.linspace(0, 1, ntimes))
        errs_g.append(abs(ql.gradient(f, X)[0] - 2 * np.cos(2 * X.x[0]) * np.cos(X.t)))
        errs_l.append(abs(ql.laplacian(f, X) + 4 * np.sin(2 * X.x[0]) * np.cos(X.t)))
        errs_t.append(abs(ql.time_derivative(f, X) + np.sin(2 * X.x[0]) * np.sin(X.t)))
    for errs in (errs_g, errs_l, errs_t):
        order = np.log2(errs[0] / errs[2]) / 2
        assert order >= 1.8, errs


def test_restrict_whole_domain_identity():
    f = make_field(lambda xs, t: xs[:, 0] + t)
    Q = ql.ParabolicCylinder(ql.ParabolicPoint((0.0,), 1.0), 50.0)
    patch = ql.restrict(f, Q)
    assert np.array_equal(patch.field.values, f.values)


def test_restrict_single_cell_region():
    f = make_field(lambda xs, t: xs[:, 0], cells=64)
    Q = ql.ParabolicCylinder(ql.ParabolicPoint((0.25,), 0.5), f.h)
    patch = ql.restrict(f, Q)
    assert np.prod(patch.field.grid.node_shape) <= 3
    assert patch.node_mask.any()


def test_restrict_sample_agreement():
    f = make_field(lambda xs, t: np.sin(xs[:, 0]) * (1 + t), cells=64)
    Q = ql.ParabolicCylinder(ql.ParabolicPoint((0.2,), 0.6), 0.3)
    patch = ql.restrict(f, Q)
    for X in (ql.ParabolicPoint((0.11,), 0.55), ql.ParabolicPoint((0.44,), 0.58),
              ql.ParabolicPoint((0.2,), 0.6)):
        assert ql.sample(patch.field, X) == pytest.approx(ql.sample(f, X), abs=1e-13)


def test_restrict_mask_measure_close_to_cylinder_volume():
    mp = ql.ModelParams(p=3.0, n=2)
    grid = ql.GridSpec(origin=[-1.0, -1.0], extent=[2.0, 2.0], cells=[128, 128],
                       time_start=-1.0, time_end=0.0)
    f = ql.field_from_function(mp, grid, np.linspace(-1, 0, 201), lambda xs, t: xs[:, 0])
    r = 0.25   # r >= 8h
    Q = ql.ParabolicCylinder(ql.ParabolicPoint((0.1, -0.2), -0.3), r)
    exact = np.pi * r ** 2 * r ** 2
    got = ql.restrict(f, Q).mask_measure()
    assert abs(got - exact) / exact < 0.05


def test_restrict_empty_intersection():
    f = make_field(lambda xs, t: xs[:, 0])
    with pytest.raises(DomainError):
        ql.restrict(f, ql.ParabolicCylinder(ql.ParabolicPoint((50.0,), 0.5), 0.1))
    with pytest.raises(DomainError):   # time window entirely before history
        ql.restrict(f, ql.ParabolicCylinder(ql.ParabolicPoint((0.0,), -5.0), 0.1))


def test_restrict_two_sided_window():
    f = make_field(lambda xs, t: xs[:, 0] + t)
    Q = ql.ParabolicCylinder(ql.ParabolicPoint((0.0,), 0.5), 0.2, kind="two_sided")
    patch = ql.restrict(f, Q)
    lo, hi = Q.time_window()
    assert patch.field.times[0] <= lo + 0.11 and patch.field.times[-1] >= hi - 0.11
    X = ql.ParabolicPoint((0.05,), 0.53)
    assert ql.sample(patch.field, X) == pytest.approx(ql.sample(f, X), abs=1e-13)
