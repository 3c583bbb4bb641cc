import numpy as np
import pytest

import quenchlab as ql
from quenchlab.errors import DomainError, UsageError
from quenchlab.quadrature import spacetime_blocks
from quenchlab.solver import _Workspace


def test_ode_solution_values(p3_1d):
    # 4^(1/4) = sqrt(2)
    assert ql.ode_solution(p3_1d, -1.0) == pytest.approx(np.sqrt(2.0), rel=1e-12)
    assert ql.ode_solution(p3_1d, -16.0) == pytest.approx(2.0 * np.sqrt(2.0), rel=1e-12)
    with pytest.raises(DomainError):
        ql.ode_solution(p3_1d, 0.0)


def test_ode_solution_solves_collapse_ode(p3_1d):
    # u' = -u^-p, checked against centered differences of the closed form
    for t in -np.geomspace(1e-4, 1.0, 20):
        e = 1e-4 * abs(t)
        du = (ql.ode_solution(p3_1d, t + e) - ql.ode_solution(p3_1d, t - e)) / (2 * e)
        rhs = -ql.ode_solution(p3_1d, t) ** -3.0
        assert abs(du - rhs) / abs(rhs) < 1e-7


def test_radial_steady_values(p3_2d):
    assert ql.radial_steady(p3_2d, np.array([1.0, 0.0])) == pytest.approx(np.sqrt(2.0), rel=1e-12)
    assert ql.radial_steady(p3_2d, np.array([0.0, 0.0])) == 0.0
    with pytest.raises(DomainError):
        ql.radial_steady_coeff(ql.ModelParams(p=3.0, n=1))


def test_radial_steady_elliptic_residual_refines(p3_2d):
    # Lap_h u - u^-p -> 0 at order h^2 at the nodes of a fixed annulus clear of
    # |x| < 4h; Lap_h is the solver's stencil, whose fixed point it reaches
    errs = []
    for cells in (64, 128, 256):
        grid = ql.GridSpec(origin=[-1.0, -1.0], extent=[2.0, 2.0], cells=[cells] * 2,
                           time_start=0.0, time_end=1.0)
        u = ql.radial_field(p3_2d, grid, [0.0, 1.0]).values[0]
        x = np.meshgrid(*[grid.axis_nodes(k)[1:-1] for k in range(2)], indexing="ij")
        r = np.hypot(*x)
        ring = (r >= 0.3) & (r <= 0.8)
        lap = _Workspace(grid, periodic=False).laplacian(u)
        errs.append(np.max(np.abs(lap[ring] - u[1:-1, 1:-1][ring] ** -3.0)))
    order = np.log2(errs[0] / errs[2]) / 2
    assert order >= 1.8, errs


def test_ode_field_pde_residual(p3_1d):
    # u_t + u^-p = 0 to 1e-8 at every interval midpoint, from the interval
    # slope (spatial terms vanish identically; the ladder must resolve the
    # collapse curvature)
    grid = ql.GridSpec(origin=[-1.0], extent=[2.0], cells=[16], time_start=-1.0, time_end=-0.5)
    fu = ql.ode_field(p3_1d, grid, np.linspace(-1.0, -0.5, 4001))
    for blk in spacetime_blocks(fu):
        assert np.max(np.abs(blk.dtu + blk.u ** -3.0)) < 1e-8
        assert np.all(blk.grad[0] == 0.0)
    lap = _Workspace(grid, periodic=False).laplacian
    assert all(np.all(lap(slab) == 0.0) for slab in fu.values)


def test_rescale_identity(ode_field_dyadic):
    f = ode_field_dyadic
    spec = ql.BlowupSpec(ql.ParabolicPoint((0.0,), 0.0), 1.0)
    v = ql.rescale(f, spec, f.grid, f.times)
    assert np.max(np.abs(v.values - f.values)) <= 1e-12


def test_rescale_normalization_constant(ode_field_dyadic):
    f = ode_field_dyadic
    spec = ql.BlowupSpec(ql.ParabolicPoint((0.0,), 0.0), 1.0, normalization=2.0)
    v = ql.rescale(f, spec, f.grid, f.times)
    assert np.max(np.abs(2.0 * v.values - f.values)) <= 1e-12


def test_rescale_ode_fixed_point(p3_1d, ode_field_dyadic):
    # lam^-alpha u0(lam^2 t) = u0(t): exact cancellation of exponents
    f = ode_field_dyadic
    tg = ql.GridSpec(origin=[-0.25], extent=[0.5], cells=[64],
                     time_start=-0.125, time_end=-2.0 ** -36)
    tt = ql.dyadic_times(-0.125, 30)
    ref = ql.ode_field(p3_1d, tg, tt)
    for lam in (0.5, 2.0):
        v = ql.rescale(f, ql.BlowupSpec(ql.ParabolicPoint((0.0,), 0.0), lam), tg, tt)
        assert np.max(np.abs(v.values - ref.values)) <= 1e-10


def test_rescale_composition(ode_field_dyadic):
    f = ode_field_dyadic
    x0 = ql.ParabolicPoint((0.0,), 0.0)
    mid_g = ql.GridSpec(origin=[-0.25], extent=[0.5], cells=[64],
                        time_start=-0.125, time_end=-2.0 ** -36)
    mid_t = ql.dyadic_times(-0.125, 30)
    fin_g = ql.GridSpec(origin=[-0.05], extent=[0.1], cells=[32],
                        time_start=-0.01, time_end=-2.0 ** -38)
    fin_t = ql.dyadic_times(-0.01, 25)
    via = ql.rescale(ql.rescale(f, ql.BlowupSpec(x0, 2.0), mid_g, mid_t),
                     ql.BlowupSpec(x0, 2.0), fin_g, fin_t)
    direct = ql.rescale(f, ql.BlowupSpec(x0, 4.0), fin_g, fin_t)
    assert np.max(np.abs(via.values - direct.values)) <= 1e-12


def test_rescale_escape_raises(ode_field_dyadic):
    spec = ql.BlowupSpec(ql.ParabolicPoint((0.0,), 0.0), 4.0)
    with pytest.raises(DomainError):
        ql.rescale(ode_field_dyadic, spec, ode_field_dyadic.grid, ode_field_dyadic.times)


def test_self_similarity_ode(ode_field_dyadic):
    win = ql.ParabolicCylinder(ql.ParabolicPoint((0.0,), -0.05), 0.3)
    res = ql.self_similarity_residual(ode_field_dyadic, ql.ParabolicPoint((0.0,), 0.0),
                                      [0.5, 2.0], win)
    assert res <= 1e-10


def test_self_similarity_radial(radial_field_2d):
    # node-aligned upscalings keep the homogeneous profile exactly; the
    # rescaled window must stay inside the stored history
    base = ql.ParabolicPoint((0.0, 0.0), 0.0)
    win_up = ql.ParabolicCylinder(ql.ParabolicPoint((0.0, 0.0), -0.0625), 0.2)
    res = ql.self_similarity_residual(radial_field_2d, base, [2.0, 4.0], win_up)
    assert res <= 1e-12
    # downscaling crosses cell midpoints where the |x|^(1/2) cusp costs
    # interpolation error; still far below the non-self-similar signal
    win_dn = ql.ParabolicCylinder(ql.ParabolicPoint((0.0, 0.0), -0.25), 0.2)
    res_dn = ql.self_similarity_residual(radial_field_2d, base, [0.5], win_dn)
    assert res_dn <= 0.06


def test_self_similarity_constant_field(p3_1d, ode_field_dyadic):
    f = ql.profile_field(p3_1d, ode_field_dyadic.grid, ode_field_dyadic.times,
                         "constant", value=1.0)
    win = ql.ParabolicCylinder(ql.ParabolicPoint((0.0,), -0.05), 0.3)
    res = ql.self_similarity_residual(f, ql.ParabolicPoint((0.0,), 0.0), [2.0], win)
    assert res == pytest.approx(abs(1.0 - 2.0 ** -0.5), abs=1e-12)


@pytest.mark.parametrize("lambdas, match", [
    ([0.0], "lambda must be positive"),
    ([2.0, -1.0], "lambda must be positive"),
    ([float("inf")], "lambda must be positive and finite"),
    ([], r"lambdas \[\] is vacuous"),
    ([1.0], r"lambdas \[1.0\] is vacuous"),
    ([0.5, 1.0], r"lambdas \[0.5, 1.0\] is vacuous"),
])
def test_self_similarity_refuses_a_vacuous_or_nonpositive_lambda(ode_field_dyadic, lambdas,
                                                                  match):
    # lambda <= 0 is refused by BlowupSpec, the map rescale uses too; no
    # lambda, or lambda = 1, compares the window with itself and reads 0
    win = ql.ParabolicCylinder(ql.ParabolicPoint((0.0,), -0.05), 0.3)
    with pytest.raises(UsageError, match=match):
        ql.self_similarity_residual(ode_field_dyadic, ql.ParabolicPoint((0.0,), 0.0),
                                    lambdas, win)


def test_holder_limit_of_collapse(p3_1d):
    # brute-force sup over sampled time pairs of |u(t)-u(s)| / |t-s|^(1/4)
    # converges from below to (p+1)^(1/(p+1)) = sqrt(2) as the grid hugs 0
    times = ql.geometric_times(-1.0, -1e-13, 0.85)
    u = ql.ode_solution(p3_1d, times)
    tt = times[:, None] - times[None, :]
    quot = np.abs(u[:, None] - u[None, :]) / np.where(tt == 0, 1.0, np.abs(tt)) ** 0.25
    sup = quot.max()
    assert sup <= np.sqrt(2.0) + 1e-12
    assert sup == pytest.approx(np.sqrt(2.0), abs=1e-3)


def _self_similarity_reference(field, base, lambdas, window):
    """self_similarity_residual as the max over (lambda, time) of one pair of samples."""
    lo, hi = window.time_window()
    c, x0 = np.asarray(window.center.x), np.asarray(base.x)
    pts = field.grid.node_points()
    pts = pts[np.all(np.abs(pts - c) <= window.radius, axis=-1)]
    pts = pts[np.linalg.norm(pts - c, axis=-1) <= window.radius]
    times = field.times[(field.times > lo) & (field.times <= hi)]
    worst = 0.0
    for lam in lambdas:
        for t in times:
            u = ql.sample_many(field, pts, np.full(pts.shape[0], t))
            v = ql.sample_many(field, x0 + lam * (pts - x0),
                               np.full(pts.shape[0], base.t + lam ** 2 * (t - base.t)))
            worst = max(worst, float(np.max(np.abs(u - lam ** (-field.params.alpha) * v))))
    return worst, times.size


def test_self_similarity_samples_each_stored_time_once(p3_2d, ode_field_dyadic, monkeypatch):
    # the unmapped side is sampled once per stored time for every lambda: 3T
    # sample_many calls for two lambdas and T times, and the same residual
    grid = ql.GridSpec(origin=[-1.0, -1.0], extent=[2.0, 2.0], cells=[64, 64],
                       time_start=-1.0, time_end=-0.0625)
    radial = ql.radial_field(p3_2d, grid, np.linspace(-1.0, -0.0625, 61))
    cases = [
        (radial, ql.ParabolicPoint((0.0, 0.0), 0.0), [0.5, 0.75],
         ql.ParabolicCylinder(ql.ParabolicPoint((0.0, 0.0), -0.25), 0.2)),
        (ode_field_dyadic, ql.ParabolicPoint((0.0,), 0.0), [0.5, 2.0],
         ql.ParabolicCylinder(ql.ParabolicPoint((0.0,), -0.05), 0.3)),
    ]
    sampled = ql.exact.sample_many
    for field, base, lambdas, window in cases:
        want, T = _self_similarity_reference(field, base, lambdas, window)
        calls = []

        def counted(*args):
            calls.append(1)
            return sampled(*args)

        monkeypatch.setattr(ql.exact, "sample_many", counted)
        got = ql.self_similarity_residual(field, base, lambdas, window)
        monkeypatch.undo()
        assert T >= 2 and want > 0.0
        assert got == want
        assert len(calls) == 3 * T
