import dataclasses

import numpy as np
import pytest
from scipy.integrate import quad

import quenchlab as ql
import quenchlab.residuals as residuals
from quenchlab.bumps import bump_profile, bump_profile_d1, bump_profile_d2
from quenchlab.errors import DomainError, QuenchLabError, SingularIntegrandError, UsageError
from quenchlab.ops import OPS
from quenchlab.quadrature import integrate


def profile(name, n=1, cells=256, L=1.0, exponent=None, ntimes=9):
    mp = ql.ModelParams(p=3.0, n=n)
    grid = ql.GridSpec(origin=[-L] * n, extent=[2 * L] * n, cells=[cells] * n,
                       time_start=-1.0, time_end=1.0)
    return ql.profile_field(mp, grid, np.linspace(-1.0, 1.0, ntimes), name,
                            exponent=exponent)


def centered_bump(n, r_in=0.25, r_out=0.5, t_in=0.3, t_out=0.6):
    return ql.SpaceTimeBump(space=ql.CutoffSpec(tuple([0.0] * n), r_in, r_out),
                            time=ql.TimeWindow(center=0.0, inner=t_in, outer=t_out))


def vector_tests(field, bump):
    n = field.n
    ys = [ql.TestVectorField(kind="coordinate_bump", bump=bump, axis=k) for k in range(n)]
    ys.append(ql.TestVectorField(kind="radial_bump", bump=bump))
    return ys


# -- profile plumbing ----------------------------------------------------------

def test_bump_profile_shape():
    s = np.linspace(-0.5, 1.5, 201)
    q = bump_profile(s)
    assert np.all((q >= 0) & (q <= 1))
    assert np.all(q[s <= 0] == 1.0)
    assert np.all(q[s >= 1] == 0.0)
    assert bump_profile(0.5) == pytest.approx(0.5)
    # reference form exp(-1/(1-s)) / (exp(-1/(1-s)) + exp(-1/s)), bit-exact target
    for sv in (0.1, 0.37, 0.73, 0.9):
        a = np.exp(-1.0 / (1.0 - sv))
        b = np.exp(-1.0 / sv)
        assert bump_profile(sv) == pytest.approx(a / (a + b), rel=1e-13)


def test_bump_profile_derivatives_match_fd():
    for sv in (0.2, 0.5, 0.8):
        e = 1e-6
        d1 = (bump_profile(sv + e) - bump_profile(sv - e)) / (2 * e)
        assert bump_profile_d1(sv) == pytest.approx(d1, rel=1e-6, abs=1e-9)
        d2 = (bump_profile_d1(sv + e) - bump_profile_d1(sv - e)) / (2 * e)
        assert bump_profile_d2(sv) == pytest.approx(d2, rel=1e-5, abs=1e-8)


def test_cutoff_plateau_and_support():
    eta = ql.CutoffSpec((0.0, 0.0), 0.5, 1.0)
    xs = np.array([[0.0, 0.0], [0.3, 0.2], [0.9, 0.9], [0.2, 0.1]])
    v = eta.value(xs)
    assert v[0] == 1.0 and v[1] == 1.0 and v[2] == 0.0
    assert np.all(eta.grad(xs[:2]) == 0.0)
    assert np.all(eta.laplacian(xs[:2], 2) == 0.0)


@pytest.mark.parametrize("kind", ["coordinate_bump", "radial_bump"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_vector_field_product_form_matches_a_difference_jacobian(n, kind):
    # at() gives psi, grad psi, p, div Y and c; the test builds Y = psi p itself
    # and takes its Jacobian by central differences: div Y is its trace and
    # DY(v, v) = (p . v)(grad psi . v) + c psi |v|^2 is v . DY v
    rng = np.random.default_rng(7 + n)
    center = np.array([0.1, -0.2, 0.05][:n])
    bump = ql.SpaceTimeBump(space=ql.CutoffSpec(tuple(center), 0.2, 0.6),
                            time=ql.TimeWindow(center=0.0, inner=0.3, outer=0.6))
    Y = ql.TestVectorField(kind=kind, bump=bump, axis=n - 1)
    # plateau, transition and outside of the support alike
    xs = center + rng.uniform(-0.7, 0.7, size=(64, n))
    v = rng.standard_normal((64, n))

    def p_of(x):
        return np.broadcast_to(np.eye(n)[n - 1], x.shape) if kind == "coordinate_bump" \
            else x - center

    def y_of(x):
        return bump.space.value(x)[:, None] * p_of(x)

    e = 1e-5
    steps = e * np.eye(n)
    jac = np.stack([(y_of(xs + d) - y_of(xs - d)) / (2 * e) for d in steps], axis=-1)
    dpsi = np.stack([(bump.space.value(xs + d) - bump.space.value(xs - d)) / (2 * e)
                     for d in steps], axis=-1)
    psi, grad_psi, p, div, c = Y.at(xs)
    assert c == (0.0 if kind == "coordinate_bump" else 1.0)
    assert np.array_equal(psi, bump.space.value(xs))
    assert np.array_equal(p, p_of(xs))
    np.testing.assert_allclose(grad_psi, dpsi, rtol=0, atol=1e-6)
    np.testing.assert_allclose(div, np.trace(jac, axis1=-2, axis2=-1), rtol=0, atol=1e-6)
    dy = np.sum(p * v, -1) * np.sum(grad_psi * v, -1) + c * psi * np.sum(v * v, -1)
    np.testing.assert_allclose(dy, np.einsum("ki,kij,kj->k", v, jac, v), rtol=0, atol=1e-5)
    assert np.abs(jac).max() > 0.5   # the points reach the transition


# -- distributional residual ----------------------------------------------------

def test_distributional_collapse_solution(p3_1d):
    grid = ql.GridSpec(origin=[-1.0], extent=[2.0], cells=[256], time_start=-1.0, time_end=-0.05)
    f = ql.ode_field(p3_1d, grid, np.linspace(-1.0, -0.05, 400))
    psi = ql.SpaceTimeBump(space=ql.CutoffSpec((0.0,), 0.25, 0.5),
                           time=ql.TimeWindow(center=-0.5, inner=0.15, outer=0.35))
    rep = ql.distributional_residual(f, psi)
    assert rep.relative < 1e-6
    assert rep.quadrature_cells > 0


def test_distributional_radial_off_center(p3_2d):
    grid = ql.GridSpec(origin=[-1.0, -1.0], extent=[2.0, 2.0], cells=[128, 128],
                       time_start=-1.0, time_end=0.0)
    f = ql.radial_field(p3_2d, grid, np.linspace(-1.0, 0.0, 9))
    # support away from the |x| = 0 singularity
    psi = ql.SpaceTimeBump(space=ql.CutoffSpec((0.45, 0.2), 0.15, 0.3),
                           time=ql.TimeWindow(center=-0.5, inner=0.15, outer=0.35))
    rep = ql.distributional_residual(f, psi)
    assert rep.relative < 3e-3
    assert rep.excluded_fraction == 0.0


def test_distributional_constant_field_equals_bump_mass(p3_1d):
    f = profile("constant", ntimes=321)
    psi = centered_bump(1)
    rep = ql.distributional_residual(f, psi)
    # residual is exactly the forcing term: int psi over space-time
    sp = quad(lambda x: bump_profile((abs(x) - 0.25) / 0.25), -0.5, 0.5, limit=200)[0]
    tm = quad(lambda t: bump_profile((abs(t) - 0.3) / 0.3), -0.6, 0.6, limit=200)[0]
    assert rep.value == pytest.approx(sp * tm, rel=1e-4)


def test_distributional_requires_inside_support(p3_1d):
    f = profile("constant")
    psi = ql.SpaceTimeBump(space=ql.CutoffSpec((0.9,), 0.25, 0.5),
                           time=ql.TimeWindow(center=0.0, inner=0.3, outer=0.6))
    with pytest.raises(DomainError):
        ql.distributional_residual(f, psi)


# -- stationary residual ---------------------------------------------------------

def test_stationary_collapse_solution(p3_1d):
    # spatially constant: value reduces to -int u^(1-p)/(p-1) div Y = 0 per slab
    grid = ql.GridSpec(origin=[-1.0], extent=[2.0], cells=[256], time_start=-1.0, time_end=-0.05)
    f = ql.ode_field(p3_1d, grid, np.linspace(-1.0, -0.05, 200))
    bump = ql.SpaceTimeBump(space=ql.CutoffSpec((0.0,), 0.25, 0.5),
                            time=ql.TimeWindow(center=-0.5, inner=0.15, outer=0.35))
    Y = ql.TestVectorField(kind="coordinate_bump", bump=bump, axis=0)
    rep = ql.stationary_residual(f, Y)
    assert abs(rep.value) < 1e-10


def test_stationary_radial(p3_2d, radial_field_2d):
    bump = ql.SpaceTimeBump(space=ql.CutoffSpec((0.0, 0.0), 0.2, 0.4),
                            time=ql.TimeWindow(center=-0.5, inner=0.15, outer=0.3))
    Y = ql.TestVectorField(kind="radial_bump", bump=bump)
    rep = ql.stationary_residual(radial_field_2d, Y)
    # origin cells contribute O(h) quadrature error (singular energy density);
    # the nonstationary signal below sits two orders above this
    assert rep.relative < 1e-2


def test_stationary_half_plane_detected(p3_1d):
    # u = max(x1, 0): the edge contributes int_{x1=0} Y1, stable under refinement
    rels = []
    for cells in (128, 256):
        f = profile("relu_x1", cells=cells)
        psi = centered_bump(1)
        Y = ql.TestVectorField(kind="coordinate_bump", bump=psi, axis=0)
        rep = ql.stationary_residual(f, Y, potential=False)
        rels.append(rep.relative)
        # independent oracle for the edge term: the identity's limit for this
        # field is psi(0) * int w dt (per the two-valued stationarity form the
        # DY term doubles the divergence term's boundary contribution)
    assert min(rels) > 0.1
    assert abs(rels[0] - rels[1]) < 0.05 * rels[0]


def test_stationary_refinement_off_singularity(p3_2d):
    # smooth-support case refines at second order: halving h cuts the
    # relative residual by >= 3
    rels = []
    for cells in (64, 128):
        grid = ql.GridSpec(origin=[-1.0, -1.0], extent=[2.0, 2.0], cells=[cells] * 2,
                           time_start=-1.0, time_end=0.0)
        f = ql.radial_field(p3_2d, grid, np.linspace(-1.0, 0.0, 9))
        bump = ql.SpaceTimeBump(space=ql.CutoffSpec((0.45, 0.2), 0.15, 0.3),
                                time=ql.TimeWindow(center=-0.5, inner=0.15, outer=0.3))
        Y = ql.TestVectorField(kind="radial_bump", bump=bump)
        rels.append(ql.stationary_residual(f, Y).relative)
    assert rels[0] / rels[1] >= 3.0


def test_excluded_fraction_is_measure_weighted(p3_1d):
    # u vanishes over the short first interval (dt = 0.1) and is positive
    # over the long second one (dt = 1.9): a tenth of a cell count, but only
    # 0.1 / 2.0 of the space-time measure, sits below the floor
    grid = ql.GridSpec(origin=[-1.0], extent=[2.0], cells=[64], time_start=-1.0, time_end=1.0)
    f = ql.field_from_function(p3_1d, grid, [-1.0, -0.9, 1.0],
                               lambda xs, t: np.full(xs.shape[0], 1.0 if t > 0 else 0.0))
    bump = ql.SpaceTimeBump(space=ql.CutoffSpec((0.0,), 0.25, 0.5),
                            time=ql.TimeWindow(center=0.0, inner=0.5, outer=1.0))
    Y = ql.TestVectorField(kind="coordinate_bump", bump=bump, axis=0)
    assert ql.stationary_residual(f, Y).excluded_fraction == pytest.approx(0.05, rel=1e-12)
    eta_rep = ql.energy_inequality_defect(f, bump, -1.0, 1.0)
    assert eta_rep.excluded_fraction == pytest.approx(0.05, rel=1e-12)


@pytest.mark.parametrize("which", ["distributional", "stationary"])
def test_singular_integrand_gate(which):
    # u = max(x1, 0) sits below the floor h^alpha on over half of the support
    f = profile("relu_x1", cells=256)
    psi = centered_bump(1)
    with pytest.raises(SingularIntegrandError):
        if which == "distributional":
            ql.distributional_residual(f, psi)
        else:
            ql.stationary_residual(f, ql.TestVectorField(kind="coordinate_bump", bump=psi,
                                                         axis=0))


# -- energy inequality -----------------------------------------------------------

def test_energy_defect_collapse_solution(p3_1d):
    grid = ql.GridSpec(origin=[-1.0], extent=[2.0], cells=[64], time_start=-1.0, time_end=-0.05)
    f = ql.ode_field(p3_1d, grid, np.linspace(-1.0, -0.05, 400))
    eta = ql.SpaceTimeBump(space=ql.CutoffSpec((0.0,), 0.25, 0.5),
                           time=ql.TimeWindow(center=-0.5, inner=0.2, outer=0.4))
    rep = ql.energy_inequality_defect(f, eta, -0.9, -0.1)
    assert rep.relative < 1e-5


def test_energy_defect_time_constant_field(p3_2d):
    grid = ql.GridSpec(origin=[-1.0, -1.0], extent=[2.0, 2.0], cells=[128, 128],
                       time_start=-1.0, time_end=0.0)
    f = ql.radial_field(p3_2d, grid, np.linspace(-1.0, 0.0, 65))
    eta = ql.SpaceTimeBump(space=ql.CutoffSpec((0.4, 0.2), 0.15, 0.3),
                           time=ql.TimeWindow(center=-0.5, inner=0.2, outer=0.4))
    rep = ql.energy_inequality_defect(f, eta, -1.0, 0.0)
    assert rep.relative < 1e-3


def test_energy_defect_time_reversed_positive(p3_1d):
    grid = ql.GridSpec(origin=[-1.0], extent=[2.0], cells=[64], time_start=-1.0, time_end=-0.05)
    times = np.linspace(-1.0, -0.05, 400)
    f = ql.ode_field(p3_1d, grid, times)
    rev = ql.SpaceTimeField(p3_1d, grid, times, f.values[::-1].copy())
    eta = ql.SpaceTimeBump(space=ql.CutoffSpec((0.0,), 0.25, 0.5),
                           time=ql.TimeWindow(center=-0.5, inner=0.2, outer=0.4))
    rep = ql.energy_inequality_defect(rev, eta, -0.9, -0.1)
    assert rep.value > 0.1 * rep.scale


# -- two-valued caloric checker ---------------------------------------------------

REL_TOL = 1e-3


def run_checker(field):
    bump = centered_bump(field.n)
    return ql.two_valued_caloric_check(field, [bump], vector_tests(field, bump))


def test_two_valued_abs_x1_passes():
    reps = run_checker(profile("abs_x1", cells=256))
    assert np.isfinite(reps["i"].value)
    assert reps["ii"].value >= -REL_TOL * reps["ii"].scale
    for key in ("iii", "iv"):
        assert reps[key].relative <= REL_TOL
    assert reps["v"].value <= REL_TOL * reps["v"].scale


def test_two_valued_abs_x1x2_passes():
    reps = run_checker(profile("abs_x1x2", n=2, cells=256))
    assert reps["ii"].value >= -REL_TOL * reps["ii"].scale
    for key in ("iii", "iv"):
        assert reps[key].relative <= REL_TOL
    assert reps["v"].value <= REL_TOL * reps["v"].scale


def test_two_valued_half_plane_fails_iv_only():
    reps = run_checker(profile("relu_x1", cells=256))
    assert reps["ii"].value >= -REL_TOL * reps["ii"].scale
    assert reps["iii"].relative <= REL_TOL
    assert reps["v"].value <= REL_TOL * reps["v"].scale
    assert reps["iv"].relative >= 0.1


def test_two_valued_rejects_negative_fields(p3_1d):
    grid = ql.GridSpec(origin=[-1.0], extent=[2.0], cells=[32], time_start=-1.0, time_end=1.0)
    f = ql.field_from_function(p3_1d, grid, [-1.0, 0.0, 1.0], lambda xs, t: xs[:, 0])
    bump = centered_bump(1)
    with pytest.raises(UsageError):
        ql.two_valued_caloric_check(f, [bump], vector_tests(f, bump))


def test_two_valued_rejects_vector_field_leaving_domain():
    # a clipped support would drop the boundary terms of the stationarity identity
    f = profile("abs_x1", cells=128)
    eta = centered_bump(1)
    outside = ql.SpaceTimeBump(space=ql.CutoffSpec((0.8,), 0.25, 0.5),
                               time=ql.TimeWindow(center=0.0, inner=0.3, outer=0.6))
    Y = ql.TestVectorField(kind="coordinate_bump", bump=outside, axis=0)
    with pytest.raises(DomainError):
        ql.two_valued_caloric_check(f, [eta], [Y])


def _moving_field(p3_1d):
    """u = (2 + x + x^2)(1.5 + sin 2t): positive, lopsided in x and moving in t."""
    grid = ql.GridSpec(origin=[-1.0], extent=[2.0], cells=[64], time_start=-1.0, time_end=1.0)
    return ql.field_from_function(
        p3_1d, grid, np.linspace(-1.0, 1.0, 33),
        lambda xs, t: (2.0 + xs[:, 0] + xs[:, 0] ** 2) * (1.5 + np.sin(2.0 * t)))


def test_two_valued_time_factors_are_told_apart_by_value(p3_1d):
    # the etas' windows share the support [-0.6, 0.6] and differ in inner; the
    # (ii) bump and the Ys use another support.  Each pair, in either order,
    # must report the worst of its etas' one-eta calls bit for bit: a factor
    # shared by support, by set order or by place in the pass changes one of them
    f = _moving_field(p3_1d)
    other = ql.SpaceTimeBump(ql.CutoffSpec((0.0,), 0.25, 0.5),
                             ql.TimeWindow(center=0.0, inner=0.2, outer=0.5))
    ys, bumps = vector_tests(f, other), [other]
    windows = [ql.TimeWindow(center=0.0, inner=inner, outer=0.6) for inner in (0.1, 0.4)]
    spaces = [ql.CutoffSpec((0.0,), 0.2, 0.4), ql.CutoffSpec((0.3,), 0.2, 0.4)]
    etas = {(a, b): ql.SpaceTimeBump(spaces[a], windows[b]) for a in (0, 1) for b in (0, 1)}
    alone = {k: ql.two_valued_caloric_check(f, [eta], ys, bumps) for k, eta in etas.items()}
    for key in ("iii", "v"):
        assert len({rep[key].value for rep in alone.values()}) == 4
    for pair in ([(0, 0), (1, 1)], [(0, 1), (1, 0)]):
        for order in (pair, pair[::-1]):
            both = ql.two_valued_caloric_check(f, [etas[k] for k in order], ys, bumps)
            for key in ("iii", "v"):
                worst = max((alone[k][key] for k in order), key=lambda r: r.relative)
                assert (both[key].value, both[key].scale, both[key].quadrature_cells) == \
                    (worst.value, worst.scale, worst.quadrature_cells)


def test_two_valued_samples_a_shared_time_window_once_per_block(p3_1d, monkeypatch):
    # every test function shares one TimeWindow: w(t) is taken once per block
    # of its support in the one sweep, once per block in the worst (ii) bump's
    # own pass, plus once on each slab side of (v)
    f = _moving_field(p3_1d)
    eta = centered_bump(1)
    calls = {"value": 0, "d1": 0}
    for name in calls:
        original = getattr(ql.TimeWindow, name)

        def counted(self, t, original=original, name=name):
            calls[name] += 1
            return original(self, t)

        monkeypatch.setattr(ql.TimeWindow, name, counted)
    ql.two_valued_caloric_check(f, [eta], vector_tests(f, eta), [eta])
    lo, hi = eta.time_support()
    t = f.times
    blocks = int(np.sum(np.minimum(t[1:], hi) > np.maximum(t[:-1], lo)))
    assert blocks == 20
    assert calls == {"value": 2 * blocks + 2, "d1": 2 * blocks}


@pytest.mark.parametrize("centers_per_axis", [3, 5])
def test_two_valued_contracts_the_dictionary_over_time(centers_per_axis, monkeypatch):
    # (ii)'s dictionary enters the sweep as two moments of u, so the
    # distributional integrand runs only in the worst bump's own pass: once per
    # block of the dictionary's window, whatever the dictionary's size.  Each
    # contracted value lies within 1e-14 of its bump's scale of the bump's
    # one-integrand value, and the reported (ii) is that bump's pass bit for bit
    mp = ql.ModelParams(p=3.0, n=2)
    grid = ql.GridSpec(origin=[-1.0, -1.0], extent=[2.0, 2.0], cells=[32, 32],
                       time_start=-1.0, time_end=1.0)
    f = ql.field_from_function(
        mp, grid, np.linspace(-1.0, 1.0, 17),
        lambda xs, t: (np.abs(xs[:, 0] * xs[:, 1]) * (1.3 + np.sin(2 * t))
                       + 0.1 * (xs[:, 0] ** 2 + t) ** 2 + 0.05 * (xs[:, 1] + 1.0)))
    bumps = residuals.default_bump_dictionary(f, centers_per_axis=centers_per_axis)
    assert len(bumps) == 3 * centers_per_axis ** 2
    alone = [integrate(f, [residuals._distributional(f, psi)])[0] for psi in bumps]

    contracted, terms_calls = [], [0]
    values, distributional = residuals._subcaloric_values, residuals._distributional

    def record(*args):
        contracted.append(values(*args))
        return contracted[-1]

    def counted(field, psi):
        it = distributional(field, psi)

        def terms(*args):
            terms_calls[0] += 1
            return it.terms(*args)

        return dataclasses.replace(it, terms=terms)

    monkeypatch.setattr(residuals, "_subcaloric_values", record)
    monkeypatch.setattr(residuals, "_distributional", counted)
    eta = centered_bump(2)
    rep = ql.two_valued_caloric_check(f, [eta], vector_tests(f, eta), bumps)["ii"]
    got, = contracted
    for value, res in zip(got, alone):
        assert abs(value - res.value) <= 1e-14 * res.scale
    worst = alone[int(np.argmax(got))]
    assert (rep.value, rep.scale, rep.quadrature_cells) == (-worst.value, worst.scale,
                                                             worst.cells)
    lo, hi = bumps[0].time_support()
    assert terms_calls[0] == int(np.sum((f.times[1:] > lo) & (f.times[:-1] < hi))) == 14


def test_two_valued_op_refuses_a_misshapen_center_and_a_negative_rel_tol():
    f = profile("abs_x1x2", n=2, cells=16)
    run = OPS["two_valued_check"]
    with pytest.raises(QuenchLabError, match="center needs 2 coordinates, got 1"):
        run(f, {}, center=[0.0])
    with pytest.raises(QuenchLabError, match="rel_tol must be >= 0"):
        run(f, {}, rel_tol=-1e-3)
    assert run(f, {}, center=[0.0, 0.0], rel_tol=0.0)[0]["tolerances"] == {"rel_tol": 0.0}


def test_two_valued_exact_scaling():
    # pure-caloric conditions scale exactly: c^2 for the quadratic ones,
    # c for the one-sided subcaloricity check
    base = profile("abs_x1", cells=128)
    c = 3.7
    scaled = ql.SpaceTimeField(base.params, base.grid, base.times, c * base.values)
    r1 = run_checker(base)
    r2 = run_checker(scaled)
    # the identities cancel to roundoff on this field, so compare against a
    # noise floor of 1e-14 x the (scaled) term magnitudes
    assert r2["ii"].value == pytest.approx(c * r1["ii"].value,
                                           abs=1e-14 * c * r1["ii"].scale)
    for key in ("iii", "iv", "v"):
        assert r2[key].value == pytest.approx(c ** 2 * r1[key].value, rel=1e-6,
                                              abs=1e-14 * c ** 2 * r1[key].scale)


def test_two_valued_one_sided_on_caloric_moduli(p3_1d):
    # (ii) never fires on |caloric|: try |x1| and |x1^2 + 2t| (heat polynomial)
    grid = ql.GridSpec(origin=[-1.0], extent=[2.0], cells=[128], time_start=-1.0, time_end=1.0)
    times = np.linspace(-1.0, 1.0, 17)
    for fn in (lambda xs, t: np.abs(xs[:, 0]),
               lambda xs, t: np.abs(xs[:, 0] ** 2 + 2.0 * t)):
        f = ql.field_from_function(p3_1d, grid, times, fn)
        reps = ql.two_valued_caloric_check(f, [centered_bump(1)],
                                           vector_tests(f, centered_bump(1)))
        assert reps["ii"].value >= -1e-3 * reps["ii"].scale


def test_checker_refinement():
    # halving h reduces the worst relative residual of the passing conditions
    rels = []
    for cells in (64, 128):
        reps = run_checker(profile("abs_x1x2", n=2, cells=cells))
        rels.append(reps["ii"].relative)
    assert rels[0] / max(rels[1], 1e-16) >= 3.0
