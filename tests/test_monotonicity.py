import numpy as np
import pytest

import quenchlab as ql
import quenchlab.monotonicity as mono
from quenchlab.errors import DomainError, UsageError, ValidationError
from quenchlab.monotonicity import _average_over_octave, _gaussian_weights
from quenchlab.quadrature import slab_cells

BARE = ql.WeightSpec(truncation_multiple=8.0, eta=None)
QUENCH = ql.ParabolicPoint((0.0,), 0.0)

# s -> 0 limit of the weighted energy at the collapse solution's quench point:
# -(p+1)^(2/(p+1)) / (2 (p-1)) = -1/2 for p = 3
THETA_COLLAPSE_P3 = -0.5


def abs_x1_field(trunc_space=8.5, cells=2176):
    mp = ql.ModelParams(p=3.0, n=1)
    grid = ql.GridSpec(origin=[-trunc_space], extent=[2 * trunc_space], cells=[cells],
                       time_start=-1.0, time_end=1.0)
    return ql.profile_field(mp, grid, [-1.0, 0.0, 1.0], "abs_x1")


def test_weighted_energy_collapse_limit(ode_field_dense):
    w = ql.WeightSpec(truncation_multiple=6.0)
    vals = [ql.weighted_energy(ode_field_dense, QUENCH, s, w) for s in (0.05, 0.01, 1e-3)]
    # E(s) -> -1/2 as s -> 0 (grad term vanishes, u(-s)^2 cancels the s power)
    assert vals[-1] == pytest.approx(THETA_COLLAPSE_P3, abs=1e-3)
    assert vals[0] > vals[-1] - 1e-12   # increases toward larger s


def test_weighted_energy_constant_field_closed_form(p3_1d):
    # E(s) = -sqrt(s) c^-2 / 2 - c^2 / (8 sqrt(s)) for u = c, p = 3
    grid = ql.GridSpec(origin=[-4.0], extent=[8.0], cells=[1024],
                       time_start=-1.0, time_end=0.0)
    f = ql.profile_field(p3_1d, grid, [-1.0, -0.5, 0.0], "constant", value=1.3)
    c = 1.3
    for s in (0.02, 0.005):
        got = ql.weighted_energy(f, QUENCH, s, ql.WeightSpec(truncation_multiple=8.0))
        want = -np.sqrt(s) * c ** -2 / 2.0 - c ** 2 / (8.0 * np.sqrt(s))
        assert got == pytest.approx(want, rel=1e-3)


def test_weighted_energy_beyond_history(ode_field_dense):
    with pytest.raises(DomainError):
        ql.weighted_energy(ode_field_dense, QUENCH, 5.0, ql.WeightSpec())


def test_bare_kernel_ball_off_the_grid_is_refused(ode_field_dense):
    # the bare kernel checks no box of its own: the empty slab refuses it
    x0 = ql.ParabolicPoint((6.0,), 0.0)
    with pytest.raises(DomainError):
        mono.weighted_energy_detail(ode_field_dense, x0, 0.01, BARE)


def _random_weight_case(rng):
    """A random 1D-3D field, base point, truncation, cutoff radii (or none) and s."""
    n = int(rng.integers(1, 4))
    mp = ql.ModelParams(p=3.0, n=n)
    grid = ql.GridSpec(origin=[-1.0] * n, extent=[2.0] * n,
                       cells=[int(rng.integers(6, 40 // n))] * n,
                       time_start=0.0, time_end=1.0)
    times = [0.0, 0.5, 1.0]
    values = rng.uniform(0.1, 2.0, size=(len(times),) + grid.node_shape)
    field = ql.SpaceTimeField(mp, grid, times, values)
    x0 = ql.ParabolicPoint(tuple(rng.uniform(-0.4, 0.4, size=n)), 1.0)
    outer = float(rng.uniform(0.1, 0.5))
    eta = None if rng.random() < 0.2 else (float(rng.uniform(0.0, 0.9)) * outer, outer)
    w = ql.WeightSpec(truncation_multiple=float(rng.uniform(4.0, 8.0)), eta=eta)
    return field, x0, w, float(np.exp(rng.uniform(np.log(1e-3), np.log(0.5))))


def test_gaussian_weights_match_the_centred_cutoff_reference():
    # the cutoff reads the kernel's |y - x0|^2 and its box is x0 +- min(k sqrt s,
    # outer): the same bits as CutoffSpec(x0, inner, outer).value and the box
    # cut by the cutoff's support
    rng = np.random.default_rng(20261020)
    for _ in range(60):
        field, x0, w, s = _random_weight_case(rng)
        cells, wgt = _gaussian_weights(field, x0, s, w)
        c = np.asarray(x0.x)
        radius = w.truncation_multiple * np.sqrt(s)
        lo, hi = c - radius, c + radius
        if w.eta is not None:
            lo, hi = np.maximum(lo, c - w.eta[1]), np.minimum(hi, c + w.eta[1])
        ref_cells = slab_cells(field, x0.t - s, box=(tuple(lo), tuple(hi)))
        assert np.array_equal(cells.u, ref_cells.u)
        pts = cells.points()
        assert np.array_equal(pts, ref_cells.points())
        y2 = np.sum((pts - c) ** 2, axis=-1)
        G = (4.0 * np.pi * s) ** (-field.n / 2.0) * np.exp(-y2 / (4.0 * s))
        G = np.where(y2 <= radius ** 2, G, 0.0)
        eta = 1.0 if w.eta is None else ql.CutoffSpec(x0.x, *w.eta).value(pts)
        assert np.array_equal(wgt, G * eta * cells.volume)


def test_weight_spec_checks_cutoff_radii():
    for eta in ((0.5, 0.5), (0.6, 0.5), (-0.1, 1.0)):
        with pytest.raises(ValidationError, match="inner < outer"):
            ql.WeightSpec(eta=eta)
    assert ql.WeightSpec(eta=(0.0, 1.0)).eta == (0.0, 1.0)


def test_octave_average_identity_and_linear():
    assert _average_over_octave(lambda t: 1.0, 0.3, 9) == pytest.approx(1.0)
    # Ebar(s) = (1/s) int_s^2s tau dtau = 3s/2
    assert _average_over_octave(lambda t: t, 0.2, 9) == pytest.approx(0.3, rel=1e-12)


def test_averaged_energy_tracks_limit(ode_field_dense):
    w = ql.WeightSpec(truncation_multiple=6.0)
    got = ql.averaged_energy(ode_field_dense, QUENCH, 1e-3, w)
    assert got == pytest.approx(THETA_COLLAPSE_P3, abs=2e-3)


def test_density_estimate_at_quench_point(ode_field_dense):
    w = ql.WeightSpec(truncation_multiple=6.0)
    theta, trace = ql.density_estimate(ode_field_dense, QUENCH, w, 1e-3, 0.2)
    assert theta == pytest.approx(THETA_COLLAPSE_P3, abs=0.05)
    assert not trace.diverging
    assert trace.violations == []
    assert trace.theta_estimate == theta
    assert np.all(np.diff(trace.s_samples) > 0)
    # at a rupture point the whole Ebar ladder stays above the density
    # (monotone decrease toward it, up to the exponential slack)
    assert np.all(trace.Ebar_values >= theta - 0.05)


def test_density_estimate_diverges_at_positivity_point(ode_field_dense):
    w = ql.WeightSpec(truncation_multiple=6.0)
    x0 = ql.ParabolicPoint((0.0,), -0.25)   # u(x0) = 1 here
    theta, trace = ql.density_estimate(ode_field_dense, x0, w, 1e-4, 0.2, u_floor=1e-6)
    assert theta is None
    assert trace.diverging


def test_density_estimate_evaluates_each_s_once(ode_field_dense, monkeypatch):
    w = ql.WeightSpec(truncation_multiple=6.0)
    calls = []
    detail = mono.weighted_energy_detail

    def counted(field, x0, s, *args):
        calls.append(float(s))
        return detail(field, x0, s, *args)

    monkeypatch.setattr(mono, "weighted_energy_detail", counted)
    theta, trace = ql.density_estimate(ode_field_dense, QUENCH, w, 1e-3, 0.2)
    monkeypatch.undo()
    assert len(calls) == len(set(calls))
    # the shared values are the ones separate evaluations give, bit for bit
    for s, e, ebar in zip(trace.s_samples, trace.E_values, trace.Ebar_values):
        assert e == ql.weighted_energy(ode_field_dense, QUENCH, s, w)
        assert ebar == ql.averaged_energy(ode_field_dense, QUENCH, s, w)


def test_density_estimate_usage_errors(ode_field_dense):
    w = ql.WeightSpec()
    with pytest.raises(UsageError):
        ql.density_estimate(ode_field_dense, QUENCH, w, 0.2, 0.2)
    with pytest.raises(UsageError):   # ladder too short
        ql.density_estimate(ode_field_dense, QUENCH, w, 0.1, 0.2)


def test_frequency_abs_x1():
    f = abs_x1_field()
    x0 = ql.ParabolicPoint((0.0,), 0.5)
    for s in (0.1, 0.5, 1.0):
        H, D, N = ql.frequency(f, x0, s, BARE)
        assert H == pytest.approx(2.0 * s, rel=1e-6)
        assert D == pytest.approx(s, rel=1e-6)
        assert N == pytest.approx(0.5, abs=1e-5)


def test_frequency_abs_x1x2():
    mp = ql.ModelParams(p=3.0, n=2)
    grid = ql.GridSpec(origin=[-6.0, -6.0], extent=[12.0, 12.0], cells=[384, 384],
                       time_start=-1.0, time_end=1.0)
    f = ql.profile_field(mp, grid, [-1.0, 0.0, 1.0], "abs_x1x2")
    x0 = ql.ParabolicPoint((0.0, 0.0), 0.5)
    for s in (0.05, 0.2, 0.5):
        H, D, N = ql.frequency(f, x0, s, BARE)
        assert H == pytest.approx(4.0 * s ** 2, rel=1e-3)
        assert D == pytest.approx(4.0 * s ** 2, rel=1e-3)
        assert N == pytest.approx(1.0, abs=5e-3)


def test_frequency_constant_field(p3_1d):
    grid = ql.GridSpec(origin=[-6.0], extent=[12.0], cells=[1024],
                       time_start=-1.0, time_end=0.0)
    f = ql.profile_field(p3_1d, grid, [-1.0, 0.0], "constant", value=0.7)
    H, D, N = ql.frequency(f, ql.ParabolicPoint((0.0,), 0.0), 0.25, BARE)
    assert H == pytest.approx(0.49, rel=1e-6)
    assert D == pytest.approx(0.0, abs=1e-12)
    assert N == pytest.approx(0.0, abs=1e-10)


def test_frequency_none_when_height_underflows(p3_1d):
    grid = ql.GridSpec(origin=[-6.0], extent=[12.0], cells=[256],
                       time_start=-1.0, time_end=0.0)
    f = ql.profile_field(p3_1d, grid, [-1.0, 0.0], "constant", value=1.0)
    zero = ql.SpaceTimeField(p3_1d, grid, f.times, np.zeros_like(f.values))
    H, D, N = ql.frequency(zero, ql.ParabolicPoint((0.0,), 0.0), 0.25, BARE)
    assert H == 0.0 and N is None


def test_frequency_refuses_a_cutoff():
    # H, D and N are whole-space functionals: a cutoff is refused, not dropped
    f = abs_x1_field()
    x0 = ql.ParabolicPoint((0.0,), 0.5)
    with pytest.raises(UsageError, match="eta=None"):
        ql.frequency(f, x0, 0.1, ql.WeightSpec())
    with pytest.raises(UsageError, match="eta=None"):
        ql.almgren_scan(f, x0, ql.WeightSpec(), np.geomspace(0.1, 1.0, 4))


def test_sup_norm_is_max_abs_value(p3_1d):
    grid = ql.GridSpec(origin=[-1.0], extent=[2.0], cells=[8], time_start=0.0, time_end=1.0)
    for sign in (1.0, -1.0):
        values = sign * np.linspace(-0.5, 2.0, 18).reshape(2, 9)
        f = ql.SpaceTimeField(p3_1d, grid, [0.0, 1.0], values)
        assert f.sup_norm == 2.0 and f.sup_norm == float(np.abs(f.values).max())


def test_almgren_scan_oracles():
    f = abs_x1_field()
    x0 = ql.ParabolicPoint((0.0,), 0.5)
    s_grid = np.geomspace(0.1, 1.0, 16)
    tr = ql.almgren_scan(f, x0, BARE, s_grid, gamma_half_reference=0.5)
    assert tr.max_reference_gap <= 1e-3
    assert tr.violations == []
    assert tr.monotonicity_claimed
    assert ql.log_h_identity_error(tr) <= 0.05


def test_almgren_scan_claim_flag_off_for_noncaloric(ode_field_dense):
    tr = ql.almgren_scan(ode_field_dense, QUENCH, ql.WeightSpec(eta=None),
                         np.geomspace(0.01, 0.1, 6), caloric=False)
    assert not tr.monotonicity_claimed
    assert tr.violations == []   # no claim, nothing flagged


def test_almgren_scan_requires_increasing_grid(ode_field_dense):
    with pytest.raises(UsageError):
        ql.almgren_scan(ode_field_dense, QUENCH, BARE, [0.2, 0.1])


@pytest.mark.parametrize("s_grid", [[], [0.05]])
def test_almgren_scan_refuses_a_scan_too_short_to_claim(ode_field_dense, s_grid):
    # one sample or none has no interval to check, yet used to report
    # monotonicity_claimed = True
    with pytest.raises(UsageError, match="at least two samples"):
        ql.almgren_scan(ode_field_dense, QUENCH, BARE, s_grid)


@pytest.mark.parametrize("multiple", [np.nan, np.inf])
def test_weight_spec_refuses_nonfinite_truncation(multiple):
    # NaN passed the old `< 4` test
    with pytest.raises(ValidationError, match="finite"):
        ql.WeightSpec(truncation_multiple=multiple)


def test_energy_scaling_covariance(p3_1d, ode_field_dyadic):
    # E(s; 0, rescale(u, lam)) = E(lam^2 s; X0, u) for the bare weight
    f = ode_field_dyadic
    lam = 2.0
    tg = ql.GridSpec(origin=[-0.25], extent=[0.5], cells=[64],
                     time_start=-0.125, time_end=-2.0 ** -36)
    v = ql.rescale(f, ql.BlowupSpec(QUENCH, lam), tg, ql.dyadic_times(-0.125, 30))
    w = ql.WeightSpec(truncation_multiple=6.0, eta=None)
    # keep the truncation ball 6 sqrt(s) inside the rescaled window
    for s in (1e-3, 5e-4):
        a = ql.weighted_energy(v, QUENCH, s, w)
        b = ql.weighted_energy(f, QUENCH, lam ** 2 * s, w)
        assert a == pytest.approx(b, rel=1e-10)


def test_kernel_tail_mass_bound():
    # heat kernel mass beyond k standard deviations (sigma = sqrt(2s)): below
    # 1e-8 at k = 6 in one dimension, below 1e-7 through n = 3, and the
    # reported bound at the k sqrt(s) truncation radius is the honest,
    # larger figure
    from scipy.special import gammaincc

    def beyond_sigma(n, k):
        return float(gammaincc(n / 2.0, (k * np.sqrt(2.0)) ** 2 / 4.0))

    assert beyond_sigma(1, 6.0) < 1e-8
    for n in (1, 2, 3):
        assert beyond_sigma(n, 6.0) < 1e-7
        assert beyond_sigma(n, 7.0) < 1e-8
        w = ql.WeightSpec(truncation_multiple=8.0, eta=None)
        assert w.tail_bound(n) < 1e-6


def test_trace_invariants_enforced():
    with pytest.raises(Exception):
        ql.MonotonicityTrace(base_point=QUENCH, s_samples=np.array([0.2, 0.1]),
                             E_values=np.zeros(2), Ebar_values=np.zeros(2),
                             theta_estimate=None, diverging=False, violations=[])
    with pytest.raises(Exception):
        ql.FrequencyTrace(base_point=QUENCH, s_samples=np.array([0.1, 0.2]),
                          H_values=np.array([-1.0, 1.0]), D_values=np.ones(2),
                          N_values=np.ones(2))


def _random_scan_case(rng):
    """A random 1D-3D field, dense in time near t0 = 1, a base point and a weight.

    Returns field, x0, w (a cutoff or none) and s_min, s_max for which the
    truncation radius k sqrt(s) sweeps from below the cutoff's outer radius
    to past it, and for the bare kernel past the grid edge.
    """
    n = int(rng.integers(1, 4))
    mp = ql.ModelParams(p=3.0, n=n)
    grid = ql.GridSpec(origin=[-1.0] * n, extent=[2.0] * n,
                       cells=[int(rng.integers(6, 30 // n))] * n,
                       time_start=0.0, time_end=1.0)
    times = np.unique(np.concatenate([np.linspace(0.0, 0.9, 10), np.linspace(0.9, 1.0, 101)]))
    values = rng.uniform(0.1, 2.0, size=(len(times),) + grid.node_shape)
    field = ql.SpaceTimeField(mp, grid, times, values)
    x0 = ql.ParabolicPoint(tuple(rng.uniform(-0.4, 0.4, size=n)), 1.0)
    outer = float(rng.uniform(0.3, 0.6))
    eta = None if rng.random() < 0.4 else (float(rng.uniform(0.0, 0.9)) * outer, outer)
    w = ql.WeightSpec(truncation_multiple=float(rng.uniform(4.0, 8.0)), eta=eta)
    return field, x0, w, float(rng.uniform(4e-3, 6e-3)), float(rng.uniform(0.1, 0.5))


def test_prepared_scans_equal_one_shot_calls_bit_for_bit():
    # density_estimate and almgren_scan slice one prepared box per base point;
    # every E, Ebar, H, D and N equals the call that prepares for its s alone
    rng = np.random.default_rng(29)
    crossed_outer = crossed_edge = bare = 0
    for _ in range(12):
        field, x0, w, s_min, s_max = _random_scan_case(rng)
        c = np.asarray(x0.x)
        reach = w.truncation_multiple * np.sqrt([s_min, 2.0 * s_max])
        if w.eta is None:
            bare += 1
        else:
            crossed_outer += int(reach[0] < w.eta[1] < reach[1])
        crossed_edge += int(np.any(c + reach[1] > 1.0) and w.eta is None)

        _, trace = ql.density_estimate(field, x0, w, s_min, s_max)

        def one_shot(s):
            return mono.weighted_energy_detail(field, x0, s, w).value

        e_ref = np.array([one_shot(s) for s in trace.s_samples])
        ebar_ref = np.array([_average_over_octave(one_shot, s, 9) for s in trace.s_samples])
        assert np.array_equal(trace.E_values, e_ref)
        assert np.array_equal(trace.Ebar_values, ebar_ref)

        bare_w = ql.WeightSpec(truncation_multiple=w.truncation_multiple, eta=None)
        s_grid = np.geomspace(s_min, 2.0 * s_max, 12)
        ftrace = ql.almgren_scan(field, x0, bare_w, s_grid, caloric=False)
        ref = np.array([[np.nan if v is None else v for v in ql.frequency(field, x0, s, bare_w)]
                        for s in s_grid])
        assert np.array_equal(ftrace.H_values, ref[:, 0])
        assert np.array_equal(ftrace.D_values, ref[:, 1])
        assert np.array_equal(ftrace.N_values, ref[:, 2], equal_nan=True)
    assert crossed_outer >= 2 and crossed_edge >= 2 and bare >= 2


def test_prepared_weights_refuse_s_above_their_top_and_other_inputs():
    rng = np.random.default_rng(7)
    field, x0, w, s_min, s_max = _random_scan_case(rng)
    prepared = mono._prepare_weights(field, x0, w, s_max)
    cells, wgt = _gaussian_weights(field, x0, s_max, w, prepared)
    assert np.array_equal(wgt, _gaussian_weights(field, x0, s_max, w)[1])
    with pytest.raises(UsageError, match="above the prepared"):
        _gaussian_weights(field, x0, np.nextafter(s_max, np.inf), w, prepared)
    with pytest.raises(UsageError, match="above the prepared"):
        mono.weighted_energy_detail(field, x0, 2.0 * s_max, w, None, prepared)
    other = ql.ParabolicPoint(tuple(np.asarray(x0.x) + 0.01), x0.t)
    with pytest.raises(UsageError, match="prepared for another"):
        _gaussian_weights(field, other, s_min, w, prepared)
    with pytest.raises(UsageError, match="s must be positive"):
        _gaussian_weights(field, x0, 0.0, w, prepared)
    with pytest.raises(UsageError, match="s must be positive"):
        ql.averaged_energy(field, x0, -1e-3, w)


def test_density_estimate_evaluates_and_slices_each_s_once(ode_field_dense, monkeypatch):
    w = ql.WeightSpec(truncation_multiple=6.0)
    calls, slabs = [], []
    detail, slab = mono.weighted_energy_detail, mono.slab_cells

    def counted(field, x0, s, *args):
        calls.append(float(s))
        return detail(field, x0, s, *args)

    def counted_slab(field, t, *args, **kwargs):
        slabs.append(t)
        return slab(field, t, *args, **kwargs)

    monkeypatch.setattr(mono, "weighted_energy_detail", counted)
    monkeypatch.setattr(mono, "slab_cells", counted_slab)
    _, trace = ql.density_estimate(ode_field_dense, QUENCH, w, 1e-3, 0.2)
    monkeypatch.undo()
    assert len(calls) > len(trace.s_samples) > 0
    assert len(calls) == len(set(calls)) == len(slabs)
    assert set(trace.s_samples.tolist()) <= set(calls)
