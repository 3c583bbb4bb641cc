import functools
import tracemalloc

import numpy as np
import pytest

import quenchlab as ql
import quenchlab.rupture as rupture
from quenchlab.errors import AccuracyError, DegenerateFitError, DomainError, UsageError
from quenchlab.ops import OPS
from quenchlab.rupture import RuptureSet, _count_tiles

RADII = [0.25, 0.125, 0.0625, 0.03125, 0.015625, 0.0078125]


def grid_1d(cells=1024):
    return ql.GridSpec(origin=[-1.0], extent=[2.0], cells=[cells],
                       time_start=-1.0, time_end=0.0)


# -- Hoelder seminorm ------------------------------------------------------------

def test_seminorm_collapse_oracle(p3_1d):
    grid = ql.GridSpec(origin=[-1.0], extent=[2.0], cells=[100],
                       time_start=-1.0, time_end=-1e-10)
    f = ql.ode_field(p3_1d, grid, ql.geometric_times(-1.0, -1e-10, 0.9))
    est = ql.holder_seminorm(f, 0.5, budget=4000, seed=7)
    assert est.seminorm == pytest.approx(np.sqrt(2.0), abs=1e-2)
    # witness realizes the quotient exactly
    wa, wb = est.witness_pair
    q = abs(ql.sample(f, wa) - ql.sample(f, wb)) / ql.parabolic_distance(wa, wb) ** 0.5
    assert q == pytest.approx(est.seminorm, rel=1e-13)
    # brute force over all stored time pairs is an independent upper check
    u = ql.ode_solution(p3_1d, f.times)
    dt = np.abs(f.times[:, None] - f.times[None, :])
    quot = np.abs(u[:, None] - u[None, :]) / np.where(dt == 0, 1.0, dt) ** 0.25
    assert est.seminorm <= quot.max() + 1e-12
    assert est.seminorm == pytest.approx(quot.max(), rel=1e-6)


def test_seminorm_constant_field(p3_1d):
    f = ql.profile_field(p3_1d, grid_1d(64), [-1.0, -0.5], "constant", value=2.0)
    est = ql.holder_seminorm(f, 0.5, budget=1000, seed=0)
    assert est.seminorm == 0.0


def test_seminorm_homogeneous_profile(p3_1d):
    f = ql.profile_field(p3_1d, grid_1d(256), [-1.0, -0.5, 0.0], "abs_x1_pow", exponent=0.5)
    est = ql.holder_seminorm(f, 0.5, budget=2000, seed=11)
    assert est.seminorm == pytest.approx(1.0, abs=1e-2)


def test_seminorm_monotone_in_budget(p3_1d):
    grid = ql.GridSpec(origin=[-1.0], extent=[2.0], cells=[100],
                       time_start=-1.0, time_end=-1e-10)
    f = ql.ode_field(p3_1d, grid, ql.geometric_times(-1.0, -1e-10, 0.9))
    vals = [ql.holder_seminorm(f, 0.5, budget=b, seed=3).seminorm
            for b in (1000, 2000, 4000, 8000)]
    assert all(a <= b + 1e-15 for a, b in zip(vals, vals[1:]))


def test_seminorm_deterministic(p3_1d):
    f = ql.profile_field(p3_1d, grid_1d(128), [-1.0, -0.5, 0.0], "abs_x1")
    a = ql.holder_seminorm(f, 0.5, budget=1500, seed=42)
    b = ql.holder_seminorm(f, 0.5, budget=1500, seed=42)
    assert a.seminorm == b.seminorm and a.witness_pair == b.witness_pair


def test_seminorm_rescale_invariance(p3_1d, ode_field_dyadic):
    # exponent alpha is pinned by the parabolic scaling: rescaled fields keep
    # the quotient sup over corresponding windows
    f = ode_field_dyadic
    tg = ql.GridSpec(origin=[-0.25], extent=[0.5], cells=[64],
                     time_start=-0.125, time_end=-2.0 ** -36)
    v = ql.rescale(f, ql.BlowupSpec(ql.ParabolicPoint((0.0,), 0.0), 2.0),
                   tg, ql.dyadic_times(-0.125, 30))
    # the backward cylinder B_0.7(0) x (-0.49 - 2^-38, -2^-38], widened to
    # f's nodes (h = 1/64) and to the stored times that bracket it
    wg = ql.GridSpec(origin=[-45 / 64], extent=[90 / 64], cells=[90],
                     time_start=-0.5, time_end=-2.0 ** -39)
    window = ql.ode_field(p3_1d, wg, f.times[1:-1])
    assert np.array_equal(window.values, f.values[1:-1, 19:110])
    a = ql.holder_seminorm(window, 0.5, budget=4000, seed=5)
    b = ql.holder_seminorm(v, 0.5, budget=4000, seed=5)
    assert b.seminorm == pytest.approx(a.seminorm, rel=0.02)


def test_seminorm_radial_coordinate_climb(p3_2d):
    # u = sqrt(2)|x|^(1/2): the sup sqrt(2) sits on pairs through the origin.
    # A climb step costs two neighbourhoods, not their product.
    grid = ql.GridSpec(origin=[-1.0, -1.0], extent=[2.0, 2.0], cells=[64, 64],
                       time_start=-0.25, time_end=-1e-5)
    f = ql.radial_field(p3_2d, grid, ql.geometric_times(-0.25, -1e-5, 0.9))
    est = ql.holder_seminorm(f, 0.5, budget=4000, seed=7)
    assert est.seminorm == pytest.approx(np.sqrt(2.0), abs=1e-12)
    wa, wb = est.witness_pair
    q = abs(ql.sample(f, wa) - ql.sample(f, wb)) / ql.parabolic_distance(wa, wb) ** 0.5
    assert q == est.seminorm
    assert est.pairs_sampled < 100_000


def test_seminorm_usage_errors(p3_1d):
    f = ql.profile_field(p3_1d, grid_1d(16), [-1.0, -0.5], "abs_x1")
    with pytest.raises(UsageError):
        ql.holder_seminorm(f, 1.5, budget=2000)
    with pytest.raises(UsageError):
        ql.holder_seminorm(f, 0.5, budget=10)


# -- rupture sets ------------------------------------------------------------------

def test_rupture_set_radial_slab(p3_2d):
    grid = ql.GridSpec(origin=[-1.0, -1.0], extent=[2.0, 2.0], cells=[128, 128],
                       time_start=-1.0, time_end=0.0)
    f = ql.radial_field(p3_2d, grid, np.linspace(-1.0, 0.0, 5))
    tau = 0.2
    S = ql.rupture_set(f, tau)
    # u = sqrt(2)|x|^(1/2) <= tau iff |x| <= (tau/sqrt 2)^2
    r_max = (tau / np.sqrt(2.0)) ** 2 + np.sqrt(2.0) * f.h
    assert len(S) > 0
    assert np.all(np.linalg.norm(S.xs, axis=1) <= r_max)


def test_rupture_set_empty_when_positive(p3_1d):
    f = ql.profile_field(p3_1d, grid_1d(32), [-1.0, -0.5], "constant", value=1.0)
    S = ql.rupture_set(f, 0.5)
    assert len(S) == 0 and S.xs.shape == (0, 1) and S.ts.shape == (0,)


def test_rupture_set_collapse_field_final_times_only(p3_1d):
    grid = ql.GridSpec(origin=[-1.0], extent=[2.0], cells=[64],
                       time_start=-1.0, time_end=-1e-8)
    f = ql.ode_field(p3_1d, grid, ql.geometric_times(-1.0, -1e-8, 0.8))
    tau = ql.rupture_threshold(f)   # kappa h^alpha
    S = ql.rupture_set(f, tau)
    assert len(S) > 0
    # u depends on t only: every captured node sits near the quench time
    t_cut = -(tau / np.sqrt(2.0) / 1.2) ** 4
    assert np.all(S.ts >= -abs(t_cut) * 4)


# -- box dimensions ----------------------------------------------------------------

def test_dimension_single_point():
    S = RuptureSet(0.1, np.array([[0.0]]), np.array([-0.5]), grid_1d())
    fit = ql.parabolic_box_dimension(S, RADII)
    assert fit.fitted_dim == pytest.approx(0.0, abs=0.1)


def test_dimension_spatial_segment():
    xs = np.linspace(0.0, 1.0, 2049)[:, None]
    S = RuptureSet(0.1, xs, np.full(xs.shape[0], -0.5), grid_1d())
    fit = ql.parabolic_box_dimension(S, RADII)
    assert fit.fitted_dim == pytest.approx(1.0, abs=0.1)


def test_dimension_temporal_segment():
    ts = np.linspace(-1.0, 0.0, 40001)
    S = RuptureSet(0.1, np.zeros((ts.size, 1)), ts, grid_1d())
    fit = ql.parabolic_box_dimension(S, RADII)
    # a time line has parabolic dimension 2 (boxes last r^2)
    assert fit.fitted_dim == pytest.approx(2.0, abs=0.15)
    sfit = ql.slice_dimension(S, -0.5, RADII)
    assert sfit.fitted_dim == pytest.approx(0.0, abs=0.1)


def test_dimension_planar_slice(p3_2d):
    # {x1 = 0} slice in n = 2 has Euclidean dimension 1
    g = ql.GridSpec(origin=[-1.0, -1.0], extent=[2.0, 2.0], cells=[2048, 2048],
                    time_start=-1.0, time_end=0.0)
    x2 = np.linspace(-1.0, 1.0, 4097)
    xs = np.stack([np.zeros_like(x2), x2], axis=-1)
    S = RuptureSet(0.1, xs, np.full(x2.size, -0.5), g)
    fit = ql.slice_dimension(S, -0.5, RADII)
    assert fit.fitted_dim == pytest.approx(1.0, abs=0.1)


def test_dimension_finite_set_reads_zero():
    # any finite point cloud reads as dimension 0 once the radii resolve it
    rng = np.random.default_rng(0)
    xs = rng.uniform(-0.9, 0.9, size=(6, 1))
    S = RuptureSet(0.1, xs, rng.uniform(-0.9, -0.1, size=6), grid_1d(cells=8192))
    small = [0.02, 0.01, 0.005, 0.0025]
    fit = ql.parabolic_box_dimension(S, small)
    assert fit.fitted_dim == pytest.approx(0.0, abs=0.1)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_tile_counts_match_row_unique(n):
    rng = np.random.default_rng(n)
    g = ql.GridSpec(origin=[-1.0] * n, extent=[2.0] * n, cells=[256] * n,
                    time_start=-1.0, time_end=0.0)
    xs = rng.uniform(-0.9, 0.9, size=(3000, n))
    ts = rng.uniform(-0.9, -0.1, size=3000)
    ts[:1000] = -0.5
    S = RuptureSet(0.1, xs, ts, g)
    radii = [0.25, 0.125, 0.0625, 0.03125]
    par = ql.parabolic_box_dimension(S, radii).counts
    sl = ql.slice_dimension(S, -0.5, radii).counts
    on_slice = xs[np.abs(ts + 0.5) <= g.spacing ** 2]
    for k, rad in enumerate(radii):
        keys = np.floor((xs - xs.min(axis=0)) / rad).astype(np.int64)
        tkey = np.floor((ts - ts.min()) / rad ** 2).astype(np.int64)
        rows = np.concatenate([keys, tkey[:, None]], axis=1)
        assert par[k] == np.unique(rows, axis=0).shape[0]
        skeys = np.floor((on_slice - on_slice.min(axis=0)) / rad).astype(np.int64)
        assert sl[k] == np.unique(skeys, axis=0).shape[0]


def test_tile_counts_fall_back_when_keys_overflow():
    # unit tiles from 0, so each column's tile index is the column itself:
    # extents 2^40 x 2^40 do not fold into one int64
    keys = np.array([[0, 0], [2 ** 40 - 1, 5], [0, 0], [7, 2 ** 40 - 1]], dtype=float)
    assert _count_tiles(list(keys.T), [0.0, 0.0], [1.0, 1.0]) == 3
    assert _count_tiles([keys[:, 0]], [0.0], [1.0]) == 3


@functools.lru_cache(maxsize=None)
def touchdown_field(n: int, cells: int) -> ql.SpaceTimeField:
    """u = |x|^2 + sqrt(-t), touching down at the origin as t -> 0: below tau the
    set is a ball that grows over the last slabs of a geometric ladder."""
    grid = ql.GridSpec(origin=[-1.0] * n, extent=[2.0] * n, cells=[cells] * n,
                       time_start=-1.0, time_end=-1e-6)
    return ql.field_from_function(ql.ModelParams(p=3.0, n=n), grid,
                                  ql.geometric_times(-1.0, -1e-6, 0.8),
                                  lambda xs, t: (xs ** 2).sum(axis=-1) + np.sqrt(-t))


def reference_tile_count(cols, sides) -> int:
    """Distinct rows of per-point tile keys, from each column's min."""
    keys = [np.floor((c - c.min()) / side).astype(np.int64) for c, side in zip(cols, sides)]
    return int(np.unique(np.column_stack(keys), axis=0).shape[0])


@pytest.mark.parametrize("n,cells,tau", [(2, 128, 0.5), (3, 32, 0.5)])
def test_streamed_rupture_set_matches_whole_history_reference(n, cells, tau):
    f = touchdown_field(n, cells)
    it, isp = np.nonzero(f.values.reshape(f.times.size, -1) <= tau)
    S = ql.rupture_set(f, tau)
    # the set spans many slabs and, in 2D, more than one chunk of tile keys
    assert np.unique(it).size > 10 and (n == 3 or len(S) > 2 * rupture._CHUNK)
    assert S.xs.tobytes() == f.grid.node_points()[isp].tobytes()
    assert S.ts.tobytes() == f.times[it].tobytes()
    radii = [r for r in (0.5, 0.25, 0.125) if r >= 4.0 * f.h]
    t = float(S.ts[-1])
    on_slice = S.xs[np.abs(S.ts - t) <= f.h ** 2]
    par = ql.parabolic_box_dimension(S, radii).counts
    sl = ql.slice_dimension(S, t, radii).counts
    for k, rad in enumerate(radii):
        assert par[k] == reference_tile_count(list(S.xs.T) + [S.ts], [rad] * n + [rad ** 2])
        assert sl[k] == reference_tile_count(list(on_slice.T), [rad] * n)


@pytest.mark.parametrize("side", [0.5, 0.05, 0.01])
def test_chunked_tile_count_matches_reference(side):
    # few distinct keys (merged every chunk) and many (chunks wait to merge)
    rng = np.random.default_rng(1)
    cols = [rng.uniform(-1.0, 1.0, size=5 * rupture._CHUNK + 7) for _ in range(3)]
    cols[-1].sort()
    sides = [side, side, side ** 2]
    assert _count_tiles(cols, [c.min() for c in cols], sides) == \
        reference_tile_count(cols, sides)


def test_rupture_dimension_holds_the_set_and_one_chunk():
    f = touchdown_field(2, 128)
    tracemalloc.start()
    try:
        result, _ = OPS["rupture_dimension"](f, {"seed": 0})
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    S = ql.rupture_set(f, result["threshold"])
    assert result["points"] == len(S) > 100000
    # no mask, index or key array spans the history or the whole set
    assert peak <= S.xs.nbytes + S.ts.nbytes + 2 ** 20


def test_dimension_errors():
    S = RuptureSet(0.1, np.array([[0.0]]), np.array([-0.5]), grid_1d())
    with pytest.raises(UsageError):     # increasing radii
        ql.parabolic_box_dimension(S, [0.01, 0.02])
    with pytest.raises(UsageError):     # radii outside [4h, L/4]
        ql.parabolic_box_dimension(S, [0.25, 1e-5])
    with pytest.raises(DomainError):    # empty slice
        ql.slice_dimension(S, 0.0, RADII)


# -- a priori scaling --------------------------------------------------------------

APRIORI_RADII = [0.4, 0.283, 0.2, 0.141, 0.1, 0.0707, 0.05]


def test_apriori_radial_oracle(p3_2d):
    grid = ql.GridSpec(origin=[-1.0, -1.0], extent=[2.0, 2.0], cells=[256, 256],
                       time_start=-0.25, time_end=-1e-5)
    f = ql.radial_field(p3_2d, grid, ql.geometric_times(-0.25, -1e-5, 0.9))
    X0 = ql.ParabolicPoint((0.0, 0.0), -1e-5)
    for q, expect in (("u_inv_p", 2.5), ("energy", 3.0), ("mass", 4.5)):
        fit = ql.apriori_scaling_check(f, X0, q, APRIORI_RADII, u_floor=1e-4)
        assert fit.fitted_dim == pytest.approx(expect, abs=0.1), q


def test_apriori_collapse_oracle(p3_1d):
    grid = ql.GridSpec(origin=[-1.0], extent=[2.0], cells=[512],
                       time_start=-0.25, time_end=-1e-9)
    f = ql.ode_field(p3_1d, grid, ql.geometric_times(-0.25, -1e-9, 0.9))
    X0 = ql.ParabolicPoint((0.0,), 0.0)
    for q, expect in (("u_inv_p", 1.5), ("energy", 2.0), ("mass", 3.5)):
        fit = ql.apriori_scaling_check(f, X0, q, APRIORI_RADII, u_floor=1e-4)
        assert fit.fitted_dim == pytest.approx(expect, abs=0.1), q


def test_apriori_singular_cells_gate(p3_1d):
    # u = max(x1, 0) vanishes on half of every cylinder around the origin
    grid = ql.GridSpec(origin=[-1.0], extent=[2.0], cells=[256], time_start=-1.0, time_end=0.0)
    f = ql.profile_field(p3_1d, grid, np.linspace(-1.0, 0.0, 9), "relu_x1")
    X0 = ql.ParabolicPoint((0.0,), 0.0)
    with pytest.raises(AccuracyError, match="singular cells"):
        ql.apriori_scaling_check(f, X0, "u_inv_p", APRIORI_RADII)


def test_apriori_checks_every_cylinder_before_integrating(p3_2d, monkeypatch):
    # the whole ladder is checked against the stored data, largest radius
    # first, before its one integrate sweep: t0 = 0.005 passes the last slab
    # (t = 0) by more than the point's slack, 1% of (4h)^2 = 0.0025, so r = 1
    # is refused without integrating, though its vanishing mass would fail too
    grid = ql.GridSpec(origin=[-1.0, -1.0], extent=[2.0, 2.0], cells=[16, 16],
                       time_start=-1.5, time_end=0.0)
    f = ql.field_from_function(p3_2d, grid, np.linspace(-1.5, 0.0, 7),
                               lambda xs, t: np.zeros(xs.shape[0]))
    with monkeypatch.context() as m:
        m.setattr(rupture, "integrate", None)
        with pytest.raises(DomainError, match=r"Q_r at r=1\b"):
            ql.apriori_scaling_check(f, ql.ParabolicPoint((0.0, 0.0), 0.005), "mass",
                                     [0.25, 1.0, 0.5])
    with pytest.raises(DegenerateFitError, match="integral vanished at r=1$"):
        ql.apriori_scaling_check(f, ql.ParabolicPoint((0.0, 0.0), 0.0), "mass",
                                 [0.25, 1.0, 0.5])


def test_apriori_top_slack_is_the_points_not_each_radius(p3_2d):
    # a history ending at -1e-5 on a 64^2 grid: the top of Q_r may pass it by
    # 1% of (4h)^2 = 1.6e-4 whatever r is, so each point gets one verdict for a
    # ladder of large radii and a ladder of small ones
    grid = ql.GridSpec(origin=[-1.0, -1.0], extent=[2.0, 2.0], cells=[64, 64],
                       time_start=-0.25, time_end=-1e-5)
    f = ql.radial_field(p3_2d, grid, ql.geometric_times(-0.25, -1e-5, 0.7))
    ladders = ([0.48, 0.45], [0.25, 0.2])
    inside = ql.ParabolicPoint((0.0, 0.0), -1e-5 + 1e-4)
    for radii in ladders:
        assert ql.apriori_scaling_check(f, inside, "mass", radii).fitted_dim > 0
    outside = ql.ParabolicPoint((0.0, 0.0), -1e-5 + 0.002)
    for radii in ladders:
        with pytest.raises(DomainError, match=f"Q_r at r={radii[0]}\\b"):
            ql.apriori_scaling_check(f, outside, "mass", radii)


def test_apriori_rejects_unknown_quantity(ode_field_dense):
    with pytest.raises(UsageError):
        ql.apriori_scaling_check(ode_field_dense, ql.ParabolicPoint((0.0,), 0.0),
                                 "volume", APRIORI_RADII)


# -- blow-up sequences --------------------------------------------------------------

def test_blowup_sequence_homogeneous(p3_2d):
    grid = ql.GridSpec(origin=[-1.0, -1.0], extent=[2.0, 2.0], cells=[256, 256],
                       time_start=-1.0, time_end=-1e-4)
    f = ql.radial_field(p3_2d, grid, ql.geometric_times(-1.0, -1e-4, 0.9))
    X0 = ql.ParabolicPoint((0.0, 0.0), 0.0)
    # target spacing 4h: every lambda in {1, 1/2, 1/4} maps target nodes onto
    # source nodes, so the homogeneous profile rescales without interpolation
    tg = ql.GridSpec(origin=[-0.125, -0.125], extent=[0.25, 0.25], cells=[8, 8],
                     time_start=-0.9, time_end=-0.5)
    tt = np.array([-0.9, -0.7, -0.5])
    fields, diag = ql.blowup_sequence(f, X0, [1.0, 0.5, 0.25], tg, tt)
    assert len(fields) == 3
    assert max(diag.sup_diffs) <= 1e-10
    assert diag.converged


def test_blowup_sequence_flags_positivity_point(ode_field_dense):
    X0 = ql.ParabolicPoint((0.0,), -0.25)   # u = 1 > 0 here
    tg = ql.GridSpec(origin=[-0.01], extent=[0.02], cells=[8],
                     time_start=-1e-4, time_end=-1e-5)
    tt = np.array([-1e-4, -1e-5])
    fields, diag = ql.blowup_sequence(ode_field_dense, X0, [0.2, 0.1, 0.05], tg, tt)
    # sup norms blow up like lam^-alpha
    assert diag.sup_norms[-1] > 1.9 * diag.sup_norms[0]
    assert not diag.converged


def test_blowup_sequence_reports_bad_lambda(ode_field_dense):
    X0 = ql.ParabolicPoint((0.0,), 0.0)
    tg = ql.GridSpec(origin=[-2.0], extent=[4.0], cells=[8],
                     time_start=-0.01, time_end=-0.001)
    with pytest.raises(DomainError) as exc:
        ql.blowup_sequence(ode_field_dense, X0, [4.0, 2.0], tg,
                           np.array([-0.01, -0.001]))
    assert "lambda=4.0" in str(exc.value)
