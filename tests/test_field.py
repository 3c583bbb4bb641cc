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


@pytest.mark.parametrize("origin, extent, t0, t1", [
    (np.nan, 1.0, 0.0, 1.0), (0.0, np.inf, 0.0, 1.0),
    (0.0, 1.0, np.nan, 1.0), (0.0, 1.0, 0.0, np.inf),
])
def test_grid_rejects_non_finite_metadata(origin, extent, t0, t1):
    with pytest.raises(ValidationError, match="finite"):
        ql.GridSpec(origin=[origin], extent=[extent], cells=[4], time_start=t0, time_end=t1)


def test_field_rejects_non_finite_times():
    mp = ql.ModelParams(p=3.0, n=1)
    grid = ql.GridSpec(origin=[0.0], extent=[1.0], cells=[4], time_start=0.0, time_end=1.0)
    with pytest.raises(ValidationError, match="finite"):
        ql.SpaceTimeField(mp, grid, [0.0, np.nan], np.zeros((2, 5)))


def test_slab_window_is_a_cut_of_the_whole_slab():
    f = make_field(lambda xs, t: np.sin(3.0 * xs[:, 0] * xs[:, 1]) + t ** 2, cells=16, n=2)
    window = (slice(3, 9), slice(5, 12))
    for t in (0.0, 0.37, 1.0):
        assert np.array_equal(f.slab(t, window), f.slab(t)[window])


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
