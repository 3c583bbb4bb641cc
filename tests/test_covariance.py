"""Parabolic scaling covariance of the solve and of the analysis ops.

u -> lam^-alpha u(lam x, lam^2 t) maps solutions of u_t - Lap u = -u^-p to
solutions.  With p = 3 (alpha = 1/2) and lam = 4 every factor is a power of
two, so the twin run below (lengths / 4, times / 16, values / 2) is the
parent run with each float scaled exactly: bitwise equal after the map,
except where a logarithm turns the scale factor into a shift.
"""

import json

import numpy as np
import pytest

import quenchlab as ql
from quenchlab.errors import DomainError

P, LAM = 3.0, 4.0
X, T, U = LAM, LAM ** 2, LAM ** 0.5          # space, time and value divisors
RADII = [0.4, 0.2, 0.1]

# twin / parent ratios of the two-valued conditions in 2D: (ii) is linear in u
# and tested by psi_t + Lap psi, (iii) and (iv) quadratic in u with one time
# derivative, (v) the slab energy |grad u|^2 eta^2 dx
TWO_VALUED_2D = {"ii": 2.0 ** -5, "iii": 2.0 ** -6, "iv": 2.0 ** -6, "v": 2.0 ** -2}
# in 3D each integral carries one more length factor, 2^-2
TWO_VALUED_3D = {"ii": 2.0 ** -7, "iii": 2.0 ** -8, "iv": 2.0 ** -8, "v": 2.0 ** -4}


def _config(n, cells, twin, out):
    """The dip solve (and, in 2D and 3D, the ops) of the parent run or of its twin."""
    x, t, u = (X, T, U) if twin else (1.0, 1.0, 1.0)
    text = f"""[run]
mode = solve
seed = 7
output_dir = {json.dumps(str(out))}

[model]
p = {P!r}
n = {n}

[grid]
origin = {json.dumps([-1.0 / x] * n)}
extent = {json.dumps([2.0 / x] * n)}
cells = {json.dumps([cells] * n)}
time_start = 0.0
time_end = {1.0 / t!r}

[solver]
safety = 0.2
dt_initial = {1e-3 / t!r}
dt_min = {1e-14 / t!r}
epsilon_reg = {1e-4 / u!r}
quench_threshold = {1e-3 / u!r}

[initial]
kind = dip
base = {1.0 / u!r}
depth = {0.75 / u!r}
width = {0.35 / x!r}

[boundary]
kind = constant
value = {1.0 / u!r}

[analysis.guard]
op = comparison_guard
"""
    if n >= 2:
        text += f"""
[analysis.holder]
op = holder_seminorm
budget = 2000

[analysis.weak]
op = two_valued_check
"""
    return text


def _radial_config(twin, out):
    """The radial steady synthetic field, whose history covers Q_r at RADII."""
    x, t = (X, T) if twin else (1.0, 1.0)
    return f"""[run]
mode = synthetic
output_dir = {json.dumps(str(out))}

[model]
p = {P!r}
n = 2

[grid]
origin = {json.dumps([-1.0 / x] * 2)}
extent = {json.dumps([2.0 / x] * 2)}
cells = [32, 32]
time_start = {-0.25 / t!r}
time_end = 0.0

[synthetic]
kind = radial_steady

[analysis.mass]
op = apriori_scaling
quantity = "mass"
point = [0.0, 0.0, 0.0]
radii = {json.dumps([r / x for r in RADII])}
"""


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Per dimension, the (report, field) of the parent run and of its twin."""
    out = {}
    for n, cells in ((1, 64), (2, 32), (3, 16)):
        for twin in (False, True):
            d = tmp_path_factory.mktemp(f"{n}d")
            report = ql.run_pipeline(ql.parse_config_text(_config(n, cells, twin, d)))
            out.setdefault(n, []).append((report, ql.load_field(d / "field.qlf")))
    return out


def _blocks(report):
    return {block["op"]: block for block in report.analyses}


@pytest.mark.parametrize("n", [1, 2, 3])
def test_solve_is_bitwise_covariant(runs, n):
    (rep, field), (rep_t, field_t) = runs[n]
    assert np.array_equal(field.values / U, field_t.values)
    assert np.array_equal(field.times / T, field_t.times)
    assert rep.run["steps_taken"] == rep_t.run["steps_taken"]
    assert rep.run["quench_time"] / T == rep_t.run["quench_time"]
    assert [[v / X for v in pt[:-1]] + [pt[-1] / T] for pt in rep.run["quench_points"]] \
        == rep_t.run["quench_points"]
    assert _blocks(rep)["comparison_guard"]["guard"] / U \
        == _blocks(rep_t)["comparison_guard"]["guard"]


def test_ops_are_covariant_in_2d(runs, tmp_path):
    (rep, _), (rep_t, _) = runs[2]
    ops, ops_t = _blocks(rep), _blocks(rep_t)
    # the Hoelder quotient at alpha = 1/2 is scale free, and so is the sampler
    for key in ("seminorm", "pairs_sampled"):
        assert ops["holder_seminorm"][key] == ops_t["holder_seminorm"][key]
    for cond, ratio in TWO_VALUED_2D.items():
        for key in ("value", "scale"):
            block = f"cond_{cond}"
            assert ops["two_valued_check"][block][key] * ratio \
                == ops_t["two_valued_check"][block][key]
    # int u over Q_r scales by 2^-9 exactly, but the fit takes logarithms, and
    # log(I) - 9 log 2, log(r) - 2 log 2 round afresh.  One ulp on each log
    # (|log I| < 17 here, ulp 3.6e-15) over log radii an octave apart moves
    # the slope by at most about 7e-15, 16 ulp of the exponent; 5 ulp were seen.
    # The dip's history is too short for Q_r, so the radial steady field and
    # its twin carry this case.
    mass, mass_t = (_blocks(ql.run_pipeline(ql.parse_config_text(
        _radial_config(twin, tmp_path / str(twin)))))["apriori_scaling"]
        for twin in (False, True))
    assert mass["expected"] == mass_t["expected"]
    assert abs(mass["exponent"] - mass_t["exponent"]) <= 16 * np.spacing(mass["exponent"])


def test_holder_and_two_valued_are_covariant_in_3d(runs):
    # (i) adds |grad u|^2 and |u_t|^2, which scale apart, so it is left out
    (rep, _), (rep_t, _) = runs[3]
    ops, ops_t = _blocks(rep), _blocks(rep_t)
    for key in ("seminorm", "pairs_sampled"):
        assert ops["holder_seminorm"][key] == ops_t["holder_seminorm"][key]
    for cond, ratio in TWO_VALUED_3D.items():
        for key in ("value", "scale"):
            block = f"cond_{cond}"
            assert ops["two_valued_check"][block][key] * ratio \
                == ops_t["two_valued_check"][block][key]


def test_apriori_refuses_cylinders_past_the_dip_history(runs):
    # Q_r at r = 0.4 reaches back 0.16 on a history 0.0016 long; clipped to the
    # history, the mass exponent read 2.19 against 4.5
    (_, field), _ = runs[2]
    x0 = ql.ParabolicPoint((0.0, 0.0), float(field.times[-1]))
    with pytest.raises(DomainError, match="Q_r at r=0.4"):
        ql.apriori_scaling_check(field, x0, "mass", RADII)


def _radial_pair():
    """The radial steady 32^2 field on [-1, 1]^2 and its lambda = 4 twin."""
    mp = ql.ModelParams(p=P, n=2)
    times = np.linspace(-0.25, 0.0, 33)
    fields = []
    for x, t in ((1.0, 1.0), (X, T)):
        grid = ql.GridSpec(origin=[-1.0 / x] * 2, extent=[2.0 / x] * 2, cells=[32, 32],
                           time_start=-0.25 / t, time_end=0.0)
        fields.append(ql.radial_field(mp, grid, times / t))
    return fields


def test_weighted_ops_are_covariant_in_2d():
    field, twin = _radial_pair()
    x0 = ql.ParabolicPoint((0.0, 0.0), 0.0)
    # E(s) is scale free: G dx and s^((p-1)/(p+1)) |grad u|^2 lose the same
    # powers of two that u^2 and s^(-2/(p+1)) do, and the cutoff scales with X
    theta, trace = ql.density_estimate(field, x0, ql.WeightSpec(eta=(0.5, 1.0)),
                                       0.03125, 0.125)
    theta_t, trace_t = ql.density_estimate(twin, x0, ql.WeightSpec(eta=(0.5 / X, 1.0 / X)),
                                           0.03125 / T, 0.125 / T)
    assert np.array_equal(trace.s_samples / T, trace_t.s_samples)
    assert np.array_equal(trace.E_values, trace_t.E_values)
    assert np.array_equal(trace.Ebar_values, trace_t.Ebar_values)
    assert len(trace.violations) == len(trace_t.violations)
    # theta is a lstsq fit in the s^alpha basis, which rounds afresh: 1 ulp seen
    assert abs(theta - theta_t) <= 4 * np.spacing(abs(theta))
    # H = int u^2 G and D = s int |grad u|^2 G both lose 2^-2; N = D/H is free
    s_grid = np.geomspace(0.01, 0.2, 8)
    bare = ql.WeightSpec(eta=None)
    tr, tr_t = (ql.almgren_scan(f, x0, bare, s) for f, s in ((field, s_grid), (twin, s_grid / T)))
    assert np.array_equal(tr.H_values * 2.0 ** -2, tr_t.H_values)
    assert np.array_equal(tr.D_values * 2.0 ** -2, tr_t.D_values)
    assert np.array_equal(tr.N_values, tr_t.N_values)
