"""The one window rule: every op refuses a window that leaves the stored data.

`SpaceTimeField.require_inside` owns the decision.  Times may pass the
history's ends by 1e-12 of its span and box corners the grid by the slack of
`GridSpec.contains`; only the top of apriori's Q_r may pass the last slab,
by at most 1% of r^2.
"""

import numpy as np
import pytest

import quenchlab as ql
from quenchlab.cli import main as cli_main
from quenchlab.errors import DomainError

P3_2D = ql.ModelParams(p=3.0, n=2)

# a 16^2 radial steady field on [-2, 2]^2 with the history [-1, 0]
SWEEP = """
[run]
mode = synthetic
output_dir = "{out}"

[model]
p = 3.0
n = 2

[grid]
origin = [-2.0, -2.0]
extent = [4.0, 4.0]
cells = [16, 16]
time_start = -1.0
time_end = 0.0

[times]
kind = uniform
start = -1.0
stop = 0.0
num = 65

[synthetic]
kind = radial_steady

[analysis.past]
"""

# op options one past the stored data, and the window the refusal names
PAST = {
    "density_estimate": ("op = density_estimate\npoint = [0.0, 0.0, 0.0]\n"
                         "s_min = 0.1\ns_max = 1.2\n", "slab t0 - s"),
    "almgren_scan": ("op = almgren_scan\npoint = [0.0, 0.0, 0.0]\n"
                     "s_min = 0.1\ns_max = 1.2\nnum = 4\n", "slab t0 - s"),
    "apriori_time": ("op = apriori_scaling\npoint = [0.0, 0.0, 0.0]\nquantity = \"mass\"\n"
                     "radii = [1.5, 0.75, 0.375]\n", "Q_r at r=1.5: time -2.25"),
    "apriori_space": ("op = apriori_scaling\npoint = [1.5, 0.0, 0.0]\nquantity = \"mass\"\n"
                      "radii = [0.8, 0.4, 0.2]\n", "Q_r at r=0.8: point"),
    "self_similarity": ("op = self_similarity\npoint = [0.0, 0.0, 0.0]\n"
                        "window_time = -1.5\nwindow_radius = 0.5\n", "self-similarity window"),
    "two_valued_check": ("op = two_valued_check\ncenter = [1.9, 0.0]\n", "test function support"),
}


@pytest.mark.parametrize("case", PAST)
def test_every_op_refuses_a_window_past_the_data(case, tmp_path):
    options, window = PAST[case]
    text = SWEEP.format(out=tmp_path / "out") + options
    with pytest.raises(DomainError, match=window):
        ql.run_pipeline(ql.parse_config_text(text))
    ini = tmp_path / "run.ini"
    ini.write_text(text)
    assert cli_main(["simulate", "--config", str(ini)]) == 2


def _field(times=(0.0, 0.5, 1.0)):
    grid = ql.GridSpec(origin=[-1.0, -1.0], extent=[2.0, 2.0], cells=[4, 4],
                       time_start=times[0], time_end=times[-1])
    return ql.field_from_function(P3_2D, grid, times, lambda xs, t: np.ones(xs.shape[0]))


def test_require_inside_tolerances():
    f = _field()
    box = ((-1.0, -1.0), (1.0, 1.0))
    f.require_inside(box, (-0.5e-12, 1.0 + 0.5e-12), "inside")
    with pytest.raises(DomainError,
                       match=r"^late: time 1.000000000002 outside stored range \[0.0, 1.0\]$"):
        f.require_inside(None, (0.5, 1.0 + 2e-12), "late")
    with pytest.raises(DomainError, match="time -2e-12 outside"):
        f.require_inside(None, -2e-12)
    # GridSpec.contains' slack is 1e-12 of the widest extent
    f.require_inside(((-1.0 - 1e-12, -1.0), (1.0, 1.0 + 1e-12)), 0.5)
    with pytest.raises(DomainError, match=r"^wide: point \[1.0, 1.00000000001\] outside "
                                          r"the grid \[-1.0, -1.0\] to \[1.0, 1.0\]$"):
        f.require_inside((np.array([-1.0, -1.0]), np.array([1.0, 1.0 + 1e-11])), 0.5, "wide")


def test_apriori_top_may_pass_the_last_slab_by_one_percent_of_4h_squared():
    grid = ql.GridSpec(origin=[-1.0, -1.0], extent=[2.0, 2.0], cells=[32, 32],
                       time_start=-0.25, time_end=0.0)
    f = ql.radial_field(P3_2D, grid, np.linspace(-0.25, 0.0, 9))
    radii = [0.4, 0.2, 0.1]      # h = 1/16: 1% of (4h)^2 is 6.25e-4 at every r
    ql.apriori_scaling_check(f, ql.ParabolicPoint((0.0, 0.0), 6.2e-4), "mass", radii)
    with pytest.raises(DomainError, match="Q_r at r=0.4: time"):
        ql.apriori_scaling_check(f, ql.ParabolicPoint((0.0, 0.0), 6.3e-4), "mass", radii)


def test_apriori_refuses_balls_that_leave_the_radial_checkpoint():
    # the radial_2d_load benchmark's checkpoint and radii, at a point 0.05 from
    # the boundary; clipped to the grid, the balls fitted mass 3.696 and
    # u_inv_p 3.842 where 4 is expected at a positivity point
    grid = ql.GridSpec(origin=[-1.0, -1.0], extent=[2.0, 2.0], cells=[256, 256],
                       time_start=-0.25, time_end=-1e-5)
    f = ql.radial_field(P3_2D, grid, ql.geometric_times(-0.25, -1e-5, 0.9))
    x0 = ql.ParabolicPoint((0.95, 0.0), -1e-5)
    for quantity in ("mass", "u_inv_p"):
        with pytest.raises(DomainError, match="Q_r at r=0.4: point"):
            ql.apriori_scaling_check(f, x0, quantity, [0.4, 0.283, 0.2, 0.141, 0.1, 0.0707,
                                                        0.05], u_floor=1e-4)


def _caloric(cells):
    """u = 1 + 0.3 exp(-pi^2 t / 4) sin(pi x1 / 2 + 0.3) solves the heat equation."""
    grid = ql.GridSpec(origin=[-1.0, -1.0], extent=[2.0, 2.0], cells=[cells, cells],
                       time_start=0.0, time_end=1.0)
    return ql.field_from_function(P3_2D, grid, np.linspace(0.0, 1.0, 65), lambda xs, t: (
        1.0 + 0.3 * np.exp(-np.pi ** 2 * t / 4.0) * np.sin(np.pi * xs[:, 0] / 2.0 + 0.3)))


def _eta(center):
    return ql.SpaceTimeBump(space=ql.CutoffSpec(center, 0.2, 0.4),
                            time=ql.TimeWindow(center=0.5, inner=0.2, outer=0.4))


def test_energy_inequality_refuses_eta_across_the_boundary():
    # eta at (0.8, 0) with outer radius 0.4 crosses x1 = 1; clipped, the
    # relative defect read 0.198, 0.193 and 0.192 at 32^2, 64^2 and 128^2
    with pytest.raises(DomainError, match="eta's box"):
        ql.energy_inequality_defect(_caloric(32), _eta((0.8, 0.0)), 0.0, 1.0, potential=False)
    # inside the grid the defect is quadrature error and falls at least 4x per
    # halving of h: 7.3e-3, 5.8e-4 and 8.0e-5
    rel = [ql.energy_inequality_defect(_caloric(c), _eta((0.1, 0.1)), 0.0, 1.0,
                                       potential=False).relative for c in (32, 64, 128)]
    assert rel[0] < 1e-2
    assert rel[1] < rel[0] / 4 and rel[2] < rel[1] / 4


def test_two_valued_check_refuses_a_bump_across_the_boundary():
    # condition (ii)'s bumps are test functions too: a caller's bump that
    # leaves the grid is refused, not clipped
    f = _caloric(16)
    inside, across = _eta((0.1, 0.1)), _eta((0.8, 0.0))
    ys = [ql.TestVectorField(kind="coordinate_bump", bump=inside, axis=0)]
    ql.two_valued_caloric_check(f, [inside], ys, nonneg_bumps=[inside])
    with pytest.raises(DomainError, match="test function support"):
        ql.two_valued_caloric_check(f, [inside], ys, nonneg_bumps=[across])
