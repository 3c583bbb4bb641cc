import numpy as np
import pytest
from hypothesis import given, strategies as st

import quenchlab as ql
from quenchlab.errors import UsageError, ValidationError


def P(x, t):
    return ql.ParabolicPoint(x if isinstance(x, tuple) else (x,), t)


def test_distance_spatial_only():
    assert ql.parabolic_distance(P(0.0, 0.0), P(1.0, 0.0)) == 1.0


def test_distance_temporal_sqrt():
    # |t - s|^(1/2) = 2
    assert ql.parabolic_distance(P(0.0, 0.0), P(0.0, 4.0)) == 2.0


def test_distance_max_of_both():
    # max(1, sqrt(1)) = 1, direct evaluation
    assert ql.parabolic_distance(P(0.0, 0.0), P(1.0, 1.0)) == 1.0


def test_distance_symmetric_and_zero_iff_equal():
    a, b = P((0.3, -0.2), 1.5), P((1.0, 0.4), -0.25)
    assert ql.parabolic_distance(a, b) == ql.parabolic_distance(b, a)
    assert ql.parabolic_distance(a, a) == 0.0
    assert ql.parabolic_distance(a, b) > 0.0


def test_distance_dimension_mismatch():
    with pytest.raises(UsageError):
        ql.parabolic_distance(P(0.0, 0.0), P((0.0, 0.0), 0.0))


coords = st.floats(min_value=-10, max_value=10, allow_nan=False)


@given(st.tuples(coords, coords), st.tuples(coords, coords), st.tuples(coords, coords))
def test_parabolic_triangle_inequality(a, b, c):
    X, Y, Z = P(a[0], a[1]), P(b[0], b[1]), P(c[0], c[1])
    dxz = ql.parabolic_distance(X, Z)
    dxy = ql.parabolic_distance(X, Y)
    dyz = ql.parabolic_distance(Y, Z)
    assert dxz <= dxy + dyz + 1e-12


def test_cylinder_windows():
    q = ql.ParabolicCylinder(P(0.0, 1.0), 0.5)
    assert q.time_window() == (0.75, 1.0)
    with pytest.raises(ValidationError):
        ql.ParabolicCylinder(P(0.0, 0.0), -1.0)


def test_cylinder_membership_half_open():
    q = ql.ParabolicCylinder(P(0.0, 0.0), 1.0)
    xs = np.zeros((3, 1))
    ts = np.array([-1.0, -0.5, 0.0])
    inside = q.contains(xs, ts)
    # past face excluded, top face included
    assert list(inside) == [False, True, True]
