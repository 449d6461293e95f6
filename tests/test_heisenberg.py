import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from solab.heisenberg import gauge_squared, translate

coord = st.floats(min_value=-50, max_value=50, allow_nan=False)
points = st.tuples(coord, coord, coord).map(np.array)


def multiply(p, q):
    """The group product p . q: q translated by p^{-1} = -p."""
    return np.array(translate(-np.asarray(p, dtype=float), q))


def distance(p, q):
    """The gauge distance ||q^{-1} . p||."""
    return float(np.sqrt(gauge_squared(translate(q, p))))


def test_multiply_hand_value():
    # t-component picks up half the symplectic area
    assert np.array_equal(multiply([1, 0, 0], [0, 1, 0]), [1, 1, 0.5])
    # (1, 2, 3) . (4, 5, 6) = (5, 7, 9 + (1*5 - 2*4)/2)
    assert np.array_equal(multiply([1, 2, 3], [4, 5, 6]), [5, 7, 7.5])


def test_translate_values():
    c = np.array([0.3, -1.2, 0.7])
    assert translate(c, c) == [0.0] * 3
    # translating q by p^{-1} multiplies: (1, 0, 0) . (0, 1, 0) = (1, 1, 1/2)
    assert translate(-np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0])) == [1.0, 1.0, 0.5]
    # broadcastable arrays: three points at once, the twist a y - b x of the center (a, b, c)
    xs = [np.array([0.0, 1.0, 2.0]), np.zeros(3), np.ones(3)]
    assert np.array_equal(translate([0.0, 2.0, 0.0], xs)[-1], 1.0 + 0.5 * 2.0 * xs[0])


def test_identity_and_inverse():
    # the origin is the identity and -p is the two-sided inverse of p
    p = np.array([0.3, -1.2, 0.7])
    assert np.array_equal(multiply(np.zeros(3), p), p)
    assert np.array_equal(multiply(p, np.zeros(3)), p)
    assert np.array_equal(multiply(p, -p), np.zeros(3))
    assert np.array_equal(multiply(-p, p), np.zeros(3))


def test_dimension_mismatch():
    # a point of H^2 is neither a center nor a point of translate
    xs = [np.array([0.0, 1.0, 2.0]), np.zeros(3), np.ones(3)]
    with pytest.raises(ValueError):
        translate(np.zeros(5), xs)
    with pytest.raises(ValueError):
        translate(np.zeros(3), xs + [np.ones(3), np.ones(3)])


def test_norm_values():
    assert gauge_squared([0.0, 0.0, 0.0]) == 0.0
    assert gauge_squared([1.0, 0.0, 0.0]) == 1.0
    assert gauge_squared([0.0, 0.0, 4.0]) == gauge_squared([0.0, 0.0, -4.0]) == 4.0


def test_dilate_values():
    # the dilation (x, y, t) -> (2x, 2y, 4t) takes (1, 0, 1) to (2, 0, 4) and doubles the gauge
    assert gauge_squared([2.0, 0.0, 4.0]) == 4 * gauge_squared([1.0, 0.0, 1.0]) == 8.0


def test_gauge_distance_values():
    p, q = [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]
    # q^{-1} p = (1, -1, 0.5): norm^2 = 2.5
    assert distance(p, q) == pytest.approx(math.sqrt(2.5), abs=1e-14)
    assert distance(p, p) == 0.0
    assert distance(p, np.zeros(3)) == math.sqrt(gauge_squared(p))


@settings(max_examples=150, deadline=None)
@given(points, points, points)
def test_associativity(p, q, r):
    lhs = multiply(multiply(p, q), r)
    rhs = multiply(p, multiply(q, r))
    scale = 1.0 + np.max(np.abs(lhs))
    assert np.max(np.abs(lhs - rhs)) <= 1e-12 * scale


@settings(max_examples=150, deadline=None)
@given(points, st.floats(min_value=1e-3, max_value=1e3))
def test_norm_homogeneous_under_dilation(p, lam):
    x, y, t = p
    assert gauge_squared([lam * x, lam * y, lam * lam * t]) == pytest.approx(
        lam * lam * gauge_squared(p), rel=1e-12, abs=1e-12)


@settings(max_examples=100, deadline=None)
@given(points, points)
def test_distance_separates_points(p, q):
    d = distance(p, q)
    assert d >= 0
    if np.array_equal(p, q):
        assert d == 0.0
    elif np.max(np.abs(p - q)) > 1e-120:
        # below that the squared differences underflow to exactly zero
        assert d > 0


@settings(max_examples=150, deadline=None)
@given(points, points, points)
def test_distance_left_invariant(g, p, q):
    # ||(g q)^{-1} . g p|| = ||q^{-1} . p||: a gauge ball centred at g is g times the ball at 0
    gp, gq = multiply(g, p), multiply(g, q)
    scale = 1.0 + max(np.max(gp[:2] ** 2), np.max(gq[:2] ** 2), abs(gp[2]), abs(gq[2]))
    assert abs(distance(gp, gq) ** 2 - distance(p, q) ** 2) <= 1e-12 * scale
