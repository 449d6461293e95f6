import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from solab.heisenberg import (GroupPoint, dilate, group_inverse,
                              group_multiply, homogeneous_norm, origin,
                              quasi_distance, translate)

coord = st.floats(min_value=-50, max_value=50, allow_nan=False)


def pt3(a, b, c):
    return GroupPoint(np.array([a, b, c], dtype=float))


points = st.builds(pt3, coord, coord, coord)


def test_group_point_validation():
    with pytest.raises(ValueError):
        GroupPoint(np.array([1.0, 2.0]))  # no t
    with pytest.raises(ValueError):
        GroupPoint(np.array([1.0, np.inf, 0.0]))
    p = pt3(1, 2, 3)
    assert np.array_equal(p.coords, [1.0, 2.0, 3.0]) and p.t == 3.0
    with pytest.raises(ValueError):
        p.coords[0] = 5.0  # immutable


def test_multiply_hand_value():
    # t-component picks up half the symplectic area
    r = group_multiply(pt3(1, 0, 0), pt3(0, 1, 0))
    assert np.allclose(r.coords, [1, 1, 0.5], atol=1e-15)


def test_translate_values():
    c = np.array([0.3, -1.2, 0.7])
    assert translate(c, c) == [0.0] * 3
    # translating q by p^{-1} multiplies: (1, 0, 0) . (0, 1, 0) = (1, 1, 1/2)
    assert translate(-np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0])) == [1.0, 1.0, 0.5]
    # broadcastable arrays: three points at once, the twist a y - b x of the center (a, b, c)
    xs = [np.array([0.0, 1.0, 2.0]), np.zeros(3), np.ones(3)]
    assert np.array_equal(translate([0.0, 2.0, 0.0], xs)[-1], 1.0 + 0.5 * 2.0 * xs[0])


def test_identity_and_inverse():
    p = pt3(0.3, -1.2, 0.7)
    assert np.allclose(group_multiply(origin(), p).coords, p.coords)
    assert np.allclose(group_multiply(p, group_inverse(p)).coords, 0.0, atol=1e-15)
    assert np.allclose(group_inverse(pt3(1, 2, 3)).coords, [-1, -2, -3])
    assert np.allclose(group_inverse(group_inverse(p)).coords, p.coords)


def test_dimension_mismatch():
    # a point of H^2 is neither a GroupPoint nor a center or point of translate
    with pytest.raises(ValueError):
        GroupPoint(np.zeros(5))
    xs = [np.array([0.0, 1.0, 2.0]), np.zeros(3), np.ones(3)]
    with pytest.raises(ValueError):
        translate(np.zeros(5), xs)
    with pytest.raises(ValueError):
        translate(np.zeros(3), xs + [np.ones(3), np.ones(3)])


def test_norm_values():
    assert homogeneous_norm(origin()) == 0.0
    assert homogeneous_norm(pt3(1, 0, 0)) == 1.0
    assert homogeneous_norm(pt3(0, 0, 4)) == 2.0


def test_quasi_distance_values():
    p, q = pt3(1, 0, 0), pt3(0, 1, 0)
    # q^{-1} p = (1, -1, -0.5): norm^2 = 2.5
    assert quasi_distance(p, q) == pytest.approx(math.sqrt(2.5), abs=1e-14)
    assert quasi_distance(p, p) == 0.0
    assert quasi_distance(p, origin()) == homogeneous_norm(p)


def test_dilate_values():
    p = pt3(1, 0, 1)
    assert np.allclose(dilate(p, 1.0).coords, p.coords)
    assert np.allclose(dilate(p, 2.0).coords, [2, 0, 4])
    with pytest.raises(ValueError):
        dilate(p, 0.0)
    with pytest.raises(ValueError):
        dilate(p, -1.0)


@settings(max_examples=150, deadline=None)
@given(points, points, points)
def test_associativity(p, q, r):
    lhs = group_multiply(group_multiply(p, q), r)
    rhs = group_multiply(p, group_multiply(q, r))
    scale = 1.0 + np.max(np.abs(lhs.coords))
    assert np.max(np.abs(lhs.coords - rhs.coords)) <= 1e-12 * scale


@settings(max_examples=150, deadline=None)
@given(points, st.floats(min_value=1e-3, max_value=1e3))
def test_norm_homogeneous_under_dilation(p, lam):
    assert homogeneous_norm(dilate(p, lam)) == pytest.approx(
        lam * homogeneous_norm(p), rel=1e-12, abs=1e-12)


@settings(max_examples=100, deadline=None)
@given(points, points)
def test_distance_separates_points(p, q):
    d = quasi_distance(p, q)
    assert d >= 0
    if np.array_equal(p.coords, q.coords):
        assert d == 0.0
    elif np.max(np.abs(p.coords - q.coords)) > 1e-120:
        # below that the squared differences underflow to exactly zero
        assert d > 0
