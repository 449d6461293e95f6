import math

import numpy as np
import pytest

import solab.grid as gr
from conftest import commutator_and_td_margin, field_from


# ---------------------------------------------------------------- grid basics

def test_grid_validation():
    with pytest.raises(ValueError):
        gr.Grid((2, 9, 9), (-1, -1, -1), (1, 1, 1))      # < 3 nodes
    with pytest.raises(ValueError):
        gr.Grid((9, 9), (-1, -1), (1, 1))                # wrong axis count
    with pytest.raises(ValueError):
        gr.Grid((9, 9, 9), (1, -1, -1), (1, 1, 1))       # empty extent
    with pytest.raises(ValueError):
        gr.Grid((9,) * 5, (-1,) * 5, (1,) * 5)           # a box of H^2
    g = gr.Grid.from_box([(-1, 1), (-2, 2), (0, 1)], 9)
    assert g.shape == (9, 9, 9)
    assert np.allclose(g.spacing, [0.25, 0.5, 0.125])


def test_field_validation(grid9):
    with pytest.raises(ValueError):
        gr.ScalarField(grid9, np.zeros((3, 3, 3)))
    with pytest.raises(ValueError):
        gr.ScalarField(grid9, np.full(grid9.shape, np.nan))
    with pytest.raises(ValueError):
        gr.HorizontalField(grid9, np.zeros(grid9.shape))


# ---------------------------------------------------------------- stencils

def test_gradient_exactness_suite(grid17):
    g = grid17
    x1, x2, t = g.coord(0), g.coord(1), g.coord(2)
    ones = np.ones(g.shape)
    # constants and coordinates
    assert np.max(np.abs(gr.horizontal_gradient(gr.ScalarField(g, 3.0 * ones)).values)) <= 1e-12
    xu = gr.horizontal_gradient(field_from(g, lambda a, b, c: a))
    assert np.max(np.abs(xu.values[0] - 1)) <= 1e-12 and np.max(np.abs(xu.values[1])) <= 1e-12
    # the vertical coordinate picks up the rotation coefficients
    xt = gr.horizontal_gradient(field_from(g, lambda a, b, c: c))
    assert np.max(np.abs(xt.values[0] + x2 / 2)) <= 1e-12
    assert np.max(np.abs(xt.values[1] - x1 / 2)) <= 1e-12
    # quadratic in the differenced variables
    xq = gr.horizontal_gradient(field_from(g, lambda a, b, c: a * b))
    assert np.max(np.abs(xq.values[0] - x2)) <= 1e-12
    assert np.max(np.abs(xq.values[1] - x1)) <= 1e-12


def test_gradient_of_t_is_the_frame():
    # dyadic nodes: the stencils of u = t are exact, so (Xu, Yu) = (-y/2, x/2) bit for bit
    grid = gr.Grid.from_box([(-1, 1)] * 3, 5)
    u = gr.ScalarField(grid, grid.coord(2) * np.ones(grid.shape))
    xu = gr.horizontal_gradient(u).values
    assert np.array_equal(xu[0], np.broadcast_to(-grid.coord(1) / 2, grid.shape))
    assert np.array_equal(xu[1], np.broadcast_to(grid.coord(0) / 2, grid.shape))


def test_vertical_derivative_examples(grid17):
    g = grid17
    assert np.max(np.abs(gr.vertical_derivative(field_from(g, lambda a, b, c: c)).values - 1)) <= 1e-12
    assert np.max(np.abs(gr.vertical_derivative(field_from(g, lambda a, b, c: a)).values)) <= 1e-12
    tsq = gr.vertical_derivative(field_from(g, lambda a, b, c: c * c))
    assert np.max(np.abs(tsq.values - 2 * g.coord(2))) <= 1e-10  # exact: stencil order 2


def test_small_grid_rejected():
    g = gr.Grid.from_box([(-1, 1)] * 3, (9, 9, 3))
    u = gr.ScalarField(g, np.zeros(g.shape))
    # 3 nodes along t is the minimum; 2 would already fail Grid validation
    assert gr.vertical_derivative(u).values.shape == g.shape
    with pytest.raises(ValueError):
        gr.axis_derivative(np.zeros((9, 9, 2)), 0.1, 2)


# ---------------------------------------------------------------- commutator

def test_commutator_affine_exact(grid9):
    u = field_from(grid9, lambda a, b, c: 1 + 2 * a - b + 3 * c)
    assert commutator_and_td_margin(u)[0] <= 1e-10


def test_commutator_trilinear_exact():
    # degree <= 1 per variable: every stencil is exact, so the residual is zero
    for m in (9, 17):
        g = gr.Grid.from_box([(-1, 1)] * 3, m)
        assert commutator_and_td_margin(field_from(g, lambda a, b, c: a * b * c))[0] <= 1e-12


def test_commutator_refines_with_order_one():
    res = []
    for m in (9, 17, 33):
        g = gr.Grid.from_box([(-1, 1)] * 3, m)
        res.append(commutator_and_td_margin(field_from(g, lambda a, b, c: np.sin(a) * np.cos(c)))[0])
    ratios = [res[i] / res[i + 1] for i in range(2)]
    assert all(1.5 <= r <= 4.5 for r in ratios)


def test_commutator_monotone_on_smooth():
    res = []
    for m in (9, 17, 33, 65):
        g = gr.Grid.from_box([(-1, 1)] * 3, m)
        res.append(commutator_and_td_margin(field_from(g, lambda a, b, c: np.sin(a) * np.cos(c)))[0])
    assert all(a > b for a, b in zip(res, res[1:]))


# ---------------------------------------------------------------- |Tu| <= 2|XXu|

def test_td_bound_t_independent(grid17):
    u = field_from(grid17, lambda a, b, c: a * b + a ** 2)
    assert commutator_and_td_margin(u)[1] >= 0.0


def test_td_bound_linear_t(grid17):
    # |Tu| = c while the skew Hessian contributes c/sqrt(2) per entry
    u = field_from(grid17, lambda a, b, c: 0.5 * c)
    h = float(np.max(grid17.spacing))
    assert commutator_and_td_margin(u)[1] >= -10 * h


def test_td_bound_refinement():
    vals = []
    for m in (9, 17, 33):
        g = gr.Grid.from_box([(-1, 1)] * 3, m)
        u = field_from(g, lambda a, b, c: np.sin(a + b) * np.cos(c) + 0.3 * c)
        vals.append(commutator_and_td_margin(u)[1])
    h0 = 2.0 / 8
    assert all(v >= -20 * h0 / 2 ** k for k, v in enumerate(vals))


# ---------------------------------------------------------------- gauge geometry

def test_gauge_distance_matches_pointwise(grid9):
    # the gauge of center^{-1} . p written out: sqrt((x-a)^2 + (y-b)^2 + |t - c - (a y - b x)/2|)
    a, b, c = 0.2, -0.1, 0.3
    rho = gr.gauge_distance_field(grid9, [a, b, c])
    for idx in [(0, 0, 0), (4, 4, 4), (8, 2, 5)]:
        x, y, t = (grid9.axis(k)[idx[k]] for k in range(3))
        expected = math.sqrt((x - a) ** 2 + (y - b) ** 2 + abs(t - c - (a * y - b * x) / 2))
        assert rho[idx] == pytest.approx(expected, abs=1e-13)


def test_ball_volume_scaling():
    g = gr.Grid.from_box([(-1, 1)] * 3, 65)
    one = gr.ScalarField(g, np.ones(g.shape))
    for r in (0.4, 0.8):
        vol = gr.integrate(one, gr.GaugeBall([0, 0, 0], r))
        assert vol == pytest.approx(math.pi * r ** 4, rel=5e-3)
    ratio = (gr.integrate(one, gr.GaugeBall([0, 0, 0], 0.8))
             / gr.integrate(one, gr.GaugeBall([0, 0, 0], 0.4)))
    assert ratio == pytest.approx(16.0, rel=0.1)


def test_integrate_box_and_linearity(grid9):
    one = gr.ScalarField(grid9, np.ones(grid9.shape))
    assert gr.integrate(one) == pytest.approx(8.0, abs=1e-10)
    f = field_from(grid9, lambda a, b, c: a * a + c)
    h = field_from(grid9, lambda a, b, c: np.cos(a))
    lin = gr.integrate(gr.ScalarField(grid9, 2 * f.values + 3 * h.values))
    assert lin == pytest.approx(2 * gr.integrate(f) + 3 * gr.integrate(h), rel=1e-12)


def test_integrate_monotone(grid9):
    f = field_from(grid9, lambda a, b, c: a * a)
    g2 = field_from(grid9, lambda a, b, c: a * a + 0.5)
    ball = gr.GaugeBall([0, 0, 0], 0.6)
    assert gr.integrate(g2, ball) >= gr.integrate(f, ball)


def test_ball_average_is_the_weighted_mean(grid17):
    # concentric balls share their corner distances; the volume is the weight sum
    f = field_from(grid17, lambda a, b, c: np.cos(a) + b * c)
    one = gr.ScalarField(grid17, np.ones(grid17.shape))
    for center in ([0, 0, 0], [0.1, -0.1, 0.05]):
        for r in (0.3, 0.5, 0.7):
            ball = gr.GaugeBall(center, r)
            assert gr.ball_average(f, ball) == gr.integrate(f, ball) / gr.integrate(one, ball)


def test_integrate_errors(grid9):
    one = gr.ScalarField(grid9, np.ones(grid9.shape))
    with pytest.raises(ValueError):
        gr.integrate(one, gr.GaugeBall([0, 0, 0], 5.0))  # reaches outside
    with pytest.raises(TypeError):
        gr.integrate(one, np.ones(grid9.shape, dtype=bool))  # a region is the box or a ball
    with pytest.raises(TypeError):
        gr.integrate(np.ones(grid9.shape))


# ---------------------------------------------------------------- cutoff

def test_cutoff_geometry_errors(grid17):
    with pytest.raises(ValueError):
        gr.make_cutoff(grid17, [0, 0, 0], 0.6, 0.6)
    with pytest.raises(ValueError):
        gr.make_cutoff(grid17, [0, 0, 0], 0.5, 0.2)
    with pytest.raises(ValueError):
        gr.make_cutoff(grid17, [0, 0, 0], 0.5, 3.0)  # outer ball escapes


def test_cutoff_values_and_bounds():
    g = gr.Grid.from_box([(-1, 1)] * 3, 33)
    cf = gr.make_cutoff(g, [0, 0, 0], 0.3, 0.6)
    center_idx = tuple(s // 2 for s in g.shape)
    assert cf.eta.values[center_idx] == 1.0
    assert cf.eta.values[0, 0, 0] == 0.0
    assert np.all((cf.eta.values >= 0) & (cf.eta.values <= 1))
    grad_sup = np.max(cf.grad.norm())
    assert grad_sup * (0.6 - 0.3) <= 4.0
    hess = gr.horizontal_hessian(gr.horizontal_gradient(cf.eta))
    assert np.max(gr.hessian_frobenius(hess)) * (0.6 - 0.3) ** 2 <= 16.0
    assert cf.k_eta == pytest.approx(grad_sup ** 2 + np.max(np.abs(cf.eta.values * cf.t_deriv.values)))


def test_cutoff_analytic_vs_discrete_gradient():
    errs = []
    for m in (17, 33):
        g = gr.Grid.from_box([(-1, 1)] * 3, m)
        cf = gr.make_cutoff(g, [0.1, 0.0, 0.05], 0.3, 0.6)
        disc = gr.horizontal_gradient(cf.eta)
        errs.append(float(np.max(np.abs(disc.values - cf.grad.values))))
    assert errs[1] < errs[0]  # analytic fields are the stencil limit


def test_cutoff_k_eta_stable_under_refinement():
    vals = []
    for m in (17, 33):
        g = gr.Grid.from_box([(-1, 1)] * 3, m)
        vals.append(gr.make_cutoff(g, [0, 0, 0], 0.3, 0.6).k_eta)
    assert vals[1] == pytest.approx(vals[0], rel=0.05)


# ---------------------------------------------------------------- serialization

def test_binary_roundtrip(tmp_path, grid9):
    f = field_from(grid9, lambda a, b, c: a + 2 * b - c * c)
    path = tmp_path / "field.bin"
    gr.save_field_binary(path, f)
    raw = np.fromfile(path, dtype="<f8")
    assert tuple(raw[:3].astype(int)) == grid9.shape and raw.size == 6 + 9 ** 3
    assert np.allclose(raw[3:6], grid9.spacing)
    assert np.array_equal(raw[6:].reshape(grid9.shape), f.values)


def test_refine_values_is_trilinear(grid9):
    vals = (2 * grid9.coord(0) - grid9.coord(1) + 0.5 * grid9.coord(2)) * np.ones(grid9.shape)
    fine = gr.refine_values(vals)
    gfine = grid9.refined()
    expected = (2 * gfine.coord(0) - gfine.coord(1) + 0.5 * gfine.coord(2)) * np.ones(gfine.shape)
    assert np.allclose(fine, expected, atol=1e-13)
