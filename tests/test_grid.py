import math

import numpy as np
import pytest

import solab.grid as gr
from conftest import commutator_and_td_margin, embed, field_from
from oracles import full_grid_ball_weights, full_grid_cutoff


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


# ---------------------------------------------------------------- stencils

def test_gradient_exactness_suite(grid17):
    g = grid17
    x1, x2, t = g.coord(0), g.coord(1), g.coord(2)
    ones = np.ones(g.shape)
    # constants and coordinates
    assert np.max(np.abs(gr.horizontal_gradient(g, 3.0 * ones))) <= 1e-12
    xu = gr.horizontal_gradient(g, field_from(g, lambda a, b, c: a))
    assert np.max(np.abs(xu[0] - 1)) <= 1e-12 and np.max(np.abs(xu[1])) <= 1e-12
    # the vertical coordinate picks up the rotation coefficients
    xt = gr.horizontal_gradient(g, field_from(g, lambda a, b, c: c))
    assert np.max(np.abs(xt[0] + x2 / 2)) <= 1e-12
    assert np.max(np.abs(xt[1] - x1 / 2)) <= 1e-12
    # quadratic in the differenced variables
    xq = gr.horizontal_gradient(g, field_from(g, lambda a, b, c: a * b))
    assert np.max(np.abs(xq[0] - x2)) <= 1e-12
    assert np.max(np.abs(xq[1] - x1)) <= 1e-12


def test_gradient_of_t_is_the_frame():
    # dyadic nodes: the stencils of u = t are exact, so (Xu, Yu) = (-y/2, x/2) bit for bit
    grid = gr.Grid.from_box([(-1, 1)] * 3, 5)
    xu = gr.horizontal_gradient(grid, grid.coord(2) * np.ones(grid.shape))
    assert np.array_equal(xu[0], np.broadcast_to(-grid.coord(1) / 2, grid.shape))
    assert np.array_equal(xu[1], np.broadcast_to(grid.coord(0) / 2, grid.shape))


def test_vertical_derivative_examples(grid17):
    g = grid17
    assert np.max(np.abs(gr.vertical_derivative(g, field_from(g, lambda a, b, c: c)) - 1)) <= 1e-12
    assert np.max(np.abs(gr.vertical_derivative(g, field_from(g, lambda a, b, c: a)))) <= 1e-12
    tsq = gr.vertical_derivative(g, field_from(g, lambda a, b, c: c * c))
    assert np.max(np.abs(tsq - 2 * g.coord(2))) <= 1e-10  # exact: stencil order 2


def test_small_grid_rejected():
    g = gr.Grid.from_box([(-1, 1)] * 3, (9, 9, 3))
    # 3 nodes along t is the minimum; 2 would already fail Grid validation
    assert gr.vertical_derivative(g, np.zeros(g.shape)).shape == g.shape
    with pytest.raises(ValueError):
        gr.axis_derivative(np.zeros((9, 9, 2)), 0.1, 2)


# ---------------------------------------------------------------- commutator

def test_commutator_affine_exact(grid9):
    u = field_from(grid9, lambda a, b, c: 1 + 2 * a - b + 3 * c)
    assert commutator_and_td_margin(grid9, u)[0] <= 1e-10


def test_commutator_trilinear_exact():
    # degree <= 1 per variable: every stencil is exact, so the residual is zero
    for m in (9, 17):
        g = gr.Grid.from_box([(-1, 1)] * 3, m)
        assert commutator_and_td_margin(g, field_from(g, lambda a, b, c: a * b * c))[0] <= 1e-12


def test_commutator_refines_with_order_one():
    res = []
    for m in (9, 17, 33):
        g = gr.Grid.from_box([(-1, 1)] * 3, m)
        res.append(commutator_and_td_margin(g, field_from(g, lambda a, b, c: np.sin(a) * np.cos(c)))[0])
    ratios = [res[i] / res[i + 1] for i in range(2)]
    assert all(1.5 <= r <= 4.5 for r in ratios)


def test_commutator_monotone_on_smooth():
    res = []
    for m in (9, 17, 33, 65):
        g = gr.Grid.from_box([(-1, 1)] * 3, m)
        res.append(commutator_and_td_margin(g, field_from(g, lambda a, b, c: np.sin(a) * np.cos(c)))[0])
    assert all(a > b for a, b in zip(res, res[1:]))


# ---------------------------------------------------------------- |Tu| <= 2|XXu|

def test_td_bound_t_independent(grid17):
    u = field_from(grid17, lambda a, b, c: a * b + a ** 2)
    assert commutator_and_td_margin(grid17, u)[1] >= 0.0


def test_td_bound_linear_t(grid17):
    # |Tu| = c while the skew Hessian contributes c/sqrt(2) per entry
    u = field_from(grid17, lambda a, b, c: 0.5 * c)
    h = float(np.max(grid17.spacing))
    assert commutator_and_td_margin(grid17, u)[1] >= -10 * h


def test_td_bound_refinement():
    vals = []
    for m in (9, 17, 33):
        g = gr.Grid.from_box([(-1, 1)] * 3, m)
        u = field_from(g, lambda a, b, c: np.sin(a + b) * np.cos(c) + 0.3 * c)
        vals.append(commutator_and_td_margin(g, u)[1])
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
    one = np.ones(g.shape)
    for r in (0.4, 0.8):
        vol = gr.integrate(g, one, gr.GaugeBall([0, 0, 0], r))
        assert vol == pytest.approx(math.pi * r ** 4, rel=5e-3)
    ratio = (gr.integrate(g, one, gr.GaugeBall([0, 0, 0], 0.8))
             / gr.integrate(g, one, gr.GaugeBall([0, 0, 0], 0.4)))
    assert ratio == pytest.approx(16.0, rel=0.1)


def test_integrate_box_and_linearity(grid9):
    assert gr.integrate(grid9, np.ones(grid9.shape)) == pytest.approx(8.0, abs=1e-10)
    f = field_from(grid9, lambda a, b, c: a * a + c)
    h = field_from(grid9, lambda a, b, c: np.cos(a))
    lin = gr.integrate(grid9, 2 * f + 3 * h)
    assert lin == pytest.approx(2 * gr.integrate(grid9, f) + 3 * gr.integrate(grid9, h), rel=1e-12)


def test_integrate_monotone(grid9):
    f = field_from(grid9, lambda a, b, c: a * a)
    g2 = field_from(grid9, lambda a, b, c: a * a + 0.5)
    ball = gr.GaugeBall([0, 0, 0], 0.6)
    assert gr.integrate(grid9, g2, ball) >= gr.integrate(grid9, f, ball)


def test_ball_average_is_the_weighted_mean(grid17):
    # concentric balls share their corner distances; the volume is the weight sum
    f = field_from(grid17, lambda a, b, c: np.cos(a) + b * c)
    one = np.ones(grid17.shape)
    for center in ([0, 0, 0], [0.1, -0.1, 0.05]):
        for r in (0.3, 0.5, 0.7):
            ball = gr.GaugeBall(center, r)
            assert (gr.ball_average(grid17, f, ball)
                    == gr.integrate(grid17, f, ball) / gr.integrate(grid17, one, ball))


def test_integrate_errors(grid9):
    one = np.ones(grid9.shape)
    with pytest.raises(ValueError):
        gr.integrate(grid9, one, gr.GaugeBall([0, 0, 0], 5.0))  # reaches outside
    with pytest.raises(TypeError):
        gr.integrate(grid9, one, np.ones(grid9.shape, dtype=bool))  # a region is the box or a ball


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
    eta = embed(g, cf.box, cf.eta)
    center_idx = tuple(s // 2 for s in g.shape)
    assert eta[center_idx] == 1.0
    assert eta[0, 0, 0] == 0.0
    assert np.all((eta >= 0) & (eta <= 1))
    grad_sup = np.max(gr.horizontal_norm(cf.grad))
    assert grad_sup * (0.6 - 0.3) <= 4.0
    hess = gr.horizontal_hessian(g, gr.horizontal_gradient(g, eta))
    assert np.max(gr.hessian_frobenius(hess)) * (0.6 - 0.3) ** 2 <= 16.0
    assert cf.k_eta == pytest.approx(grad_sup ** 2 + np.max(np.abs(cf.eta * cf.t_deriv)))


def test_cutoff_analytic_vs_discrete_gradient():
    errs = []
    for m in (17, 33):
        g = gr.Grid.from_box([(-1, 1)] * 3, m)
        cf = gr.make_cutoff(g, [0.1, 0.0, 0.05], 0.3, 0.6)
        discrete = gr.horizontal_gradient(g, embed(g, cf.box, cf.eta))
        errs.append(float(np.max(np.abs(discrete - embed(g, cf.box, cf.grad)))))
    assert errs[1] < errs[0]  # analytic fields are the stencil limit


def test_cutoff_k_eta_stable_under_refinement():
    vals = []
    for m in (17, 33):
        g = gr.Grid.from_box([(-1, 1)] * 3, m)
        vals.append(gr.make_cutoff(g, [0, 0, 0], 0.3, 0.6).k_eta)
    assert vals[1] == pytest.approx(vals[0], rel=0.05)


# ---------------------------------------------------------------- node boxes

# the README audit's balls (B_r, B_sigma r, supp eta), an off-centre ball, whose t-span the twist of
# the left translation widens, and a ball whose node box the face x = 1 clips
_OFF_CENTRE, _CLIPPED = (0.1, -0.2, 0.05), (0.5, 0.0, 0.0)
_BOX_BALLS = [((0, 0, 0), 0.8), ((0, 0, 0), 0.4), ((0, 0, 0), 0.65), (_OFF_CENTRE, 0.6), (_CLIPPED, 0.5)]
_BOX_CUTOFFS = [((0, 0, 0), 0.25, 0.65), (_OFF_CENTRE, 0.3, 0.6), (_CLIPPED, 0.2, 0.5)]


def _off_box(full, box):
    """A copy of a full-grid field with its node box zeroed."""
    out = full.copy()
    out[(...,) + box] = 0.0
    return out


@pytest.mark.parametrize("res", [17, 33, 65])
@pytest.mark.parametrize("center, radius", _BOX_BALLS)
def test_ball_weights_on_the_box_are_the_full_grid_weights(res, center, radius):
    grid = gr.Grid.from_box([(-1, 1)] * 3, res)
    ball = gr.GaugeBall(center, radius)
    box, weights = gr._ball_weights(grid, ball)
    full = full_grid_ball_weights(grid, ball)
    assert np.array_equal(weights, full[box])
    assert not np.any(_off_box(full, box))
    box_mask = gr.ball_node_mask(grid, ball)
    assert box_mask[0] == box and np.array_equal(box_mask[1], gr.gauge_distance_field(grid, center)[box] <= radius)
    if center == _CLIPPED:
        assert box[0].stop == res


def test_ball_box_spans_the_twist():
    # far off the t-axis (|(a, b)| > 4r) the ball reaches t = c + |(a, b)| r/2, 0.64 here against
    # r^2 = 0.09: its weights reach more than 7 t-spacings past r^2, which a box from r^2 alone misses
    grid = gr.Grid.from_box([(-4, 4), (-4, 4), (-1, 1)], 33)
    ball = gr.GaugeBall((3.0, -3.0, 0.0), 0.3)
    box, weights = gr._ball_weights(grid, ball)
    full = full_grid_ball_weights(grid, ball)
    assert np.array_equal(weights, full[box]) and not np.any(_off_box(full, box))
    t_reach = grid.axis(2)[np.nonzero(np.any(full > 0, axis=(0, 1)))[0][-1]]
    assert t_reach > 0.3 ** 2 + 7 * grid.spacing[2]


@pytest.mark.parametrize("res", [17, 33, 65])
@pytest.mark.parametrize("center, r_inner, r_outer", _BOX_CUTOFFS)
def test_cutoff_on_the_box_is_the_full_grid_cutoff(res, center, r_inner, r_outer):
    grid = gr.Grid.from_box([(-1, 1)] * 3, res)
    cf = gr.make_cutoff(grid, center, r_inner, r_outer)
    assert cf.box == gr._ball_weights(grid, cf.ball)[0]
    for got, full in zip((cf.eta, cf.grad, cf.t_deriv), full_grid_cutoff(grid, center, r_inner, r_outer)):
        assert np.array_equal(got, full[(...,) + cf.box])
        assert not np.any(_off_box(full, cf.box))


# ---------------------------------------------------------------- serialization

def test_binary_roundtrip(tmp_path, grid9):
    f = field_from(grid9, lambda a, b, c: a + 2 * b - c * c)
    path = tmp_path / "field.bin"
    gr.save_field_binary(path, grid9, f)
    raw = np.fromfile(path, dtype="<f8")
    assert tuple(raw[:3].astype(int)) == grid9.shape and raw.size == 6 + 9 ** 3
    assert np.allclose(raw[3:6], grid9.spacing)
    assert np.array_equal(raw[6:].reshape(grid9.shape), f)


def test_refine_values_is_trilinear(grid9):
    vals = (2 * grid9.coord(0) - grid9.coord(1) + 0.5 * grid9.coord(2)) * np.ones(grid9.shape)
    fine = gr.refine_values(vals)
    gfine = grid9.refined()
    expected = (2 * gfine.coord(0) - gfine.coord(1) + 0.5 * gfine.coord(2)) * np.ones(gfine.shape)
    assert np.allclose(fine, expected, atol=1e-13)
