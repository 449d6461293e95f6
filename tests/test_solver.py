import math
import tracemalloc

import numpy as np
import pytest

import solab.solver as sv
from conftest import field_from, triple_for
from oracles import gauge_fundamental_solution, kohn_laplace_matrix, solve_kohn_laplace
from solab.grid import Grid, ScalarField, refine_values
from solab.operator import regularized_energy_density, regularized_operator, regularized_weight
from solab.problems import boundary_field


def make_problem(grid, label, expr, **kw):
    return sv.DirichletProblem(grid=grid, triple=triple_for(label),
                               boundary=field_from(grid, expr), **kw)


# ---------------------------------------------------------------- operators

def test_cell_gradient_adjoint(rng, grid9):
    u = rng.normal(size=grid9.shape)
    w = rng.normal(size=(2,) + tuple(s - 1 for s in grid9.shape))
    lhs = float(np.sum(sv.cell_gradient(grid9, u) * w))
    rhs = float(np.sum(u * sv.cell_gradient_adjoint(grid9, w)))
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def test_cell_frame_n2(rng):
    # dyadic nodes: the cell stencils of u = t are exact, so X u = (-x_{n+i}/2, x_i/2) bit for bit
    grid = Grid.from_box(2, [(-1, 1)] * 5, 5)
    xc = sv.cell_gradient(grid, grid.coord(4) * np.ones(grid.shape))
    cells = xc.shape[1:]
    for i in range(2):
        assert np.array_equal(xc[i], np.broadcast_to(-grid.cell_coord(2 + i) / 2, cells))
        assert np.array_equal(xc[2 + i], np.broadcast_to(grid.cell_coord(i) / 2, cells))
    u = rng.normal(size=grid.shape)
    w = rng.normal(size=xc.shape)
    lhs = float(np.sum(sv.cell_gradient(grid, u) * w))
    assert lhs == pytest.approx(float(np.sum(u * sv.cell_gradient_adjoint(grid, w))), rel=1e-12)


def test_cell_gradient_exact_on_affine(grid9):
    # X(a.x + c t) at a cell with center (x1c, x2c): (a1 - c x2c/2, a2 + c x1c/2)
    a1, a2, c = 0.7, -0.2, 0.4
    vals = (a1 * grid9.coord(0) + a2 * grid9.coord(1) + c * grid9.coord(2)) * np.ones(grid9.shape)
    xc = sv.cell_gradient(grid9, vals)
    x1c, x2c = grid9.cell_coord(0), grid9.cell_coord(1)
    assert np.max(np.abs(xc[0] - (a1 - c * x2c / 2))) <= 1e-13
    assert np.max(np.abs(xc[1] - (a2 + c * x1c / 2))) <= 1e-13


# ---------------------------------------------------------------- problem setup

def test_problem_validation(grid9):
    bc = field_from(grid9, lambda a, b, c: a)
    with pytest.raises(ValueError):
        sv.DirichletProblem(grid=grid9, triple=triple_for("power:p=2"), boundary=bc, eps=2.0)
    other = Grid.from_box(1, [(-1, 1)] * 3, 11)
    with pytest.raises(ValueError):
        sv.DirichletProblem(grid=other, triple=triple_for("power:p=2"), boundary=bc)


def test_discrete_energy_values(grid9):
    prob = make_problem(grid9, "power:p=2", lambda a, b, c: 0 * a + 1.0)
    u = field_from(grid9, lambda a, b, c: 0 * a + 1.0)
    assert sv.discrete_energy(u, prob) == pytest.approx(0.0, abs=1e-15)  # Xu = 0
    prob2 = make_problem(grid9, "power:p=2", lambda a, b, c: a)
    lin = field_from(grid9, lambda a, b, c: a)
    # G_eps(1) ~ 1/2 over the unit gradient: energy ~ volume/2
    assert sv.discrete_energy(lin, prob2) == pytest.approx(4.0, rel=1e-3)
    with pytest.raises(ValueError):
        sv.discrete_energy(lin, prob)  # boundary mismatch


def test_energy_nonnegative(rng, grid9):
    prob = make_problem(grid9, "power:p=3", lambda a, b, c: np.sin(a) + 0.2 * c)
    u = prob.boundary.values.copy()
    u[prob.interior] += 0.1 * rng.normal(size=int(prob.interior.sum()))
    assert sv.discrete_energy(ScalarField(grid9, u), prob) >= 0.0


# ---------------------------------------------------------------- exactness

@pytest.mark.parametrize("label", ["power:p=2", "power:p=3", "power:p=1.5"])
def test_affine_data_reproduced(label, grid9):
    prob = make_problem(grid9, label, lambda a, b, c: 0.7 * a - 0.3 * b + 0.1,
                        residual_tol=1e-12)
    sol, rep = sv.solve_dirichlet(prob)
    assert rep.converged and rep.stop_reason == "tol"
    assert rep.weak_residual <= 1e-10
    assert np.max(np.abs(sol.values - prob.boundary.values)) <= 1e-9


def test_weak_residual_affine_and_perturbed(grid9):
    prob = make_problem(grid9, "power:p=3", lambda a, b, c: 0.5 * a + 0.2 * b)
    exact = prob.boundary
    assert sv.weak_residual(exact, prob) <= 1e-10
    bumped = exact.values.copy()
    bumped[4, 4, 4] += 0.05
    assert sv.weak_residual(ScalarField(prob.grid, bumped), prob) > 1e-4


def test_residual_history_decreases(grid9):
    prob = make_problem(grid9, "power:p=2", lambda a, b, c: a * b + 0.3 * c * a,
                        residual_tol=1e-10)
    sol, rep = sv.solve_dirichlet(prob)
    hist = rep.residual_history
    assert hist[-1] <= 1e-10 < hist[0]
    mid_min = min(hist[: len(hist) // 2])
    assert hist[-1] < mid_min  # the residual trend keeps improving


def test_matches_direct_linear_solve(grid9):
    prob = make_problem(grid9, "power:p=2", lambda a, b, c: a * b + 0.4 * c,
                        residual_tol=1e-13)
    sol, rep = sv.solve_dirichlet(prob)
    direct = solve_kohn_laplace(grid9, prob.boundary.values, prob.interior)
    assert np.max(np.abs(sol.values - direct)) <= 1e-8


def test_energy_history_monotone_to_roundoff(grid11):
    prob = make_problem(grid11, "power:p=3", lambda a, b, c: np.sin(a) * np.cos(b) + 0.2 * c)
    sol, rep = sv.solve_dirichlet(prob)
    h = np.asarray(rep.energy_history)
    assert np.all(np.diff(h) <= 8 * np.finfo(float).eps * (np.abs(h[:-1]) + 1.0))


def test_initializations_agree(grid11):
    prob = make_problem(grid11, "power:p=3", lambda a, b, c: a * b + 0.2 * c,
                        residual_tol=1e-11)
    s1, r1 = sv.solve_dirichlet(prob, init="zero")
    s2, r2 = sv.solve_dirichlet(prob, init="harmonic")
    assert r1.converged and r2.converged
    assert np.max(np.abs(s1.values - s2.values)) <= 1e-8


def test_translation_invariance(grid9):
    base = make_problem(grid9, "power:p=3", lambda a, b, c: np.sin(a) + 0.3 * b,
                        residual_tol=1e-12)
    shifted = make_problem(grid9, "power:p=3", lambda a, b, c: np.sin(a) + 0.3 * b + 2.5,
                           residual_tol=1e-12)
    s0, _ = sv.solve_dirichlet(base)
    s1, _ = sv.solve_dirichlet(shifted)
    assert np.max(np.abs(s1.values - s0.values - 2.5)) <= 1e-9


def test_iteration_budget_flagged(grid9):
    prob = make_problem(grid9, "power:p=3", lambda a, b, c: np.sin(2 * a) * b + 0.4 * c,
                        max_iters=1, residual_tol=1e-14)
    sol, rep = sv.solve_dirichlet(prob)
    assert not rep.converged
    assert rep.iterations == 1
    assert rep.stop_reason == "max_iters"


def test_line_search_stall_recorded(grid9, monkeypatch):
    prob = make_problem(grid9, "power:p=3", lambda a, b, c: np.sin(2 * a) * b + 0.4 * c)
    real = sv._energy_and_gradient
    calls = []

    def rising(*args):
        energy, grad, cap = real(*args)
        calls.append(energy)
        return calls[0] + (len(calls) > 1), grad, cap  # every trial step lands above the start

    monkeypatch.setattr(sv, "_energy_and_gradient", rising)
    sol, rep = sv.solve_dirichlet(prob)
    assert not rep.converged
    assert rep.stop_reason == "line_search_stall"
    assert rep.iterations == 0
    assert len(calls) == 41  # the start plus 40 halvings


def test_problem_operator_is_the_regularized_operator(grid9, rng):
    # the solver's weak-form kernel applies exactly the A_eps that operator-check certifies
    tr, eps = triple_for("sinlog:a=2.5,b=1"), 1e-2
    u = rng.normal(size=grid9.shape) * np.exp(rng.uniform(-8, 6, size=grid9.shape))
    a_eps = regularized_operator(tr, eps)[0].A
    xc = sv.cell_gradient(grid9, u)
    expected = grid9.cell_volume * sv.cell_gradient_adjoint(
        grid9, np.moveaxis(a_eps(np.moveaxis(xc, 0, -1)), -1, 0))
    assert np.array_equal(sv._weak_form(grid9, u, regularized_weight(tr, eps))[1], expected)


def test_weak_form_slabs_match_the_assembled_operator(rng):
    # 20 cell planes along x_1, so a partial slab follows the full ones; the box
    # is off-center in x_1, the coefficient of X_2
    grid = Grid.from_box(1, [(-0.3, 1.7), (-1, 1), (-0.5, 0.5)], (21, 33, 33))
    step = sv._slab_planes(grid)
    assert step < 20 and 20 % step != 0
    u = rng.normal(size=grid.shape)
    got = sv._weak_form(grid, u, np.ones_like)[1]
    want = (kohn_laplace_matrix(grid) @ u.ravel()).reshape(grid.shape)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_energy_gradient_is_directional_derivative_across_slabs(rng):
    # n = 2, where X_3 carries the x_1 coefficient; 6 cell planes along x_1
    grid = Grid.from_box(2, [(-0.3, 1.2), (-1, 1), (-1, 1), (-1, 1), (-1, 1)], (7, 9, 9, 9, 9))
    assert sv._slab_planes(grid) < 6
    tr = triple_for("power:p=3")
    f_eps, g_eps = regularized_weight(tr, 1e-4), regularized_energy_density(tr, 1e-4)
    x = [grid.coord(k) for k in range(grid.dim)]
    u = (np.sin(x[0]) * x[2] + x[1] * x[3] + 0.3 * x[4]) + 0.01 * rng.normal(size=grid.shape)
    d = rng.normal(size=grid.shape)
    _, grad, _ = sv._energy_and_gradient(grid, u, f_eps, g_eps)
    h = 1e-5
    e_plus = sv._energy_and_gradient(grid, u + h * d, f_eps, g_eps)[0]
    e_minus = sv._energy_and_gradient(grid, u - h * d, f_eps, g_eps)[0]
    assert (e_plus - e_minus) / (2 * h) == pytest.approx(float(np.sum(grad * d)), rel=1e-6)


@pytest.mark.parametrize("label, bound", [("power:p=3", 5.5), ("loglin:alpha=1,beta=1,a=2.718281828", 11.5)])
def test_energy_evaluation_allocates_no_full_grid_temporaries(label, bound):
    # peak allocation of one evaluation at 33^3, in node arrays: 4.65 (power) and
    # 10.65 (loglin, whose G_eps table lookups hold ~18 slab-sized temporaries);
    # with full-grid temporaries it was 9.8 and 18.5
    grid = Grid.from_box(1, [(-1, 1)] * 3, 33)
    tr = triple_for(label)
    f_eps, g_eps = regularized_weight(tr, 1e-4), regularized_energy_density(tr, 1e-4)
    u = grid.coord(0) * grid.coord(2) + 0.5 * grid.coord(1) * np.ones(grid.shape)
    sv._energy_and_gradient(grid, u, f_eps, g_eps)  # builds the lazy G/H tables
    tracemalloc.start()
    try:
        sv._energy_and_gradient(grid, u, f_eps, g_eps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound * u.nbytes, peak / u.nbytes


@pytest.mark.parametrize("label", ["power:p=3", "loglin"])
def test_weak_residual_is_the_solver_residual(grid9, label):
    prob = make_problem(grid9, label, lambda a, b, c: np.sin(2 * a) * b + 0.4 * c)
    sol, rep = sv.solve_dirichlet(prob)
    assert rep.converged
    assert sv.weak_residual(sol, prob) == rep.weak_residual
    assert sv.discrete_energy(sol, prob) == rep.final_energy


def test_regularization_consistency(grid9):
    # solutions for eps and eps/2 drift less as eps shrinks (Cauchy trend)
    sols = {}
    for eps in (0.04, 0.02, 0.01, 0.005):
        prob = make_problem(grid9, "power:p=1.5", lambda a, b, c: a * b + 0.2 * c,
                            eps=eps, residual_tol=1e-11)
        sols[eps], _ = sv.solve_dirichlet(prob)
    d1 = np.max(np.abs(sols[0.04].values - sols[0.02].values))
    d2 = np.max(np.abs(sols[0.02].values - sols[0.01].values))
    d3 = np.max(np.abs(sols[0.01].values - sols[0.005].values))
    assert d2 <= d1 and d3 <= d2


@pytest.mark.parametrize("p", [3.0, 1.5])
def test_error_against_gauge_fundamental_solution(p):
    # p-harmonic off the origin; the box keeps |x| >= 1/4, so for p = 1.5 max |u| = 4^5
    errors = []
    warm = None
    for res in (9, 17, 33):
        grid = Grid.from_box(1, [(0.25, 1.25), (-0.5, 0.5), (-0.5, 0.5)], res)
        exact = gauge_fundamental_solution(p, grid.coord(0), grid.coord(1), grid.coord(2))
        prob = sv.DirichletProblem(grid=grid, triple=triple_for(f"power:p={p:g}"),
                                   boundary=ScalarField(grid, exact * np.ones(grid.shape)), eps=1e-6)
        sol, rep = sv.solve_dirichlet(prob, init="zero" if warm is None else refine_values(warm.values))
        assert rep.converged
        warm = sol
        diff = (sol.values - exact)[prob.interior]
        errors.append(math.sqrt(float(np.mean(diff * diff))))
    # measured rms: p = 3: 4.2e-2, 1.6e-2, 5.0e-3; p = 1.5: 12.5, 5.1, 1.4
    assert all(coarse >= 2.0 * fine for coarse, fine in zip(errors, errors[1:])), errors


# ---------------------------------------------------------------- comparison

def test_comparison_identical_data(grid9):
    pu = make_problem(grid9, "power:p=2", lambda a, b, c: a * b, residual_tol=1e-11)
    pv = make_problem(grid9, "power:p=2", lambda a, b, c: a * b, residual_tol=1e-11)
    assert abs(sv.comparison_check(pu, pv)) <= 1e-9


def test_comparison_constant_shift(grid9):
    pu = make_problem(grid9, "power:p=3", lambda a, b, c: a * b + 1.0, residual_tol=1e-11)
    pv = make_problem(grid9, "power:p=3", lambda a, b, c: a * b, residual_tol=1e-11)
    assert sv.comparison_check(pu, pv) == pytest.approx(1.0, abs=1e-8)


def test_comparison_ordered_smooth_pair(grid9):
    pu = make_problem(grid9, "power:p=3",
                      lambda a, b, c: 0.4 * a + 0.1 * (2 + np.sin(a) * np.cos(b)))
    pv = make_problem(grid9, "power:p=3", lambda a, b, c: 0.4 * a)
    assert sv.comparison_check(pu, pv) >= -1e-8


def test_comparison_rejects_unordered(grid9):
    pu = make_problem(grid9, "power:p=2", lambda a, b, c: a)
    pv = make_problem(grid9, "power:p=2", lambda a, b, c: a + 0.5)
    with pytest.raises(ValueError):
        sv.comparison_check(pu, pv)


# ---------------------------------------------------------------- barriers

def test_barrier_t_free_has_constant_gradient(grid9):
    L = boundary_field("affine:c0=0.3,x1=0.5,x2=0.5", grid9)
    xc = sv.cell_gradient(grid9, L.values)
    assert np.max(np.abs(xc[0] - xc[0].flat[0])) <= 1e-13
    assert np.max(np.abs(xc[1] - xc[1].flat[0])) <= 1e-13


def test_barrier_hessian_skew(grid17):
    from solab.grid import horizontal_hessian
    c = 0.8
    L = boundary_field(f"affine:x1=0.4,x2=0.1,t={c}", grid17)
    hess = horizontal_hessian(L)
    sym = 0.5 * (hess + np.swapaxes(hess, 0, 1))
    assert np.max(np.abs(sym)) <= 1e-9
    assert np.max(np.abs(hess[0, 1] + c / 2)) <= 1e-9  # off-diagonal is +-(t coeff)/2


def test_barrier_residual_study_exact_when_t_free(grid9):
    L = boundary_field("affine:c0=0.1,x1=0.5,x2=-0.2", grid9)
    residuals = sv.barrier_residual_study(L, triple_for("power:p=2"), refinements=2)
    assert all(r <= 1e-10 for r in residuals)


@pytest.mark.parametrize("label,vec", [("power:p=2", [1.0, 0.0, 1.0]),
                                       ("power:p=4", [0.0, 2.0, 1.0])])
def test_barrier_residual_exact_for_power_laws(label, vec, grid9):
    # the cell scheme reproduces affine barriers exactly when A(XL) is
    # polynomial in the coordinates: the residual sits at the round-off floor
    x1, x2, t = vec
    L = boundary_field(f"affine:x1={x1},x2={x2},t={t}", grid9)
    res = sv.barrier_residual_study(L, triple_for(label), refinements=2)
    assert all(r <= 1e-12 for r in res)


@pytest.mark.parametrize("label", ["loglin:alpha=1,beta=1,a=2.718281828", "sinlog:a=2.5,b=1"])
def test_barrier_residual_order_transcendental(label, grid9):
    # with transcendental growth the truncation error is real and must
    # decrease with order >= 1 per halving
    L = boundary_field("affine:x1=1,t=1", grid9)
    res = sv.barrier_residual_study(L, triple_for(label), refinements=2)
    assert all(r > 0 for r in res)
    for a, b in zip(res, res[1:]):
        assert a / b >= 2.0


def test_barrier_study_rejects_nonaffine(grid9):
    bad = field_from(grid9, lambda a, b, c: a * a)
    with pytest.raises(ValueError):
        sv.barrier_residual_study(bad, triple_for("power:p=2"), 1)


def test_barrier_study_flags_degenerate_gradient():
    # an even node count puts a cell center at the origin, where XL of pure-t
    # data vanishes; p=1.5 has singular F there
    g10 = Grid.from_box(1, [(-1, 1)] * 3, 10)
    L = boundary_field("affine:t=1", g10)
    with pytest.raises(ValueError):
        sv.barrier_residual_study(L, triple_for("power:p=1.5"), 0)
