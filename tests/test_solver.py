import dataclasses
import math
import tracemalloc
from collections import deque

import numpy as np
import pytest

import solab.solver as sv
from conftest import (CATALOG_LABELS, INTERIOR, barrier_residuals, bumped_start, comparison_gap,
                      energy_and_residual, field_from, triple_for)
from oracles import (allocating_lbfgs_solve, averaging_cell_gradient, averaging_cell_gradient_adjoint,
                     bfgs_inverse_hessian, gauge_fundamental_solution, kohn_laplace_matrix, solve_kohn_laplace,
                     whole_vector_lbfgs_direction)
from solab.grid import Grid, refine_values
from solab.operator import regularized_energy_density, regularized_operator, regularized_weight
from solab.orlicz import OrliczTriple
from solab.problems import boundary_field


def make_problem(grid, label, expr, **kw):
    return sv.DirichletProblem(grid=grid, triple=triple_for(label),
                               boundary=field_from(grid, expr), **kw)


# ---------------------------------------------------------------- operators

def _padded(w):
    """Cell fields in the kernels' padded layout: a zero padding cell after each row's cells."""
    return np.concatenate([w, np.zeros(w.shape[:-1] + (1,))], axis=-1)


def test_cell_gradient_adjoint(rng, grid9):
    # the identity <X u, w> = <u, X^T w> holds for w whose padding cells are 0
    u = rng.normal(size=grid9.shape)
    w = _padded(rng.normal(size=(2,) + tuple(s - 1 for s in grid9.shape)))
    lhs = float(np.sum(sv.cell_gradient(grid9, u) * w))
    rhs = float(np.sum(u * sv.cell_gradient_adjoint(grid9, w)))
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


# unequal extents, so every axis has its own spacing and the frame coefficients are off-centre
_BOX = [(-1, 1), (-0.5, 1.5), (-2, 1)]


def _close_to(new, ref):
    return float(np.max(np.abs(new - ref))) <= 1e-13 * float(np.max(np.abs(ref)))


@pytest.mark.parametrize("res, first, planes", [(9, 0, 8), (17, 0, 16), (17, 5, 3), (9, 7, 1)])
def test_cell_stencil_matches_averaging_oracle(rng, res, first, planes):
    # the prefix-sum stencil regroups the averaging stencil's sums, on whole grids and on slabs
    grid = Grid.from_box(_BOX, res)
    u = rng.normal(size=(planes + 1,) + grid.shape[1:])
    w = rng.normal(size=(2, planes) + tuple(s - 1 for s in grid.shape[1:]))
    xc = sv.cell_gradient(grid, u, first)
    assert _close_to(xc[..., :-1], averaging_cell_gradient(grid, u, first))
    assert np.array_equal(xc[..., -1], np.zeros(xc.shape[:-1]))
    assert _close_to(sv.cell_gradient_adjoint(grid, _padded(w), first), averaging_cell_gradient_adjoint(grid, w, first))


@pytest.mark.parametrize("first, planes", [(0, 8), (3, 2), (7, 1)])
def test_padded_cell_stencil_is_the_averaging_oracle_bit_for_bit(rng, first, planes):
    # dyadic spacings and coordinates with small integer data and loads: every sum and product
    # of both stencils is exact, so the stored cells equal the oracle's and the padding is 0;
    # the shape is non-cubic and the rows along the last axis are not a multiple of any other
    grid = Grid.from_box([(-1, 1), (-0.5, 1.5), (-2, 2)], (9, 5, 17))
    u = rng.integers(-8, 9, size=(planes + 1,) + grid.shape[1:]).astype(float)
    w = rng.integers(-8, 9, size=(2, planes) + tuple(s - 1 for s in grid.shape[1:])).astype(float)
    xc = sv.cell_gradient(grid, u, first)
    assert xc.shape == (2, planes, 4, 17)
    assert np.array_equal(xc[..., :-1], averaging_cell_gradient(grid, u, first))
    assert np.array_equal(xc[..., -1], np.zeros((2, planes, 4)))
    assert np.array_equal(sv.cell_gradient_adjoint(grid, _padded(w), first),
                          averaging_cell_gradient_adjoint(grid, w, first))


def test_cell_stencil_adjoint_on_edge_unit_loads():
    # a unit load in a corner or edge cell reaches boundary nodes, where the transposes have their end planes
    grid = Grid.from_box(_BOX, 9)
    cells = tuple(s - 1 for s in grid.shape)
    corners = [(0, 0, 0), (-1, -1, -1), (0, -1, 0), (-1, 0, 0)]
    for comp in range(2):
        for cell in corners:
            w = np.zeros((2,) + cells)
            w[(comp,) + cell] = 1.0
            assert _close_to(sv.cell_gradient_adjoint(grid, _padded(w)),
                             averaging_cell_gradient_adjoint(grid, w)), (comp, cell)


def test_cell_frame(rng):
    # dyadic nodes: the cell stencils of u = t are exact, so (Xu, Yu) = (-y/2, x/2) bit for bit
    grid = Grid.from_box([(-1, 1)] * 3, 5)
    xc = sv.cell_gradient(grid, grid.coord(2) * np.ones(grid.shape))[..., :-1]
    cells = xc.shape[1:]
    assert np.array_equal(xc[0], np.broadcast_to(-grid.cell_coord(1) / 2, cells))
    assert np.array_equal(xc[1], np.broadcast_to(grid.cell_coord(0) / 2, cells))
    u = rng.normal(size=grid.shape)
    w = _padded(rng.normal(size=xc.shape))
    lhs = float(np.sum(sv.cell_gradient(grid, u) * w))
    assert lhs == pytest.approx(float(np.sum(u * sv.cell_gradient_adjoint(grid, w))), rel=1e-12)


def test_cell_gradient_exact_on_affine(grid9):
    # X(a.x + c t) at a cell with center (x1c, x2c): (a1 - c x2c/2, a2 + c x1c/2)
    a1, a2, c = 0.7, -0.2, 0.4
    vals = (a1 * grid9.coord(0) + a2 * grid9.coord(1) + c * grid9.coord(2)) * np.ones(grid9.shape)
    xc = sv.cell_gradient(grid9, vals)[..., :-1]
    x1c, x2c = grid9.cell_coord(0), grid9.cell_coord(1)
    assert np.max(np.abs(xc[0] - (a1 - c * x2c / 2))) <= 1e-13
    assert np.max(np.abs(xc[1] - (a2 + c * x1c / 2))) <= 1e-13


# ---------------------------------------------------------------- problem setup

def test_problem_validation(grid9):
    bc = field_from(grid9, lambda a, b, c: a)
    with pytest.raises(ValueError):
        sv.DirichletProblem(grid=grid9, triple=triple_for("power:p=2"), boundary=bc, eps=2.0)
    other = Grid.from_box([(-1, 1)] * 3, 11)
    with pytest.raises(ValueError, match="is not the grid's"):
        sv.DirichletProblem(grid=other, triple=triple_for("power:p=2"), boundary=bc)


def test_discrete_energy_values(grid9):
    prob = make_problem(grid9, "power:p=2", lambda a, b, c: 0 * a + 1.0)
    assert energy_and_residual(prob, prob.boundary)[0] == pytest.approx(0.0, abs=1e-15)  # Xu = 0
    lin = make_problem(grid9, "power:p=2", lambda a, b, c: a)
    # G_eps(1) ~ 1/2 over the unit gradient: energy ~ volume/2
    assert energy_and_residual(lin, lin.boundary)[0] == pytest.approx(4.0, rel=1e-3)


def test_energy_nonnegative(rng, grid9):
    prob = make_problem(grid9, "power:p=3", lambda a, b, c: np.sin(a) + 0.2 * c)
    u = prob.boundary.copy()
    u[INTERIOR] += 0.1 * rng.normal(size=u[INTERIOR].shape)
    assert energy_and_residual(prob, u)[0] >= 0.0


# ---------------------------------------------------------------- exactness

@pytest.mark.parametrize("label", ["power:p=2", "power:p=3", "power:p=1.5"])
def test_affine_data_reproduced(label, grid9):
    prob = make_problem(grid9, label, lambda a, b, c: 0.7 * a - 0.3 * b + 0.1,
                        residual_tol=1e-12)
    sol, rep = sv.solve_dirichlet(prob, init=bumped_start(prob.grid, prob.boundary))
    assert rep.converged and rep.stop_reason == "tol" and rep.iterations > 0
    assert rep.weak_residual <= 1e-10
    assert np.max(np.abs(sol - prob.boundary)) <= 1e-9


def test_weak_residual_affine_and_perturbed(grid9):
    prob = make_problem(grid9, "power:p=3", lambda a, b, c: 0.5 * a + 0.2 * b)
    assert energy_and_residual(prob, prob.boundary)[1] <= 1e-10
    bumped = prob.boundary.copy()
    bumped[4, 4, 4] += 0.05
    assert energy_and_residual(prob, bumped)[1] > 1e-4


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
    sol, rep = sv.solve_dirichlet(prob, init=bumped_start(prob.grid, prob.boundary))
    direct = solve_kohn_laplace(grid9, prob.boundary)
    assert rep.iterations > 0 and np.max(np.abs(sol - direct)) <= 1e-8


def test_energy_history_monotone_to_roundoff(grid11):
    prob = make_problem(grid11, "power:p=3", lambda a, b, c: np.sin(a) * np.cos(b) + 0.2 * c)
    sol, rep = sv.solve_dirichlet(prob)
    h = np.asarray(rep.energy_history)
    assert np.all(np.diff(h) <= 8 * np.finfo(float).eps * (np.abs(h[:-1]) + 1.0))


def test_initializations_agree(rng, grid11):
    prob = make_problem(grid11, "power:p=3", lambda a, b, c: a * b + 0.2 * c,
                        residual_tol=1e-11)
    start = rng.uniform(-1.0, 1.0, size=grid11.shape)
    s1, r1 = sv.solve_dirichlet(prob, init=None)
    s2, r2 = sv.solve_dirichlet(prob, init=start)
    assert r1.converged and r2.converged
    assert np.max(np.abs(s1 - s2)) <= 1e-8


def test_translation_invariance(grid9):
    base = make_problem(grid9, "power:p=3", lambda a, b, c: np.sin(a) + 0.3 * b,
                        residual_tol=1e-12)
    shifted = make_problem(grid9, "power:p=3", lambda a, b, c: np.sin(a) + 0.3 * b + 2.5,
                           residual_tol=1e-12)
    s0, _ = sv.solve_dirichlet(base)
    s1, _ = sv.solve_dirichlet(shifted)
    assert np.max(np.abs(s1 - s0 - 2.5)) <= 1e-9


def test_iteration_budget_flagged(grid9):
    prob = make_problem(grid9, "power:p=3", lambda a, b, c: np.sin(2 * a) * b + 0.4 * c,
                        max_iters=1, residual_tol=1e-14)
    sol, rep = sv.solve_dirichlet(prob)
    assert not rep.converged
    assert rep.iterations == 1
    assert rep.stop_reason == "max_iters"


def test_line_search_stall_recorded(grid9, monkeypatch):
    prob = make_problem(grid9, "power:p=3", lambda a, b, c: np.sin(2 * a) * b + 0.4 * c)
    real = sv._weak_form
    calls = []

    def rising(*args):
        energy, cap = real(*args)
        calls.append(energy)
        return calls[0] + (len(calls) > 1), cap  # every trial step lands above the start

    monkeypatch.setattr(sv, "_weak_form", rising)
    sol, rep = sv.solve_dirichlet(prob)
    assert not rep.converged
    assert rep.stop_reason == "line_search_stall"
    assert rep.iterations == 0
    assert len(calls) == 41  # the start plus 40 halvings


def test_problem_operator_is_the_regularized_operator(grid9, rng):
    # the solver's weak-form kernel applies exactly the A_eps that operator-check certifies
    tr, eps = triple_for("sinlog:a=2.5,b=1"), 1e-2
    u = rng.normal(size=grid9.shape) * np.exp(rng.uniform(-8, 6, size=grid9.shape))
    a_eps = regularized_operator(tr, eps).A
    xc = sv.cell_gradient(grid9, u)
    expected = grid9.cell_volume * sv.cell_gradient_adjoint(
        grid9, np.moveaxis(a_eps(np.moveaxis(xc, 0, -1)), -1, 0))
    got = np.empty_like(u[INTERIOR])
    sv._weak_form(grid9, u, regularized_weight(tr, eps), regularized_energy_density(tr, eps), got)
    assert np.array_equal(got, expected[INTERIOR])


def test_weak_form_slabs_match_the_assembled_operator(rng):
    # 20 cell planes along x_1, so a partial slab follows the full ones; the box
    # is off-center in x_1, the coefficient of X_2
    grid = Grid.from_box([(-0.3, 1.7), (-1, 1), (-0.5, 0.5)], (21, 33, 33))
    step = sv._slab_planes(grid)
    assert step < 20 and 20 % step != 0
    u = rng.normal(size=grid.shape)
    got = np.empty_like(u[INTERIOR])
    sv._weak_form(grid, u, np.ones_like, lambda r, w, top: 0.5 * r * r, got)
    want = (kohn_laplace_matrix(grid) @ u.ravel()).reshape(grid.shape)[INTERIOR]
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_energy_gradient_is_directional_derivative_across_slabs(rng):
    # 6 cell planes along x, off-centre so that Y carries the x coefficient: a full
    # slab of 4 planes, then a partial one of 2
    grid = Grid.from_box([(-0.3, 1.2), (-1, 1), (-1, 1)], (7, 65, 65))
    assert sv._slab_planes(grid) == 4
    tr = triple_for("power:p=3")
    f_eps, g_eps = regularized_weight(tr, 1e-4), regularized_energy_density(tr, 1e-4)
    x, y, t = grid.coords()
    u = (np.sin(x) * y + x * t + 0.3 * t) + 0.01 * rng.normal(size=grid.shape)
    d = np.zeros(grid.shape)
    d[INTERIOR] = rng.normal(size=d[INTERIOR].shape)  # the unknowns' directions
    grad = np.empty_like(u[INTERIOR])
    sv._weak_form(grid, u, f_eps, g_eps, grad)
    # a random direction's derivative cancels: |E'(d)| = 0.51 here (0.013 to 0.94 over other
    # draws) against |grad| |d| = 89.  The central difference errs by the truncation
    # h^2 |E'''(d)| / 6 (|E'''(d)| = 1.9e3 here, up to 4.5e3) plus the rounding u |E| / h
    # (|E| = 3.8, u = 1.1e-16); h = 1e-6 keeps their sum under 1.2e-9, 1e-7 of the smallest |E'(d)|
    h = 1e-6
    e_plus = sv._weak_form(grid, u + h * d, f_eps, g_eps, np.empty_like(grad))[0]
    e_minus = sv._weak_form(grid, u - h * d, f_eps, g_eps, np.empty_like(grad))[0]
    assert (e_plus - e_minus) / (2 * h) == pytest.approx(float(np.sum(grad * d[INTERIOR])), rel=1e-6)


@pytest.mark.parametrize("nodes, bound", [(33, 4.2), (65, 0.6)])
@pytest.mark.parametrize("label", ["power:p=3", "loglin:alpha=1,beta=1,a=2.718281828"])
def test_energy_evaluation_allocates_no_full_grid_temporaries(label, nodes, bound):
    # peak allocation of one evaluation into the given gradient, in node arrays, for both laws:
    # 3.65 at 33^3 (two slabs of 16 planes) and 0.48 at 65^3 (slabs of 4 planes).  With a
    # full-grid nodal output it was 4.53 and 1.47; with full-grid temporaries, at 33^3, 9.8
    # (power) and 18.5 (loglin)
    grid = Grid.from_box([(-1, 1)] * 3, nodes)
    tr = triple_for(label)
    f_eps, g_eps = regularized_weight(tr, 1e-4), regularized_energy_density(tr, 1e-4)
    u = grid.coord(0) * grid.coord(2) + 0.5 * grid.coord(1) * np.ones(grid.shape)
    grad = np.empty_like(u[INTERIOR])
    sv._weak_form(grid, u, f_eps, g_eps, grad)  # builds the lazy G/H tables
    tracemalloc.start()
    try:
        sv._weak_form(grid, u, f_eps, g_eps, grad)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound * u.nbytes, peak / u.nbytes


@pytest.mark.parametrize("label", CATALOG_LABELS)
def test_weak_form_evaluates_the_law_once_per_cell(label):
    # the weight's g(r + eps) is the only evaluation of the law: the density reads G_eps off
    # the weight (closed-form laws) or off its table (loglin, sinlog), and no closed G or H runs;
    # the weight runs on every stored cell, the padding cell after each row's 32 cells included
    grid = Grid.from_box([(-0.3, 1.7), (-1, 1), (-0.5, 0.5)], (21, 33, 33))
    assert 20 % sv._slab_planes(grid) != 0
    g = triple_for(label).g
    points = {"eval": 0, "closed_G": 0, "closed_H": 0}

    def counting(name):
        inner = getattr(g, name)

        def counted(t, *args):
            points[name] += int(np.size(t))
            return inner(t, *args)
        return counted

    counted = OrliczTriple(dataclasses.replace(g, **{name: counting(name) for name in points
                                                   if getattr(g, name) is not None}))
    f_eps, g_eps = regularized_weight(counted, 1e-4), regularized_energy_density(counted, 1e-4)
    u = grid.coord(0) * grid.coord(2) + 0.5 * grid.coord(1) * np.ones(grid.shape)
    points.update(dict.fromkeys(points, 0))
    sv._weak_form(grid, u, f_eps, g_eps, np.empty_like(u[INTERIOR]))
    assert points == {"eval": 20 * 32 * 33, "closed_G": 0, "closed_H": 0}


def test_weak_form_calls_the_module_kernels_once_per_slab(monkeypatch):
    # the slab loop looks both kernels up on the module, where a tracer's patch replaces them
    grid = Grid.from_box([(-0.3, 1.7), (-1, 1), (-0.5, 0.5)], (21, 33, 33))
    firsts = list(range(0, 20, sv._slab_planes(grid)))  # each slab's first cell plane
    assert len(firsts) > 1
    calls = {"cell_gradient": [], "cell_gradient_adjoint": []}
    for name, calls_of in calls.items():
        kernel = getattr(sv, name)

        def counted(grid, fields, first, kernel=kernel, calls_of=calls_of):
            calls_of.append(first)
            return kernel(grid, fields, first)
        monkeypatch.setattr(sv, name, counted)
    u = grid.coord(0) * grid.coord(2) + 0.5 * grid.coord(1) * np.ones(grid.shape)
    sv._weak_form(grid, u, np.ones_like, lambda r, w, top: 0.5 * r * r, np.empty_like(u[INTERIOR]))
    assert calls == {"cell_gradient": firsts, "cell_gradient_adjoint": firsts}


def _two_loop_against_dense_bfgs(rng, pairs, metric):
    """The in-place two-loop recursion H grad against the dense update H of gamma M."""
    n = 20
    m = rng.normal(size=(n, n))
    hess = m @ m.T / n + np.eye(n)
    steps = [rng.normal(size=n) for _ in range(pairs)]
    ys = [hess @ s for s in steps]
    memory = deque(((s, y, 1.0 / float(s @ y), float(y @ (metric * y))) for s, y in zip(steps, ys)), maxlen=3)
    grad = 3.0 * rng.normal(size=n)
    res = float(np.max(np.abs(grad)))
    y = memory[-1][1] if pairs else None
    gamma = float(steps[-1] @ y) / float(y @ (metric * y)) if pairs else 1.0 / res
    ref = bfgs_inverse_hessian([(s, y) for s, y, *_ in memory], gamma * metric, n) @ grad
    before = grad.copy()
    q = np.empty(n)
    hg = sv._lbfgs_direction(grad, memory, res, q, metric)
    assert hg is q and np.array_equal(grad, before)
    assert float(np.max(np.abs(hg - ref))) <= 1e-12 * float(np.max(np.abs(ref)))


@pytest.mark.parametrize("pairs", [0, 1, 2, 3])
def test_lbfgs_direction_matches_dense_bfgs(rng, pairs):
    # the metric = ones case, the unscaled H_0 = gamma I
    _two_loop_against_dense_bfgs(rng, pairs, np.ones(20))


@pytest.mark.parametrize("pairs", [0, 1, 2, 3])
def test_lbfgs_direction_with_diagonal_metric_matches_dense_bfgs(rng, pairs):
    # a metric spanning six orders of magnitude, like F_eps sums near degenerate points
    _two_loop_against_dense_bfgs(rng, pairs, np.exp(rng.uniform(-7, 7, size=20)))


def test_lbfgs_direction_works_in_one_block(rng):
    # at a 63^3 interior with three pairs the two-loop allocates its one work block (32,768 entries,
    # an eighth of a vector), and its blockwise updates give the whole-vector recursion bit for bit
    n = 63 ** 3
    assert n > 4 * sv._BLOCK
    pairs = [(rng.normal(size=n), rng.normal(size=n)) for _ in range(3)]
    metric = np.exp(rng.uniform(-3, 3, size=n))
    memory = deque(((s, y, 1.0 / abs(sv._dot(s, y)), sv._dot(y, metric * y)) for s, y in pairs), maxlen=3)
    grad, q = rng.normal(size=n), np.empty(n)
    res = sv._max_abs(grad)
    for stored in (deque(maxlen=3), memory):
        tracemalloc.start()
        try:
            hg = sv._lbfgs_direction(grad, stored, res, q, metric)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.25 * grad.nbytes, peak / grad.nbytes
        assert np.array_equal(hg, whole_vector_lbfgs_direction(grad, stored, res, metric))


def test_solve_evaluates_on_two_node_arrays(monkeypatch):
    # the iterate and each trial live in one of two node arrays, which an accepted trial swaps, and
    # the solution is the accepted one, returned without a copy
    prob, start = _warm_start("power:p=3")
    weak_form, arrays = sv._weak_form, []

    def recorded(grid, values, *args):
        arrays.append(values)
        return weak_form(grid, values, *args)

    monkeypatch.setattr(sv, "_weak_form", recorded)
    sol, rep = sv.solve_dirichlet(prob, init=start)
    distinct = {id(a): a for a in arrays}
    assert rep.converged and rep.iterations > 3 and len(arrays) == rep.evaluations
    assert len(distinct) == 2 and any(sol is a for a in distinct.values())


def test_weight_sums_are_the_cell_sums_at_every_node(rng):
    # the slab loop adds each node's F_eps over its 8 cells; here against the 8 corner shifts
    # of the whole-grid cell weights, with a partial slab after the full ones
    grid = Grid.from_box([(-0.3, 1.7), (-1, 1), (-0.5, 0.5)], (21, 33, 33))
    assert 20 % sv._slab_planes(grid) != 0
    tr = triple_for("power:p=3")
    f_eps = regularized_weight(tr, 1e-4)
    u = rng.normal(size=grid.shape)
    sums = np.zeros(grid.shape)
    sv._weak_form(grid, u, f_eps, regularized_energy_density(tr, 1e-4), np.empty_like(u[INTERIOR]), sums)
    cells = f_eps(np.sqrt(np.sum(sv.cell_gradient(grid, u)[..., :-1] ** 2, axis=0)))
    want = np.zeros(grid.shape)
    for corner in np.ndindex(2, 2, 2):
        want[tuple(slice(c, c + n) for c, n in zip(corner, cells.shape))] += cells
    assert np.max(np.abs(sums - want)) <= 1e-12 * np.max(want)


def _warm_start(label, residual_tol=None):
    """A 17^3 problem and the prolonged 9^3 solution of the same data, its array start."""
    expr = lambda a, b, c: np.sin(2 * a) * b + 0.4 * c  # noqa: E731
    coarse = make_problem(Grid.from_box([(-1, 1)] * 3, 9), label, expr, residual_tol=residual_tol)
    sol, rep = sv.solve_dirichlet(coarse)
    assert rep.converged
    return make_problem(coarse.grid.refined(), label, expr, residual_tol=residual_tol), refine_values(sol)


def test_quadratic_law_metric_is_exactly_one(monkeypatch):
    # F_eps = 1 for p = 2, so every interior node sums 8 ones and the normalized D^-1 is 1
    prob, start = _warm_start("power:p=2")
    direction, metrics = sv._lbfgs_direction, []

    def recorded(grad, memory, res, q, metric):
        metrics.append(metric)
        return direction(grad, memory, res, q, metric)

    monkeypatch.setattr(sv, "_lbfgs_direction", recorded)
    _, rep = sv.solve_dirichlet(prob, init=start)
    assert rep.converged and len(metrics) == rep.iterations
    assert metrics[0].shape == (prob.boundary[INTERIOR].size,) and np.all(metrics[0] == 1.0)
    assert all(metric is metrics[0] for metric in metrics)


def test_cold_start_is_the_boundary_field(rng, grid9):
    # 8 cells per axis are not halved, so the cold start is the boundary field, interior included;
    # an array start's values off the interior are replaced by the data
    prob = make_problem(grid9, "power:p=3", lambda a, b, c: np.sin(2 * a) * b + 0.4 * c)
    start = rng.normal(size=grid9.shape)
    start[INTERIOR] = prob.boundary[INTERIOR]
    sol_cold, rep_cold = sv.solve_dirichlet(prob, init=None)
    sol_array, rep_array = sv.solve_dirichlet(prob, init=start)
    assert rep_array == rep_cold and np.array_equal(sol_array, sol_cold)


def test_flat_start_keeps_the_f_eps_zero_metric():
    # the precondition on a start: a zero interior builds D from F_eps(0) at every inner node and
    # from the data only in the boundary layer; the solve still converges, tens of times slower
    prob = _readme_problem(9)
    cold, rep_cold = sv.solve_dirichlet(prob)
    flat, rep_flat = sv.solve_dirichlet(prob, init=np.zeros(prob.grid.shape))
    assert rep_cold.converged and rep_flat.converged
    assert rep_flat.iterations > 20 * rep_cold.iterations
    assert np.max(np.abs(flat - cold)) <= 1e-6


def _readme_problem(shape, label="power:p=3", **kw):
    grid = Grid.from_box([(-1, 1)] * 3, shape)
    return sv.DirichletProblem(grid=grid, triple=triple_for(label),
                               boundary=boundary_field("poly2:x1=0.5,x1t=0.4,x2=0.2", grid), **kw)


def test_cold_solve_is_the_nested_ladder():
    # 32 cells per axis: solve_ladder halves a 33^3 problem, so solving it alone is the ladder
    # 17^3 -> 33^3, whose 17^3 data are the 33^3 data at every other node; with one iteration
    # neither level converges, and the 33^3 level still starts from the prolonged 17^3 level
    for max_iters, stop in ((100_000, "tol"), (1, "max_iters")):
        probs = [_readme_problem(res, max_iters=max_iters) for res in (17, 33)]
        (sol17, rep17), (ladder, rep_ladder) = sv.solve_ladder(probs)
        (cold, rep_cold), = sv.solve_ladder([probs[1]])
        assert np.array_equal(cold, ladder) and rep_ladder.stop_reason == stop
        assert (rep_cold.final_energy, rep_cold.iterations) == (rep_ladder.final_energy, rep_ladder.iterations)
        assert rep_cold.start_levels == [{"shape": [17, 17, 17], "iterations": rep17.iterations,
                                          "evaluations": rep17.evaluations, "stop_reason": stop}]
        assert rep17.start_levels == [] and rep_ladder.start_levels == []
    prolonged, _ = sv.solve_dirichlet(probs[1], init=refine_values(sol17))
    assert np.array_equal(ladder, prolonged)


def test_short_axis_starts_from_the_boundary_field():
    # 20 cells along x_1 are fewer than 32, so the grid is not halved and the start is the data
    prob = _readme_problem([21, 33, 33])
    (cold, rep_cold), = sv.solve_ladder([prob])
    data, rep_data = sv.solve_dirichlet(prob, init=prob.boundary)
    assert rep_cold.start_levels == [] and rep_cold == rep_data
    assert np.array_equal(cold, data)


def test_solve_dirichlet_solves_one_level(monkeypatch):
    # solve_ladder alone nests: each level is one call of the module-level solve_dirichlet, and
    # a solve_dirichlet without a start array solves its own grid from the boundary field
    solve, shapes = sv.solve_dirichlet, []

    def counted(prob, init=None):
        shapes.append(prob.grid.shape[0])
        return solve(prob, init=init)

    prob = _readme_problem(33, max_iters=1)
    monkeypatch.setattr(sv, "solve_dirichlet", counted)
    assert sv.solve_ladder([]) == [] and shapes == []
    sv.solve_ladder([prob])
    assert shapes == [17, 33]
    monkeypatch.setattr(sv, "solve_ladder", None)  # a call back into the ladder would raise
    cold, rep_cold = sv.solve_dirichlet(prob)
    data, rep_data = solve(prob, init=prob.boundary)
    assert shapes == [17, 33, 33] and rep_cold.start_levels == [] and rep_cold == rep_data
    assert np.array_equal(cold, data)


def test_warm_metric_solve_matches_cold_solve():
    prob, start = _warm_start("power:p=4", residual_tol=1e-11)
    cold, rep_cold = sv.solve_dirichlet(prob)
    warm, rep_warm = sv.solve_dirichlet(prob, init=start)
    assert rep_cold.converged and rep_warm.converged
    assert np.max(np.abs(warm - cold)) <= 1e-8


def test_non_descent_direction_restarts(monkeypatch):
    # one uphill direction after pairs exist: the solve clears its pairs, restarts from the
    # scaled steepest descent and reaches the solution of the unforced solve
    prob, start = _warm_start("power:p=3", residual_tol=1e-11)
    plain, rep_plain = sv.solve_dirichlet(prob, init=start)
    direction, forced = sv._lbfgs_direction, []

    def uphill_once(grad, memory, res, q, metric):
        if memory and not forced:
            forced.append(True)
            return np.negative(grad)  # the solve steps along minus the returned vector
        return direction(grad, memory, res, q, metric)

    monkeypatch.setattr(sv, "_lbfgs_direction", uphill_once)
    sol, rep = sv.solve_dirichlet(prob, init=start)
    assert forced and rep_plain.restarts == 0 and rep.restarts == 1 and rep.converged
    assert np.max(np.abs(sol - plain)) <= 1e-8


def test_solve_report_counts_evaluations(monkeypatch, grid9):
    calls = []
    weak_form = sv._weak_form

    def counted(*args):
        calls.append(args)
        return weak_form(*args)

    monkeypatch.setattr(sv, "_weak_form", counted)
    prob = make_problem(grid9, "power:p=3", lambda a, b, c: np.sin(2 * a) * b + 0.4 * c)
    _, rep = sv.solve_dirichlet(prob)
    assert rep.converged and rep.restarts == 0
    assert rep.evaluations == len(calls) >= rep.iterations + 1


def test_solve_report_counts_rejected_pairs_and_tol(monkeypatch, grid9):
    # positive inner products read as 0: <s, y> rejects every curvature pair, so each iteration
    # counts one rejection, and <g, Hg> makes every direction restart as the scaled steepest descent
    prob = make_problem(grid9, "power:p=3", lambda a, b, c: np.sin(2 * a) * b + 0.4 * c, max_iters=5)
    _, plain = sv.solve_dirichlet(prob)
    dot = sv._dot
    monkeypatch.setattr(sv, "_dot", lambda a, b: min(dot(a, b), 0.0))
    _, rep = sv.solve_dirichlet(prob)
    assert plain.rejected_pairs == plain.restarts == 0
    assert rep.stop_reason == "max_iters" and rep.iterations == rep.rejected_pairs == rep.restarts == 5
    assert rep.tol == plain.tol == 1e-8 * (1.0 + rep.residual_history[0])


def _assert_matches_allocating_loop(prob, init=None):
    sol, rep = sv.solve_dirichlet(prob, init=init)
    ref_sol, ref = allocating_lbfgs_solve(prob, init)
    assert np.array_equal(sol, ref_sol)
    for key, value in ref.items():
        assert getattr(rep, key) == value, key
    return rep


@pytest.mark.parametrize("label", ["power:p=3", "loglin", "power:p=1.5"])
def test_rotating_buffers_match_an_allocating_loop_bit_for_bit(label):
    # past three iterations every accepted pair drops the oldest, whose vectors the next trial reuses
    prob, start = _warm_start(label)
    rep = _assert_matches_allocating_loop(prob, start)
    assert rep.converged and rep.iterations > 3


def test_rotating_buffers_through_restarts_and_rejected_pairs(monkeypatch, grid9):
    # every 13th inner product reads as 0: some directions turn non-descent (a restart hands every
    # stored pair back to the spares) and some pairs are rejected (their vectors become spares, and
    # two pairs stay stored); over 40 iterations that is 4 restarts and 4 rejected pairs
    prob = make_problem(grid9, "power:p=3", lambda a, b, c: np.sin(2 * a) * b + 0.4 * c, max_iters=40)
    dot = sv._dot

    def zeroed(counter):
        def patched(a, b):
            counter.append(None)
            return 0.0 if len(counter) % 13 == 0 else dot(a, b)
        return patched

    reports = []
    for run in (sv.solve_dirichlet, allocating_lbfgs_solve):
        monkeypatch.setattr(sv, "_dot", zeroed([]))
        reports.append(run(prob))
    (sol, rep), (ref_sol, ref) = reports
    assert np.array_equal(sol, ref_sol)
    assert all(getattr(rep, key) == value for key, value in ref.items())
    assert rep.restarts > 0 and rep.rejected_pairs > 0


def test_solve_memory_is_its_rotating_buffers():
    # a 33^3 solve from the prolonged 17^3 solution holds two node arrays (the iterate's and the
    # trial's), nine interior vectors (gradient, direction, metric, the trial's gradient, the next s
    # and two stored pairs during the line search) and one evaluation's slabs, which add into the
    # gradient vector: 13.20 full-grid arrays measured at 10 iterations, 13.21 at 60 (14.69 with one
    # node array and twelve vectors).  The allocating loop peaks at 15.86: it holds the start, and
    # fresh trial iterates and gradients beside the stored pairs
    expr = lambda a, b, c: 0.5 * a + 0.2 * b + 0.4 * a * c  # noqa: E731  (the README data)
    coarse = make_problem(Grid.from_box([(-1, 1)] * 3, 17), "power:p=3", expr)
    (sol17, _), = sv.solve_ladder([coarse])
    peaks = {}
    for max_iters, run in ((10, sv.solve_dirichlet), (60, sv.solve_dirichlet), (60, allocating_lbfgs_solve)):
        prob = make_problem(coarse.grid.refined(), "power:p=3", expr, max_iters=max_iters)
        tracemalloc.start()
        try:
            run(prob, refine_values(sol17))
            peaks[max_iters, run] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    grid_bytes, vector_bytes = 33 ** 3 * 8, 31 ** 3 * 8
    short, long, allocating = peaks.values()
    assert short < 1.15 * 13.20 * grid_bytes, short / grid_bytes
    assert long <= short + 0.05 * grid_bytes, (short / grid_bytes, long / grid_bytes)  # the histories' floats
    assert long < allocating - 2 * vector_bytes, (long / grid_bytes, allocating / grid_bytes)


@pytest.mark.parametrize("label", ["power:p=3", "loglin"])
def test_weak_residual_is_the_solver_residual(grid9, label):
    prob = make_problem(grid9, label, lambda a, b, c: np.sin(2 * a) * b + 0.4 * c)
    sol, rep = sv.solve_dirichlet(prob)
    assert rep.converged
    assert energy_and_residual(prob, sol) == (rep.final_energy, rep.weak_residual)


def test_regularization_consistency(grid9):
    # solutions for eps and eps/2 drift less as eps shrinks (Cauchy trend)
    sols = {}
    for eps in (0.04, 0.02, 0.01, 0.005):
        prob = make_problem(grid9, "power:p=1.5", lambda a, b, c: a * b + 0.2 * c,
                            eps=eps, residual_tol=1e-11)
        sols[eps], _ = sv.solve_dirichlet(prob)
    d1 = np.max(np.abs(sols[0.04] - sols[0.02]))
    d2 = np.max(np.abs(sols[0.02] - sols[0.01]))
    d3 = np.max(np.abs(sols[0.01] - sols[0.005]))
    assert d2 <= d1 and d3 <= d2


@pytest.mark.parametrize("p", [3.0, 1.5])
def test_error_against_gauge_fundamental_solution(p):
    # p-harmonic off the origin; the box keeps |x| >= 1/4, so for p = 1.5 max |u| = 4^5
    problems = []
    for res in (9, 17, 33):
        grid = Grid.from_box([(0.25, 1.25), (-0.5, 0.5), (-0.5, 0.5)], res)
        exact = gauge_fundamental_solution(p, grid.coord(0), grid.coord(1), grid.coord(2))
        problems.append(sv.DirichletProblem(grid=grid, triple=triple_for(f"power:p={p:g}"),
                                            boundary=exact * np.ones(grid.shape), eps=1e-6))
    solves = sv.solve_ladder(problems)
    assert all(rep.converged for _, rep in solves)
    errors = [math.sqrt(float(np.mean((sol - prob.boundary)[INTERIOR] ** 2)))
              for prob, (sol, _) in zip(problems, solves)]
    # measured rms: p = 3: 4.2e-2, 1.6e-2, 5.0e-3; p = 1.5: 12.5, 5.1, 1.4
    assert all(coarse >= 2.0 * fine for coarse, fine in zip(errors, errors[1:])), errors


# ---------------------------------------------------------------- comparison

def test_comparison_identical_data(grid9):
    pu = make_problem(grid9, "power:p=2", lambda a, b, c: a * b, residual_tol=1e-11)
    pv = make_problem(grid9, "power:p=2", lambda a, b, c: a * b, residual_tol=1e-11)
    assert abs(comparison_gap(pu, pv)) <= 1e-9


def test_comparison_constant_shift(grid9):
    pu = make_problem(grid9, "power:p=3", lambda a, b, c: a * b + 1.0, residual_tol=1e-11)
    pv = make_problem(grid9, "power:p=3", lambda a, b, c: a * b, residual_tol=1e-11)
    assert comparison_gap(pu, pv) == pytest.approx(1.0, abs=1e-8)


def test_comparison_ordered_smooth_pair(grid9):
    pu = make_problem(grid9, "power:p=3",
                      lambda a, b, c: 0.4 * a + 0.1 * (2 + np.sin(a) * np.cos(b)))
    pv = make_problem(grid9, "power:p=3", lambda a, b, c: 0.4 * a)
    assert comparison_gap(pu, pv) >= -1e-8



# ---------------------------------------------------------------- barriers

def test_barrier_t_free_has_constant_gradient(grid9):
    L = boundary_field("affine:c0=0.3,x1=0.5,x2=0.5", grid9)
    xc = sv.cell_gradient(grid9, L)[..., :-1]
    assert np.max(np.abs(xc[0] - xc[0].flat[0])) <= 1e-13
    assert np.max(np.abs(xc[1] - xc[1].flat[0])) <= 1e-13


def test_barrier_hessian_skew(grid17):
    from solab.grid import horizontal_gradient, horizontal_hessian
    c = 0.8
    L = boundary_field(f"affine:x1=0.4,x2=0.1,t={c}", grid17)
    hess = horizontal_hessian(grid17, horizontal_gradient(grid17, L))
    sym = 0.5 * (hess + np.swapaxes(hess, 0, 1))
    assert np.max(np.abs(sym)) <= 1e-9
    assert np.max(np.abs(hess[0, 1] + c / 2)) <= 1e-9  # off-diagonal is +-(t coeff)/2


def test_barrier_residual_study_exact_when_t_free(grid9):
    L = boundary_field("affine:c0=0.1,x1=0.5,x2=-0.2", grid9)
    residuals = barrier_residuals(grid9, L, triple_for("power:p=2"), 2)
    assert all(r <= 1e-10 for r in residuals)


@pytest.mark.parametrize("label,vec", [("power:p=2", [1.0, 0.0, 1.0]),
                                       ("power:p=4", [0.0, 2.0, 1.0])])
def test_barrier_residual_exact_for_power_laws(label, vec, grid9):
    # the cell scheme reproduces affine barriers exactly when A(XL) is
    # polynomial in the coordinates: the residual sits at the round-off floor
    x1, x2, t = vec
    L = boundary_field(f"affine:x1={x1},x2={x2},t={t}", grid9)
    res = barrier_residuals(grid9, L, triple_for(label), 2)
    assert all(r <= 1e-12 for r in res)


@pytest.mark.parametrize("label", ["loglin:alpha=1,beta=1,a=2.718281828", "sinlog:a=2.5,b=1"])
def test_barrier_residual_order_transcendental(label, grid9):
    # with transcendental growth the truncation error is real and must
    # decrease with order >= 1 per halving
    L = boundary_field("affine:x1=1,t=1", grid9)
    res = barrier_residuals(grid9, L, triple_for(label), 2)
    assert all(r > 0 for r in res)
    for a, b in zip(res, res[1:]):
        assert a / b >= 2.0

