import numpy as np
import pytest

import solab.solver as sv
import solab.verify as vf
from conftest import bumped_start, field_from, triple_for
from solab.grid import Grid, ScalarField, make_cutoff, td_bound_margin


@pytest.fixture(scope="module")
def tdep_solution():
    """p=2 solution with genuine t-dependence on a 17^3 grid."""
    g = Grid.from_box(1, [(-1, 1)] * 3, 17)
    tr = triple_for("power:p=2")
    bc = field_from(g, lambda a, b, c: 0.5 * a + 0.4 * c * a + 0.2 * b)
    prob = sv.DirichletProblem(grid=g, triple=tr, boundary=bc, residual_tol=1e-10)
    sol, rep = sv.solve_dirichlet(prob)
    assert rep.converged
    eta = make_cutoff(g, [0, 0, 0], 0.25, 0.65)
    return sol, tr, eta, prob


@pytest.fixture(scope="module")
def affine_solution():
    g = Grid.from_box(1, [(-1, 1)] * 3, 17)
    tr = triple_for("power:p=2")
    bc = field_from(g, lambda a, b, c: 0.6 * a - 0.25 * b + 0.1)
    prob = sv.DirichletProblem(grid=g, triple=tr, boundary=bc, residual_tol=1e-12)
    sol, rep = sv.solve_dirichlet(prob, init=bumped_start(bc))
    assert rep.converged and rep.iterations > 0
    eta = make_cutoff(g, [0, 0, 0], 0.25, 0.65)
    return sol, tr, eta


# ---------------------------------------------------------------- schedule

def test_moser_schedule_arithmetic():
    # H^1 has Q = 4, so kappa = 2: gamma_i = 3 * 2^i - 2 and r_i = sigma r + (1 - sigma) r / 2^i
    g = Grid.from_box(1, [(-1, 1)] * 3, 17)
    tr = triple_for("power:p=2")
    u = field_from(g, lambda a, b, c: 0.8 * a)
    rows = vf.moser_trace(vf.solution_fields(u, tr), [0, 0, 0], 0.8, 0.5, levels=4)["levels"]
    assert [row["gamma"] for row in rows] == [1.0, 4.0, 10.0, 22.0]
    assert [row["exponent"] for row in rows] == [3.0, 6.0, 12.0, 24.0]
    assert [row["radius"] for row in rows] == pytest.approx([0.8, 0.6, 0.5, 0.45], rel=1e-15)


# ---------------------------------------------------------------- ratio

def test_lipschitz_ratio_affine(affine_solution):
    sol, tr, _ = affine_solution
    ratio = vf.lipschitz_ratio(vf.solution_fields(sol, tr), [0, 0, 0], 0.8, 0.5)
    assert ratio == pytest.approx(0.5 ** 4, abs=1e-9)


def test_lipschitz_ratio_shift_invariant(tdep_solution):
    sol, tr, _, prob = tdep_solution
    shifted = ScalarField(sol.grid, sol.values + 3.7)
    r1 = vf.lipschitz_ratio(vf.solution_fields(sol, tr), [0, 0, 0], 0.8, 0.5)
    r2 = vf.lipschitz_ratio(vf.solution_fields(shifted, tr), [0, 0, 0], 0.8, 0.5)
    assert r1 == pytest.approx(r2, rel=1e-12)


def test_lipschitz_ratio_validation(tdep_solution):
    sol, tr, _, _ = tdep_solution
    sf = vf.solution_fields(sol, tr)
    with pytest.raises(ValueError):
        vf.lipschitz_ratio(sf, [0, 0, 0], 0.8, 1.0)
    with pytest.raises(ValueError):
        vf.lipschitz_ratio(sf, [0, 0, 0], 5.0, 0.5)


# ---------------------------------------------------------------- audits

def test_audits_finite_on_tdep_solution(tdep_solution):
    sol, tr, eta, prob = tdep_solution
    sf = vf.solution_fields(sol, tr)
    for fn, kw in [(vf.caccioppoli_T_audit, {"gamma": 0.0}),
                   (vf.caccioppoli_X_audit, {"gamma": 0.0}),
                   (vf.caccioppoli_X_audit, {"gamma": 1.0}),
                   (vf.reverse_audit, {"gamma": 1.0, "omega": 1.0}),
                   (vf.horizontal_estimate_audit, {"gamma": 1.0}),
                   (vf.vertical_estimate_audit, {"gamma": 1.0})]:
        rep = fn(sf, eta, **kw)
        assert rep.passed
        assert np.isfinite(rep.fitted_constant)
        assert rep.lhs >= 0 and rep.rhs >= 0


def test_t_audits_degenerate_on_t_independent():
    g = Grid.from_box(1, [(-1, 1)] * 3, 17)
    tr = triple_for("power:p=2")
    bc = field_from(g, lambda a, b, c: a * b + 0.3 * a)
    prob = sv.DirichletProblem(grid=g, triple=tr, boundary=bc, residual_tol=1e-11)
    sol, rep = sv.solve_dirichlet(prob, init=bumped_start(bc))
    assert rep.iterations > 0
    eta = make_cutoff(g, [0, 0, 0], 0.25, 0.65)
    sf = vf.solution_fields(sol, tr)
    rT = vf.caccioppoli_T_audit(sf, eta, 0.0)
    rV = vf.vertical_estimate_audit(sf, eta, 1.0)
    rR = vf.reverse_audit(sf, eta, 1.0, 1.0)
    for r in (rT, rV, rR):
        assert r.lhs <= 1e-12 * (1.0 + r.rhs)
        assert r.passed


def test_x_audits_degenerate_on_affine(affine_solution):
    sol, tr, eta = affine_solution
    sf = vf.solution_fields(sol, tr)
    rX = vf.caccioppoli_X_audit(sf, eta, 0.0)
    rH = vf.horizontal_estimate_audit(sf, eta, 1.0)
    for r in (rX, rH):
        assert r.lhs <= 1e-12 * (1.0 + r.rhs)
        assert r.passed


def test_fitted_constants_shift_invariant(tdep_solution):
    sol, tr, eta, _ = tdep_solution
    shifted = ScalarField(sol.grid, sol.values - 1.3)
    a = vf.caccioppoli_X_audit(vf.solution_fields(sol, tr), eta, 1.0)
    b = vf.caccioppoli_X_audit(vf.solution_fields(shifted, tr), eta, 1.0)
    assert a.fitted_constant == pytest.approx(b.fitted_constant, rel=1e-12)


def test_audit_parameter_validation(tdep_solution):
    sol, tr, eta, _ = tdep_solution
    sf = vf.solution_fields(sol, tr)
    with pytest.raises(ValueError):
        vf.caccioppoli_T_audit(sf, eta, -1.0)
    with pytest.raises(ValueError):
        vf.reverse_audit(sf, eta, 0.5, 1.0)
    with pytest.raises(ValueError):
        vf.reverse_audit(sf, eta, 1.0, 0.5)
    with pytest.raises(ValueError):
        vf.horizontal_estimate_audit(sf, eta, 0.0)


def test_reverse_omega_trend(tdep_solution):
    # doubling omega must halve (or better) the lhs/rhs ratio for gamma = 1
    sol, tr, eta, _ = tdep_solution
    sf = vf.solution_fields(sol, tr)
    r1 = vf.reverse_audit(sf, eta, 1.0, 1.0)
    r2 = vf.reverse_audit(sf, eta, 1.0, 2.0)
    assert r2.fitted_constant <= r1.fitted_constant / 2.0 * (1 + 1e-9)


def test_vertical_cross_check_td_bound(tdep_solution):
    sol, _, _, _ = tdep_solution
    h = float(np.max(sol.grid.spacing))
    assert td_bound_margin(sol) >= -25 * h


# ---------------------------------------------------------------- refinement logic

def test_stability_pass_bands():
    assert vf.stability_pass([1.0, 1.5, 1.1])
    assert not vf.stability_pass([1.0, 2.5])
    assert not vf.stability_pass([1.0, float("inf")])
    assert vf.stability_pass([0.0, 0.0])


def test_attach_refinement_negligible_levels():
    reports = [vf.AuditReport(name="x", lhs=1e-15, rhs=1.0, fitted_constant=1e-15,
                              gamma=1.0, passed=True),
               vf.AuditReport(name="x", lhs=1e-16, rhs=1.0, fitted_constant=1e-16,
                              gamma=1.0, passed=True)]
    combined = vf.attach_refinement(reports)
    assert combined.passed and combined.degenerate
    assert combined.refinement_history == [1e-15, 1e-16]


def test_attach_refinement_band_failure():
    reports = [vf.AuditReport(name="x", lhs=1.0, rhs=1.0, fitted_constant=1.0,
                              gamma=1.0, passed=True),
               vf.AuditReport(name="x", lhs=3.0, rhs=1.0, fitted_constant=3.0,
                              gamma=1.0, passed=True)]
    assert not vf.attach_refinement(reports).passed


def test_audit_stability_under_refinement(tdep_solution):
    sol, tr, eta17, prob = tdep_solution
    g33 = Grid.from_box(1, [(-1, 1)] * 3, 33)
    bc = field_from(g33, lambda a, b, c: 0.5 * a + 0.4 * c * a + 0.2 * b)
    prob33 = sv.DirichletProblem(grid=g33, triple=tr, boundary=bc)
    sol33 = sv.solve_ladder([prob, prob33])[1][0]
    eta33 = make_cutoff(g33, [0, 0, 0], 0.25, 0.65)
    sf17, sf33 = vf.solution_fields(sol, tr), vf.solution_fields(sol33, tr)
    for fn, kw in [(vf.caccioppoli_T_audit, {"gamma": 0.0}),
                   (vf.caccioppoli_X_audit, {"gamma": 1.0}),
                   (vf.horizontal_estimate_audit, {"gamma": 1.0})]:
        seq = [fn(sf17, eta17, **kw), fn(sf33, eta33, **kw)]
        assert vf.attach_refinement(seq).passed


# ---------------------------------------------------------------- moser trace

def test_moser_trace_constant_field():
    g = Grid.from_box(1, [(-1, 1)] * 3, 17)
    tr = triple_for("power:p=2")
    u = field_from(g, lambda a, b, c: 0.8 * a)  # |Xu| = 0.8 everywhere
    trace = vf.moser_trace(vf.solution_fields(u, tr), [0, 0, 0], 0.8, 0.5, levels=4)
    expected = float(tr.G(0.8))
    for row in trace["levels"]:
        assert row["norm"] == pytest.approx(expected, rel=1e-9)
        assert row["inner_norm"] == pytest.approx(expected, rel=1e-9)
    assert trace["inner_sup"] == pytest.approx(expected, rel=1e-12)


def test_moser_trace_monotone_and_converges(tdep_solution):
    sol, tr, _, _ = tdep_solution
    trace = vf.moser_trace(vf.solution_fields(sol, tr), [0, 0, 0], 0.8, 0.5, levels=8)
    inner = [row["inner_norm"] for row in trace["levels"]]
    assert all(a <= b * (1 + 1e-9) for a, b in zip(inner, inner[1:]))
    assert abs(inner[-1] - trace["inner_sup"]) <= 0.05 * trace["inner_sup"]
    # exponents follow the kappa ladder
    gammas = [row["gamma"] for row in trace["levels"]]
    assert gammas[:3] == [1.0, 4.0, 10.0]


def test_moser_trace_validation(tdep_solution):
    sol, tr, _, _ = tdep_solution
    sf = vf.solution_fields(sol, tr)
    with pytest.raises(ValueError):
        vf.moser_trace(sf, [0, 0, 0], 0.8, 0.5, levels=1)
    with pytest.raises(ValueError):
        vf.moser_trace(sf, [0, 0, 0], 0.8, 1.0, levels=3)
    with pytest.raises(ValueError):
        vf.moser_trace(sf, [0, 0, 0], 3.0, 0.5, levels=3)
    # B_r outside the grid is rejected even where G(|Xu|) = 0 on every ball
    flat = vf.solution_fields(ScalarField(sol.grid, np.zeros(sol.grid.shape)), tr)
    with pytest.raises(ValueError):
        vf.moser_trace(flat, [0, 0, 0], 3.0, 0.5, levels=3)


# ---------------------------------------------------------------- weight fallback

def test_singular_weight_falls_back_to_regularized():
    g = Grid.from_box(1, [(-1, 1)] * 3, 17)
    tr = triple_for("power:p=1.5")
    # |Xu| > 0 at every node keeps the raw F; Xu = 0 somewhere, where F is singular, falls back
    for data, kind in ((lambda a, b, c: 0.4 * a + 0.3 * c * a, "F"), (lambda a, b, c: 0.0 * a, "F_eps")):
        prob = sv.DirichletProblem(grid=g, triple=tr, boundary=field_from(g, data))
        sol, rep = sv.solve_dirichlet(prob)
        sf = vf.solution_fields(sol, tr, eps=prob.eps)
        assert sf.weight_kind == kind
        assert np.all(np.isfinite(sf.f_xu))
