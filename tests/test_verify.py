import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

import solab.solver as sv
import solab.verify as vf
from conftest import bumped_start, commutator_and_td_margin, embed, field_from, triple_for
from oracles import cutoff_cost, gauge_ball_quadrature, gauge_cutoff, manufactured_fields
from solab.grid import Grid, GaugeBall, ball_average, horizontal_norm, make_cutoff
from solab.problems import boundary_field

EPS = 1e-4  # DirichletProblem's default eps


def fields_of(grid, u, label="power:p=2"):
    return vf.solution_fields(grid, u, triple_for(label), EPS)


@pytest.fixture(scope="module")
def tdep_solution():
    """p=2 solution with genuine t-dependence on a 17^3 grid."""
    g = Grid.from_box([(-1, 1)] * 3, 17)
    bc = field_from(g, lambda a, b, c: 0.5 * a + 0.4 * c * a + 0.2 * b)
    prob = sv.DirichletProblem(grid=g, triple=triple_for("power:p=2"), boundary=bc, residual_tol=1e-10)
    sol, rep = sv.solve_dirichlet(prob)
    assert rep.converged
    eta = make_cutoff(g, [0, 0, 0], 0.25, 0.65)
    return sol, eta, prob


@pytest.fixture(scope="module")
def affine_solution():
    g = Grid.from_box([(-1, 1)] * 3, 17)
    bc = field_from(g, lambda a, b, c: 0.6 * a - 0.25 * b + 0.1)
    prob = sv.DirichletProblem(grid=g, triple=triple_for("power:p=2"), boundary=bc, residual_tol=1e-12)
    sol, rep = sv.solve_dirichlet(prob, init=bumped_start(g, bc))
    assert rep.converged and rep.iterations > 0
    eta = make_cutoff(g, [0, 0, 0], 0.25, 0.65)
    return sol, eta, prob


# ---------------------------------------------------------------- schedule

def test_moser_schedule_arithmetic():
    # H^1 has Q = 4, so kappa = 2: gamma_i = 3 * 2^i - 2 and r_i = sigma r + (1 - sigma) r / 2^i
    g = Grid.from_box([(-1, 1)] * 3, 17)
    u = field_from(g, lambda a, b, c: 0.8 * a)
    rows = vf.moser_trace(fields_of(g, u), [0, 0, 0], 0.8, 0.5, levels=4)["levels"]
    assert [row["gamma"] for row in rows] == [1.0, 4.0, 10.0, 22.0]
    assert [row["exponent"] for row in rows] == [3.0, 6.0, 12.0, 24.0]
    assert [row["radius"] for row in rows] == pytest.approx([0.8, 0.6, 0.5, 0.45], rel=1e-15)


# ---------------------------------------------------------------- ratio

def test_lipschitz_ratio_affine(affine_solution):
    sol, _, prob = affine_solution
    ratio = vf.lipschitz_ratio(fields_of(prob.grid, sol), [0, 0, 0], 0.8, 0.5)
    assert ratio == pytest.approx(0.5 ** 4, abs=1e-9)



def test_lipschitz_ratio_is_uniform_over_data_for_solutions_only():
    # negative control: along sine data with growing frequency k the solutions' sup-bound
    # ratio stays put (the constant depends on the structure, not on u), while the ratio of
    # the boundary fields, smooth fields that are not solutions, grows with k
    grid = Grid.from_box([(-1, 1)] * 3, 33)
    tr = triple_for("power:p=3")
    solutions, boundaries = [], []
    for k in (2, 4, 8):
        bc = boundary_field(f"sine:amp={1 / k:g},kx={k},ky=0,x1=0.6,t=0.3", grid)
        (sol, rep), = sv.solve_ladder([sv.DirichletProblem(grid=grid, triple=tr, boundary=bc, eps=1e-4)])
        assert rep.converged
        for field, ratios in ((sol, solutions), (bc, boundaries)):
            ratios.append(vf.lipschitz_ratio(vf.solution_fields(grid, field, tr, 1e-4), [0, 0, 0], 0.8, 0.5))
    assert max(solutions) <= 1.25 * min(solutions), solutions
    assert boundaries[2] >= 2 * boundaries[0], boundaries

def test_lipschitz_ratio_shift_invariant(tdep_solution):
    sol, _, prob = tdep_solution
    r1 = vf.lipschitz_ratio(fields_of(prob.grid, sol), [0, 0, 0], 0.8, 0.5)
    r2 = vf.lipschitz_ratio(fields_of(prob.grid, sol + 3.7), [0, 0, 0], 0.8, 0.5)
    assert r1 == pytest.approx(r2, rel=1e-12)


def test_lipschitz_ratio_validation(tdep_solution):
    sol, _, prob = tdep_solution
    sf = fields_of(prob.grid, sol)
    with pytest.raises(ValueError):
        vf.lipschitz_ratio(sf, [0, 0, 0], 0.8, 1.0)
    with pytest.raises(ValueError):
        vf.lipschitz_ratio(sf, [0, 0, 0], 5.0, 0.5)


# ---------------------------------------------------------------- audits

def test_audits_finite_on_tdep_solution(tdep_solution):
    sol, eta, prob = tdep_solution
    sf = fields_of(prob.grid, sol)
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
    g = Grid.from_box([(-1, 1)] * 3, 17)
    bc = field_from(g, lambda a, b, c: a * b + 0.3 * a)
    prob = sv.DirichletProblem(grid=g, triple=triple_for("power:p=2"), boundary=bc, residual_tol=1e-11)
    sol, rep = sv.solve_dirichlet(prob, init=bumped_start(g, bc))
    assert rep.iterations > 0
    eta = make_cutoff(g, [0, 0, 0], 0.25, 0.65)
    sf = fields_of(g, sol)
    rT = vf.caccioppoli_T_audit(sf, eta, 0.0)
    rV = vf.vertical_estimate_audit(sf, eta, 1.0)
    rR = vf.reverse_audit(sf, eta, 1.0, 1.0)
    for r, factor in ((rT, "X(Tu)"), (rV, "Tu"), (rR, "Tu")):
        assert r.lhs <= 1e-12 * (1.0 + r.rhs)
        assert r.passed
        assert r.reason == f"analytic zero: {factor} at algebraic error"


def test_x_audits_degenerate_on_affine(affine_solution):
    sol, eta, prob = affine_solution
    sf = fields_of(prob.grid, sol)
    rX = vf.caccioppoli_X_audit(sf, eta, 0.0)
    rH = vf.horizontal_estimate_audit(sf, eta, 1.0)
    for r in (rX, rH):
        assert r.lhs <= 1e-12 * (1.0 + r.rhs)
        assert r.passed
        assert r.reason == "analytic zero: XXu at algebraic error"


def test_overflowing_sides_fail_their_row():
    # G(|Xu|)^61 overflows for |Xu| ~ 100; the rule runs before the analytic-zero rule, which
    # X(Tu) = 0 on affine data would meet
    g = Grid.from_box([(-1, 1)] * 3, 9)
    sf = fields_of(g, field_from(g, lambda a, b, c: 100 * a + 50 * c), "power:p=4")
    with np.errstate(over="ignore", invalid="ignore"):
        rep = vf.caccioppoli_T_audit(sf, make_cutoff(g, [0, 0, 0], 0.3, 0.6), 60.0)
    assert rep.reason == "not finite" and not rep.passed and math.isnan(rep.fitted_constant)


def test_fitted_constants_shift_invariant(tdep_solution):
    sol, eta, prob = tdep_solution
    a = vf.caccioppoli_X_audit(fields_of(prob.grid, sol), eta, 1.0)
    b = vf.caccioppoli_X_audit(fields_of(prob.grid, sol - 1.3), eta, 1.0)
    assert a.fitted_constant == pytest.approx(b.fitted_constant, rel=1e-12)


def test_audit_parameter_validation(tdep_solution):
    sol, eta, prob = tdep_solution
    sf = fields_of(prob.grid, sol)
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
    sol, eta, prob = tdep_solution
    sf = fields_of(prob.grid, sol)
    r1 = vf.reverse_audit(sf, eta, 1.0, 1.0)
    r2 = vf.reverse_audit(sf, eta, 1.0, 2.0)
    assert r2.fitted_constant <= r1.fitted_constant / 2.0 * (1 + 1e-9)


def test_vertical_cross_check_td_bound(tdep_solution):
    sol, _, prob = tdep_solution
    h = float(np.max(prob.grid.spacing))
    assert commutator_and_td_margin(prob.grid, sol)[1] >= -25 * h


# ---------------------------------------------------------------- audit integrals against the oracle

# the README audit's cutoff radii and ball radius, about the origin; power:p=3 in closed form
_R_INNER, _R_OUTER, _RADIUS = 0.25, 0.65, 0.8
_G, _F, _G0 = (lambda s: s ** 3 / 3.0), (lambda s: s), 2.0
_AUDITS = {"caccioppoli_T": (vf.caccioppoli_T_audit, {}), "caccioppoli_X": (vf.caccioppoli_X_audit, {}),
           "reverse": (vf.reverse_audit, {"omega": 1.0}),
           "horizontal_estimate": (vf.horizontal_estimate_audit, {}),
           "vertical_estimate": (vf.vertical_estimate_audit, {})}


@pytest.fixture(scope="module")
def audit_oracle():
    """Both sides of the five audits at gamma = 1, omega = 1, the ball average and K_eta, by Gauss-Legendre."""
    k_eta = cutoff_cost(_R_INNER, _R_OUTER)
    x1, x2, t, w = gauge_ball_quadrature(_R_OUTER, splits=(_R_INNER,))
    _, xu, tu, xtu, hess = manufactured_fields(x1, x2, t)
    eta, x_eta_sq, t_eta = gauge_cutoff(_R_INNER, _R_OUTER, x1, x2, t)
    p = 2.0  # gamma + 1
    core = _G(xu) ** p * _F(xu)
    support = float(np.sum(w * core * xu ** 2))  # the whole quadrature ball is supp eta
    hessian_energy = float(np.sum(w * eta ** 2 * core * hess ** 2))
    vertical_arg = eta * np.abs(tu) / math.sqrt(k_eta)  # omega = 1 in the reverse audit
    ref = {
        "caccioppoli_T.lhs": float(np.sum(w * eta ** 2 * _G(np.abs(tu)) ** p * _F(xu) * xtu ** 2)),
        "caccioppoli_T.rhs": float(np.sum(w * _G(np.abs(tu)) ** p * _F(xu) * tu ** 2 * x_eta_sq)) / p ** 2,
        "caccioppoli_X.lhs": hessian_energy,
        "caccioppoli_X.rhs": float(np.sum(w * core * xu ** 2 * (x_eta_sq + eta * t_eta)
                                          + p ** 4 * w * eta ** 2 * core * tu ** 2)),
        "reverse.lhs": float(np.sum(w * eta ** 2 * _G(vertical_arg) ** p * _F(xu) * hess ** 2)),
        "reverse.rhs": hessian_energy,
        "horizontal_estimate.lhs": hessian_energy,
        "horizontal_estimate.rhs": p ** (10.0 * (1.0 + _G0)) * k_eta * support,
        "vertical_estimate.lhs": float(np.sum(w * eta ** 2 * _G(vertical_arg) ** p * _F(xu) * tu ** 2)),
        "vertical_estimate.rhs": k_eta * support,
        "k_eta": k_eta,
    }
    x1, x2, t, w = gauge_ball_quadrature(_RADIUS)
    ref["ball_average"] = float(np.sum(w * _G(manufactured_fields(x1, x2, t)[1]))) / (math.pi * _RADIUS ** 4)
    return ref


def _manufactured_grid(res):
    grid = Grid.from_box([(-1, 1)] * 3, res)
    return grid, manufactured_fields(*grid.coords())[0]


def _manufactured_level(res):
    grid, u = _manufactured_grid(res)
    return fields_of(grid, u, "power:p=3"), make_cutoff(grid, [0, 0, 0], _R_INNER, _R_OUTER)


@pytest.fixture(scope="module")
def audit_levels():
    """The library's values of the oracle's quantities on the manufactured field at 17/33/65 (no solve)."""
    values = {}
    for res in (17, 33, 65):
        sf, eta = _manufactured_level(res)
        for name, (fn, kw) in _AUDITS.items():
            rep = fn(sf, eta, gamma=1.0, **kw)
            values.setdefault(f"{name}.lhs", []).append(rep.lhs)
            values.setdefault(f"{name}.rhs", []).append(rep.rhs)
        values.setdefault("k_eta", []).append(eta.k_eta)
        values.setdefault("ball_average", []).append(
            ball_average(sf.grid, sf.g_xu, GaugeBall([0, 0, 0], _RADIUS)))
    return values


def test_manufactured_field_is_exact_at_the_nodes():
    # the node stencils are exact on the manufactured field, and make_cutoff's eta and its
    # derivatives match the oracle's, on the t = 0 plane its t -> 0+ limits, so the integral
    # tests below measure quadrature alone
    sf, eta = _manufactured_level(17)
    coords = sf.grid.coords()
    _, xu, tu, xtu, hess = manufactured_fields(*coords)
    for got, want in ((sf.xu_norm, xu), (sf.tu, tu), (sf.xtu_norm, xtu), (sf.hess_norm, hess)):
        assert np.max(np.abs(got - want)) <= 1e-12
    eta_ref, x_eta_sq, t_eta = gauge_cutoff(_R_INNER, _R_OUTER, *coords)
    eta_full, grad_full, t_deriv_full = (embed(sf.grid, eta.box, f) for f in (eta.eta, eta.grad, eta.t_deriv))
    assert np.max(np.abs(eta_full - eta_ref)) <= 1e-14
    assert np.max(np.abs(horizontal_norm(grad_full) ** 2 - x_eta_sq)) <= 1e-11 * np.max(x_eta_sq)
    # eta falls with rho and T rho = sgn(t)/(2 rho), so T eta = -sgn(t) |T eta|, with sgn(0) = +1
    sgn = np.where(coords[2] < 0, -1.0, 1.0)
    assert np.max(np.abs(t_deriv_full + sgn * t_eta)) <= 1e-11 * np.max(t_eta)


@pytest.mark.parametrize("quantity", [f"{name}.{side}" for name in _AUDITS for side in ("lhs", "rhs")]
                         + ["ball_average", "k_eta"])
def test_audit_quantity_converges_to_the_oracle(quantity, audit_oracle, audit_levels):
    errors = [abs(v / audit_oracle[quantity] - 1.0) for v in audit_levels[quantity]]
    orders = [math.log2(a / b) for a, b in zip(errors, errors[1:])]
    assert min(orders) >= 1.0, (errors, orders)


def _post_solve(grid, u):
    """One level's post-solve as `solab audit` runs it: cutoff, fields, ratio, Moser trace, the five audits."""
    eta = make_cutoff(grid, [0, 0, 0], _R_INNER, _R_OUTER)
    sf = fields_of(grid, u, "power:p=3")
    vf.lipschitz_ratio(sf, [0, 0, 0], _RADIUS, 0.5)
    vf.moser_trace(sf, [0, 0, 0], _RADIUS, 0.5, levels=8)
    for fn, kw in _AUDITS.values():
        fn(sf, eta, gamma=1.0, **kw)


def test_post_solve_memory_stays_on_the_node_boxes():
    # ball weights, the cutoff and the audit integrands live on node boxes, so the traced peak of a
    # 33^3 post-solve is solution_fields' (17.3 full-grid arrays measured; 28.0 when the cutoff, the
    # ball weights and the integrands ran on the whole grid)
    _post_solve(*_manufactured_grid(9))  # warm-up: lazy tables and numpy's first-call allocations
    grid, u = _manufactured_grid(33)
    tracemalloc.start()
    try:
        _post_solve(grid, u)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 * u.nbytes, f"{peak / u.nbytes:.2f} full-grid arrays"


# ---------------------------------------------------------------- refinement logic

def test_stability_pass_bands():
    assert vf.stability_pass([1.0, 1.5, 1.1])
    assert not vf.stability_pass([1.0, 2.5])
    assert not vf.stability_pass([1.0, float("inf")])
    assert not vf.stability_pass([0.0, 0.0])


def test_attach_refinement_negligible_levels():
    zero = vf.AuditReport(name="x", lhs=1e-20, rhs=1.0, fitted_constant=0.0, gamma=1.0,
                          passed=True, reason="analytic zero: Tu at algebraic error")
    judged = [vf.AuditReport(name="x", lhs=v, rhs=1.0, fitted_constant=v, gamma=1.0, passed=True)
              for v in (1.0, 1.5)]
    combined = vf.attach_refinement([zero, *judged])
    assert combined.passed and combined.reason == "judged"
    assert combined.refinement_history == [0.0, 1.0, 1.5]
    # tiny judged constants are judged like any others: a factor 10 leaves the band
    tiny = [vf.AuditReport(name="x", lhs=v, rhs=1.0, fitted_constant=v, gamma=1.0, passed=True)
            for v in (1e-15, 1e-16)]
    assert not vf.attach_refinement(tiny).passed


def test_attach_refinement_band_failure():
    reports = [vf.AuditReport(name="x", lhs=1.0, rhs=1.0, fitted_constant=1.0,
                              gamma=1.0, passed=True),
               vf.AuditReport(name="x", lhs=3.0, rhs=1.0, fitted_constant=3.0,
                              gamma=1.0, passed=True)]
    before = [dataclasses.replace(r) for r in reports]
    combined = vf.attach_refinement(reports)
    assert not combined.passed and combined.refinement_history == [1.0, 3.0]
    assert reports == before  # the per-level reports keep their own flags
    overflow = dataclasses.replace(reports[0], lhs=math.inf, fitted_constant=math.nan, reason="not finite")
    assert not vf.attach_refinement([reports[0], overflow]).passed  # a level that is not finite fails


def test_audit_stability_under_refinement(tdep_solution):
    sol, eta17, prob = tdep_solution
    g33 = Grid.from_box([(-1, 1)] * 3, 33)
    bc = field_from(g33, lambda a, b, c: 0.5 * a + 0.4 * c * a + 0.2 * b)
    prob33 = sv.DirichletProblem(grid=g33, triple=prob.triple, boundary=bc)
    sol33 = sv.solve_ladder([prob, prob33])[1][0]
    eta33 = make_cutoff(g33, [0, 0, 0], 0.25, 0.65)
    sf17, sf33 = fields_of(prob.grid, sol), fields_of(g33, sol33)
    for fn, kw in [(vf.caccioppoli_T_audit, {"gamma": 0.0}),
                   (vf.caccioppoli_X_audit, {"gamma": 1.0}),
                   (vf.horizontal_estimate_audit, {"gamma": 1.0})]:
        seq = [fn(sf17, eta17, **kw), fn(sf33, eta33, **kw)]
        assert vf.attach_refinement(seq).passed


# ---------------------------------------------------------------- moser trace

def test_moser_trace_constant_field():
    g = Grid.from_box([(-1, 1)] * 3, 17)
    tr = triple_for("power:p=2")
    u = field_from(g, lambda a, b, c: 0.8 * a)  # |Xu| = 0.8 everywhere
    trace = vf.moser_trace(fields_of(g, u), [0, 0, 0], 0.8, 0.5, levels=4)
    expected = float(tr.G(0.8))
    for row in trace["levels"]:
        assert row["norm"] == pytest.approx(expected, rel=1e-9)
        assert row["inner_norm"] == pytest.approx(expected, rel=1e-9)
    assert trace["inner_sup"] == pytest.approx(expected, rel=1e-12)


def test_moser_trace_monotone_and_converges(tdep_solution):
    sol, _, prob = tdep_solution
    trace = vf.moser_trace(fields_of(prob.grid, sol), [0, 0, 0], 0.8, 0.5, levels=8)
    inner = [row["inner_norm"] for row in trace["levels"]]
    assert all(a <= b * (1 + 1e-9) for a, b in zip(inner, inner[1:]))
    assert abs(inner[-1] - trace["inner_sup"]) <= 0.05 * trace["inner_sup"]
    # exponents follow the kappa ladder
    gammas = [row["gamma"] for row in trace["levels"]]
    assert gammas[:3] == [1.0, 4.0, 10.0]


def test_moser_trace_validation(tdep_solution):
    sol, _, prob = tdep_solution
    sf = fields_of(prob.grid, sol)
    with pytest.raises(ValueError):
        vf.moser_trace(sf, [0, 0, 0], 0.8, 0.5, levels=1)
    with pytest.raises(ValueError):
        vf.moser_trace(sf, [0, 0, 0], 0.8, 1.0, levels=3)
    with pytest.raises(ValueError):
        vf.moser_trace(sf, [0, 0, 0], 3.0, 0.5, levels=3)
    # B_r outside the grid is rejected even where G(|Xu|) = 0 on every ball
    flat = fields_of(prob.grid, np.zeros(prob.grid.shape))
    with pytest.raises(ValueError):
        vf.moser_trace(flat, [0, 0, 0], 3.0, 0.5, levels=3)


# ---------------------------------------------------------------- weight fallback

def test_singular_weight_falls_back_to_regularized():
    g = Grid.from_box([(-1, 1)] * 3, 17)
    tr = triple_for("power:p=1.5")
    # |Xu| > 0 at every node keeps the raw F; Xu = 0 somewhere, where F is singular, falls back
    for data, kind in ((lambda a, b, c: 0.4 * a + 0.3 * c * a, "F"), (lambda a, b, c: 0.0 * a, "F_eps")):
        prob = sv.DirichletProblem(grid=g, triple=tr, boundary=field_from(g, data))
        sol, rep = sv.solve_dirichlet(prob)
        sf = vf.solution_fields(g, sol, tr, prob.eps)
        assert sf.weight_kind == kind
        assert np.all(np.isfinite(sf.f_xu))
