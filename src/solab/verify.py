"""Numerical audits of the interior energy inequalities on computed solutions.

Every audit evaluates both sides of one inequality against a cutoff, reports
the fitted constant lhs/rhs, and (when run across refinements) a stability
verdict.  The proven constants are existential — they depend only on g0, L
and the group H^1 — so a pass never asserts a numeric target: it asserts that
the fitted constant is finite and stable under mesh refinement (consecutive
levels within a factor 2, ``stability_pass``).  A side that is not finite
(an integrand that overflows) fails its row.  One rule exempts a left side:
it is an analytic zero when one of the derivative fields it is a product of
(X(Tu), Tu or XXu) reads at most ``_ZERO_RTOL`` times |Xu| on supp eta, as
Tu does on t-independent data and XXu on affine data.  Every audit integrand
carries eta, X eta or T eta, so the audits read the fields on the cutoff's
node box; integrals over supp eta are taken over the cutoff's outer gauge ball.

The main estimate sup_{B_{sigma r}} G(|Xu|) <= c (1-sigma)^{-Q} avg_{B_r} G(|Xu|),
with Q = 4 the homogeneous dimension of H^1, is one pass: ``lipschitz_ratio``
fits c and ``moser_trace`` climbs the Moser ladder; both take B_{sigma r} from
``_inner_ball``, and ``integrate`` checks B_r; every ball is read on its node box.

All seven post-solve consumers (the sup-bound ratio, the iteration trace and
the five audits) read one ``SolutionFields``: the grid and the node arrays
|Xu|, Tu, |X(Tu)|, |XXu|, G(|Xu|), G(|Tu|) and F(|Xu|) of a solution, on one
node box (``SolutionFields.box``).  ``solution_fields`` is the only code that
differentiates a computed solution, and it also decides the regularized-weight
fallback.  Given the balls its caller will read (for ``solab audit``: B_r,
which holds B_{sigma r} and the Moser balls, and supp eta), it puts the
fields on the smallest box holding their node boxes and differentiates u only
there, padded by two nodes; it sums |XXu|^2 one Hessian row at a time, so
neither the (2, 2) Hessian nor a full-grid Xu is held.  Every consumer takes
its node boxes relative to the fields' box and rejects one that leaves it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .grid import (CutoffFunction, GaugeBall, Grid, ball_average, ball_node_mask,
                   horizontal_gradient, horizontal_hessian, horizontal_norm, integrate,
                   vertical_derivative)
from .operator import regularized_weight
from .orlicz import OrliczTriple

__all__ = [
    "AuditReport",
    "SolutionFields",
    "solution_fields",
    "lipschitz_ratio",
    "caccioppoli_T_audit",
    "caccioppoli_X_audit",
    "reverse_audit",
    "horizontal_estimate_audit",
    "vertical_estimate_audit",
    "moser_trace",
    "attach_refinement",
    "stability_pass",
]

# sup over supp eta against sup |Xu| there: converged solves leave at most 5.1e-7 where
# the field is exactly 0 (X(Tu) on affine t-dependent data, 65^3), and the smallest
# genuine field measured is 1.8e-3 (Tu on poly2:x1=0.5,x2=0.2,x1x2=0.3, p=3, 33^3)
_ZERO_RTOL = 1e-5

_Q = 4


@dataclass
class AuditReport:
    """Evaluated sides of one inequality plus the fitted constant.

    ``reason`` is ``"judged"``, ``"not finite"`` when a side is not (its fitted
    constant is NaN), or ``"analytic zero: <field> at algebraic error"`` when
    the left side is a product with a field that vanishes analytically on
    supp eta; such a side reads the solve's algebraic error, so its fitted
    constant is 0.  ``passed`` means: the fitted constant is finite, and, once
    a refinement history is attached, the levels that are not analytic zeros
    stay within the declared stability band.
    """

    name: str
    lhs: float
    rhs: float
    fitted_constant: float
    gamma: float
    passed: bool
    reason: str = "judged"
    extras: dict = field(default_factory=dict)
    refinement_history: list[float] = field(default_factory=list)

    def as_record(self) -> dict:
        rec = {
            "name": self.name,
            "gamma": self.gamma,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "fitted_constant": self.fitted_constant,
            "pass": self.passed,
            "reason": self.reason,
            "refinement_history": list(self.refinement_history),
        }
        rec.update(self.extras)
        return rec


def _report(name: str, sf: SolutionFields, eta: CutoffFunction, factors: tuple[str, ...],
            lhs: float, rhs: float, gamma: float, **extras) -> AuditReport:
    """The report of one audit whose left side is a product with the named derivative fields."""
    inside = eta.eta > 0.0  # the nodes of supp eta

    def sup(values):  # sup |values| on supp eta, with no full-grid temporary of floats
        return max(np.max(values, where=inside, initial=0.0), -np.min(values, where=inside, initial=0.0))

    fields = {"X(Tu)": sf.xtu_norm, "Tu": sf.tu, "XXu": sf.hess_norm}
    floor = _ZERO_RTOL * sup(sf.xu_norm)
    zero = next((f for f in factors if sup(fields[f]) <= floor), None)
    if not (math.isfinite(lhs) and math.isfinite(rhs)):  # first: an analytic zero would pass the row
        reason, fitted = "not finite", math.nan
    elif zero is not None:
        reason, fitted = f"analytic zero: {zero} at algebraic error", 0.0
    else:
        reason, fitted = "judged", lhs / rhs if rhs > 0 else math.inf
    return AuditReport(name=name, lhs=lhs, rhs=rhs, fitted_constant=fitted, gamma=gamma,
                       passed=bool(np.isfinite(fitted)), reason=reason,
                       extras={**extras, "weight": sf.weight_kind})


def stability_pass(history) -> bool:
    """Consecutive fitted constants must be finite, positive and within a factor 2 of each other."""
    vals = list(history)
    return bool(np.all(np.isfinite(vals))) and all(
        b > 0 and 0.5 * b <= a <= 2.0 * b for a, b in zip(vals, vals[1:]))


def attach_refinement(reports: list[AuditReport]) -> AuditReport:
    """A copy of the finest-level report carrying the refinement history of all levels.

    The history keeps every level; the stability band judges all levels but
    the analytic zeros, which carry no information about the constant.  The
    input reports are left as they are.
    """
    if not reports:
        raise ValueError("no reports to combine")
    return replace(reports[-1], refinement_history=[r.fitted_constant for r in reports],
                   passed=stability_pass([r.fitted_constant for r in reports
                                          if not r.reason.startswith("analytic zero")]))


# --------------------------------------------------------------------------
# derived fields of a solution
# --------------------------------------------------------------------------


@dataclass
class SolutionFields:
    """Node-based derived fields shared by the ratio, the trace and the audits, on the node box ``box``."""

    grid: Grid
    triple: OrliczTriple
    box: tuple[slice, ...]
    xu_norm: np.ndarray
    tu: np.ndarray
    xtu_norm: np.ndarray
    hess_norm: np.ndarray
    g_xu: np.ndarray
    g_tu: np.ndarray
    f_xu: np.ndarray
    weight_kind: str


def _within(box: tuple[slice, ...], outer: tuple[slice, ...]) -> tuple[slice, ...]:
    """The index slices of a node box relative to a node box ``outer`` that holds it."""
    return tuple(slice(b.start - o.start, b.stop - o.start) for b, o in zip(box, outer))


def solution_fields(grid: Grid, u: np.ndarray, triple: OrliczTriple, eps: float,
                    balls=()) -> SolutionFields:
    """Compute Xu, Tu, X(Tu), XXu, G(|Xu|), G(|Tu|) and F(|Xu|) of a solution u on grid.

    The fields live on the smallest node box holding the node boxes of
    ``balls``, the regions the caller will read (the whole grid without
    balls).  u is differentiated on that box padded by two nodes where it is
    inside the grid: the padding takes the one-sided stencils of the box
    faces, and on the box the central differences of central differences
    give the whole grid's values bit for bit.  |XXu|^2 is summed one Hessian
    row at a time, in the order of a sum over the (2, 2) Hessian, so the
    Hessian is never held.

    The degeneracy weight is the raw F with its limit policy at 0; when F is
    singular there (delta < 1) and Xu vanishes at a node of the box, the
    problem's regularized weight is used and recorded, since the audited
    solution came from the regularized equation.
    """
    boxes = [ball.node_box(grid) for ball in balls] or [tuple(slice(0, n) for n in grid.shape)]
    box = tuple(slice(min(b.start for b in axis), max(b.stop for b in axis)) for axis in zip(*boxes))
    padded = tuple(slice(max(b.start - 2, 0), min(b.stop + 2, n)) for b, n in zip(box, grid.shape))
    on_box = (slice(None),) + _within(box, padded)
    u = u[padded]
    xu = horizontal_gradient(grid, u, padded)
    xu_norm = horizontal_norm(xu[on_box])
    hess_sq = np.zeros(xu_norm.shape)
    for i in range(2):
        row = horizontal_hessian(grid, xu[i:i + 1], padded)[0][on_box]  # X_j X_i u, j = 0, 1
        hess_sq += row[0] ** 2
        hess_sq += row[1] ** 2
        del row  # before the next row is formed
    del xu
    hess_norm = np.sqrt(hess_sq, out=hess_sq)
    tu = vertical_derivative(grid, u)
    xtu_norm = horizontal_norm(horizontal_gradient(grid, tu, padded)[on_box])
    tu = tu[on_box[1:]]
    if triple.f_zero is not None or not np.any(xu_norm == 0):
        f_xu = np.asarray(triple.F(xu_norm))
        kind = "F"
    else:
        f_xu = np.asarray(regularized_weight(triple, eps)(xu_norm))
        kind = "F_eps"
    return SolutionFields(grid=grid, triple=triple, box=box, xu_norm=xu_norm, tu=tu,
                          xtu_norm=xtu_norm, hess_norm=hess_norm,
                          g_xu=np.asarray(triple.G(xu_norm)),
                          g_tu=np.asarray(triple.G(np.abs(tu))),
                          f_xu=f_xu, weight_kind=kind)


def _on_box(sf: SolutionFields, box: tuple[slice, ...]) -> SolutionFields:
    """The node arrays of sf on a node box inside sf.box, as views."""
    if any(b.start < o.start or b.stop > o.stop for b, o in zip(box, sf.box)):
        raise ValueError("the node box reaches outside the box of the solution fields")
    rel = _within(box, sf.box)
    return replace(sf, box=box, **{k: v[rel] for k, v in vars(sf).items() if isinstance(v, np.ndarray)})


# --------------------------------------------------------------------------
# the main estimate
# --------------------------------------------------------------------------


def _inner_ball(sf: SolutionFields, center, r: float, sigma: float):
    """B_{sigma r}, its node box and mask and sup_{B_{sigma r}} G(|Xu|); sigma in (0,1), mask nonempty."""
    if not 0 < sigma < 1:
        raise ValueError("sigma must lie in (0,1)")
    ball = GaugeBall(center, sigma * r)
    box, mask = ball_node_mask(sf.grid, ball)
    if not mask.any():
        raise ValueError("inner ball contains no grid nodes")
    return ball, (box, mask), float(np.max(_on_box(sf, box).g_xu[mask]))


def lipschitz_ratio(sf: SolutionFields, center, r: float, sigma: float) -> float:
    """sup_{B_{sigma r}} G(|Xu|) * (1-sigma)^Q / average_{B_r} G(|Xu|).

    For an affine t-independent solution G(|Xu|) is constant and the ratio is
    exactly (1-sigma)^Q.  Where G(|Xu|) vanishes on B_r the ratio is 0: the
    bound 0 <= c * 0 holds for every c.  B_r must fit the grid.
    """
    _, _, sup_inner = _inner_ball(sf, center, r, sigma)
    ball = GaugeBall(center, r)
    avg = ball_average(sf.grid, _on_box(sf, ball.node_box(sf.grid)).g_xu, ball)
    if avg == 0.0:
        return 0.0
    return sup_inner * (1.0 - sigma) ** _Q / avg


def moser_trace(sf: SolutionFields, center, r: float, sigma: float, levels: int) -> dict:
    """Normalized L^{gamma_i+2} norms of w = G(|Xu|) along the Moser ladder.

    The ladder has kappa = Q/(Q-2), exponents gamma_i = 3 kappa^i - 2 and radii
    r_i = sigma r + (1-sigma) r / 2^i for i < levels (levels >= 2), so r_0 = r
    and B_r must fit the grid.  The norms are evaluated with the max factored
    out so that high exponents stay stable; on a fixed ball they are
    nondecreasing in the exponent and converge to the sup, which is also
    reported for the inner ball.
    """
    if levels < 2:
        raise ValueError("need at least two iteration levels")
    grid = sf.grid
    inner_ball, inner_nodes, inner_sup = _inner_ball(sf, center, r, sigma)
    i = np.arange(levels)
    gammas = 3.0 * (_Q / (_Q - 2)) ** i - 2.0
    radii = sigma * r + (1.0 - sigma) * r / 2.0 ** i

    def graded_norm(ball, box, mask, p):
        wb = _on_box(sf, box).g_xu
        wmax = float(np.max(wb[mask]))
        # cap at the ball sup: nodes outside the mask only contribute through
        # partially covered shell cells, and powering them would overflow
        scaled = np.minimum(wb / wmax, 1.0) ** p if wmax > 0 else np.zeros(wb.shape)
        # averaged even where w = 0 on the ball: the average checks that the ball fits the grid
        return wmax * ball_average(grid, scaled, ball) ** (1.0 / p)

    rows = []
    for gamma, radius in zip(gammas, radii):
        p = gamma + 2.0
        # r_i >= sigma r, so the mask holds the inner ball's nodes
        ball = GaugeBall(center, radius)
        rows.append({"gamma": float(gamma), "radius": float(radius), "exponent": float(p),
                     "norm": graded_norm(ball, *ball_node_mask(grid, ball), p),
                     # same exponent on the fixed inner ball: nondecreasing in p
                     # by power-mean monotonicity, converging to the inner sup
                     "inner_norm": graded_norm(inner_ball, *inner_nodes, p)})
    return {"levels": rows, "inner_sup": inner_sup}


# --------------------------------------------------------------------------
# Caccioppoli-type audits
# --------------------------------------------------------------------------


def _hessian_energy(sf: SolutionFields, eta: CutoffFunction, p: float) -> float:
    """int eta^2 G(|Xu|)^p F(|Xu|) |XXu|^2, with sf on the cutoff's node box."""
    return integrate(sf.grid, eta.eta ** 2 * sf.g_xu ** p * sf.f_xu * sf.hess_norm ** 2, eta.box)


def _support_energy(sf: SolutionFields, eta: CutoffFunction, p: float) -> float:
    """int_{supp eta} G(|Xu|)^p |Xu|^2 F(|Xu|), with sf on the cutoff's node box."""
    return integrate(sf.grid, sf.g_xu ** p * sf.xu_norm ** 2 * sf.f_xu, eta.ball)


def caccioppoli_T_audit(sf: SolutionFields, eta: CutoffFunction, gamma: float) -> AuditReport:
    """Vertical-derivative energy inequality.

    lhs = int eta^2 G(|Tu|)^{gamma+1} F(|Xu|) |X(Tu)|^2
    rhs = (gamma+1)^{-2} int G(|Tu|)^{gamma+1} F(|Xu|) |Tu|^2 |X eta|^2
    """
    if gamma < 0:
        raise ValueError("gamma must be nonnegative")
    p = gamma + 1.0
    sf = _on_box(sf, eta.box)
    lhs = integrate(sf.grid, eta.eta ** 2 * sf.g_tu ** p * sf.f_xu * sf.xtu_norm ** 2, eta.box)
    rhs = integrate(sf.grid, sf.g_tu ** p * sf.f_xu * sf.tu ** 2 * horizontal_norm(eta.grad) ** 2,
                    eta.box) / float(np.float64(p) ** 2)  # inf where it overflows
    return _report("caccioppoli_T", sf, eta, ("X(Tu)",), lhs, rhs, gamma)


def caccioppoli_X_audit(sf: SolutionFields, eta: CutoffFunction, gamma: float) -> AuditReport:
    """Horizontal Caccioppoli inequality (the non-commutativity costs a |Tu|^2 term).

    lhs = int eta^2 G(|Xu|)^{gamma+1} F(|Xu|) |XXu|^2
    rhs = int G^{gamma+1} |Xu|^2 F (|X eta|^2 + |eta T eta|)
          + (gamma+1)^4 int eta^2 G^{gamma+1} F |Tu|^2
    """
    if gamma < 0:
        raise ValueError("gamma must be nonnegative")
    p = gamma + 1.0
    sf = _on_box(sf, eta.box)
    core = sf.g_xu ** p * sf.f_xu
    cut_cost = horizontal_norm(eta.grad) ** 2 + np.abs(eta.eta * eta.t_deriv)
    rhs = integrate(sf.grid, core * sf.xu_norm ** 2 * cut_cost, eta.box)
    rhs += float(np.float64(p) ** 4) * integrate(sf.grid, eta.eta ** 2 * core * sf.tu ** 2, eta.box)
    return _report("caccioppoli_X", sf, eta, ("XXu",), _hessian_energy(sf, eta, p), rhs, gamma)


def reverse_audit(sf: SolutionFields, eta: CutoffFunction, gamma: float,
                  omega: float = 1.0) -> AuditReport:
    """Reverse-type inequality trading G(eta |Tu| / sqrt(omega K_eta)) against G(|Xu|).

    lhs = int eta^2 G(eta |Tu| / sqrt(omega K_eta))^{gamma+1} F(|Xu|) |XXu|^2
    rhs = omega^{-(gamma+1)/2} int eta^2 G(|Xu|)^{gamma+1} F(|Xu|) |XXu|^2

    The proven envelope for lhs/rhs is c^{(gamma+1)/2} (gamma+1)^{(gamma+1)(1+g0)}
    with existential c; the envelope's gamma factor is recorded, not asserted.
    """
    if gamma < 1:
        raise ValueError("the reverse inequality needs gamma >= 1")
    if omega < 1:
        raise ValueError("omega must be >= 1")
    if eta.k_eta <= 0:
        raise ValueError("constant cutoff rejected: K_eta = 0")
    p = gamma + 1.0
    sf = _on_box(sf, eta.box)
    arg = eta.eta * np.abs(sf.tu) / math.sqrt(omega * eta.k_eta)
    g_arg = np.asarray(sf.triple.G(arg))
    lhs = integrate(sf.grid, g_arg ** p * sf.f_xu * sf.hess_norm ** 2 * eta.eta ** 2, eta.box)
    rhs = omega ** (-p / 2.0) * _hessian_energy(sf, eta, p)
    envelope = float(np.float64(p) ** (p * (1.0 + sf.triple.g.g0)))  # inf where it overflows
    return _report("reverse", sf, eta, ("Tu", "XXu"), lhs, rhs, gamma, omega=omega,
                   envelope_gamma_factor=envelope)


def horizontal_estimate_audit(sf: SolutionFields, eta: CutoffFunction, gamma: float) -> AuditReport:
    """Self-improved horizontal estimate: the Hessian energy against first-order terms only.

    lhs = int eta^2 G(|Xu|)^{gamma+1} F(|Xu|) |XXu|^2
    rhs = (gamma+1)^{10(1+g0)} K_eta int_{supp eta} G^{gamma+1} |Xu|^2 F
    """
    if gamma < 1:
        raise ValueError("needs gamma >= 1")
    if eta.k_eta <= 0:
        raise ValueError("constant cutoff rejected: K_eta = 0")
    p = gamma + 1.0
    sf = _on_box(sf, eta.box)
    amp = float(np.float64(p) ** (10.0 * (1.0 + sf.triple.g.g0))) * eta.k_eta  # inf where it overflows
    return _report("horizontal_estimate", sf, eta, ("XXu",), _hessian_energy(sf, eta, p),
                   amp * _support_energy(sf, eta, p), gamma)


def vertical_estimate_audit(sf: SolutionFields, eta: CutoffFunction, gamma: float) -> AuditReport:
    """Vertical estimate: the Tu energy against first-order horizontal terms.

    lhs = int eta^2 G(eta |Tu| / sqrt(K_eta))^{gamma+1} F(|Xu|) |Tu|^2
    rhs = K_eta int_{supp eta} G(|Xu|)^{gamma+1} |Xu|^2 F
    """
    if gamma < 1:
        raise ValueError("needs gamma >= 1")
    if eta.k_eta <= 0:
        raise ValueError("constant cutoff rejected: K_eta = 0")
    p = gamma + 1.0
    sf = _on_box(sf, eta.box)
    arg = eta.eta * np.abs(sf.tu) / math.sqrt(eta.k_eta)
    g_arg = np.asarray(sf.triple.G(arg))
    lhs = integrate(sf.grid, eta.eta ** 2 * g_arg ** p * sf.f_xu * sf.tu ** 2, eta.box)
    return _report("vertical_estimate", sf, eta, ("Tu",), lhs, eta.k_eta * _support_energy(sf, eta, p),
                   gamma)
