"""Variational finite-difference solver for the Dirichlet problem div_H A(Xu) = 0.

The discretization is cell-based: on every grid cell the horizontal gradient
is formed from forward differences averaged over the neighbour pairs of the
transverse axes (`_halves`), that is, the gradient of the trilinear
interpolant at the cell centroid, and the energy

    E(u) = sum_cells G_eps(|Xu|) * cell_volume

is minimized over the interior node values by L-BFGS descent with halving
backtracking and one acceptance rule, Armijo (1e-4) plus a float-noise
allowance; when 40 halvings fail the solve stops with 'line_search_stall'.
The assembled gradient of E is exactly the discrete weak form residual
max_phi |sum <A_eps(Xu), X phi>| over unit node bumps phi, with
A_eps(z) = F_eps(|z|) z, so the stopping test and the weak-solution contract
coincide.  That A_eps is `operator.regularized_operator`, the map
`operator-check` certifies.  `_weak_form` is the one assembly of
vol * X^T(w(|Xu|) Xu): the energy gradient, `weak_residual` and the barrier
study differ only in the radial weight w.  The harmonic start is the solve of
the same problem with g(t) = t (p = 2), so the minimizer is the one L-BFGS loop.

`_weak_form` runs in slabs of consecutive cell planes along x_1, sized so that
one scalar cell field of a slab takes `_SLAB_BYTES`: each slab forms Xu, |Xu|,
the weight and the energy density from its own node planes and adds its part
into the one nodal output, the only full-grid array an evaluation allocates.
Slab temporaries stay in the allocator's free lists, where full-grid ones were
unmapped and page-faulted back in on every evaluation.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field, replace

import numpy as np

from .grid import Grid, ScalarField, refine_values
from .heisenberg import horizontal, horizontal_adjoint
from .operator import prototype_operator, regularized_energy_density, regularized_weight
from .orlicz import OrliczTriple, catalog_structure_function

__all__ = [
    "DirichletProblem",
    "SolveReport",
    "NonConvergenceError",
    "INIT_MODES",
    "cell_gradient",
    "cell_gradient_adjoint",
    "discrete_energy",
    "weak_residual",
    "solve_dirichlet",
    "comparison_check",
    "barrier_residual_study",
]


class NonConvergenceError(RuntimeError):
    """A failed harmonic start; also raised by callers that insist on a converged solve."""


INIT_MODES = ("zero", "harmonic")


# --------------------------------------------------------------------------
# cell-based operators
# --------------------------------------------------------------------------


def _halves(ndim: int, axis: int) -> tuple[tuple, tuple]:
    """Index tuples of the lower and the upper member of every neighbour pair along ``axis``."""
    lo = [slice(None)] * ndim
    hi = [slice(None)] * ndim
    lo[axis] = slice(None, -1)
    hi[axis] = slice(1, None)
    return tuple(lo), tuple(hi)


def _cell_coords(grid: Grid, first: int, planes: int) -> list[np.ndarray]:
    """grid.cell_coord(k) of every axis, on the cell planes first..first+planes-1 of axis 0."""
    coords = [grid.cell_coord(k) for k in range(grid.dim)]
    coords[0] = coords[0][first:first + planes]
    return coords


def cell_gradient(grid: Grid, values: np.ndarray, first: int = 0) -> np.ndarray:
    """Horizontal gradient at cell centers, shape (2n, *cellshape).

    ``values`` holds the grid's node planes along axis 0 from plane ``first``
    on (all of them by default); the result covers the cells between them.
    Axis k's derivative is the edge difference along k, averaged over the
    neighbour pairs of every other axis in turn.
    """
    derivs = []
    for k in range(grid.dim):
        lo, hi = _halves(grid.dim, k)
        d = values[hi] - values[lo]
        d /= grid.spacing[k]
        for b in range(grid.dim):
            if b != k:
                lo, hi = _halves(grid.dim, b)
                d = d[lo] + d[hi]
                d *= 0.5
        derivs.append(d)
    return horizontal(derivs, _cell_coords(grid, first, derivs[0].shape[0]))


def cell_gradient_adjoint(grid: Grid, w: np.ndarray, first: int = 0) -> np.ndarray:
    """Adjoint of cell_gradient: cell vector fields to node values.

    ``w`` covers the cell planes along axis 0 from plane ``first`` on; the
    result covers the node planes around them.  Each axis load is spread back
    over the neighbour pairs of the other axes, then over its own edges.
    """
    n, dim = grid.n, grid.dim
    t_load = horizontal_adjoint(w, _cell_coords(grid, first, w.shape[1]))
    loads = [(w[k], k) for i in range(n) for k in (i, n + i)] + [(t_load, dim - 1)]
    out = np.zeros(tuple(s + 1 for s in w.shape[1:]))
    for load, k in loads:
        part = load / grid.spacing[k]
        for b in range(dim):
            if b != k:
                lo, hi = _halves(dim, b)
                shape = list(part.shape)
                shape[b] += 1
                spread = np.zeros(shape)
                spread[lo] += part
                spread[hi] += part
                spread *= 0.5  # halving is exact, so this equals adding 0.5 * part twice
                part = spread
        lo, hi = _halves(dim, k)
        edges = np.zeros(out.shape)
        edges[lo] -= part
        edges[hi] += part
        out += edges
    return out


# --------------------------------------------------------------------------
# problem and report
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class DirichletProblem:
    """Dirichlet data for div_H A_eps(Xu) = 0 on the interior nodes of the grid.

    ``boundary`` is a full-grid field whose values on the boundary nodes are
    the Dirichlet data; its interior values are ignored.
    """

    grid: Grid
    triple: OrliczTriple
    boundary: ScalarField
    eps: float = 1e-4
    residual_tol: float | None = None
    max_iters: int = 100_000

    def __post_init__(self):
        if self.boundary.grid != self.grid:
            raise ValueError("boundary field lives on a different grid")
        if not (0 < self.eps < 1):
            raise ValueError("eps must lie in (0,1)")

    @property
    def interior(self) -> np.ndarray:
        return self.grid.interior_mask()


@dataclass
class SolveReport:
    """Outcome of one solve; ``stop_reason`` is 'tol', 'max_iters' or 'line_search_stall'."""

    iterations: int
    final_energy: float
    weak_residual: float
    energy_history: list[float] = field(default_factory=list)
    residual_history: list[float] = field(default_factory=list)
    gradient_cap_observed: float = 0.0
    stop_reason: str = "tol"

    @property
    def converged(self) -> bool:
        return self.stop_reason == "tol"


# Bytes of one scalar cell field per slab of `_weak_form`.  Slab temporaries
# this small are reused from the allocator's free lists; full-grid ones were
# returned to the OS and page-faulted back in on every evaluation.
_SLAB_BYTES = 128 * 1024


def _slab_planes(grid: Grid) -> int:
    """Cell planes along axis 0 per slab of `_weak_form`."""
    plane_bytes = 8 * math.prod(s - 1 for s in grid.shape[1:])
    return max(1, _SLAB_BYTES // plane_bytes)


def _weak_form(grid: Grid, values: np.ndarray, weight, density=None):
    """The nodal weak form vol * X^T(weight(r) Xu), r = |Xu| per cell, slab by slab.

    Slabs are runs of `_slab_planes` cell planes along axis 0; each adds its
    part into the node planes around it.  Returns ((min r, max r, sum of
    density(r) over the cells, 0.0 without ``density``), nodal array).
    """
    vol = grid.cell_volume
    cells = grid.shape[0] - 1
    step = _slab_planes(grid)
    out = np.zeros(grid.shape)
    r_min, r_max, total = math.inf, 0.0, 0.0
    for lo in range(0, cells, step):
        hi = min(lo + step, cells)
        xc = cell_gradient(grid, values[lo:hi + 1], lo)
        r = np.sqrt(np.sum(xc * xc, axis=0))
        r_min = min(r_min, float(r.min()))
        r_max = max(r_max, float(r.max()))
        if density is not None:
            total += float(np.sum(density(r)))
        xc *= weight(r)
        del r  # free before the adjoint's temporaries, and xc before the next slab's
        out[lo:hi + 1] += vol * cell_gradient_adjoint(grid, xc, lo)
        del xc
    return (r_min, r_max, total), out


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """Inner product outside BLAS, so solves do not depend on the BLAS thread count."""
    return float(np.einsum("i,i", a, b))


def _energy_and_gradient(grid: Grid, values: np.ndarray, f_eps, g_eps):
    (_, r_max, g_sum), grad = _weak_form(grid, values, f_eps, g_eps)
    return grid.cell_volume * g_sum, grad, r_max


def discrete_energy(u: ScalarField, prob: DirichletProblem) -> float:
    """Energy sum_cells G_eps(|Xu|) * cellvolume; u must carry the Dirichlet data."""
    if u.grid != prob.grid:
        raise ValueError("field grid mismatch")
    off = ~prob.interior
    if not np.allclose(u.values[off], prob.boundary.values[off], rtol=0, atol=1e-12):
        raise ValueError("field does not match the boundary data off the interior mask")
    f_eps = regularized_weight(prob.triple, prob.eps)
    g_eps = regularized_energy_density(prob.triple, prob.eps)
    return _energy_and_gradient(prob.grid, u.values, f_eps, g_eps)[0]


def weak_residual(u: ScalarField, prob: DirichletProblem) -> float:
    """max over interior node bumps phi of |sum <A_eps(Xu), X phi> cellvolume|."""
    if u.grid != prob.grid:
        raise ValueError("field grid mismatch")
    res = _weak_form(prob.grid, u.values, regularized_weight(prob.triple, prob.eps))[1]
    return float(np.max(np.abs(res[prob.interior])))


def _harmonic_init(prob: DirichletProblem) -> np.ndarray:
    """Quadratic-energy extension of the boundary data: the p=2 solve of the same problem.

    For p = 2, F_eps is 1 and G_eps(r) = r^2/2, so this minimizes (1/2) sum_cells |Xu|^2 vol.
    """
    quadratic = OrliczTriple(catalog_structure_function("power:p=2"))
    sol, rep = solve_dirichlet(replace(prob, triple=quadratic))
    if not rep.converged:
        raise NonConvergenceError(f"the p=2 solve for the harmonic start stopped: {rep.stop_reason}")
    return sol.values


def solve_dirichlet(prob: DirichletProblem, init="zero"):
    """Minimize the regularized energy over the interior values.

    ``init`` is 'zero' (zero interior), 'harmonic' (quadratic-energy
    extension) or a full array whose interior values are the start.  Returns
    the solution field and a SolveReport; an exhausted iteration budget or a
    stalled line search is flagged (with its stop_reason), not raised.
    """
    grid = prob.grid
    mask = prob.interior
    if isinstance(init, str):
        if init not in INIT_MODES:
            raise ValueError(f"unknown init {init!r}")
        start = _harmonic_init(prob) if init == "harmonic" else np.zeros(grid.shape)
    else:
        start = np.asarray(init, dtype=float)
        if start.shape != grid.shape:
            raise ValueError("init array shape mismatch")
    u = prob.boundary.values.copy()
    u[mask] = start[mask]

    f_eps = regularized_weight(prob.triple, prob.eps)
    g_eps = regularized_energy_density(prob.triple, prob.eps)

    def evaluate(x):
        u[mask] = x
        energy, grad_full, cap = _energy_and_gradient(grid, u, f_eps, g_eps)
        return energy, grad_full[mask], cap

    x = u[mask].copy()
    energy, grad, cap = evaluate(x)
    res = float(np.max(np.abs(grad))) if grad.size else 0.0
    tol = prob.residual_tol if prob.residual_tol is not None else 1e-8 * (1.0 + res)
    history = [energy]
    res_history = [res]
    memory = deque(maxlen=10)  # curvature pairs (s, y, 1/<s,y>), oldest first
    iters = 0
    converged = res <= tol
    stop_reason = "max_iters"

    while not converged and iters < prob.max_iters:
        # two-loop recursion
        q = grad.copy()
        alphas = []
        for s, y, rho in reversed(memory):
            a = rho * _dot(s, q)
            alphas.append(a)
            q -= a * y
        if memory:
            s, y, _ = memory[-1]
            q *= _dot(s, y) / _dot(y, y)
        else:
            q *= 1.0 / max(res, 1.0)
        for (s, y, rho), a in zip(memory, reversed(alphas)):
            q += s * (a - rho * _dot(y, q))
        d = -q
        gd = _dot(grad, d)
        if gd >= 0:  # stale curvature; restart from steepest descent
            memory.clear()
            d = -grad / max(res, 1.0)
            gd = _dot(grad, d)

        alpha = 1.0
        # near the minimizer genuine decreases drop below the float resolution
        # of the energy; the allowance keeps full steps acceptable there while
        # the gradient is still being polished
        noise = 4.0 * np.finfo(float).eps * (abs(energy) + 1.0)
        for _ in range(40):
            x_new = x + alpha * d
            e_new, g_new, cap_new = evaluate(x_new)
            if e_new <= energy + 1e-4 * alpha * gd + noise:
                break
            alpha *= 0.5
        else:
            stop_reason = "line_search_stall"
            break
        s_vec = x_new - x
        y_vec = g_new - grad
        sy = _dot(s_vec, y_vec)
        if sy > 1e-300:
            memory.append((s_vec, y_vec, 1.0 / sy))
        x, energy, grad, cap = x_new, e_new, g_new, cap_new
        res = float(np.max(np.abs(grad)))
        history.append(energy)
        res_history.append(res)
        iters += 1
        if res <= tol:
            converged = True

    u[mask] = x
    report = SolveReport(
        iterations=iters,
        final_energy=energy,
        weak_residual=res,
        energy_history=history,
        residual_history=res_history,
        gradient_cap_observed=cap,
        stop_reason="tol" if converged else stop_reason,
    )
    return ScalarField(grid, u.copy()), report


def comparison_check(prob_u: DirichletProblem, prob_v: DirichletProblem) -> float:
    """Solve both problems from a zero start and return min over the interior of (u - v).

    Precondition: shared grid/operator and boundary data ordered u0 >= v0
    nodewise on the mask complement.
    """
    if prob_u.grid != prob_v.grid or prob_u.eps != prob_v.eps:
        raise ValueError("comparison requires a shared grid and regularization")
    if prob_u.triple.label != prob_v.triple.label:
        raise ValueError("comparison requires a shared operator")
    off = ~prob_u.interior
    if np.any(prob_u.boundary.values[off] < prob_v.boundary.values[off] - 1e-12):
        raise ValueError("boundary data are not ordered: need u0 >= v0 on the boundary")
    u, ru = solve_dirichlet(prob_u)
    v, rv = solve_dirichlet(prob_v)
    if not (ru.converged and rv.converged):
        raise NonConvergenceError("comparison solves did not converge")
    gap = u.values - v.values
    return float(np.min(gap[prob_u.interior]))


# --------------------------------------------------------------------------
# barriers
# --------------------------------------------------------------------------


def barrier_residual_study(L: ScalarField, triple: OrliczTriple, refinements: int) -> list[float]:
    """Weak residual of an affine field under the raw operator, across mesh halvings.

    Affine fields solve the equation exactly (their horizontal Hessian is
    skew-symmetric), so the discrete residual is pure truncation error and
    must decrease with order >= 1.  L counts as affine when its edge
    differences along every axis are constant to 1e-9 (1 + max |L|); each
    halving is `Grid.refined` with L prolonged by `refine_values`, which is
    exact on affine data.  Raises when the horizontal gradient degenerates
    somewhere while F is singular at 0 (rerun with eps > 0).
    """
    if refinements < 0:
        raise ValueError("refinements must be nonnegative")
    grid, values = L.grid, L.values
    scale = 1.0 + float(np.max(np.abs(values)))
    if any(np.ptp(np.diff(values, axis=k)) > 1e-9 * scale for k in range(grid.dim)):
        raise ValueError("field is not affine")
    weight = prototype_operator(triple).weight
    residuals = []
    for level in range(refinements + 1):
        if level:
            grid, values = grid.refined(), refine_values(values)
        (r_min, _, _), res_field = _weak_form(grid, values, weight)
        if r_min < 1e-12 and triple.f_zero is None:
            raise ValueError("|XL| vanishes on the grid and F is singular at 0; rerun regularized")
        residuals.append(float(np.max(np.abs(res_field[grid.interior_mask()]))))
    return residuals
