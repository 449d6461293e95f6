"""Variational finite-difference solver for the Dirichlet problem div_H A(Xu) = 0.

The discretization is cell-based: on every grid cell the horizontal gradient
is formed from forward differences averaged over the transverse corner pairs
(the standard staggering cure against odd-even decoupling), and the energy

    E(u) = sum_cells G_eps(|Xu|) * cell_volume

is minimized over the interior node values by L-BFGS descent with Armijo
backtracking (armijo 1e-4, halving).  The assembled gradient of E is exactly
the discrete weak form residual max_phi |sum <A_eps(Xu), X phi>| over unit
node bumps phi, with A_eps(z) = F_eps(|z|) z, so the stopping test and the
weak-solution contract coincide.  That A_eps is `operator.regularized_operator`,
the map `operator-check` certifies.  `_weak_form` is the one assembly of
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

from .grid import Grid, ScalarField
from .heisenberg import GroupPoint, horizontal, horizontal_adjoint, translate
from .operator import regularized_energy_density, regularized_weight
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
    "barrier_field",
    "barrier_residual_study",
    "EuclideanBallDomain",
    "GaugeBallDomain",
    "strong_convexity_margin",
    "best_strong_convexity_constant",
]


class NonConvergenceError(RuntimeError):
    """A failed harmonic start; also raised by callers that insist on a converged solve."""


INIT_MODES = ("zero", "boundary", "harmonic")


# --------------------------------------------------------------------------
# cell-based operators
# --------------------------------------------------------------------------


def _avg(v: np.ndarray, axis: int) -> np.ndarray:
    lo = [slice(None)] * v.ndim
    hi = [slice(None)] * v.ndim
    lo[axis] = slice(None, -1)
    hi[axis] = slice(1, None)
    out = v[tuple(lo)] + v[tuple(hi)]
    out *= 0.5
    return out


def _dif(v: np.ndarray, axis: int) -> np.ndarray:
    lo = [slice(None)] * v.ndim
    hi = [slice(None)] * v.ndim
    lo[axis] = slice(None, -1)
    hi[axis] = slice(1, None)
    return v[tuple(hi)] - v[tuple(lo)]


def _avg_T(v: np.ndarray, axis: int) -> np.ndarray:
    shape = list(v.shape)
    shape[axis] += 1
    out = np.zeros(shape)
    lo = [slice(None)] * v.ndim
    hi = [slice(None)] * v.ndim
    lo[axis] = slice(None, -1)
    hi[axis] = slice(1, None)
    out[tuple(lo)] += v
    out[tuple(hi)] += v
    out *= 0.5  # halving is exact, so this equals adding 0.5 * v twice
    return out


def _dif_T(v: np.ndarray, axis: int) -> np.ndarray:
    shape = list(v.shape)
    shape[axis] += 1
    out = np.zeros(shape)
    lo = [slice(None)] * v.ndim
    hi = [slice(None)] * v.ndim
    lo[axis] = slice(None, -1)
    hi[axis] = slice(1, None)
    out[tuple(lo)] -= v
    out[tuple(hi)] += v
    return out


def _axis_cell_derivative(grid: Grid, values: np.ndarray, axis: int) -> np.ndarray:
    out = _dif(values, axis)
    out /= grid.spacing[axis]
    for b in range(grid.dim):
        if b != axis:
            out = _avg(out, b)
    return out


def _axis_cell_derivative_T(grid: Grid, w: np.ndarray, axis: int) -> np.ndarray:
    out = w / grid.spacing[axis]
    for b in range(grid.dim):
        if b != axis:
            out = _avg_T(out, b)
    return _dif_T(out, axis)


def _cell_coords(grid: Grid, first: int, planes: int) -> list[np.ndarray]:
    """grid.cell_coord(k) of every axis, on the cell planes first..first+planes-1 of axis 0."""
    coords = [grid.cell_coord(k) for k in range(grid.dim)]
    coords[0] = coords[0][first:first + planes]
    return coords


def cell_gradient(grid: Grid, values: np.ndarray, first: int = 0) -> np.ndarray:
    """Horizontal gradient at cell centers, shape (2n, *cellshape).

    ``values`` holds the grid's node planes along axis 0 from plane ``first``
    on (all of them by default); the result covers the cells between them.
    """
    derivs = [_axis_cell_derivative(grid, values, k) for k in range(grid.dim)]
    return horizontal(derivs, _cell_coords(grid, first, derivs[0].shape[0]))


def cell_gradient_adjoint(grid: Grid, w: np.ndarray, first: int = 0) -> np.ndarray:
    """Adjoint of cell_gradient: cell vector fields to node values.

    ``w`` covers the cell planes along axis 0 from plane ``first`` on; the
    result covers the node planes around them.
    """
    n = grid.n
    out = np.zeros(tuple(s + 1 for s in w.shape[1:]))
    for i in range(n):
        out += _axis_cell_derivative_T(grid, w[i], i)
        out += _axis_cell_derivative_T(grid, w[n + i], n + i)
    t_load = horizontal_adjoint(w, _cell_coords(grid, first, w.shape[1]))
    out += _axis_cell_derivative_T(grid, t_load, grid.dim - 1)
    return out


# --------------------------------------------------------------------------
# problem and report
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class DirichletProblem:
    """Dirichlet data for div_H A_eps(Xu) = 0 on the interior nodes of the grid.

    ``boundary`` is a full-grid field whose values on the boundary nodes are
    the Dirichlet data (interior values are only used as an initial guess by
    ``init='boundary'``).
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
    converged: bool = True
    stop_reason: str = "tol"


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

    ``init`` is 'zero' (zero-fill), 'boundary' (keep the extension stored in
    the boundary field), 'harmonic' (quadratic-energy extension) or a full
    array of start values.  Returns the solution field and a SolveReport;
    an exhausted iteration budget or a stalled line search is flagged (with
    its stop_reason), not raised.
    """
    grid = prob.grid
    mask = prob.interior
    u = prob.boundary.values.copy()
    if isinstance(init, str):
        if init not in INIT_MODES:
            raise ValueError(f"unknown init {init!r}")
        if init == "zero":
            u[mask] = 0.0
        elif init == "harmonic":
            u = _harmonic_init(prob)
    else:
        arr = np.asarray(init, dtype=float)
        if arr.shape != grid.shape:
            raise ValueError("init array shape mismatch")
        u[mask] = arr[mask]

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
        accepted = False
        # near the minimizer genuine decreases drop below the float resolution
        # of the energy; the allowance keeps full steps acceptable there while
        # the gradient is still being polished
        noise = 4.0 * np.finfo(float).eps * (abs(energy) + 1.0)
        best = None
        for _ in range(40):
            x_new = x + alpha * d
            e_new, g_new, cap_new = evaluate(x_new)
            if best is None or e_new < best[0]:
                best = (e_new, x_new, g_new, cap_new)
            if e_new <= energy + 1e-4 * alpha * gd + noise:
                accepted = True
                break
            alpha *= 0.5
        if not accepted:
            e_new, x_new, g_new, cap_new = best
            r_new = float(np.max(np.abs(g_new)))
            # last resort: a strict residual improvement at flat energy
            if e_new <= energy + noise and r_new < res:
                accepted = True
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
        converged=bool(converged),
        stop_reason="tol" if converged else stop_reason,
    )
    return ScalarField(grid, u.copy()), report


def comparison_check(prob_u: DirichletProblem, prob_v: DirichletProblem, init="zero") -> float:
    """Solve both problems and return min over the interior of (u - v).

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
    u, ru = solve_dirichlet(prob_u, init=init)
    v, rv = solve_dirichlet(prob_v, init=init)
    if not (ru.converged and rv.converged):
        raise NonConvergenceError("comparison solves did not converge")
    gap = u.values - v.values
    return float(np.min(gap[prob_u.interior]))


# --------------------------------------------------------------------------
# barriers
# --------------------------------------------------------------------------


def _affine_samples(grid: Grid, value: float, vec, base) -> np.ndarray:
    """value + vec.(x - base) at the grid nodes."""
    vals = np.full(grid.shape, float(value))
    for k in range(grid.dim):
        vals = vals + vec[k] * (grid.coord(k) - base[k])
    return vals


def barrier_field(grid: Grid, base: GroupPoint, value: float, gradient, b, K: float) -> ScalarField:
    """Euclidean-affine barrier value + (gradient + K b).(x - base) sampled on the grid."""
    b = np.asarray(b, dtype=float)
    if abs(float(np.linalg.norm(b)) - 1.0) > 1e-12:
        raise ValueError("b must be a unit vector")
    vec = np.asarray(gradient, dtype=float) + float(K) * b
    if vec.size != grid.dim:
        raise ValueError("gradient dimension mismatch")
    return ScalarField(grid, _affine_samples(grid, value, vec, np.asarray(base.coords, dtype=float)))


def _affine_coefficients(L: ScalarField):
    grid = L.grid
    corner_idx = (0,) * grid.dim
    v0 = L.values[corner_idx]
    vec = np.empty(grid.dim)
    for k in range(grid.dim):
        idx = [0] * grid.dim
        idx[k] = 1
        vec[k] = (L.values[tuple(idx)] - v0) / grid.spacing[k]
    rebuilt = _affine_samples(grid, v0, vec, grid.lo)
    scale = 1.0 + float(np.max(np.abs(L.values)))
    if np.max(np.abs(rebuilt - L.values)) > 1e-9 * scale:
        raise ValueError("field is not affine")
    return float(v0), vec


def barrier_residual_study(L: ScalarField, triple: OrliczTriple, refinements: int) -> list[float]:
    """Weak residual of an affine field under the raw operator, across mesh halvings.

    Affine fields solve the equation exactly (their horizontal Hessian is
    skew-symmetric), so the discrete residual is pure truncation error and
    must decrease with order >= 1.  Raises when the horizontal gradient
    degenerates somewhere while F is singular at 0 (rerun with eps > 0).
    """
    if refinements < 0:
        raise ValueError("refinements must be nonnegative")
    v0, vec = _affine_coefficients(L)

    def weight(r):  # g(r)/r with 0 at r = 0: the raw operator `prototype_A`
        safe = np.where(r > 0, r, 1.0)
        return np.where(r > 0, triple.g(safe) / safe, 0.0)

    residuals = []
    grid = L.grid
    for _ in range(refinements + 1):
        (r_min, _, _), res_field = _weak_form(grid, _affine_samples(grid, v0, vec, grid.lo), weight)
        if r_min < 1e-12 and triple.f_zero is None:
            raise ValueError("|XL| vanishes on the grid and F is singular at 0; rerun regularized")
        residuals.append(float(np.max(np.abs(res_field[grid.interior_mask()]))))
        grid = grid.refined()
    return residuals


# --------------------------------------------------------------------------
# strong convexity of domains
# --------------------------------------------------------------------------


def _fibonacci_sphere(m: int) -> np.ndarray:
    k = np.arange(m) + 0.5
    phi = np.arccos(1.0 - 2.0 * k / m)
    theta = math.pi * (1.0 + math.sqrt(5.0)) * k
    return np.stack([np.sin(phi) * np.cos(theta), np.sin(phi) * np.sin(theta), np.cos(phi)], axis=1)


@dataclass(frozen=True)
class EuclideanBallDomain:
    """Round ball in R^(2n+1); the strong-convexity oracle: best eps0 = 1/(2R)."""

    center: tuple[float, ...]
    radius: float

    def boundary_points(self, m: int) -> np.ndarray:
        if len(self.center) != 3:
            raise NotImplementedError("deterministic sphere sampling implemented for n = 1")
        return np.asarray(self.center) + self.radius * _fibonacci_sphere(m)

    def inward_normal(self, y: np.ndarray) -> np.ndarray:
        v = np.asarray(self.center) - y
        return v / np.linalg.norm(v)


@dataclass(frozen=True)
class GaugeBallDomain:
    """Gauge-norm ball (convex: the squared gauge is convex and the translation is affine)."""

    center: tuple[float, ...]
    radius: float

    def _n(self) -> int:
        return (len(self.center) - 1) // 2

    def boundary_points(self, m: int) -> np.ndarray:
        n = self._n()
        if n != 1:
            raise NotImplementedError("boundary sampling implemented for n = 1")
        r = self.radius
        m_s = max(3, int(math.sqrt(m / 2)))
        m_th = max(4, int(m / (2 * m_s)))
        s = np.linspace(0.0, r, m_s)[:, None, None]
        th = np.linspace(0.0, 2 * math.pi, m_th, endpoint=False)[None, :, None]
        sign = np.array([1.0, -1.0])
        tmag = r * r - s * s
        shape = (m_s, m_th, 2)
        keep = np.broadcast_to((tmag != 0.0) | (sign > 0), shape)  # the equator edge only once
        w = [np.broadcast_to(v, shape)[keep] for v in (s * np.cos(th), s * np.sin(th), sign * tmag)]
        # boundary points c . w of the ball about c are the translates of w by c^{-1}
        return np.stack(translate(-np.asarray(self.center, dtype=float), w), axis=1)

    def inward_normal(self, y: np.ndarray) -> np.ndarray:
        n = self._n()
        c = np.asarray(self.center, dtype=float)
        rel = translate(c, y)
        grad = np.empty(2 * n + 1)
        sgn = np.sign(rel[-1])  # 0 on the equator edge: the subgradient choice drops the t part
        grad[:2 * n] = 2.0 * np.array(rel[:-1])
        # chain rule through the affine vertical part of the left translation
        grad[:n] += sgn * 0.5 * c[n:2 * n]
        grad[n:2 * n] -= sgn * 0.5 * c[:n]
        grad[-1] = sgn
        norm = np.linalg.norm(grad)
        if norm == 0:
            raise ValueError("degenerate boundary point")
        return -grad / norm


def strong_convexity_margin(domain, eps0: float, boundary_samples: int = 512) -> float:
    """min over sampled boundary pairs (x, y) of b(y).(x - y) - eps0 |x - y|^2."""
    pts = domain.boundary_points(boundary_samples)
    worst = math.inf
    for y in pts:
        b = domain.inward_normal(y)
        diff = pts - y
        d2 = np.sum(diff * diff, axis=1)
        live = d2 > 0
        margins = diff[live] @ b - eps0 * d2[live]
        if margins.size:
            worst = min(worst, float(margins.min()))
    return worst


def best_strong_convexity_constant(domain, boundary_samples: int = 512) -> float:
    """Largest eps0 with nonnegative margin on the sampled pairs (clipped at 0)."""
    pts = domain.boundary_points(boundary_samples)
    best = math.inf
    for y in pts:
        b = domain.inward_normal(y)
        diff = pts - y
        d2 = np.sum(diff * diff, axis=1)
        live = d2 > 0
        ratios = (diff[live] @ b) / d2[live]
        if ratios.size:
            best = min(best, float(ratios.min()))
    return max(best, 0.0)
