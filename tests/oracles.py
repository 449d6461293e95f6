"""Independent reference computations used to freeze expected test values.

These deliberately take different code paths from the library: the linear
Kohn-Laplace system is assembled from sparse Kronecker products (the solver
uses slicing-based operators), the cell gradient and its adjoint average each
axis derivative over the other axes one at a time (the solver shares one
chain of pair sums across axes), Jacobians come from central differences or,
for the prototype, from its closed form F I + (g' - F) z z^T / r^2,
integrals of growth laws come from scipy's adaptive quadrature (conjugates
included: the library uses the Fenchel-Young equality, the reference
integrates the inverse; regularized energy densities included: the library
looks them up in a cumulative table), and the p-Laplace solver is checked against the
closed-form gauge fundamental solution.  The generalized inverse is checked
against plain bisection on the same bracket (the library takes ITP steps).
The L-BFGS two-loop recursion is checked against the dense BFGS
inverse-Hessian update, and G_eps against its two-branch formula evaluated on
every call.  The audit integrals are checked
on a manufactured field whose derivatives are written in closed form,
against a closed-form cutoff and tensor Gauss-Legendre quadrature on gauge
balls (the library samples the cutoff at nodes and sums trapezoid weights).
Gauge-ball weights and the cutoff's fields have full-grid references, the
library's formulas evaluated at every node of the grid (the library
evaluates them on the ball's node box only).
"""

import numpy as np
import scipy.integrate
import scipy.optimize
import scipy.sparse
import scipy.sparse.linalg

from solab.grid import GaugeBall, Grid, _smoothstep as _library_smoothstep, _smoothstep_slope, gauge_distance_field
from solab.heisenberg import gauge_squared, horizontal, horizontal_adjoint, translate
from solab.orlicz import _LogCumTable


def _diff_matrix(m: int, h: float) -> scipy.sparse.csr_matrix:
    return scipy.sparse.diags([-np.ones(m - 1), np.ones(m - 1)], [0, 1],
                              shape=(m - 1, m)).tocsr() / h


def _avg_matrix(m: int) -> scipy.sparse.csr_matrix:
    return scipy.sparse.diags([0.5 * np.ones(m - 1), 0.5 * np.ones(m - 1)], [0, 1],
                              shape=(m - 1, m)).tocsr()


def kohn_laplace_matrix(grid: Grid) -> scipy.sparse.csr_matrix:
    """Stiffness matrix of the quadratic (p=2) cell energy, via kron assembly."""
    n1, n2, n3 = grid.shape
    h1, h2, h3 = grid.spacing
    dx1 = scipy.sparse.kron(scipy.sparse.kron(_diff_matrix(n1, h1), _avg_matrix(n2)), _avg_matrix(n3))
    dx2 = scipy.sparse.kron(scipy.sparse.kron(_avg_matrix(n1), _diff_matrix(n2, h2)), _avg_matrix(n3))
    dt = scipy.sparse.kron(scipy.sparse.kron(_avg_matrix(n1), _avg_matrix(n2)), _diff_matrix(n3, h3))
    mid = lambda ax: 0.5 * (grid.axis(ax)[:-1] + grid.axis(ax)[1:])
    c1, c2 = mid(0), mid(1)
    ones1, ones2, ones3 = np.ones(n1 - 1), np.ones(n2 - 1), np.ones(n3 - 1)
    x2c = np.kron(np.kron(ones1, c2), ones3)
    x1c = np.kron(np.kron(c1, ones2), ones3)
    X1 = dx1 - scipy.sparse.diags(0.5 * x2c) @ dt
    X2 = dx2 + scipy.sparse.diags(0.5 * x1c) @ dt
    vol = grid.cell_volume
    return (vol * (X1.T @ X1 + X2.T @ X2)).tocsr()


def _halves(ndim: int, axis: int) -> tuple[tuple, tuple]:
    lo = [slice(None)] * ndim
    hi = [slice(None)] * ndim
    lo[axis] = slice(None, -1)
    hi[axis] = slice(1, None)
    return tuple(lo), tuple(hi)


def _cell_coords(grid: Grid, first: int, planes: int) -> list[np.ndarray]:
    coords = [grid.cell_coord(k) for k in range(grid.dim)]
    coords[0] = coords[0][first:first + planes]
    return coords


def averaging_cell_gradient(grid: Grid, values: np.ndarray, first: int = 0) -> np.ndarray:
    """Cell-centre X u: each edge difference averaged over the neighbour pairs of every other axis in turn."""
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


def averaging_cell_gradient_adjoint(grid: Grid, w: np.ndarray, first: int = 0) -> np.ndarray:
    """Transpose of averaging_cell_gradient, one axis load at a time, each spread over every other axis."""
    dim = grid.dim
    t_load = horizontal_adjoint(w, _cell_coords(grid, first, w.shape[1]))
    loads = [(w[0], 0), (w[1], 1), (t_load, 2)]
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
                spread *= 0.5
                part = spread
        lo, hi = _halves(dim, k)
        edges = np.zeros(out.shape)
        edges[lo] -= part
        edges[hi] += part
        out += edges
    return out


def solve_kohn_laplace(grid: Grid, boundary_values: np.ndarray) -> np.ndarray:
    """Direct sparse solve of the discrete p=2 Dirichlet problem on the interior nodes."""
    H = kohn_laplace_matrix(grid)
    mask = np.zeros(grid.shape, dtype=bool)
    mask[1:-1, 1:-1, 1:-1] = True
    mask = mask.ravel()
    ub = boundary_values.ravel().copy()
    ub[mask] = 0.0
    rhs = -(H @ ub)[mask]
    Hii = H[mask][:, mask]
    sol = boundary_values.ravel().copy()
    sol[mask] = scipy.sparse.linalg.spsolve(Hii.tocsc(), rhs)
    return sol.reshape(grid.shape)


def gauge_fundamental_solution(p: float, x1, x2, t):
    """u = N^{(p-Q)/(p-1)} with N = (|x|^4 + 16 t^2)^{1/4} and Q = 4.

    With X1 = d/dx1 - (x2/2) d/dt and X2 = d/dx2 + (x1/2) d/dt this solves
    div_H(|Xu|^{p-2} Xu) = 0 away from the origin (Capogna-Danielli-Garofalo,
    Amer. J. Math. 118, 1996; Heinonen-Holopainen, J. Geom. Anal. 7, 1997).
    """
    gauge = ((x1 * x1 + x2 * x2) ** 2 + 16.0 * t * t) ** 0.25
    return gauge ** ((p - 4.0) / (p - 1.0))


def fd_jacobian(a_map, z: np.ndarray, h_rel: float = 1e-6) -> np.ndarray:
    """Central-difference Jacobian of a vector map at a batch of points."""
    d = z.shape[-1]
    out = np.empty(z.shape + (d,))
    for j in range(d):
        h = h_rel * np.maximum(np.abs(z[..., j]), 1.0)
        zp = z.copy(); zp[..., j] += h
        zm = z.copy(); zm[..., j] -= h
        out[..., j] = (a_map(zp) - a_map(zm)) / (2 * h)[..., None]
    return out


def prototype_jacobian(g, z: np.ndarray) -> np.ndarray:
    """Closed-form Jacobian F I + (g' - F) z z^T / r^2 of g(|z|) z/|z|, F = g(r)/r, at z != 0."""
    r = np.linalg.norm(z, axis=-1)
    f = g(r) / r
    outer = np.einsum("...i,...j->...ij", z, z) / (r * r)[..., None, None]
    return f[..., None, None] * np.eye(z.shape[-1]) + (g.deriv(r) - f)[..., None, None] * outer


def quad_reference(f, t: float, points=None) -> float:
    """High-accuracy scipy.quad reference for integrals from 0 to t."""
    val, err = scipy.integrate.quad(lambda s: float(f(np.asarray(s))), 0.0, t,
                                    points=points, epsabs=1e-14, epsrel=1e-13, limit=400)
    return val


def energy_density_reference(g, eps: float, t: float) -> float:
    """G_eps(t) = int_0^t s F(min(s + eps, 1/eps)) ds by scipy quad, split where the weight bends and saturates."""
    def integrand(s):
        arg = min(s + eps, 1.0 / eps)
        return s * float(g(np.asarray(arg))) / arg

    points = [p for p in (eps, 1.0 / eps - eps) if 0 < p < t]
    val, err = scipy.integrate.quad(integrand, 0.0, t, points=points or None,
                                    epsabs=0.0, epsrel=1e-13, limit=400)
    return val


def conjugate_reference(g, s: float) -> float:
    """Conjugate G*(s) = int_0^s g^{-1} of G = int g: scipy brentq inverse inside scipy quad.

    g(1) and g(2) are the images of the glued family's knots, where g^{-1}
    loses smoothness; for the other families they only split the interval.
    """
    def inverse(tau):
        hi = 1.0
        while float(g(np.asarray(hi))) <= tau:
            hi *= 2.0
        return scipy.optimize.brentq(lambda t: float(g(np.asarray(t))) - tau, 0.0, hi,
                                     xtol=1e-300, rtol=4 * np.finfo(float).eps)

    points = [p for p in (float(g(np.asarray(1.0))), float(g(np.asarray(2.0)))) if 0 < p < s]
    val, err = scipy.integrate.quad(inverse, 0.0, s, points=points or None,
                                    epsabs=0.0, epsrel=1e-13, limit=400)
    return val


def bisection_inverse(psi, t):
    """inf{s >= 0 : psi(s) > t} by plain bisection, with the bracket and stopping rule of the library.

    The bracket grows x4 from 1 up to 1e150, and midpoints halve it until its
    width is at most 1e-10 or its ends are adjacent floats.  The bracket top
    is evaluated a second time for the saturation test.
    """
    t_arr = np.asarray(t, dtype=float)
    tt = np.atleast_1d(t_arr).astype(float)
    if np.any(tt < 0):
        raise ValueError("generalized inverse is defined for t >= 0")
    hi = np.ones_like(tt)
    lo = np.zeros_like(tt)
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(300):
            exceeded = np.asarray(psi(hi)) > tt
            grow = ~exceeded & (hi < 1e150)
            if not np.any(grow):
                break
            lo = np.where(grow, hi, lo)
            hi = np.where(grow, hi * 4.0, hi)
        # a saturated bracket collapses onto its top
        lo = np.where(np.asarray(psi(hi)) > tt, lo, hi)
        for _ in range(600):
            mid = 0.5 * (lo + hi)
            # a midpoint equal to an endpoint cannot move it (float spacing exceeds 1e-10 there)
            open_ = ((hi - lo) > 1e-10) & (mid != lo) & (mid != hi)
            if not np.any(open_):
                break
            gt = np.asarray(psi(mid)) > tt
            hi = np.where(open_ & gt, mid, hi)
            lo = np.where(open_ & ~gt, mid, lo)
    vals = 0.5 * (lo + hi)
    return float(vals[0]) if t_arr.ndim == 0 else vals.reshape(t_arr.shape)


def bfgs_inverse_hessian(pairs, h0, n: int) -> np.ndarray:
    """Dense BFGS inverse Hessian: diag(h0) updated by the pairs (s, y), oldest first.

    ``h0`` is a scalar (h0 I) or a vector of n diagonal entries.
    H <- V^T H V + rho s s^T with V = I - rho y s^T and rho = 1/<s,y>.
    """
    h = np.diag(np.broadcast_to(np.asarray(h0, dtype=float), (n,)))
    for s, y in pairs:
        rho = 1.0 / float(s @ y)
        v = np.eye(n) - rho * np.outer(y, s)
        h = v.T @ h @ v + rho * np.outer(s, s)
    return h


def two_branch_energy_density(triple, eps: float):
    """G_eps(t) = B(min(t, T)) plus, where t > T = 1/eps - eps, the quadratic tail, on every call.

    The composition of `operator.regularized_energy_density` with both branches
    always evaluated; the table laws get their own table of s g(s+eps)/(s+eps).
    """
    T = 1.0 / eps - eps
    g = triple.g
    m2 = float(g(np.asarray(1.0 / eps)) * eps)
    if g.closed_G is None:
        body_at = _LogCumTable(lambda s: s * g(s + eps) / (s + eps))
        cap = body_at(T)
    else:
        g_eps_ref = float(triple.G(eps))
        h_eps_ref = float(triple.H(eps))
        cap = (float(triple.G(1.0 / eps)) - g_eps_ref) - eps * (float(triple.H(1.0 / eps)) - h_eps_ref)

        def body_at(core):
            return (triple.G(core + eps) - g_eps_ref) - eps * (triple.H(core + eps) - h_eps_ref)

    def g_eps(t):
        t = np.asarray(t, dtype=float)
        body = body_at(np.minimum(t, T))
        tail = np.where(t > T, cap + 0.5 * m2 * (t * t - T * T) - body, 0.0)
        out = body + tail
        return float(out) if out.ndim == 0 else out

    return g_eps


def manufactured_fields(x1, x2, t):
    """u = 0.5 x1 + 0.2 x2 + 0.4 x1 t (the README data) and |Xu|, Tu, |X(Tu)|, |XXu| in closed form.

    Xu = (0.5 + 0.4 t - 0.2 x1 x2, 0.2 + 0.2 x1^2), Tu = 0.4 x1, X(Tu) = (0.4, 0), and the
    horizontal Hessian X_j X_i u has X1X1u = -0.4 x2, X2X1u = 0, X1X2u = 0.4 x1, X2X2u = 0
    (X1X2u - X2X1u = Tu).  Every X-derivative is a polynomial of degree <= 2 in each
    variable, where the library's node stencils are exact.
    """
    u = 0.5 * x1 + 0.2 * x2 + 0.4 * x1 * t
    xu = np.hypot(0.5 + 0.4 * t - 0.2 * x1 * x2, 0.2 + 0.2 * x1 * x1)
    return u, xu, 0.4 * x1, 0.4 + 0.0 * x1, 0.4 * np.hypot(x1, x2)


def _smoothstep(s):
    """S(s) = 6s^5 - 15s^4 + 10s^3 on [0, 1], 0 below, 1 above; and S'(s) = 30 s^2 (1-s)^2 inside."""
    s = np.clip(s, 0.0, 1.0)
    return s ** 3 * (6.0 * s * s - 15.0 * s + 10.0), 30.0 * s * s * (1.0 - s) ** 2


def gauge_cutoff(r_inner: float, r_outer: float, x1, x2, t):
    """eta = 1 - S((rho - r_inner)/w), w = r_outer - r_inner, about the origin of H^1: eta, |X eta|^2, |T eta|.

    rho^2 = x1^2 + x2^2 + |t| has X(rho^2) = (2 x1 - sgn(t) x2/2, 2 x2 + sgn(t) x1/2), of squared
    length 17 |x|^2/4 whatever the sign of t, so |X rho| = sqrt(17) |x|/(4 rho); T rho = sgn(t)/(2 rho).
    """
    rho = np.sqrt(x1 * x1 + x2 * x2 + np.abs(t))
    w = r_outer - r_inner
    step, slope = _smoothstep((rho - r_inner) / w)
    safe = np.where(rho > 0, rho, 1.0)
    x_eta_sq = (slope / w) ** 2 * 17.0 * (x1 * x1 + x2 * x2) / (16.0 * safe * safe)
    return 1.0 - step, x_eta_sq, slope / (2.0 * w * safe)


def cutoff_cost(r_inner: float, r_outer: float) -> float:
    """K_eta = sup |X eta|^2 + sup |eta T eta| of `gauge_cutoff`.

    |X eta|^2 peaks on t = 0 (|x| = rho) where S' peaks, S'(1/2) = 15/8; eta |T eta| is a function
    of rho alone, maximized by scipy's bounded scalar search.
    """
    w = r_outer - r_inner

    def minus_eta_t_eta(s):
        step, slope = _smoothstep(np.asarray(s))
        return -float((1.0 - step) * slope / (2.0 * w * (r_inner + w * s)))

    best = scipy.optimize.minimize_scalar(minus_eta_t_eta, bounds=(0.0, 1.0), method="bounded",
                                          options={"xatol": 1e-12})
    return 17.0 / 16.0 * (15.0 / (8.0 * w)) ** 2 - best.fun


def gauge_ball_quadrature(radius: float, splits=(), order: int = 24):
    """Points (x1, x2, t) and weights of tensor Gauss-Legendre on the gauge ball rho <= radius of H^1.

    Gauge-polar coordinates x = rho c (cos th, sin th), t = +-rho^2 (1 - c^2), with c in [0, 1] and
    one chart per sign of t, follow the ball (|t| <= radius^2 - |x|^2) and have Jacobian 2 rho^3 c.
    The t = 0 split separates the charts, where X rho and T rho jump; ``splits`` are the radii
    where an integrand's rho-dependence loses smoothness (a cutoff's inner radius).
    """
    nodes, weights = np.polynomial.legendre.leggauss(order)

    def segment(a, b):
        return 0.5 * (b - a) * nodes + 0.5 * (a + b), 0.5 * (b - a) * weights

    cuts = [0.0, *splits, radius]
    rho, w_rho = map(np.concatenate, zip(*(segment(a, b) for a, b in zip(cuts, cuts[1:]))))
    c, w_c = segment(0.0, 1.0)
    th, w_th = segment(0.0, 2.0 * np.pi)
    rho, c, th = np.meshgrid(rho, c, th, indexing="ij")
    weight = (2.0 * rho ** 3 * c * np.einsum("i,j,k->ijk", w_rho, w_c, w_th)).ravel()
    x1, x2 = (rho * c * np.cos(th)).ravel(), (rho * c * np.sin(th)).ravel()
    height = (rho * rho * (1.0 - c * c)).ravel()
    return (np.concatenate([x1, x1]), np.concatenate([x2, x2]), np.concatenate([height, -height]),
            np.concatenate([weight, weight]))


def full_grid_ball_weights(grid: Grid, ball: GaugeBall) -> np.ndarray:
    """Trapezoid weight times the fraction of each node cell inside the ball, at every node.

    The fraction is exact 0/1 away from the shell, where the min and max gauge distance over
    the cell's corners are both on one side of the radius, and counted on 4^d sub-cell points
    in shell cells.
    """
    sub = 4
    h = grid.spacing
    trapezoid = np.ones(grid.shape)
    for k in range(grid.dim):
        axis_w = np.ones(grid.shape[k])
        axis_w[0] = axis_w[-1] = 0.5
        shape = [1] * grid.dim
        shape[k] = grid.shape[k]
        trapezoid = trapezoid * (axis_w * h[k]).reshape(shape)
    corner_min = np.full(grid.shape, np.inf)
    corner_max = np.full(grid.shape, -np.inf)
    for signs in np.ndindex(*(2,) * grid.dim):
        rho = gauge_distance_field(grid, np.asarray(ball.center), offsets=(np.asarray(signs) - 0.5) * h)
        corner_min = np.minimum(corner_min, rho)
        corner_max = np.maximum(corner_max, rho)
    inside = corner_max <= ball.radius
    shell = ~inside & ~(corner_min > ball.radius + (corner_max - corner_min))
    coverage = inside.astype(float)
    idx = np.nonzero(shell)
    pts = np.stack([grid.axis(k)[idx[k]] for k in range(grid.dim)], axis=-1)
    count = np.zeros(pts.shape[0])
    steps = (np.arange(sub) + 0.5) / sub - 0.5
    for offs in np.ndindex(*(sub,) * grid.dim):
        q = pts + np.array([steps[o] for o in offs]) * h
        count += gauge_squared(translate(ball.center, list(q.T))) <= ball.radius ** 2
    coverage[idx] = count / float(sub ** grid.dim)
    return trapezoid * coverage


def full_grid_cutoff(grid: Grid, center, r_inner: float, r_outer: float):
    """eta, X eta (shape (2, *grid)) and T eta of the library's smoothstep cutoff, at every node."""
    rel = translate(center, grid.coords())
    rho = np.sqrt(gauge_squared(rel))
    width = r_outer - r_inner
    s = (rho - r_inner) / width
    eta = 1.0 - _library_smoothstep(s)
    sgn = np.where(rel[-1] < 0, -1.0, 1.0)
    safe_rho = np.where(rho > 0, rho, 1.0)
    scale = np.where(rho > 0, -_smoothstep_slope(s) / (width * 2.0 * safe_rho), 0.0)
    grad = np.empty((2,) + grid.shape)
    grad[0] = scale * (2.0 * rel[0] + sgn * (-0.5 * rel[1]))
    grad[1] = scale * (2.0 * rel[1] + sgn * (0.5 * rel[0]))
    return eta, grad, scale * sgn * np.ones(grid.shape)
