"""Box grids in H^1 = R^3, horizontal/vertical stencils, cutoffs and quadrature.

Node-centered fields on a uniform box; the axis order is (x, y, t).
Horizontal derivatives combine axis derivatives with the coordinate-weighted
vertical derivative:

    X u = D_x u - (y/2) D_t u,
    Y u = D_y u + (x/2) D_t u,

using second-order central differences in the interior and one-sided
second-order stencils on the faces, so the stencils are exact on polynomials
of degree <= 2 in the differenced variable.  Quadrature is a trapezoid-type
node-weight sum; gauge balls get fractional boundary-cell weights so that
volume scaling studies are meaningful at desk resolutions.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .heisenberg import gauge_squared, horizontal, translate

__all__ = [
    "Grid",
    "ScalarField",
    "HorizontalField",
    "CutoffFunction",
    "GaugeBall",
    "axis_derivative",
    "horizontal_gradient",
    "vertical_derivative",
    "horizontal_hessian",
    "hessian_frobenius",
    "gauge_distance_field",
    "make_cutoff",
    "integrate",
    "ball_average",
    "ball_node_mask",
    "save_field_binary",
]


@dataclass(frozen=True)
class Grid:
    """Uniform node-centered grid over a box with axes (x, y, t)."""

    shape: tuple[int, ...]
    lo: tuple[float, ...]
    hi: tuple[float, ...]
    dim = 3

    def __post_init__(self):
        if len(self.shape) != 3 or len(self.lo) != 3 or len(self.hi) != 3:
            raise ValueError("expected 3 axes (x, y, t)")
        if any(s < 3 for s in self.shape):
            raise ValueError("need at least 3 nodes per axis")
        if any(b <= a for a, b in zip(self.lo, self.hi)):
            raise ValueError("box extents must have positive length")

    @classmethod
    def from_box(cls, box, resolution) -> "Grid":
        """Build a grid from per-axis extents and node counts.

        ``resolution`` is one node count for all axes or a sequence.
        """
        box = [(float(a), float(b)) for a, b in box]
        if len(box) != 3:
            raise ValueError("expected 3 box extents")
        if np.isscalar(resolution):
            res = [int(resolution)] * 3
        else:
            res = [int(r) for r in resolution]
        return cls(shape=tuple(res), lo=tuple(a for a, _ in box), hi=tuple(b for _, b in box))

    @property
    def spacing(self) -> np.ndarray:
        return (np.asarray(self.hi) - np.asarray(self.lo)) / (np.asarray(self.shape) - 1)

    @property
    def cell_volume(self) -> float:
        return float(np.prod(self.spacing))

    def axis(self, k: int) -> np.ndarray:
        return np.linspace(self.lo[k], self.hi[k], self.shape[k])

    def coord(self, k: int) -> np.ndarray:
        """Node coordinate along axis k, broadcastable to the grid shape."""
        shape = [1] * self.dim
        shape[k] = self.shape[k]
        return self.axis(k).reshape(shape)

    def coords(self) -> list[np.ndarray]:
        """Node coordinates of every axis (t last), broadcastable to the grid shape."""
        return [self.coord(k) for k in range(self.dim)]

    def cell_coord(self, k: int) -> np.ndarray:
        """Cell-center coordinate along axis k, broadcastable to the cell shape."""
        ax = self.axis(k)
        mid = 0.5 * (ax[:-1] + ax[1:])
        shape = [1] * self.dim
        shape[k] = self.shape[k] - 1
        return mid.reshape(shape)

    def refined(self) -> "Grid":
        """Grid with every axis spacing halved (shape 2N-1)."""
        return Grid(tuple(2 * s - 1 for s in self.shape), self.lo, self.hi)


@dataclass(frozen=True)
class ScalarField:
    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != self.grid.shape:
            raise ValueError(f"value shape {v.shape} does not match grid shape {self.grid.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError("field values must be finite")
        object.__setattr__(self, "values", v)


@dataclass(frozen=True)
class HorizontalField:
    """The (X, Y) components per node, stored with the component axis first."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (2,) + self.grid.shape:
            raise ValueError(f"expected shape {(2,) + self.grid.shape}, got {v.shape}")
        object.__setattr__(self, "values", v)

    def norm(self) -> np.ndarray:
        return np.sqrt(np.sum(self.values ** 2, axis=0))


def axis_derivative(values: np.ndarray, h: float, axis: int) -> np.ndarray:
    """Second-order ``np.gradient`` along one axis: central inside, one-sided on the faces."""
    return np.gradient(values, h, axis=axis, edge_order=2)


def vertical_derivative(u: ScalarField) -> ScalarField:
    return ScalarField(u.grid, axis_derivative(u.values, u.grid.spacing[-1], u.grid.dim - 1))


def _horizontal_components(grid: Grid, values: np.ndarray) -> np.ndarray:
    derivs = [axis_derivative(values, grid.spacing[k], k) for k in range(grid.dim)]
    return horizontal(derivs, grid.coords())


def horizontal_gradient(u: ScalarField) -> HorizontalField:
    return HorizontalField(u.grid, _horizontal_components(u.grid, u.values))


def horizontal_hessian(xu: HorizontalField) -> np.ndarray:
    """Discrete horizontal Hessian from the field Xu, shape (2, 2, *grid).

    Entry [i, j] is X_j X_i u, with X_0 = X and X_1 = Y.
    """
    out = np.empty((2,) + xu.values.shape)
    for i in range(2):
        out[i] = _horizontal_components(xu.grid, xu.values[i])
    return out


def hessian_frobenius(hess: np.ndarray) -> np.ndarray:
    return np.sqrt(np.sum(hess ** 2, axis=(0, 1)))


# --------------------------------------------------------------------------
# gauge geometry
# --------------------------------------------------------------------------


def gauge_distance_field(grid: Grid, center, offsets=None) -> np.ndarray:
    """Left-invariant gauge distance ||center^{-1} . x|| at every node.

    ``offsets`` optionally shifts every node by a constant vector (used for
    sub-cell sampling).
    """
    coords = grid.coords()
    if offsets is not None:
        coords = [x + o for x, o in zip(coords, np.asarray(offsets, dtype=float))]
    return np.sqrt(gauge_squared(translate(center, coords)))


@dataclass(frozen=True)
class GaugeBall:
    """Ball of the gauge quasi-distance, used as an integration region."""

    center: tuple[float, ...]
    radius: float

    def __post_init__(self):
        if not self.radius > 0:
            raise ValueError("radius must be positive")
        object.__setattr__(self, "center", tuple(float(c) for c in self.center))
        object.__setattr__(self, "radius", float(self.radius))

    def fits_inside(self, grid: Grid) -> bool:
        x, y, _ = self.center
        r = self.radius
        # the vertical extent of the gauge ball scales quadratically, plus the
        # twist of the left translation
        t_span = r ** 2 + 0.5 * r * (abs(x) + abs(y))
        return all(c - s >= lo and c + s <= hi
                   for c, s, lo, hi in zip(self.center, (r, r, t_span), grid.lo, grid.hi))


def ball_node_mask(grid: Grid, ball: GaugeBall) -> np.ndarray:
    return gauge_distance_field(grid, np.asarray(ball.center)) <= ball.radius


@functools.lru_cache(maxsize=32)
def _trapezoid_weights(grid: Grid) -> np.ndarray:
    w = np.ones(grid.shape)
    for k in range(grid.dim):
        axis_w = np.ones(grid.shape[k])
        axis_w[0] = axis_w[-1] = 0.5
        shape = [1] * grid.dim
        shape[k] = grid.shape[k]
        w = w * (axis_w * grid.spacing[k]).reshape(shape)
    return w


@functools.lru_cache(maxsize=4)
def _corner_extrema(grid: Grid, center: tuple[float, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Min and max gauge distance from center over the 2^d corners of each node cell."""
    h = grid.spacing
    corner_min = np.full(grid.shape, np.inf)
    corner_max = np.full(grid.shape, -np.inf)
    for signs in np.ndindex(*(2,) * grid.dim):
        off = (np.asarray(signs) - 0.5) * h
        rho = gauge_distance_field(grid, np.asarray(center), offsets=off)
        corner_min = np.minimum(corner_min, rho)
        corner_max = np.maximum(corner_max, rho)
    return corner_min, corner_max


@functools.lru_cache(maxsize=32)
def _ball_weights(grid: Grid, ball: GaugeBall) -> np.ndarray:
    """Trapezoid weight times the fraction of each node cell inside the ball.

    The fraction is exact 0/1 away from the shell and counted on 4^d
    sub-cell points in shell cells; the corner distances are shared by every
    ball about the same center.
    """
    sub = 4
    h = grid.spacing
    corner_min, corner_max = _corner_extrema(grid, ball.center)
    # the gauge ball is convex, so a cell is inside iff all its corners are;
    # the outer test pads by one cell's worth of variation to be safe
    inside = corner_max <= ball.radius
    variation = corner_max - corner_min
    outside = corner_min > ball.radius + variation
    shell = ~inside & ~outside
    coverage = inside.astype(float)
    if np.any(shell):
        idx = np.nonzero(shell)
        pts = np.stack([grid.axis(k)[idx[k]] for k in range(grid.dim)], axis=-1)
        count = np.zeros(pts.shape[0])
        steps = (np.arange(sub) + 0.5) / sub - 0.5
        for offs in np.ndindex(*(sub,) * grid.dim):
            shift = np.array([steps[o] for o in offs]) * h
            q = pts + shift
            count += gauge_squared(translate(ball.center, list(q.T))) <= ball.radius ** 2
        coverage[idx] = count / float(sub ** grid.dim)
    return _trapezoid_weights(grid) * coverage


def integrate(f, region=None) -> float:
    """Trapezoid-type weighted node sum of a field over the box (``None``) or a gauge ball."""
    if not isinstance(f, ScalarField):
        raise TypeError("integrate expects a ScalarField")
    grid = f.grid
    if region is None:
        return float(np.sum(_trapezoid_weights(grid) * f.values))
    if not isinstance(region, GaugeBall):
        raise TypeError("an integration region is the box (None) or a GaugeBall")
    if not region.fits_inside(grid):
        raise ValueError("integration ball reaches outside the grid")
    w_ball = _ball_weights(grid, region)
    if not np.any(w_ball > 0):
        raise ValueError("empty integration region")
    return float(np.sum(w_ball * f.values))


def ball_average(f: ScalarField, ball: GaugeBall) -> float:
    return integrate(f, ball) / float(np.sum(_ball_weights(f.grid, ball)))


# --------------------------------------------------------------------------
# cutoff functions
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class CutoffFunction:
    """Radial gauge bump: 1 on the inner ball, 0 outside the outer ball.

    Carries the derivative fields, the cost constant
    K_eta = ||X eta||_inf^2 + ||eta T eta||_inf, and supp eta: the outer
    gauge ball, the region of the audits' supp eta integrals.
    """

    eta: ScalarField
    grad: HorizontalField
    t_deriv: ScalarField
    k_eta: float
    ball: GaugeBall


def _smoothstep(s: np.ndarray) -> np.ndarray:
    s = np.clip(s, 0.0, 1.0)
    return s * s * s * (10.0 + s * (-15.0 + 6.0 * s))


def _smoothstep_slope(s: np.ndarray) -> np.ndarray:
    inside = (s > 0.0) & (s < 1.0)
    sc = np.where(inside, s, 0.0)
    return np.where(inside, 30.0 * sc * sc * (1.0 - sc) ** 2, 0.0)


def make_cutoff(grid: Grid, center, r_inner: float, r_outer: float) -> CutoffFunction:
    """Quintic-smoothstep bump in the gauge distance with measured derivative bounds.

    The derivative fields X eta and T eta are evaluated in closed form (chain
    rule through the smoothstep and the gauge distance), so the stored cost
    constant K_eta samples the continuum cutoff and is stable under grid
    refinement; the discrete stencils applied to eta agree to O(h^2).  On the
    plane tau = 0, where |tau| has no derivative, they take the tau -> 0+
    limits; both one-sided limits of |X eta|^2 agree there.
    """
    if not (0 < r_inner < r_outer):
        raise ValueError("need 0 < r_inner < r_outer (degenerate annulus rejected)")
    ball = GaugeBall(center, r_outer)
    if not ball.fits_inside(grid):
        raise ValueError("outer ball reaches outside the grid")
    # supp eta's quadrature weights are cached now, before any full-grid temporaries
    _ball_weights(grid, ball)
    rel = translate(center, grid.coords())
    rho = np.sqrt(gauge_squared(rel))
    width = r_outer - r_inner
    s = (rho - r_inner) / width
    eta = ScalarField(grid, 1.0 - _smoothstep(s))
    # chain rule: X eta = -S'(s)/width * X rho with X rho = (X q)/(2 rho),
    # q = |x - c|_spatial^2 + |tau|, tau the translated vertical coordinate
    sgn = np.where(rel[-1] < 0, -1.0, 1.0)
    safe_rho = np.where(rho > 0, rho, 1.0)
    scale = np.where(rho > 0, -_smoothstep_slope(s) / (width * 2.0 * safe_rho), 0.0)
    # X tau = -(y - c_y)/2, Y tau = (x - c_x)/2
    grad_vals = np.empty((2,) + grid.shape)
    grad_vals[0] = scale * (2.0 * rel[0] + sgn * (-0.5 * rel[1]))
    grad_vals[1] = scale * (2.0 * rel[1] + sgn * (0.5 * rel[0]))
    grad = HorizontalField(grid, grad_vals)
    t_deriv = ScalarField(grid, scale * sgn * np.ones(grid.shape))
    k_eta = float(np.max(grad.norm())) ** 2 + float(np.max(np.abs(eta.values * t_deriv.values)))
    return CutoffFunction(eta=eta, grad=grad, t_deriv=t_deriv, k_eta=k_eta, ball=ball)


# --------------------------------------------------------------------------
# serialization
# --------------------------------------------------------------------------


def refine_values(values: np.ndarray) -> np.ndarray:
    """Trilinear prolongation onto the once-refined grid (shape 2N-1 per axis)."""
    out = values
    for axis in range(values.ndim):
        v = np.moveaxis(out, axis, 0)
        fine = np.empty((2 * v.shape[0] - 1,) + v.shape[1:])
        fine[::2] = v
        fine[1::2] = 0.5 * (v[:-1] + v[1:])
        out = np.moveaxis(fine, 0, axis)
    return out


def save_field_binary(path, field: ScalarField):
    """Flat layout: header (the 3 axis sizes, the 3 spacings) as float64 LE, then C-order values."""
    grid = field.grid
    header = np.array([*grid.shape, *grid.spacing], dtype="<f8")
    with open(path, "wb") as fh:
        fh.write(header.tobytes())
        fh.write(np.ascontiguousarray(field.values, dtype="<f8").tobytes())
