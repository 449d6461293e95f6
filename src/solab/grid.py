"""Box grids in H^1 = R^3, horizontal/vertical stencils, cutoffs and quadrature.

A node field is a numpy array of the grid's shape, passed beside its
``Grid``; a horizontal field has its (X, Y) components on a leading axis of
length 2.  The axis order is (x, y, t).  Horizontal derivatives combine axis
derivatives with the coordinate-weighted vertical derivative:

    X u = D_x u - (y/2) D_t u,
    Y u = D_y u + (x/2) D_t u,

using second-order central differences in the interior and one-sided
second-order stencils on the faces, so the stencils are exact on polynomials
of degree <= 2 in the differenced variable.  They also run on a node box (a
tuple of index slices), where they give the whole grid's values except on a
box face inside the grid.  Quadrature is a trapezoid-type
node-weight sum; gauge balls get fractional boundary-cell weights so that
volume scaling studies are meaningful at desk resolutions: a proved bound on
the squared gauge over each node cell decides the cells wholly in or out of
the ball, and the rest count 4^3 sub-cell points.  Ball weights, node
masks and cutoffs live on the ball's node box: the index slices of the nodes
whose cells can meet the ball.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .heisenberg import gauge_squared, horizontal, translate

__all__ = [
    "Grid",
    "CutoffFunction",
    "GaugeBall",
    "axis_derivative",
    "horizontal_gradient",
    "vertical_derivative",
    "horizontal_hessian",
    "horizontal_norm",
    "gauge_distance_field",
    "make_cutoff",
    "integrate",
    "ball_volume",
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

    def coord(self, k: int, box=None) -> np.ndarray:
        """Node coordinate along axis k, broadcastable to the grid shape (or to a node box's)."""
        ax = self.axis(k) if box is None else self.axis(k)[box[k]]
        shape = [1] * self.dim
        shape[k] = ax.size
        return ax.reshape(shape)

    def coords(self, box=None) -> list[np.ndarray]:
        """Node coordinates of every axis (t last), broadcastable to the grid shape (or a node box's)."""
        return [self.coord(k, box) for k in range(self.dim)]

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


def axis_derivative(values: np.ndarray, h: float, axis: int) -> np.ndarray:
    """Second-order ``np.gradient`` along one axis: central inside, one-sided on the faces."""
    return np.gradient(values, h, axis=axis, edge_order=2)


def vertical_derivative(grid: Grid, u: np.ndarray) -> np.ndarray:
    return axis_derivative(u, grid.spacing[-1], grid.dim - 1)


def horizontal_gradient(grid: Grid, u: np.ndarray, box=None) -> np.ndarray:
    """The (X u, Y u) components per node, shape (2, *grid), of u on the grid or on a node box.

    On a box the stencils take the grid's spacing and the box's slice of its
    coordinates, so the values are the whole grid's bit for bit except on a
    box face inside the grid, which gets the one-sided stencil.
    """
    derivs = [axis_derivative(u, grid.spacing[k], k) for k in range(grid.dim)]
    return horizontal(derivs, grid.coords(box))


def horizontal_hessian(grid: Grid, xu: np.ndarray, box=None) -> np.ndarray:
    """Rows of the discrete horizontal Hessian from components of Xu, shape (len(xu), 2, *grid).

    Entry [i, j] is X_j X_i u, with X_0 = X and X_1 = Y, for the components
    xu[i] given: the whole field gives the (2, 2) Hessian, ``xu[i:i + 1]``
    its row i alone.  ``box`` is as for `horizontal_gradient`.
    """
    return np.stack([horizontal_gradient(grid, xi, box) for xi in xu])


def horizontal_norm(v: np.ndarray) -> np.ndarray:
    """|v| per node of a horizontal field v, shape (2, *grid)."""
    sq = v[0] ** 2
    sq += v[1] ** 2
    return np.sqrt(sq, out=sq)


# --------------------------------------------------------------------------
# gauge geometry
# --------------------------------------------------------------------------


def gauge_distance_field(grid: Grid, center, box=None) -> np.ndarray:
    """Left-invariant gauge distance ||center^{-1} . x|| at every node (of a node box)."""
    sq = gauge_squared(translate(center, grid.coords(box)))
    return np.sqrt(sq, out=sq)


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

    def spans(self) -> tuple[float, float, float]:
        """Half-widths of the ball along (x, y, t) about its center.

        A point at horizontal offset q from the center (a, b, c), |q| <= r,
        reaches t - c = +-(r^2 - |q|^2) + the twist (a q_y - b q_x)/2, at most
        r^2 - |q|^2 + |q| m/2 with m = |(a, b)|: the top r^2 + m^2/16 at
        |q| = m/4 while m <= 4r, and r m/2 at |q| = r beyond.
        """
        x, y, _ = self.center
        r = self.radius
        m = float(np.hypot(x, y))
        return r, r, r ** 2 + m * m / 16.0 if m <= 4.0 * r else 0.5 * r * m

    def node_box(self, grid: Grid) -> tuple[slice, ...]:
        """Index slices of the nodes whose cells can meet the ball, padded by one node."""
        c, s = np.asarray(self.center), np.asarray(self.spans())
        first = np.floor((c - s - grid.lo) / grid.spacing - 0.5) - 1
        last = np.ceil((c + s - grid.lo) / grid.spacing + 0.5) + 1
        return tuple(slice(max(int(a), 0), min(int(b) + 1, n)) for a, b, n in zip(first, last, grid.shape))

    def fits_inside(self, grid: Grid) -> bool:
        return all(c - s >= lo and c + s <= hi
                   for c, s, lo, hi in zip(self.center, self.spans(), grid.lo, grid.hi))


def ball_node_mask(grid: Grid, ball: GaugeBall) -> tuple[tuple[slice, ...], np.ndarray]:
    """The ball's node box and the mask of the nodes on it that lie in the ball."""
    box = ball.node_box(grid)
    return box, gauge_distance_field(grid, np.asarray(ball.center), box=box) <= ball.radius


def _trapezoid_weights(grid: Grid, box) -> np.ndarray:
    w = 1.0
    for k in range(grid.dim):
        axis_w = np.full(grid.shape[k], grid.spacing[k])
        axis_w[[0, -1]] *= 0.5
        shape = [1] * grid.dim
        shape[k] = -1
        w = w * axis_w[box[k]].reshape(shape)
    return w


@functools.lru_cache(maxsize=4)
def _ball_weights(grid: Grid, ball: GaugeBall) -> tuple[tuple[slice, ...], np.ndarray]:
    """The ball's node box and, on it, trapezoid weights times the fraction of each node cell in the ball.

    The fraction is the share of 4^d sub-cell points in the ball.  A proved bound on the
    squared gauge over each cell skips the count where it is 1 or 0: with the node at
    (x', y', tau) after the left translation by the centre (a, b, c), x'^2 over the cell
    lies in [max(|x'| - h_x/2, 0)^2, (|x'| + h_x/2)^2], y'^2 likewise, and |tau| in
    [max(|tau| - delta, 0), |tau| + delta] with delta = h_t/2 + (|a| h_y + |b| h_x)/4.  A
    cell whose upper sum is below r^2 (1 - 1e-12) counts 1, one whose lower sum is above
    r^2 (1 + 1e-12) counts 0: every one of its sub-cell points lies on that side, with a
    margin that float rounding cannot cross.  The rest, the cells the sphere crosses or
    passes within 1e-12 (relative) of, go to the count.
    """
    sub = 4
    h = grid.spacing
    box = ball.node_box(grid)
    a, b, c = np.asarray(ball.center, dtype=float)
    x, y, tau = (np.abs(v) for v in translate(ball.center, grid.coords(box)))
    delta = 0.5 * h[2] + 0.25 * (abs(a) * h[1] + abs(b) * h[0])
    r2 = ball.radius ** 2
    inside = (x + 0.5 * h[0]) ** 2 + (y + 0.5 * h[1]) ** 2 + (tau + delta) < r2 * (1.0 - 1e-12)
    lower = np.maximum(x - 0.5 * h[0], 0.0) ** 2 + np.maximum(y - 0.5 * h[1], 0.0) ** 2
    shell = ~inside & ~(lower + np.maximum(tau - delta, 0.0) > r2 * (1.0 + 1e-12))
    del tau
    coverage = inside.astype(float)
    if np.any(shell):
        idx = np.nonzero(shell)
        x, y, t = (grid.axis(k)[box[k]][idx[k]] for k in range(grid.dim))
        count = np.zeros(x.size)
        steps = (np.arange(sub) + 0.5) / sub - 0.5
        # gauge_squared(translate(center, p)) = (x - a)^2 + (y - b)^2 + |(t - c) - 0.5 (a y - b x)|
        # at each sub-cell point p, in that order, with the per-axis terms formed once per offset
        ys = [y + s * h[1] for s in steps]
        y_terms = [(yo - b) ** 2 for yo in ys]
        t_terms = [(t + s * h[2]) - c for s in steps]
        for s in steps:
            xo = x + s * h[0]
            x_term = (xo - a) ** 2
            for yo, y_term in zip(ys, y_terms):
                twist = 0.5 * (a * yo - b * xo)
                plane = x_term + y_term
                for t_term in t_terms:
                    count += plane + np.abs(t_term - twist) <= r2
        coverage[idx] = count / float(sub ** grid.dim)
    coverage *= _trapezoid_weights(grid, box)
    return box, coverage


def integrate(grid: Grid, f: np.ndarray, region=None) -> float:
    """Trapezoid-type weighted node sum of f over the grid (``None``), a node box or a gauge ball.

    A ball is summed on its node box; f is on the whole grid (read on the box as a view) or on the box."""
    if isinstance(region, GaugeBall):
        if not region.fits_inside(grid):
            raise ValueError("integration ball reaches outside the grid")
        box, w = _ball_weights(grid, region)
        if not np.any(w > 0):
            raise ValueError("empty integration region")
    elif region is None or isinstance(region, tuple):  # a node box is a tuple of index slices
        box = region or (slice(None),) * grid.dim
        w = _trapezoid_weights(grid, box)
    else:
        raise TypeError("an integration region is the grid (None), a node box or a GaugeBall")
    if f.shape == grid.shape:
        f = f[box]
    return float(np.sum(w * f))


def ball_volume(grid: Grid, ball: GaugeBall) -> float:
    """The sum of the ball's quadrature weights: 0 when no sub-cell point lies in the ball."""
    return float(np.sum(_ball_weights(grid, ball)[1]))


def ball_average(grid: Grid, f: np.ndarray, ball: GaugeBall) -> float:
    return integrate(grid, f, ball) / ball_volume(grid, ball)


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

    eta: np.ndarray
    grad: np.ndarray  # X eta, shape (2, *box)
    t_deriv: np.ndarray
    k_eta: float
    ball: GaugeBall
    box: tuple[slice, ...]  # the outer ball's node box: the fields live on it and are 0 off it


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
    box = ball.node_box(grid)
    x, y, tau = translate(center, grid.coords(box))
    rho = gauge_squared((x, y, tau))
    np.sqrt(rho, out=rho)
    width = r_outer - r_inner
    s = (rho - r_inner) / width
    eta = 1.0 - _smoothstep(s)
    # chain rule: X eta = -S'(s)/width * X rho with X rho = (X q)/(2 rho),
    # q = |x - c|_spatial^2 + |tau|, tau the translated vertical coordinate
    sgn = np.where(tau < 0, -1.0, 1.0)
    safe_rho = np.where(rho > 0, rho, 1.0)
    scale = np.where(rho > 0, -_smoothstep_slope(s) / (width * 2.0 * safe_rho), 0.0)
    del tau, rho, s, safe_rho  # box arrays the derivative fields no longer need
    # X tau = -(y - c_y)/2, Y tau = (x - c_x)/2
    grad = np.empty((2,) + eta.shape)
    grad[0] = scale * (2.0 * x + sgn * (-0.5 * y))
    grad[1] = scale * (2.0 * y + sgn * (0.5 * x))
    t_deriv = scale * sgn
    k_eta = float(np.max(horizontal_norm(grad))) ** 2 + float(np.max(np.abs(eta * t_deriv)))
    return CutoffFunction(eta=eta, grad=grad, t_deriv=t_deriv, k_eta=k_eta, ball=ball, box=box)


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


def save_field_binary(path, grid: Grid, values: np.ndarray):
    """Flat layout: header (the 3 axis sizes, the 3 spacings) as float64 LE, then C-order values."""
    header = np.array([*grid.shape, *grid.spacing], dtype="<f8")
    with open(path, "wb") as fh:
        fh.write(header.tobytes())
        fh.write(np.ascontiguousarray(values, dtype="<f8").tobytes())
