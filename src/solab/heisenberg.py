"""Group-algebraic and metric primitives of the Heisenberg group H^1.

Points of H^1 are identified with R^3 as (x, y, t): x and y are horizontal,
t is the vertical coordinate.  The group product is

    (x, y, t) . (x', y', t') = (x + x', y + y', t + t' + (x y' - y x')/2),

the gauge norm is ||(x, y, t)|| = (x^2 + y^2 + |t|)^(1/2), and the
anisotropic dilation scales x and y linearly and t quadratically.  All values
are immutable after construction.  The left-invariant frame is
X = d/dx - (y/2) d/dt and Y = d/dy + (x/2) d/dt.

`translate`, `gauge_squared`, `horizontal` and `horizontal_adjoint` take points
as three broadcastable arrays (x, y, t): the grid stencils, the gauge balls
and the solver's cell operators all use these four.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "GroupPoint",
    "origin",
    "group_multiply",
    "group_inverse",
    "translate",
    "gauge_squared",
    "horizontal",
    "horizontal_adjoint",
    "homogeneous_norm",
    "quasi_distance",
    "dilate",
]


@dataclass(frozen=True)
class GroupPoint:
    """A point (x, y, t) of H^1 stored as a flat length-3 array."""

    coords: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coords, dtype=float)
        if c.shape != (3,):
            raise ValueError(f"coordinates must be a flat array (x, y, t), got shape {c.shape}")
        if not np.all(np.isfinite(c)):
            raise ValueError("coordinates must be finite")
        c = c.copy()
        c.flags.writeable = False
        object.__setattr__(self, "coords", c)

    @property
    def t(self) -> float:
        return float(self.coords[-1])


def origin() -> GroupPoint:
    return GroupPoint(np.zeros(3))


def translate(center, coords) -> list:
    """center^{-1} . p = (x - a, y - b, t - c - (a y - b x)/2) for center (a, b, c)."""
    a, b, c = np.asarray(center, dtype=float)
    x, y, t = coords
    return [x - a, y - b, t - c - 0.5 * (a * y - b * x)]


def gauge_squared(coords):
    """Squared gauge x^2 + y^2 + |t|."""
    x, y, t = coords
    return x ** 2 + y ** 2 + np.abs(t)


def horizontal(derivs, coords) -> np.ndarray:
    """(X, Y) from the axis derivatives (D_x, D_y, D_t) at ``coords``, shape (2, *shape)."""
    dx, dy, dt = derivs
    x, y, _ = coords
    out = np.empty((2,) + np.shape(dt))
    out[0] = dx - 0.5 * y * dt
    out[1] = dy + 0.5 * x * dt
    return out


def horizontal_adjoint(w, coords):
    """The t-axis load (x w_1 - y w_0)/2 of (X, Y)^T w = D_x^T w_0 + D_y^T w_1 + D_t^T(load)."""
    x, y, _ = coords
    return -0.5 * y * w[0] + 0.5 * x * w[1]


def group_multiply(p: GroupPoint, q: GroupPoint) -> GroupPoint:
    """Group product p.q, the translate of q by p^{-1}; the identity is the origin."""
    return GroupPoint(np.array(translate(-p.coords, q.coords)))


def group_inverse(p: GroupPoint) -> GroupPoint:
    """Group inverse; equals coordinate-wise negation since the bilinear term is antisymmetric."""
    return GroupPoint(-p.coords)


def homogeneous_norm(p: GroupPoint) -> float:
    """Gauge norm (x^2 + y^2 + |t|)^(1/2)."""
    return float(np.sqrt(gauge_squared(p.coords)))


def quasi_distance(p: GroupPoint, q: GroupPoint) -> float:
    """Left-invariant gauge quasi-distance ||q^{-1} . p||; zero iff p equals q."""
    return float(np.sqrt(gauge_squared(translate(q.coords, p.coords))))


def dilate(p: GroupPoint, lam: float) -> GroupPoint:
    """Anisotropic dilation (x, y, t) -> (lam*x, lam*y, lam^2*t); the gauge norm is 1-homogeneous under it."""
    if not lam > 0:
        raise ValueError(f"dilation factor must be positive, got {lam}")
    x, y, t = p.coords
    return GroupPoint(np.array([lam * x, lam * y, lam * lam * t]))
