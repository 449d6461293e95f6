"""Group-algebraic and metric primitives of the Heisenberg group H^n.

Points of H^n are identified with R^(2n+1): the first 2n coordinates are
horizontal, the last one is the vertical coordinate t.  The group product is

    (x, t) . (y, s) = (x + y, t + s + (1/2) * sum_i (x_i y_{n+i} - x_{n+i} y_i)),

the gauge norm is ||(x, t)|| = (sum x_i^2 + |t|)^(1/2), and the anisotropic
dilation scales horizontal coordinates linearly and t quadratically.  All
values are immutable after construction.  The left-invariant frame is
X_i = d/dx_i - (x_{n+i}/2) d/dt and X_{n+i} = d/dx_{n+i} + (x_i/2) d/dt.

`translate`, `gauge_squared`, `horizontal` and `horizontal_adjoint` take points
as 2n+1 broadcastable arrays with t last: the grid stencils, the gauge balls
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
    """A point of H^n stored as a flat length-(2n+1) array with t last."""

    coords: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coords, dtype=float)
        if c.ndim != 1 or c.size < 3 or c.size % 2 == 0:
            raise ValueError(f"coordinates must be a flat array of odd length >= 3, got shape {c.shape}")
        if not np.all(np.isfinite(c)):
            raise ValueError("coordinates must be finite")
        c = c.copy()
        c.flags.writeable = False
        object.__setattr__(self, "coords", c)

    @classmethod
    def from_xt(cls, x, t: float) -> "GroupPoint":
        x = np.asarray(x, dtype=float)
        return cls(np.concatenate([x.ravel(), [float(t)]]))

    @property
    def n(self) -> int:
        return (self.coords.size - 1) // 2

    @property
    def x(self) -> np.ndarray:
        """Horizontal coordinates (length 2n)."""
        return self.coords[:-1]

    @property
    def t(self) -> float:
        return float(self.coords[-1])


def origin(n: int) -> GroupPoint:
    return GroupPoint(np.zeros(2 * n + 1))


def _check_same_group(p: GroupPoint, q: GroupPoint):
    if p.n != q.n:
        raise ValueError(f"dimension mismatch: points of H^{p.n} and H^{q.n}")


def translate(center, coords) -> list:
    """center^{-1} . p = (x - c, t - c_t - w(c, x)/2), w(c, x) = sum_i c_i x_{n+i} - c_{n+i} x_i."""
    c = np.asarray(center, dtype=float)
    n = len(coords) // 2
    if c.size != len(coords):
        raise ValueError("center dimension does not match the points")
    area = sum(c[i] * coords[n + i] - c[n + i] * coords[i] for i in range(n))
    return [coords[k] - c[k] for k in range(2 * n)] + [coords[-1] - c[-1] - 0.5 * area]


def gauge_squared(coords):
    """Squared gauge sum x_i^2 + |t|."""
    total = coords[0] ** 2
    for x in coords[1:-1]:
        total = total + x ** 2
    return total + np.abs(coords[-1])


def horizontal(derivs, coords) -> np.ndarray:
    """X from the 2n+1 axis derivatives D (t last) at ``coords``, shape (2n, *shape)."""
    n = len(derivs) // 2
    dt = derivs[-1]
    out = np.empty((2 * n,) + np.shape(dt))
    for i in range(n):
        out[i] = derivs[i] - 0.5 * coords[n + i] * dt
        out[n + i] = derivs[n + i] + 0.5 * coords[i] * dt
    return out


def horizontal_adjoint(w, coords):
    """The t-axis load sum_i (x_i w_{n+i} - x_{n+i} w_i)/2 of X^T w = sum_k D_k^T w_k + D_t^T(load)."""
    n = len(w) // 2
    return sum(-0.5 * coords[n + i] * w[i] + 0.5 * coords[i] * w[n + i] for i in range(n))


def group_multiply(p: GroupPoint, q: GroupPoint) -> GroupPoint:
    """Group product p.q, the translate of q by p^{-1}; the identity is the origin."""
    _check_same_group(p, q)
    return GroupPoint(np.array(translate(-p.coords, q.coords)))


def group_inverse(p: GroupPoint) -> GroupPoint:
    """Group inverse; equals coordinate-wise negation since the bilinear term is antisymmetric."""
    return GroupPoint(-p.coords)


def homogeneous_norm(p: GroupPoint) -> float:
    """Gauge norm (sum of squared horizontal coordinates plus |t|)^(1/2)."""
    return float(np.sqrt(gauge_squared(p.coords)))


def quasi_distance(p: GroupPoint, q: GroupPoint) -> float:
    """Left-invariant gauge quasi-distance ||q^{-1} . p||; zero iff p equals q."""
    _check_same_group(p, q)
    return float(np.sqrt(gauge_squared(translate(q.coords, p.coords))))


def dilate(p: GroupPoint, lam: float) -> GroupPoint:
    """Anisotropic dilation (x, t) -> (lam*x, lam^2*t); the gauge norm is 1-homogeneous under it."""
    if not lam > 0:
        raise ValueError(f"dilation factor must be positive, got {lam}")
    return GroupPoint.from_xt(lam * p.x, lam * lam * p.t)
