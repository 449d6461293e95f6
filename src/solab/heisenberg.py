"""Array primitives of the Heisenberg group H^1.

Points of H^1 are (x, y, t), given as three broadcastable arrays.  The group
product is

    (x, y, t) . (x', y', t') = (x + x', y + y', t + t' + (x y' - y x')/2),

so p . q is ``translate(-p, q)`` and the inverse of p is -p.  The gauge
(x^2 + y^2 + |t|)^(1/2) is 1-homogeneous under the dilation
(x, y, t) -> (lam x, lam y, lam^2 t), and ||q^{-1} . p|| is the left-invariant
gauge distance.  The left-invariant frame is X = d/dx - (y/2) d/dt and
Y = d/dy + (x/2) d/dt.  The grid stencils, the gauge balls, the cutoffs and
the solver's cell operators all call these four functions.
"""

from __future__ import annotations

import numpy as np

__all__ = ["translate", "gauge_squared", "horizontal", "horizontal_adjoint"]


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
    # dx - (y/2) dt and dy + (x/2) dt, bit for bit, formed in place
    np.multiply(dt, -0.5 * y, out=out[0])
    out[0] += dx
    np.multiply(dt, 0.5 * x, out=out[1])
    out[1] += dy
    return out


def horizontal_adjoint(w, coords):
    """The t-axis load (x w_1 - y w_0)/2 of (X, Y)^T w = D_x^T w_0 + D_y^T w_1 + D_t^T(load)."""
    x, y, _ = coords
    return -0.5 * y * w[0] + 0.5 * x * w[1]
