"""The degenerate operator class: one radial map, its Jacobian, and the eps-regularization.

Every operator here is radial, A(z) = w(|z|) z, and its Jacobian is

    DA(z) = w(r) I + s(r) z z^T / r^2,     r = |z|,  s(r) = r w'(r),

with eigenvalue w + s along z and w on the orthogonal complement.
`OperatorSpec` writes A and DA once; the two constructors supply w and s.
The prototype A(z) = g(|z|) z / |z| has w = F = g/t, so its eigenvalues
g'(|z|) and F(|z|) lie in [min{1,delta}, max{1,g0}] * F(|z|).  All
structure, monotonicity and ellipticity checks below are numerical audits
with fitted constants: the theory only asserts their existence.

The eps-regularization A_eps(z) = F_eps(|z|) z, F_eps(t) = F(min(t + eps, 1/eps)),
is the operator of the energy G_eps that the solver minimizes; `operator-check`
certifies the same map.  Its weight has the finite positive limits m1 = F(eps)
and m2 = F(1/eps), and its ellipticity bracket is closed-form, not fitted.
The energy density G_eps composes closed forms of G and H where the law has
them; otherwise it reads one cumulative table, built with the density.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .orlicz import OrliczTriple, _LogCumTable

__all__ = [
    "OperatorSpec",
    "prototype_operator",
    "structure_margins",
    "monotonicity_gap",
    "ellipticity_margin",
    "p_laplace_gap",
    "regularized_operator",
    "regularized_weight",
    "regularized_energy_density",
]


def _norm(z: np.ndarray) -> np.ndarray:
    return np.sqrt(np.sum(z * z, axis=-1))


@dataclass(frozen=True)
class OperatorSpec:
    """The radial map A(z) = w(|z|) z, given by its weight w and slope s(r) = r w'(r).

    ``lo``/``hi`` bracket the Jacobian: lo w(|z|) <= eig DA(z) <= hi w(|z|),
    so lo w and hi w bound its Rayleigh quotient and hi/lo is the ellipticity ratio.
    """

    weight: Callable
    slope: Callable
    lo: float
    hi: float

    def A(self, z) -> np.ndarray:
        z = np.asarray(z, dtype=float)
        return np.asarray(self.weight(_norm(z)))[..., None] * z

    def DA(self, z) -> np.ndarray:
        """w I + s z z^T / |z|^2; the rank-one part is 0 at z = 0."""
        z = np.asarray(z, dtype=float)
        r = _norm(z)
        r2 = np.where(r > 0, r * r, 1.0)
        outer = z[..., :, None] * z[..., None, :] / r2[..., None, None]
        return (np.asarray(self.weight(r))[..., None, None] * np.eye(z.shape[-1])
                + np.asarray(self.slope(r))[..., None, None] * outer)


def prototype_operator(triple: OrliczTriple) -> OperatorSpec:
    """The prototype g(|z|) z / |z|: w = g(r)/r with 0 at r = 0, s = g' - g/r, undefined at r = 0."""
    g = triple.g

    def weight(r):
        safe = np.where(r > 0, r, 1.0)
        return np.where(r > 0, g(safe) / safe, 0.0)

    def slope(r):
        if np.any(r == 0):
            raise ValueError("prototype Jacobian is degenerate at z = 0; regularize first")
        return g.deriv(r) - weight(r)

    return OperatorSpec(weight=weight, slope=slope, lo=min(1.0, g.delta), hi=max(1.0, g.g0))


def structure_margins(op: OperatorSpec, z, xi):
    """Margins of the restated structure condition at (z, xi).

    Returns (lower, upper, growth):
        lower  = <DA(z) xi, xi> - w_lo(|z|) |xi|^2
        upper  = w_hi(|z|) |xi|^2 - <DA(z) xi, xi>
        growth = w_hi(|z|) |z| - |A(z)|
    all of which should be nonnegative up to round-off.
    """
    z = np.asarray(z, dtype=float)
    xi = np.asarray(xi, dtype=float)
    r = _norm(z)
    quad = np.einsum("...ij,...i,...j->...", op.DA(z), xi, xi)
    xi2 = np.sum(xi * xi, axis=-1)
    w = op.weight(r)
    w_lo, w_hi = op.lo * w, op.hi * w
    lower = quad - w_lo * xi2
    upper = w_hi * xi2 - quad
    growth = w_hi * r - _norm(op.A(z))
    return lower, upper, growth


def monotonicity_gap(op: OperatorSpec, z, w):
    """Gap <A(z)-A(w), z-w> and the fitted lower constant.

    fitted normalizes the gap by |z-w|^2 op.weight(|z|) in the near case
    (|z-w| <= 2|z|) and by |z-w|^2 op.weight(|z-w|) in the far case; pairs
    with z = w get gap 0 and a NaN (flagged) constant.
    """
    z = np.asarray(z, dtype=float)
    w = np.asarray(w, dtype=float)
    if z.shape != w.shape:
        raise ValueError("dimension mismatch")
    diff = z - w
    gap = np.sum((op.A(z) - op.A(w)) * diff, axis=-1)
    dn = _norm(diff)
    ref_r = np.where(dn <= 2.0 * _norm(z), _norm(z), dn)
    degenerate = dn == 0
    denom = np.where(degenerate, np.nan, dn * dn * op.weight(ref_r))
    with np.errstate(invalid="ignore", divide="ignore"):
        fitted = gap / denom
    gap = np.where(degenerate, 0.0, gap)
    if z.ndim == 1:
        return float(gap), float(fitted)
    return gap, fitted


def ellipticity_margin(op: OperatorSpec, triple: OrliczTriple, z):
    """<A(z), z> - G(|z|); nonnegative for the prototype."""
    z = np.asarray(z, dtype=float)
    r = _norm(z)
    pairing = np.sum(op.A(z) * z, axis=-1)
    margin = pairing - np.asarray(triple.G(r))
    return float(margin) if margin.ndim == 0 else margin


def p_laplace_gap(p: float, z, w):
    """Monotonicity gap of the p-Laplace map with the case-dependent lower-bound ratio.

    ratio = gap / (|z-w|^2 (|z|+|w|)^(p-2)) for p < 2 and gap / |z-w|^p for
    p >= 2; the theory asserts a positive lower bound c(p) for it.
    """
    if not 1 < p < np.inf:
        raise ValueError("need 1 < p < infinity")
    z = np.asarray(z, dtype=float)
    w = np.asarray(w, dtype=float)
    dn = _norm(z - w)
    if np.any(dn == 0):
        raise ValueError("z and w must differ")

    def amap(v):
        r = _norm(v)
        safe = np.where(r > 0, r, 1.0)
        return np.where(r > 0, safe ** (p - 2.0), 0.0)[..., None] * v

    gap = np.sum((amap(z) - amap(w)) * (z - w), axis=-1)
    if p < 2:
        denom = dn * dn * (_norm(z) + _norm(w)) ** (p - 2.0)
    else:
        denom = dn ** p
    ratio = gap / denom
    if z.ndim == 1:
        return float(gap), float(ratio)
    return gap, ratio


# --------------------------------------------------------------------------
# regularization
# --------------------------------------------------------------------------


def regularized_weight(triple: OrliczTriple, eps: float) -> Callable:
    """F_eps(t) = F(min(t + eps, 1/eps)): finite positive limits at 0 and infinity."""
    if not 0 < eps < 1:
        raise ValueError(f"eps must lie in (0,1), got {eps}")

    def f_eps(t):
        t = np.asarray(t, dtype=float)
        arg = np.minimum(t + eps, 1.0 / eps)
        out = triple.g(arg) / arg
        return float(out) if out.ndim == 0 else out

    return f_eps


def regularized_energy_density(triple: OrliczTriple, eps: float) -> Callable:
    """G_eps(t) = int_0^t s F_eps(s) ds, the energy density of the regularized operator.

    Split at T = 1/eps - eps where the weight saturates (inputs all below T skip the tail):
        t <= T:  G_eps(t) = B(t)
        t  > T:  G_eps(t) = B(T) + F(1/eps) (t^2 - T^2) / 2,
    where B(t) = int_0^t w with w(s) = s g(s+eps)/(s+eps), equal to s F_eps(s) up to T.
    A law with a closed-form G composes closed forms,
        B(t) = [G(t+eps) - G(eps)] - eps [H(t+eps) - H(eps)].
    A table law reads B from one `_LogCumTable` of w, built here, so once per
    density; it builds no H table and does not cancel at small t.  The table
    integrates w unclipped, since the saturation min would put a kink at T
    into the spline.  NaN stays NaN.
    """
    if not 0 < eps < 1:
        raise ValueError(f"eps must lie in (0,1), got {eps}")
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
        past = not np.max(t, initial=-np.inf) <= T  # some t saturates, or is NaN
        body = np.asarray(body_at(np.minimum(t, T) if past else t))
        out = body + np.where(t > T, cap + 0.5 * m2 * (t * t - T * T) - body, 0.0) if past else body
        return float(out) if out.ndim == 0 else out

    return g_eps


def regularized_operator(triple: OrliczTriple, eps: float) -> OperatorSpec:
    """The solver's regularized operator A_eps(z) = F_eps(|z|) z, as one `OperatorSpec`.

    Its weight is the solver's `regularized_weight` closure, so `operator-check`
    reads m1 = weight(0), m2 = weight(1/eps) and L_tilde = max(hi, 1/lo) off it.
    With r = |z| and s = min(r + eps, 1/eps), the slope is r F_eps'(r), 0 past saturation.
    Below saturation the radial eigenvalue over F_eps is (1 - r/s) + (r/s) s g'(s)/g(s),
    a convex combination of 1 and a value in [delta, g0]; past saturation it is 1.
    So the bracket weights min{1,delta} F_eps and max{1,g0} F_eps are exact, and
    L_tilde = max(max{1,g0}, 1/min{1,delta}) depends only on (delta, g0).
    """
    f_eps = regularized_weight(triple, eps)
    g = triple.g

    def slope(r):
        arg = r + eps
        inside = arg < 1.0 / eps
        safe = np.where(inside, arg, 1.0)
        return np.where(inside, (g.deriv(safe) - f_eps(r)) / safe, 0.0) * r

    return OperatorSpec(weight=f_eps, slope=slope, lo=min(1.0, g.delta), hi=max(1.0, g.g0))
