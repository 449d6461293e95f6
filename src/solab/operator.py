"""The degenerate operator class, its Jacobian, and the eps-regularization.

The prototype map A(z) = g(|z|) z / |z| has Jacobian

    DA(z) = F(|z|) I + (g'(|z|) - F(|z|)) z z^T / |z|^2,     F(t) = g(t)/t,

whose eigenvalues are g'(|z|) (along z) and F(|z|) (on the orthogonal
complement), hence they lie in [min{1,delta}, max{1,g0}] * F(|z|).  All
structure, monotonicity and ellipticity checks below are numerical audits
with fitted constants: the theory only asserts their existence.

The eps-regularization A_eps(z) = F_eps(|z|) z, F_eps(t) = F(min(t + eps, 1/eps)),
is the operator of the energy G_eps that the solver minimizes; `operator-check`
certifies the same map.  Its weight has the finite positive limits m1 = F(eps)
and m2 = F(1/eps), and its ellipticity bracket is closed-form, not fitted.
The energy density G_eps composes closed forms of G and H where the law has
them; otherwise it is one cumulative table per (triple, eps), so each call
is a single table lookup.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .orlicz import OrliczTriple, _LogCumTable

__all__ = [
    "OperatorSpec",
    "RegularizationParams",
    "prototype_A",
    "prototype_DA",
    "prototype_operator",
    "structure_margins",
    "monotonicity_gap",
    "ellipticity_margin",
    "p_laplace_gap",
    "regularized_operator",
    "regularized_weight",
    "regularized_energy_density",
]


@dataclass(frozen=True)
class OperatorSpec:
    """A map A with symmetric Jacobian DA and its ellipticity weights.

    ``lower_weight``/``upper_weight`` are the radial functions w(|z|)
    bracketing the Rayleigh quotient of DA; L = sup upper/lower is the
    ellipticity ratio.  For prototypes they are min{1,delta} F and
    max{1,g0} F, so the bracket holds with constant one on each side.
    """

    A: Callable
    DA: Callable
    L: float
    lower_weight: Callable
    upper_weight: Callable


@dataclass(frozen=True)
class RegularizationParams:
    """Constants of the eps-regularization: F_eps has limits m1 at 0 and m2 at infinity.

    L_tilde brackets the Jacobian eigenvalues: F_eps / L_tilde <= eig DA_eps <= L_tilde F_eps.
    """

    eps: float
    m1: float
    m2: float
    L_tilde: float

    def __post_init__(self):
        if not (0 < self.eps < 1):
            raise ValueError(f"eps must lie in (0,1), got {self.eps}")
        if not (self.m1 > 0 and self.m2 > 0 and np.isfinite(self.m1) and np.isfinite(self.m2)):
            raise ValueError("m1, m2 must be finite and positive")


def _norm(z: np.ndarray) -> np.ndarray:
    return np.sqrt(np.sum(z * z, axis=-1))


def prototype_A(triple: OrliczTriple, z) -> np.ndarray:
    """g(|z|) z / |z| with the continuous extension 0 at z = 0."""
    z = np.asarray(z, dtype=float)
    r = _norm(z)
    safe = np.where(r > 0, r, 1.0)
    scale = np.where(r > 0, triple.g(safe) / safe, 0.0)
    return scale[..., None] * z


def prototype_DA(triple: OrliczTriple, z) -> np.ndarray:
    """Closed-form Jacobian of the prototype map; undefined at z = 0."""
    z = np.asarray(z, dtype=float)
    r = _norm(z)
    if np.any(r == 0):
        raise ValueError("prototype Jacobian is degenerate at z = 0; regularize first")
    if triple.g.deriv is None:
        raise ValueError("structure function must carry a derivative for the closed-form Jacobian")
    d = z.shape[-1]
    fv = triple.g(r) / r
    gp = triple.g.deriv(r)
    eye = np.eye(d)
    outer = z[..., :, None] * z[..., None, :] / (r * r)[..., None, None]
    return fv[..., None, None] * eye + (gp - fv)[..., None, None] * outer


def prototype_operator(triple: OrliczTriple) -> OperatorSpec:
    """OperatorSpec for the prototype of the given growth law."""
    delta, g0 = triple.g.delta, triple.g.g0
    lo, hi = min(1.0, delta), max(1.0, g0)
    return OperatorSpec(
        A=lambda z: prototype_A(triple, z),
        DA=lambda z: prototype_DA(triple, z),
        L=hi / lo,
        lower_weight=lambda t: lo * triple.F(t),
        upper_weight=lambda t: hi * triple.F(t),
    )


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
    w_lo = op.lower_weight(r)
    w_hi = op.upper_weight(r)
    lower = quad - w_lo * xi2
    upper = w_hi * xi2 - quad
    growth = w_hi * r - _norm(op.A(z))
    return lower, upper, growth


def monotonicity_gap(op: OperatorSpec, triple: OrliczTriple, z, w):
    """Gap <A(z)-A(w), z-w> with the near/far case split and the fitted lower constant.

    fitted_lower normalizes the gap by |z-w|^2 F(|z|) in the near case
    (|z-w| <= 2|z|) and by |z-w|^2 F(|z-w|) in the far case; pairs with
    z = w get gap 0 and a NaN (flagged) constant.
    """
    z = np.asarray(z, dtype=float)
    w = np.asarray(w, dtype=float)
    if z.shape != w.shape:
        raise ValueError("dimension mismatch")
    diff = z - w
    gap = np.sum((op.A(z) - op.A(w)) * diff, axis=-1)
    dn = _norm(diff)
    near = dn <= 2.0 * _norm(z)
    case = np.where(near, "near", "far")
    ref_r = np.where(near, _norm(z), dn)
    degenerate = dn == 0
    safe_r = np.where(ref_r > 0, ref_r, 1.0)
    denom = np.where(degenerate, np.nan, dn * dn * triple.g(safe_r) / safe_r)
    with np.errstate(invalid="ignore", divide="ignore"):
        fitted = gap / denom
    gap = np.where(degenerate, 0.0, gap)
    if z.ndim == 1:
        return float(gap), str(case), float(fitted)
    return gap, case, fitted


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

    Split at T = 1/eps - eps where the weight saturates:
        t <= T:  G_eps(t) = B(t)
        t  > T:  G_eps(t) = B(T) + F(1/eps) (t^2 - T^2) / 2,
    where B(t) = int_0^t w with w(s) = s g(s+eps)/(s+eps), equal to s F_eps(s) up to T.
    A law with a closed-form G composes closed forms,
        B(t) = [G(t+eps) - G(eps)] - eps [H(t+eps) - H(eps)].
    A table law reads B from one `_LogCumTable` of w, built on the first call
    for each (triple, eps) and kept on the triple; it builds no H table and
    does not cancel at small t.  The table integrates w unclipped, since the
    saturation min would put a kink at T into the spline.  NaN stays NaN.
    """
    if not 0 < eps < 1:
        raise ValueError(f"eps must lie in (0,1), got {eps}")
    T = 1.0 / eps - eps
    g = triple.g
    m2 = float(g(np.asarray(1.0 / eps)) * eps)
    if g.closed_G is None:
        body_at = triple._table_G_eps.get(eps)
        if body_at is None:
            body_at = triple._table_G_eps[eps] = _LogCumTable(lambda s: s * g(s + eps) / (s + eps))
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


def regularized_operator(triple: OrliczTriple, eps: float):
    """The solver's regularized operator A_eps(z) = F_eps(|z|) z in closed form, with its constants.

    With r = |z| and s = min(r + eps, 1/eps), the Jacobian is

        DA_eps(z) = F_eps(r) I + F_eps'(r) r z z^T / r^2     (0 z z^T at z = 0).

    Below saturation the radial eigenvalue over F_eps is (1 - r/s) + (r/s) s g'(s)/g(s),
    a convex combination of 1 and a value in [delta, g0]; past saturation it is 1.
    So the bracket weights min{1,delta} F_eps and max{1,g0} F_eps are exact, and
    L_tilde = max(max{1,g0}, 1/min{1,delta}) depends only on (delta, g0).
    """
    f_eps = regularized_weight(triple, eps)
    g = triple.g
    lo, hi = min(1.0, g.delta), max(1.0, g.g0)

    def f_eps_prime(t):
        arg = t + eps
        inside = arg < 1.0 / eps
        safe = np.where(inside, arg, 1.0)
        return np.where(inside, (g.deriv(safe) - g(safe) / safe) / safe, 0.0)

    def a_eps(z):
        z = np.asarray(z, dtype=float)
        return np.asarray(f_eps(_norm(z)))[..., None] * z

    def da_eps(z):
        if g.deriv is None:
            raise ValueError("structure function must carry a derivative for the closed-form Jacobian")
        z = np.asarray(z, dtype=float)
        r = _norm(z)
        unit = z / np.where(r > 0, r, 1.0)[..., None]
        outer = unit[..., :, None] * unit[..., None, :]
        return (np.asarray(f_eps(r))[..., None, None] * np.eye(z.shape[-1])
                + (f_eps_prime(r) * r)[..., None, None] * outer)

    spec = OperatorSpec(
        A=a_eps,
        DA=da_eps,
        L=hi / lo,
        lower_weight=lambda t: lo * f_eps(t),
        upper_weight=lambda t: hi * f_eps(t),
    )
    params = RegularizationParams(
        eps=eps,
        m1=float(f_eps(0.0)),
        m2=float(triple.g(np.asarray(1.0 / eps)) * eps),
        L_tilde=max(hi, 1.0 / lo),
    )
    return spec, params
