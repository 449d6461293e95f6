"""Structure functions, Young functions and conjugation.

The growth law of the operator class is a structure function g with
g(0) = 0 and bounded logarithmic derivative

    delta <= t g'(t) / g(t) <= g0      for all t > 0.

From g we derive the energy density G(t) = integral of g over [0, t] (closed
form or one cumulative table) and the degeneracy weight F(t) = g(t)/t.  Young
functions, generalized inverses and conjugates (by the Fenchel-Young
equality, no quadrature) are numerical operations, so that the classical
inequalities (Young, the complementary-pair bound, the five growth-lemma
items) are audited on sampled data.  Every inversion (inverses, conjugates)
is `generalized_inverse`, one bisection.  The audits use fixed slacks: 1e-6
on the exponent window (`verify_exponents`) and 1e-9 relative on the
growth-lemma comparisons (`lemma_gG_audit`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "StructureFunction",
    "OrliczTriple",
    "YoungFunction",
    "UnknownLabelError",
    "verify_exponents",
    "generalized_inverse",
    "conjugate",
    "conjugate_young",
    "young_gap",
    "comp_prop_margin",
    "doubling_constant",
    "lemma_gG_audit",
    "catalog_structure_function",
    "parse_label",
    "young_from_structure",
]


class _LogCumTable:
    """Cumulative integral y(t) = int_0^t w, tabulated as a log-log Hermite spline.

    Knot values come from per-panel Gauss-Legendre sums (the panels are narrow
    in log t, so each is essentially exact); derivatives d(log y)/d(log t) =
    t*w(t)/y(t) are exact, which keeps the interpolation error ~(dtau)^4.
    The knots are uniform in tau = log t over [1e-12, 1e9] at 128 per decade,
    and each interval stores its Hermite cubic in monomial form, so a lookup
    is the index arithmetic x = (tau - tau_0)/dtau, four coefficient gathers,
    a Horner evaluation and one exp.  Outside the table the local power law
    is continued.  t <= 0 maps to 0 and NaN stays NaN.
    """

    def __init__(self, w):
        t_min, t_max, per_decade = 1e-12, 1e9, 128
        tau = np.linspace(math.log(t_min), math.log(t_max),
                          int(per_decade * math.log10(t_max / t_min)) + 1)
        knots = np.exp(tau)
        # head integral: local power model w ~ w(t_min) (t/t_min)^q
        h = 1e-3
        q = (math.log(float(w(t_min * math.e ** h))) - math.log(float(w(t_min * math.e ** -h)))) / (2 * h)
        if q <= -1:
            raise ValueError("integrand not integrable at 0")
        y0 = t_min * float(w(t_min)) / (1.0 + q)
        x, gw = np.polynomial.legendre.leggauss(16)
        x, gw = 0.5 * (x + 1.0), 0.5 * gw
        lo, width = knots[:-1], np.diff(knots)
        nodes = lo[:, None] + width[:, None] * x
        panel = (np.asarray(w(nodes)) * gw).sum(axis=1) * width
        y = y0 + np.concatenate([[0.0], np.cumsum(panel)])
        if np.any(y <= 0) or not np.all(np.isfinite(y)):
            raise ValueError("cumulative integral must be positive and finite")
        self.tau0 = tau[0]
        self.dtau = tau[1] - tau[0]
        logy = np.log(y)
        # log-log slopes per unit of x, the interval coordinate
        m = self.dtau * knots * np.asarray(w(knots)) / y
        dp = np.diff(logy)
        # Hermite cubic on interval j in s = x - j: c0 + s (c1 + s (c2 + s c3))
        self.coef = (logy[:-1], m[:-1], 3.0 * dp - 2.0 * m[:-1] - m[1:], m[:-1] + m[1:] - 2.0 * dp)
        self.end_slopes = (float(m[0]), float(m[-1]))

    def __call__(self, t):
        t_arr = np.asarray(t, dtype=float)
        flat = t_arr.ravel()
        with np.errstate(divide="ignore", invalid="ignore"):
            s = np.log(flat)
        s -= self.tau0
        s /= self.dtau
        c0, c1, c2, c3 = self.coef
        # fmax sends NaN to interval 0; the NaN itself stays in s
        j = np.fmin(np.fmax(s, 0.0), c0.size - 1).astype(np.intp)
        s -= j
        # t outside [1e-12, 1e9], t <= 0 and NaN all leave s outside [0, 1]
        outside = s.size > 0 and not (s.min() >= 0.0 and s.max() <= 1.0)
        if outside:
            lo, hi = self.end_slopes
            ext = lo * np.minimum(s, 0.0) + hi * np.maximum(s - 1.0, 0.0)
            s = np.clip(s, 0.0, 1.0)
        val = c3[j]
        val *= s
        val += c2[j]
        val *= s
        val += c1[j]
        val *= s
        val += c0[j]
        if outside:
            val += ext
        np.exp(val, out=val)
        if outside:
            val[flat <= 0] = 0.0
        return float(val[0]) if t_arr.ndim == 0 else val.reshape(t_arr.shape)


# --------------------------------------------------------------------------
# structure functions
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class StructureFunction:
    """Growth law g with its derivative and exponent window [delta, g0].

    ``eval`` and ``deriv`` must accept numpy arrays.  A closed form for the
    antiderivative G = int g may be registered to bypass the cumulative
    table; a law that registers one also registers the closed form of
    H = int g/t, the only form `OrliczTriple.H` evaluates.
    """

    eval: Callable
    deriv: Callable
    delta: float
    g0: float
    label: str
    closed_G: Callable | None = None
    closed_H: Callable | None = None

    def __post_init__(self):
        if not (0 < self.delta <= self.g0):
            raise ValueError(f"need 0 < delta <= g0, got delta={self.delta}, g0={self.g0}")

    def __call__(self, t):
        return self.eval(np.asarray(t, dtype=float))


class OrliczTriple:
    """g together with G(t) = int_0^t g and F(t) = g(t)/t.

    F at 0 follows the stored limit policy: the finite limit when delta >= 1,
    otherwise the value is flagged singular and evaluating F at 0 raises
    (the solver always goes through the eps-regularized F instead).
    """

    def __init__(self, g: StructureFunction):
        self.g = g
        self._table_G: _LogCumTable | None = None
        # G_eps tables of `operator.regularized_energy_density`, one per eps
        self._table_G_eps: dict[float, _LogCumTable] = {}
        if g.delta > 1.0:
            self.f_zero: float | None = 0.0
        elif g.delta == 1.0:
            self.f_zero = float(g(np.asarray(1e-9)) / 1e-9)
        else:
            self.f_zero = None  # singular at 0

    @property
    def label(self) -> str:
        return self.g.label

    def G(self, t):
        """G(t) = int_0^t g on the domain t >= 0; at t < 0 the value is unspecified and differs per family."""
        if self.g.closed_G is not None:
            return self.g.closed_G(np.asarray(t, dtype=float))
        if self._table_G is None:
            self._table_G = _LogCumTable(self.g.eval)
        return self._table_G(t)

    def H(self, t):
        """Antiderivative of F = g(t)/t (finite at 0 since delta > 0), from the law's closed form."""
        return self.g.closed_H(np.asarray(t, dtype=float))

    def F(self, t):
        t_arr = np.asarray(t, dtype=float)
        zero = t_arr == 0
        if np.any(zero) and self.f_zero is None:
            raise ValueError(f"F of {self.label!r} is singular at 0 (delta={self.g.delta} < 1)")
        safe = np.where(zero, 1.0, t_arr)
        out = self.g(safe) / safe
        if np.any(zero):
            out = np.where(zero, self.f_zero, out)
        if t_arr.ndim == 0:
            return float(out)
        return out


def verify_exponents(g: StructureFunction, t_samples):
    """Estimate (delta, g0) as the extrema of t g'(t)/g(t) over the samples.

    Returns ``(delta_est, g0_est, ok)`` where ok means the estimates lie
    inside the declared window widened by 1e-6, [delta - 1e-6, g0 + 1e-6].
    """
    t = np.asarray(t_samples, dtype=float)
    if t.size == 0 or np.any(t <= 0):
        raise ValueError("samples must be nonempty and positive")
    gv = g(t)
    if np.any(gv == 0):
        raise ValueError(f"{g.label!r} vanishes at a positive sample: not a valid structure function")
    ratio = t * g.deriv(t) / gv
    delta_est, g0_est = float(ratio.min()), float(ratio.max())
    ok = bool(delta_est >= g.delta - 1e-6 and g0_est <= g.g0 + 1e-6)
    return delta_est, g0_est, ok


# --------------------------------------------------------------------------
# Young functions
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class YoungFunction:
    """Convex Psi(t) = int_0^t psi of a nondecreasing integrand psi; ``closed_eval`` evaluates Psi."""

    integrand: Callable
    closed_eval: Callable

    def __call__(self, t):
        t_arr = np.asarray(t, dtype=float)
        out = self.closed_eval(t_arr)
        return float(out) if t_arr.ndim == 0 else out


def young_from_structure(triple: OrliczTriple) -> YoungFunction:
    """G as a Young function (integrand g); doubling with constant 2^g0."""
    return YoungFunction(
        integrand=triple.g.eval,
        closed_eval=triple.G,
    )


def generalized_inverse(psi, t):
    """inf{s >= 0 : psi(s) > t}; the inverse when psi is continuous and strictly increasing.

    Bracketing by geometric growth (up to 1e150) followed by bisection to absolute
    tolerance 1e-10, or to adjacent floats where their spacing exceeds it.  Where
    psi never exceeds t inside the bracket the bracket top is returned.
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


def conjugate(young: YoungFunction, s):
    """Conjugate Psi*(s) = s t - Psi(t) at t = psi^{-1}(s), the equality case of Young's inequality.

    s t - Psi(t) is stationary at t = psi^{-1}(s) (Rockafellar, Convex Analysis,
    1970, sec. 26), so an error in the numerical inverse enters only at second order.
    """
    s_arr = np.asarray(s, dtype=float)
    t = generalized_inverse(young.integrand, s_arr)
    out = s_arr * t - young(t)
    return out if s_arr.ndim else float(out)


def conjugate_young(young: YoungFunction) -> YoungFunction:
    """The conjugate as a Young function (integrand = generalized inverse of psi)."""
    return YoungFunction(
        integrand=lambda tau: generalized_inverse(young.integrand, tau),
        closed_eval=lambda s: conjugate(young, s),
    )


def young_gap(young: YoungFunction, s, t) -> float:
    """Psi(s) + Psi*(t) - s t; nonnegative, vanishing along t = psi(s)."""
    s_arr = np.asarray(s, dtype=float)
    t_arr = np.asarray(t, dtype=float)
    gap = young(s_arr) + conjugate(young, t_arr) - s_arr * t_arr
    return float(gap) if np.ndim(gap) == 0 else gap


def comp_prop_margin(young: YoungFunction, t) -> float:
    """Margin Psi(t) - Psi*(Psi(t)/t) of the complementary-pair bound; needs an N-function."""
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr <= 0):
        raise ValueError("t must be positive")
    pv = young(t_arr)
    margin = pv - conjugate(young, pv / t_arr)
    return float(margin) if np.ndim(margin) == 0 else margin


def doubling_constant(fn, t_samples) -> float:
    """max over samples of fn(2t)/fn(t); for a structure function this is <= 2^g0."""
    t = np.asarray(t_samples, dtype=float)
    if np.any(t <= 0):
        raise ValueError("samples must be positive")
    v1 = np.asarray(fn(t), dtype=float)
    if np.any(v1 == 0):
        raise ValueError("function vanishes at a positive sample")
    v2 = np.asarray(fn(2.0 * t), dtype=float)
    return float(np.max(v2 / v1))


# --------------------------------------------------------------------------
# growth-lemma audit
# --------------------------------------------------------------------------


def lemma_gG_audit(triple: OrliczTriple, t: float, s: float) -> bool:
    """Whether the five structural inequalities tying g, G and the exponents hold at (s, t).

    (1) midpoint convexity of G; (2) t g(t)/(1+g0) <= G(t) <= t g(t);
    (3) g(s) <= g(t) <= (t/s)^g0 g(s); (4) G(t)/t nondecreasing;
    (5) t g(s) <= t g(t) + s g(s).  All comparisons carry relative slack 1e-9.
    """
    if not (0 <= s < t):
        raise ValueError("need 0 <= s < t")
    g = triple.g
    g0 = g.g0
    gs, gt = float(g(np.asarray(s, float))), float(g(np.asarray(t, float)))
    Gs, Gt = float(triple.G(s)), float(triple.G(t))
    Gmid = float(triple.G(0.5 * (s + t)))

    def leq(a, b):
        return a <= b + 1e-9 * (abs(a) + abs(b)) + 1e-300

    convexity = leq(Gmid, 0.5 * (Gs + Gt))
    sandwich = leq(t * gt / (1.0 + g0), Gt) and leq(Gt, t * gt)
    if s == 0:
        monotone = leq(gs, gt)  # upper bound saturates as s -> 0
    else:
        monotone = leq(gs, gt) and leq(gt, (t / s) ** g0 * gs)
    slope = True if s == 0 else leq(Gs / s, Gt / t)
    cross = leq(t * gs, t * gt + s * gs)
    return convexity and sandwich and monotone and slope and cross


# --------------------------------------------------------------------------
# catalog
# --------------------------------------------------------------------------


class UnknownLabelError(KeyError):
    """Raised when a catalog label does not resolve."""


def parse_label(label: str) -> tuple[str, dict[str, float]]:
    """Split ``"name:key=val,key=val"`` into the name and a finite float map with unique keys."""
    name, _, rest = label.partition(":")
    params: dict[str, float] = {}
    if rest:
        for item in rest.split(","):
            key, _, val = item.partition("=")
            if not key or not val:
                raise UnknownLabelError(f"malformed catalog label {label!r}")
            try:
                value = float(val)
            except ValueError as exc:
                raise UnknownLabelError(f"non-numeric parameter in {label!r}") from exc
            if not math.isfinite(value):
                raise UnknownLabelError(f"non-finite parameter in {label!r}")
            key = key.strip()
            if key in params:
                raise UnknownLabelError(f"repeated parameter {key!r} in {label!r}")
            params[key] = value
    return name.strip(), params


def _power(p: float) -> StructureFunction:
    if not p > 1:
        raise UnknownLabelError(f"power catalog entry needs p > 1, got {p}")
    q = p - 1.0

    def ev(t):
        return np.power(t, q)

    def dv(t):
        with np.errstate(divide="ignore"):
            return q * np.power(t, q - 1.0)

    return StructureFunction(
        eval=ev, deriv=dv, delta=q, g0=q, label=f"power:p={p:g}",
        closed_G=lambda t: np.power(t, p) / p,
        closed_H=lambda t: np.power(t, q) / q,
    )


def _loglin(alpha: float, beta: float, a: float) -> StructureFunction:
    if not (alpha > 0 and beta > 0 and a >= 1):
        raise UnknownLabelError("loglin needs alpha, beta > 0 and a >= 1")

    def ev(t):
        return np.power(t, alpha) * np.log(a + t) ** beta

    def dv(t):
        L = np.log(a + t)
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.power(t, alpha - 1.0) * L ** (beta - 1.0) * (alpha * L + beta * t / (a + t))

    if a == 1.0:
        g0 = alpha + beta  # sup of the log-derivative is the t -> 0 limit
    else:
        # t/((a+t) ln(a+t)) peaks at the root of phi(t) = a ln(a+t) - t.  phi is
        # concave and decreasing, so after one Newton step from t = a every
        # iterate lies right of the root and Newton descends to it monotonically.
        # ln(a+t) is taken as log1p((a-1)+t), which stays accurate as a -> 1.
        def newton(t):
            return t - (a * math.log1p((a - 1.0) + t) - t) / (a / (a + t) - 1.0)

        t = newton(a)
        while (t_next := newton(t)) < t:
            t = t_next
        g0 = alpha + beta * (t / ((a + t) * math.log1p((a - 1.0) + t))) + 1e-12
    return StructureFunction(eval=ev, deriv=dv, delta=alpha, g0=g0,
                             label=f"loglin:alpha={alpha:g},beta={beta:g},a={a:g}")


def _sinlog(a: float, b: float) -> StructureFunction:
    if not (b > 0 and a >= 1 + b * math.sqrt(2)):
        raise UnknownLabelError("sinlog needs b > 0 and a >= 1 + b*sqrt(2)")

    def phase(t):
        return np.log(np.log(math.e + t))

    def ev(t):
        return (math.e + t) ** (a + b * np.sin(phase(t))) - math.e ** a

    def dv(t):
        ph = phase(t)
        expo = a + b * np.sin(ph)
        return (math.e + t) ** (expo - 1.0) * (expo + b * np.cos(ph))

    # the exponent window is never stated for this family: estimate it on the
    # working range and pad outward so bracket checks at random points hold
    tt = np.exp(np.linspace(math.log(1e-9), math.log(1e9), 8001))
    ratio = tt * dv(tt) / ev(tt)
    spread = float(ratio.max() - ratio.min()) + 1e-9
    delta = float(ratio.min()) - 1e-5 * spread
    g0 = float(ratio.max()) + 1e-5 * spread
    return StructureFunction(eval=ev, deriv=dv, delta=delta, g0=g0,
                             label=f"sinlog:a={a:g},b={b:g}")


def _glued(alpha: float, beta: float, eps: float, k1: float, k2: float) -> StructureFunction:
    if not (beta > alpha > eps > 0 and 0 < k1 < k2):
        raise UnknownLabelError("glued needs beta > alpha > eps > 0 and 0 < k1 < k2")
    a1, a2, a3 = alpha - eps, alpha, beta + eps
    # pure monomials cannot match value and slope at a knot, so the middle
    # and outer pieces carry additive constants solved from the C^1 matching
    A1, B1 = 1.0, 0.0
    s1, v1 = a1 * k1 ** (a1 - 1.0), k1 ** a1
    A2 = s1 / (a2 * k1 ** (a2 - 1.0))
    B2 = v1 - A2 * k1 ** a2
    s2, v2 = A2 * a2 * k2 ** (a2 - 1.0), A2 * k2 ** a2 + B2
    A3 = s2 / (a3 * k2 ** (a3 - 1.0))
    B3 = v2 - A3 * k2 ** a3

    def piecewise(t, f1, f2, f3):
        t = np.asarray(t, dtype=float)
        return np.where(t <= k1, f1(t), np.where(t <= k2, f2(t), f3(t)))

    def ev(t):
        return piecewise(t, lambda s: A1 * s ** a1, lambda s: A2 * s ** a2 + B2,
                         lambda s: A3 * s ** a3 + B3)

    def dv(t):
        return piecewise(t, lambda s: A1 * a1 * s ** (a1 - 1.0),
                         lambda s: A2 * a2 * s ** (a2 - 1.0),
                         lambda s: A3 * a3 * s ** (a3 - 1.0))

    # piecewise antiderivatives, accumulated at the knots
    G1 = lambda s: A1 * s ** (a1 + 1.0) / (a1 + 1.0)
    G2 = lambda s: A2 * s ** (a2 + 1.0) / (a2 + 1.0) + B2 * s
    G3 = lambda s: A3 * s ** (a3 + 1.0) / (a3 + 1.0) + B3 * s
    c2 = G1(k1) - G2(k1)
    c3 = G2(k2) + c2 - G3(k2)

    def closed_G(t):
        return piecewise(t, G1, lambda s: G2(s) + c2, lambda s: G3(s) + c3)

    with np.errstate(divide="ignore"):
        H1 = lambda s: A1 * s ** a1 / a1
        H2 = lambda s: A2 * s ** a2 / a2 + B2 * np.log(s)
        H3 = lambda s: A3 * s ** a3 / a3 + B3 * np.log(s)
    d2 = H1(k1) - H2(k1)
    d3 = H2(k2) + d2 - H3(k2)

    def closed_H(t):
        t = np.asarray(t, dtype=float)
        # NaN fails t <= 0 and passes through
        safe = np.where(t <= 0, 1.0, t)
        out = piecewise(safe, H1, lambda s: H2(s) + d2, lambda s: H3(s) + d3)
        return np.where(t <= 0, 0.0, out)

    # on power+constant pieces the log-derivative is monotone, so the window
    # is exactly [a1, a3)
    return StructureFunction(eval=ev, deriv=dv, delta=a1, g0=a3,
                             label=f"glued:alpha={alpha:g},beta={beta:g},eps={eps:g},k1={k1:g},k2={k2:g}",
                             closed_G=closed_G, closed_H=closed_H)


_CATALOG = {
    "power": (_power, {"p": 3.0}),
    "loglin": (_loglin, {"alpha": 1.0, "beta": 1.0, "a": math.e}),
    "sinlog": (_sinlog, {"a": 2.5, "b": 1.0}),
    "glued": (_glued, {"alpha": 1.5, "beta": 2.5, "eps": 0.5, "k1": 1.0, "k2": 2.0}),
}


def catalog_structure_function(label: str) -> StructureFunction:
    """Resolve a catalog label such as ``"power:p=3"`` to a structure function."""
    name, params = parse_label(label)
    if name not in _CATALOG:
        raise UnknownLabelError(f"unknown catalog entry {name!r} (have {', '.join(_CATALOG)})")
    builder, defaults = _CATALOG[name]
    merged = dict(defaults)
    unknown = set(params) - set(defaults)
    if unknown:
        raise UnknownLabelError(f"unknown parameters {sorted(unknown)} for catalog entry {name!r}")
    merged.update(params)
    return builder(**merged)
