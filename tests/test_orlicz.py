import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

import solab.orlicz as oz
from conftest import CATALOG_LABELS, POWER_LABELS, triple_for
from oracles import conjugate_reference, quad_reference

QUAD = oz.YoungFunction(integrand=lambda s: np.asarray(s, float),
                        closed_eval=lambda t: t * t / 2)
ENTROPY = oz.YoungFunction(integrand=np.log1p,
                           closed_eval=lambda t: (1 + t) * np.log1p(t) - t)


# ---------------------------------------------------------------- exponents

def test_power_exponents_exact():
    g = oz.catalog_structure_function("power:p=3")
    d, g0, ok = oz.verify_exponents(g, [0.1, 1.0, 10.0])
    assert (d, g0, ok) == (pytest.approx(2.0, abs=1e-12), pytest.approx(2.0, abs=1e-12), True)


def test_exponents_scale_invariant():
    g = oz.catalog_structure_function("power:p=2")
    scaled = oz.StructureFunction(eval=lambda t: 7.0 * g.eval(t), deriv=lambda t: 7.0 * g.deriv(t),
                                  delta=g.delta, g0=g.g0, label="7g")
    t = np.geomspace(0.01, 100, 50)
    assert oz.verify_exponents(g, t)[:2] == pytest.approx(oz.verify_exponents(scaled, t)[:2])


def test_exponents_reject_vanishing():
    zero = lambda t: np.zeros_like(np.asarray(t, float))
    broken = oz.StructureFunction(eval=zero, deriv=zero, delta=1, g0=1, label="zero")
    with pytest.raises(ValueError):
        oz.verify_exponents(broken, [1.0])


# ---------------------------------------------------------------- G

def test_G_linear_closed_form():
    tr = triple_for("power:p=2")
    assert tr.G(2.0) == pytest.approx(2.0, abs=1e-14)
    assert tr.G(0.0) == 0.0


def test_G_quadrature_vs_reference():
    # the table path must agree with the quadrature contract
    g = oz.catalog_structure_function("loglin:alpha=1,beta=1,a=1")
    tr = oz.OrliczTriple(g)
    assert tr.G(1.0) == pytest.approx(quad_reference(g.eval, 1.0), rel=1e-8)


@pytest.mark.parametrize("label", CATALOG_LABELS)
def test_table_matches_quadrature(label):
    tr = triple_for(label)
    for t in (0.03, 0.7, 5.0, 40.0):
        ref = quad_reference(tr.g.eval, t, points=[1.0, 2.0] if "glued" in label else None)
        assert float(tr.G(t)) == pytest.approx(ref, rel=2e-8)


def hermite_reference(table, t):
    """The Hermite-basis lookup the Horner form replaced, on the table's knot values and slopes."""
    c0, c1, c2, c3 = table.coef
    logy = np.append(c0, c0[-1] + c1[-1] + c2[-1] + c3[-1])
    slope = np.append(c1, c1[-1] + 2 * c2[-1] + 3 * c3[-1]) / table.dtau
    knots = np.linspace(math.log(1e-12), math.log(1e9), logy.size)
    t_arr = np.asarray(t, dtype=float)
    pos = t_arr > 0
    tau = np.log(np.where(pos, t_arr, 1.0))
    j = np.clip(np.floor((tau - knots[0]) / table.dtau), 0, knots.size - 2).astype(np.intp)
    lo, hi = knots[j], knots[j + 1]
    dt = hi - lo
    s = np.clip((tau - lo) / dt, 0.0, 1.0)
    h00 = (1 + 2 * s) * (1 - s) ** 2
    h10 = s * (1 - s) ** 2
    h01 = s * s * (3 - 2 * s)
    h11 = s * s * (s - 1)
    val = h00 * logy[j] + h10 * dt * slope[j] + h01 * logy[j + 1] + h11 * dt * slope[j + 1]
    val += slope[j] * np.minimum(tau - lo, 0.0) + slope[j + 1] * np.maximum(tau - hi, 0.0)
    return np.where(pos, np.exp(val), 0.0)


@pytest.mark.parametrize("label", ["loglin:alpha=1,beta=1,a=2.718281828", "sinlog:a=2.5,b=1"])
def test_horner_lookup_matches_hermite_basis(label, rng):
    tr = triple_for(label)
    tr.G(1.0)
    table = tr._table_G
    inside = np.exp(rng.uniform(math.log(1e-12), math.log(1e9), 5000)).reshape(50, 100)
    edges = np.array([0.0, 1e-30, 1e-13, 1e-12, 1e-12 * (1 + 1e-9), 1.0, 1e9 * (1 - 1e-9), 1e9, 1e10, 1e15])
    for t in (inside, edges, np.exp(np.linspace(math.log(1e-12), math.log(1e9), 2689))):
        ref = hermite_reference(table, t)
        out = table(t)
        assert out.shape == t.shape
        assert np.all(np.abs(out - ref) <= 1e-11 * ref)
    for t in (0.37, np.asarray(4e-13), np.asarray(2e11)):
        out = table(t)
        ref = float(hermite_reference(table, t))
        assert isinstance(out, float) and abs(out - ref) <= 1e-11 * ref
    assert table(0.0) == 0.0 and table(-1.0) == 0.0
    assert table(np.array([])).shape == (0,)


def test_F_zero_policy():
    assert triple_for("power:p=3").F(0.0) == 0.0          # delta > 1
    assert triple_for("power:p=2").F(0.0) == pytest.approx(1.0)  # delta = 1
    with pytest.raises(ValueError):
        triple_for("power:p=1.5").F(0.0)                   # singular


# ---------------------------------------------------------------- inverse

def test_generalized_inverse_examples():
    lin = lambda s: np.asarray(s, float)
    assert oz.generalized_inverse(lin, 3.0) == pytest.approx(3.0, abs=1e-10)
    sq = lambda s: np.asarray(s, float) ** 2
    assert oz.generalized_inverse(sq, 4.0) == pytest.approx(2.0, abs=1e-10)
    step = lambda s: np.where(np.asarray(s, float) >= 1.0, 2.0, 0.0)
    assert oz.generalized_inverse(step, 1.0) == pytest.approx(1.0, abs=1e-9)


def test_generalized_inverse_saturation_flag():
    bounded = lambda s: np.minimum(np.asarray(s, float), 1.0)
    assert oz.generalized_inverse(bounded, 2.0) >= 1e100


def test_generalized_inverse_stops_at_float_spacing():
    # above 2^19 the spacing of doubles exceeds the absolute 1e-10 tolerance
    calls = []

    def psi(s):
        calls.append(1)
        return s

    t = oz.generalized_inverse(psi, 1e6)
    assert abs(t - 1e6) <= np.spacing(1e6)
    assert len(calls) < 100


def test_inverse_sandwich():
    # Psi(Psi^{-1}(t)) <= t <= Psi^{-1}(Psi(t)) for the Young function Psi = G
    tr = triple_for("power:p=3")
    big_psi = lambda s: np.asarray(tr.G(s))
    inv = lambda t: oz.generalized_inverse(big_psi, t)
    for t in (0.1, 1.0, 7.3):
        assert float(big_psi(inv(t))) <= t * (1 + 1e-9) + 1e-12
        assert inv(float(big_psi(t))) >= t * (1 - 1e-9) - 1e-12


# ---------------------------------------------------------------- conjugate

def test_quadratic_self_conjugate():
    assert oz.conjugate(QUAD, 1.0) == pytest.approx(0.5, abs=1e-8)
    assert oz.conjugate(QUAD, 2.0) == pytest.approx(2.0, abs=1e-8)


def test_entropy_conjugate_is_exponential():
    # conjugate of (1+t)log(1+t)-t evaluated at 1 equals e - 2
    assert oz.conjugate(ENTROPY, 1.0) == pytest.approx(math.e - 2.0, abs=1e-8)


def test_conjugate_scaling_rule():
    c = 2.5
    scaled = oz.YoungFunction(integrand=lambda s: c * np.asarray(s, float),
                              closed_eval=lambda t: c * t * t / 2)
    for t in (0.5, 1.0, 3.0):
        assert oz.conjugate(scaled, t) == pytest.approx(c * oz.conjugate(QUAD, t / c), rel=1e-8)


@pytest.mark.parametrize("label", CATALOG_LABELS)
def test_conjugate_matches_quadrature_of_inverse(label):
    # independent of the Fenchel-Young identity the library evaluates
    tr = triple_for(label)
    s = np.geomspace(1e-2, 1e2, 9)
    ref = [conjugate_reference(tr.g, x) for x in s]
    assert oz.conjugate(oz.young_from_structure(tr), s) == pytest.approx(ref, rel=1e-9)


@pytest.mark.parametrize("label", POWER_LABELS)
def test_power_conjugate_closed_form(label):
    p = oz.parse_label(label)[1]["p"]
    q = p / (p - 1.0)
    s = np.geomspace(1e-2, 1e2, 9)
    assert oz.conjugate(oz.young_from_structure(triple_for(label)), s) == pytest.approx(
        s ** q / q, rel=1e-12)


def test_double_conjugate_roundtrip_quadratic():
    conj = oz.conjugate_young(QUAD)
    ts = np.array([0.5, 1.0, 2.0])
    assert np.allclose(oz.conjugate(conj, ts), QUAD(ts), atol=1e-8)


def test_young_gap_quadratic_algebra():
    # for t^2/2 the gap is (s-t)^2/2 by expanding the square
    for s, t in [(1.0, 1.0), (2.0, 0.5), (0.3, 1.7)]:
        assert oz.young_gap(QUAD, s, t) == pytest.approx((s - t) ** 2 / 2, abs=1e-9)
    assert oz.young_gap(QUAD, 0.0, 0.0) == pytest.approx(0.0, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=0, max_value=5), st.floats(min_value=0, max_value=5))
def test_young_gap_nonnegative(s, t):
    assert oz.young_gap(ENTROPY, s, t) >= -1e-9


def test_young_equality_on_the_graph():
    s = np.geomspace(0.1, 3.0, 7)
    gaps = oz.young_gap(ENTROPY, s, np.log1p(s))
    assert np.max(np.abs(gaps)) <= 1e-8


# ---------------------------------------------------------------- comp pair

def test_comp_prop_margin_closed_form():
    # Psi(2) = 2, Psi*(Psi(2)/2) = Psi*(1) = 0.5: margin 1.5
    assert oz.comp_prop_margin(QUAD, 2.0) == pytest.approx(1.5, abs=1e-8)


@pytest.mark.parametrize("label", ["power:p=1.5", "power:p=3", "loglin:alpha=1,beta=1,a=2.718281828"])
def test_comp_prop_nonnegative_catalog(label):
    young = oz.young_from_structure(triple_for(label))
    t = np.geomspace(0.1, 10, 25)
    margins = oz.comp_prop_margin(young, t)
    assert np.min(margins / (1 + young(t))) >= -1e-8


# ---------------------------------------------------------------- doubling

def test_doubling_values():
    t = np.geomspace(1e-2, 1e2, 200)
    assert oz.doubling_constant(oz.catalog_structure_function("power:p=3"), t) == pytest.approx(4.0, rel=1e-12)
    assert oz.doubling_constant(oz.catalog_structure_function("power:p=2"), t) == pytest.approx(2.0, rel=1e-12)


def test_scaled_argument_envelope(rng):
    g = oz.catalog_structure_function("power:p=3")
    alphas = rng.uniform(0.05, 5.0, 500)
    ts = np.exp(rng.uniform(math.log(1e-2), math.log(1e2), 500))
    envelope = np.maximum(alphas ** g.delta, alphas ** g.g0) * g(ts)
    assert np.min(envelope - g(alphas * ts)) >= -1e-9 * np.max(envelope)


def test_doubling_rejects_zero_samples():
    g = oz.catalog_structure_function("power:p=2")
    with pytest.raises(ValueError):
        oz.doubling_constant(g, [0.0, 1.0])


# ---------------------------------------------------------------- growth lemma

def test_growth_lemma_linear_equalities():
    tr = triple_for("power:p=2")
    for s, t in [(0.0, 1.0), (0.5, 2.0), (1.0, 1.5)]:
        assert oz.lemma_gG_audit(tr, t, s) is True


def test_growth_lemma_zero_s_boundary():
    # upper power bound saturates without division
    assert oz.lemma_gG_audit(triple_for("power:p=3"), 2.0, 0.0) is True


def test_growth_lemma_detects_a_violation():
    # G = 1.5 t^3 exceeds t g(t) = t^3: the upper sandwich bound fails
    g = oz.catalog_structure_function("power:p=3")
    bad = oz.OrliczTriple(dataclasses.replace(g, closed_G=lambda t: 1.5 * t ** 3))
    assert oz.lemma_gG_audit(bad, 2.0, 1.0) is False


def test_growth_lemma_rejects_bad_pair():
    with pytest.raises(ValueError):
        oz.lemma_gG_audit(triple_for("power:p=2"), 1.0, 1.0)


@pytest.mark.parametrize("label", ["loglin:alpha=1,beta=1,a=2.718281828", "sinlog:a=2.5,b=1",
                                   "glued:alpha=1.5,beta=2.5,eps=0.5,k1=1,k2=2"])
def test_growth_lemma_catalog_samples(label, rng):
    tr = triple_for(label)
    lo = np.exp(rng.uniform(math.log(1e-2), math.log(1e2), 100))
    hi = lo * np.exp(rng.uniform(0.01, 3.0, 100))
    for s, t in zip(lo, hi):
        assert oz.lemma_gG_audit(tr, float(t), float(s))


# ---------------------------------------------------------------- catalog

def test_label_parsing():
    name, params = oz.parse_label("loglin:alpha=1,beta=2,a=3")
    assert name == "loglin" and params == {"alpha": 1.0, "beta": 2.0, "a": 3.0}
    with pytest.raises(oz.UnknownLabelError):
        oz.parse_label("power:p")
    with pytest.raises(oz.UnknownLabelError):
        oz.parse_label("power:p=3,p=4")  # used to keep the last value


def test_unknown_labels_rejected():
    with pytest.raises(oz.UnknownLabelError):
        oz.catalog_structure_function("foo")
    with pytest.raises(oz.UnknownLabelError):
        oz.catalog_structure_function("power:q=3")
    with pytest.raises(oz.UnknownLabelError):
        oz.catalog_structure_function("sinlog:a=1,b=1")  # violates a >= 1 + b sqrt(2)


def test_glued_is_C1_at_knots():
    g = oz.catalog_structure_function("glued:alpha=1.5,beta=2.5,eps=0.5,k1=1,k2=2")
    for knot in (1.0, 2.0):
        lo, hi = knot - 1e-10, knot + 1e-10
        assert float(g(hi) - g(lo)) == pytest.approx(0.0, abs=1e-8)
        assert float(g.deriv(np.asarray(hi)) - g.deriv(np.asarray(lo))) == pytest.approx(0.0, abs=1e-6)
    assert (g.delta, g.g0) == (1.0, 3.0)


def test_glued_closed_forms_match_quadrature():
    g = oz.catalog_structure_function("glued:alpha=1.5,beta=2.5,eps=0.5,k1=1,k2=2")
    assert float(g.closed_G(np.asarray(3.0))) == pytest.approx(
        quad_reference(g.eval, 3.0, points=[1.0, 2.0]), rel=1e-10)


def test_sinlog_exponents_positive():
    g = oz.catalog_structure_function("sinlog:a=2.5,b=1")
    assert 0 < g.delta <= g.g0
    d, g0, ok = oz.verify_exponents(g, np.geomspace(1e-3, 1e3, 2000))
    assert ok


def _loglin_ratio_sup(a):
    """sup_t t/((a+t) ln(a+t)): a coarse log-grid bracket refined by scipy's Brent search."""
    def neg_r(logt):
        t = math.exp(logt)
        return -t / ((a + t) * math.log(a + t))

    s = np.linspace(math.log(1e-8), math.log(1e8), 4001)
    j = int(np.argmin([neg_r(v) for v in s]))
    res = scipy.optimize.minimize_scalar(neg_r, bracket=(s[j - 1], s[j], s[j + 1]),
                                         options={"xtol": 1e-12})
    return -float(res.fun)


@pytest.mark.parametrize("a", [1.0001, 1.5, 2.0, math.e, 10.0, 1e4])
def test_loglin_g0_is_the_log_derivative_sup(a):
    g = oz.catalog_structure_function(f"loglin:alpha=1,beta=1,a={a!r}")
    assert abs(g.g0 - (1.0 + _loglin_ratio_sup(a) + 1e-12)) <= 1e-15


def test_loglin_build_leaves_scipy_optimize_unimported():
    code = ("import sys\n"
            "from solab.orlicz import OrliczTriple, catalog_structure_function\n"
            "OrliczTriple(catalog_structure_function('loglin:alpha=1,beta=1,a=2'))\n"
            "print('scipy.optimize' in sys.modules)\n")
    src = str(Path(oz.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


@pytest.mark.parametrize("label", POWER_LABELS)
def test_power_doubling_is_exact(label):
    g = oz.catalog_structure_function(label)
    t = np.geomspace(1e-2, 1e2, 100)
    assert oz.doubling_constant(g, t) == pytest.approx(2.0 ** g.g0, rel=1e-12)
