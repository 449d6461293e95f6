"""Workload inputs drawn from the seed, and the correctness gate for each operation.

The seed draws inputs only.  Audit workloads run ``solab audit`` on the README
configuration with the poly2 boundary coefficients taken from a fixed table of
``AUDIT_VARIANTS`` variants (``seed % AUDIT_VARIANTS``); variant 0 is the README
config itself and every variant has per-level references recorded from the
seed commit in ``reference.json``.  A finite table keeps the reference gate
exact: every input the seed can pick was solved and audited once at the seed
commit, and each converged and passed there.

The conjugation workload draws ten extra points on the Young equality line per
run; the orlicz-check grid (50 points) and the round-trip grid stay fixed, so
the known glued failure shows on every run and the cost of the nested
bisection/quadrature path, which depends strongly on where the points fall,
stays the same from seed to seed.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")

AUDIT_WORKLOADS = {
    "audit-power": "power:p=3",
    "audit-loglin": "loglin:alpha=1,beta=1,a=2.718281828",
}
WORKLOADS = (*AUDIT_WORKLOADS, "conjugation")
DEFAULT_SEED = 0

# README boundary coefficients and the relative half-width of the variant draw
README_POLY2 = {"x1": 0.5, "x1t": 0.4, "x2": 0.2}
AUDIT_VARIANTS = 8
VARIANT_SPREAD = 0.05

# the seven families of tests/test_acceptance.py ALL_LABELS
CONJUGATION_LABELS = [
    "power:p=1.5", "power:p=2", "power:p=3", "power:p=4",
    "loglin:alpha=1,beta=1,a=2.718281828", "sinlog:a=2.5,b=1",
    "glued:alpha=1.5,beta=2.5,eps=0.5,k1=1,k2=2",
]
LINE_TOL = 1e-8        # young_equality_line bound of solab orlicz-check
ROUNDTRIP_TOL = 1e-6   # double-conjugate bound of acceptance criterion 2
ROUNDTRIP_POINTS = 4
LINE_EXTRA_POINTS = 10
LINE_LO, LINE_HI = 0.05, 5.0  # equality-line range of solab orlicz-check


def family_key(label: str) -> str:
    """Metric-safe family name: 'power:p=1.5' -> 'power_p1.5', 'sinlog:a=..' -> 'sinlog'."""
    name, _, params = label.partition(":")
    if name == "power":
        return "power_p" + params.partition("=")[2]
    return name


def audit_variant(seed: int) -> int:
    return seed % AUDIT_VARIANTS


def poly2_coefficients(variant: int) -> dict[str, float]:
    if variant == 0:
        return dict(README_POLY2)
    u = np.random.default_rng(variant).uniform(-1.0, 1.0, len(README_POLY2))
    return {k: round(b * (1.0 + VARIANT_SPREAD * x), 6)
            for (k, b), x in zip(README_POLY2.items(), u)}


def audit_config_text(workload: str, seed: int, reduced: bool = False) -> str:
    """The README audit config with the seed's boundary variant (17 -> 33 -> 65).

    ``reduced`` (smoke test) solves 17 -> 33 with one gamma and one omega.
    """
    coefs = poly2_coefficients(audit_variant(seed))
    boundary = "poly2:" + ",".join(f"{k}={v:g}" for k, v in coefs.items())
    return "\n".join([
        f"structure = {AUDIT_WORKLOADS[workload]}",
        f"boundary = {boundary}",
        "resolution = 17",
        "box = [[-1,1],[-1,1],[-1,1]]",
        "epsilon = 1e-4",
        "sigma = 0.5",
        f"gammas = {[1] if reduced else [1, 2]}",
        f"omegas = {[1] if reduced else [1, 2]}",
        "radius = 0.8",
        "eta_inner = 0.25",
        "eta_outer = 0.65",
        "seed = 1234",
        f"refinements = {1 if reduced else 2}",
    ]) + "\n"


def line_points(seed: int) -> np.ndarray:
    """The orlicz-check equality-line grid plus seed-drawn log-uniform points in [0.05, 5]."""
    rng = np.random.default_rng(seed)
    extra = np.exp(rng.uniform(math.log(LINE_LO), math.log(LINE_HI), LINE_EXTRA_POINTS))
    return np.concatenate([np.geomspace(LINE_LO, LINE_HI, 50), np.sort(extra)])


def roundtrip_points() -> np.ndarray:
    return np.geomspace(1e-2, 1e2, ROUNDTRIP_POINTS)


def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


def check_audit_levels(levels: list[dict], ratios: list[float], ref_levels: list[dict],
                       tol: dict) -> list[dict]:
    """One operation per solve level: converged, weak residual, energy and ratio vs the reference."""
    ops = []
    for i, ref in enumerate(ref_levels):
        reasons = []
        if i >= len(levels) or i >= len(ratios):
            ops.append({"op": f"solve.L{i}", "ok": False, "reasons": ["level missing"]})
            continue
        lv = levels[i]
        if not lv["converged"]:
            reasons.append("not converged")
        if not lv["weak_residual"] <= 1e-8 * (1.0 + lv["initial_residual"]):
            reasons.append(f"weak residual {lv['weak_residual']:.3e} above 1e-8(1+res0)")
        e_err = _rel(lv["final_energy"], ref["final_energy"])
        if not e_err <= tol["energy_rtol"]:
            reasons.append(f"final energy off the reference by {e_err:.2e} (rtol {tol['energy_rtol']:g})")
        r_err = _rel(ratios[i], ref["lipschitz_ratio"])
        if not r_err <= tol["ratio_rtol"]:
            reasons.append(f"Lipschitz ratio off the reference by {r_err:.2e} (rtol {tol['ratio_rtol']:g})")
        ops.append({"op": f"solve.L{i}", "ok": not reasons, "reasons": reasons})
    return ops


def is_known_failure(op: dict, known: dict) -> bool:
    """A failed operation the seed commit also fails, by no more than it did there.

    ``known`` maps an operation name to ``{"waived_up_to": x, ...}``; the
    failure is waived only while the operation's measured value is at most x
    (a NaN or a larger value is a new failure).
    """
    entry = known.get(op["op"])
    return entry is not None and op.get("value", math.nan) <= entry["waived_up_to"]
