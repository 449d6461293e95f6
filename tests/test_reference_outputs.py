"""The README audit, reduced to 9 -> 17, against committed values at rtol 1e-10.

Byte-identity of reports is checked by `diff -r` across trees; these values
carry the same check into the suite.  They are compared at a tight relative
tolerance, not as bytes, since bytes can depend on the CPU's SIMD path.
Degenerate audits (sides that vanish analytically) report round-off as their
fitted constant, so only their flag is pinned.  A change to the
discretization, the solver or the G_eps tables re-records these values and
says so.
"""

import json

import pytest

import solab.cli as cli
import solab.orlicz as oz
import solab.solver as sv

CONFIG = """
boundary = poly2:x1=0.5,x1t=0.4,x2=0.2
resolution = 9
box = [[-1,1],[-1,1],[-1,1]]
epsilon = 1e-4
sigma = 0.5
gammas = [1, 2]
omegas = [1, 2]
radius = 0.8
eta_inner = 0.25
eta_outer = 0.65
seed = 1234
refinements = 1
"""

RTOL = 1e-10

# per level (9^3, 17^3): final energies, Lipschitz ratios, and per audit its
# degenerate flag with the fitted constant at each level
EXPECTED = {
    "power:p=3": {
        "energies": [0.7110377707660667, 0.7152054137745477],
        "ratios": [0.05486862994346956, 0.06984945815843047],
        "audits": {
            "caccioppoli_T:gamma=1": (False, [0.07344519700327615, 0.16086643090488603]),
            "caccioppoli_T:gamma=2": (False, [0.11625409195137718, 0.21537099903038923]),
            "caccioppoli_X:gamma=1": (False, [0.004721205817555035, 0.0026467818909819527]),
            "caccioppoli_X:gamma=2": (False, [0.003922277685687674, 0.002316280125398377]),
            "horizontal_estimate:gamma=1": (True, None),
            "horizontal_estimate:gamma=2": (True, None),
            "reverse:gamma=1,omega=1": (True, None),
            "reverse:gamma=1,omega=2": (True, None),
            "reverse:gamma=2,omega=1": (True, None),
            "reverse:gamma=2,omega=2": (True, None),
            "vertical_estimate:gamma=1": (True, None),
            "vertical_estimate:gamma=2": (True, None),
        },
    },
    "loglin:alpha=1,beta=1,a=2.718281828": {
        "energies": [1.7525522029242584, 1.7589019855341599],
        "ratios": [0.05915168601074111, 0.06925314431675678],
        "audits": {
            "caccioppoli_T:gamma=1": (False, [0.14209438209458522, 0.2612609214983443]),
            "caccioppoli_T:gamma=2": (False, [0.16129543755093864, 0.3555802003233709]),
            "caccioppoli_X:gamma=1": (False, [0.00377695146547559, 0.0022124010149149657]),
            "caccioppoli_X:gamma=2": (False, [0.0032696426477758847, 0.0019950942001500877]),
            "horizontal_estimate:gamma=1": (False, [7.805090167366145e-11, 3.568139917145798e-11]),
            "horizontal_estimate:gamma=2": (True, None),
            "reverse:gamma=1,omega=1": (False, [1.7564409353572467e-06, 6.832635125665748e-07]),
            "reverse:gamma=1,omega=2": (False, [8.753918572639564e-07, 3.4062785723028513e-07]),
            "reverse:gamma=2,omega=1": (True, None),
            "reverse:gamma=2,omega=2": (True, None),
            "vertical_estimate:gamma=1": (False, [6.140447964002585e-10, 1.2880968980468757e-10]),
            "vertical_estimate:gamma=2": (True, None),
        },
    },
}


@pytest.fixture(scope="module", params=sorted(EXPECTED))
def audit_run(request, tmp_path_factory):
    """One reduced audit per law, with its solve reports and the calls it made into the tables."""
    label = request.param
    tmp = tmp_path_factory.mktemp("reference")
    cfg = tmp / "cfg.txt"
    cfg.write_text(f"structure = {label}\n" + CONFIG)
    reports, calls = [], {"table_builds": 0, "H": 0}
    solve, build, big_h = sv.solve_dirichlet, oz._LogCumTable.__init__, oz.OrliczTriple.H

    def capture(prob, init=None):
        sol, rep = solve(prob, init=init)
        reports.append(rep)
        return sol, rep

    def counted_build(self, w):
        calls["table_builds"] += 1
        build(self, w)

    def counted_h(self, t):
        calls["H"] += 1
        return big_h(self, t)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sv, "solve_dirichlet", capture)
        mp.setattr(oz._LogCumTable, "__init__", counted_build)
        mp.setattr(oz.OrliczTriple, "H", counted_h)
        code = cli.main(["audit", "--config", str(cfg), "--out", str(tmp / "out")])
    report = json.loads((tmp / "out" / "audit_report.json").read_text())
    return label, code, reports, report, calls


def test_reduced_audit_matches_reference(audit_run):
    label, code, reports, report, _ = audit_run
    expected = EXPECTED[label]
    assert code in (0, 1)
    assert report["converged"] and all(rep.converged for rep in reports)
    assert [rep.final_energy for rep in reports] == pytest.approx(expected["energies"], rel=RTOL)
    assert [row["ratio"] for row in report["lipschitz_ratios"]] == pytest.approx(expected["ratios"], rel=RTOL)
    audits = {row["name"] + f":gamma={row['gamma']}" + (f",omega={row['omega']}" if "omega" in row else ""): row
              for row in report["audits"]}
    assert sorted(audits) == sorted(expected["audits"])
    for key, (degenerate, history) in expected["audits"].items():
        assert audits[key]["degenerate"] is degenerate, key
        if not degenerate:
            assert audits[key]["refinement_history"] == pytest.approx(history, rel=RTOL), key


def test_table_builds_per_law(audit_run):
    # power composes closed forms and builds no table; loglin builds the G table of the
    # post-solve fields and one G_eps table for the solves, and never evaluates H
    label, _, _, _, calls = audit_run
    if label.startswith("power"):
        assert calls["table_builds"] == 0
    else:
        assert calls == {"table_builds": 2, "H": 0}
