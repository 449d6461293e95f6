"""The README audit, reduced to 9 -> 17, against committed values at rtol 1e-10.

Byte-identity of reports is checked by `diff -r` across trees; these values
carry the same check into the suite.  They are compared at a tight relative
tolerance, not as bytes, since bytes can depend on the CPU's SIMD path.
Every audit row is judged on these data, so each pins its reason and the
fitted constant at both levels.  A change to the discretization, the
solver, the G_eps tables or the audit rule re-records these values and says
so.
"""

import json
import subprocess
import sys
from pathlib import Path

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
ROOT = Path(__file__).resolve().parents[1]

# per level (9^3, 17^3): final energies, Lipschitz ratios, and per audit its
# reason with the fitted constant at each level
EXPECTED = {
    "power:p=3": {
        "energies": [0.7110377707660667, 0.7152054137745477],
        "ratios": [0.05486862994346956, 0.06984945815843047],
        "audits": {
            "caccioppoli_T:gamma=1": ("judged", [0.06912569228907085, 0.15212944297302533]),
            "caccioppoli_T:gamma=2": ("judged", [0.1094157416219074, 0.20321593292268103]),
            "caccioppoli_X:gamma=1": ("judged", [0.004080061631290048, 0.0024354349185809862]),
            "caccioppoli_X:gamma=2": ("judged", [0.0034584442979212135, 0.0021563214486922965]),
            "horizontal_estimate:gamma=1": ("judged", [6.55716701648762e-13, 3.224688260621243e-13]),
            "horizontal_estimate:gamma=2": ("judged", [2.360603261645398e-18, 1.2318712063198647e-18]),
            "reverse:gamma=1,omega=1": ("judged", [1.9137986838565808e-09, 9.18421971386513e-10]),
            "reverse:gamma=1,omega=2": ("judged", [4.784496709641452e-10, 2.2960549284662807e-10]),
            "reverse:gamma=2,omega=1": ("judged", [1.100966410968329e-13, 5.267783152106427e-14]),
            "reverse:gamma=2,omega=2": ("judged", [1.376208013710411e-14, 6.584728940133026e-15]),
            "vertical_estimate:gamma=1": ("judged", [4.586447554461346e-13, 1.3680658979180458e-13]),
            "vertical_estimate:gamma=2": ("judged", [1.914200048016737e-17, 5.9168256759978476e-18]),
        },
    },
    "loglin:alpha=1,beta=1,a=2.718281828": {
        "energies": [1.7525522029242584, 1.7589019855341599],
        "ratios": [0.05915168601074111, 0.06925314431675678],
        "audits": {
            "caccioppoli_T:gamma=1": ("judged", [0.13374267570490195, 0.24771553618664033]),
            "caccioppoli_T:gamma=2": ("judged", [0.15180907975864977, 0.3362537285725409]),
            "caccioppoli_X:gamma=1": ("judged", [0.003238403431999362, 0.0020226903357685785]),
            "caccioppoli_X:gamma=2": ("judged", [0.002850423314838585, 0.0018396786410338338]),
            "horizontal_estimate:gamma=1": ("judged", [7.080924233666574e-11, 3.5371447913191594e-11]),
            "horizontal_estimate:gamma=2": ("judged", [4.740238674105325e-15, 2.4462548409026685e-15]),
            "reverse:gamma=1,omega=1": ("judged", [1.2450479781102595e-06, 6.156862522006745e-07]),
            "reverse:gamma=1,omega=2": ("judged", [6.206820437575806e-07, 3.0696146830446183e-07]),
            "reverse:gamma=2,omega=1": ("judged", [1.7390222140586448e-09, 8.067871579622413e-10]),
            "reverse:gamma=2,omega=2": ("judged", [6.120763139918272e-10, 2.839623604765286e-10]),
            "vertical_estimate:gamma=1": ("judged", [3.948733288690943e-10, 1.1506102518810089e-10]),
            "vertical_estimate:gamma=2": ("judged", [4.614146133317143e-13, 1.3069838731099844e-13]),
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
    for key, (reason, history) in expected["audits"].items():
        assert audits[key]["reason"] == reason, key
        assert audits[key]["refinement_history"] == pytest.approx(history, rel=RTOL), key


def test_table_builds_per_law(audit_run):
    # power composes closed forms and builds no table; loglin builds the G table of the
    # post-solve fields and one G_eps table per solve, and never evaluates H
    label, _, reports, _, calls = audit_run
    if label.startswith("power"):
        assert calls["table_builds"] == 0
    else:
        assert len(reports) == 2
        assert calls == {"table_builds": 1 + len(reports), "H": 0}


@pytest.mark.parametrize("workload", ["audit-power", "audit-loglin"])
def test_benchmark_reference_gate(workload):
    # the benchmark's own check of a reduced audit against perfbench/reference.json (energies to
    # energy_rtol = 1e-9, reports byte for byte across passes); delete this test once
    # perfbench/test_smoke.py is in the suite's testpaths
    done = subprocess.run([sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
                           "--reduced", "--seconds", "0"], cwd=ROOT, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, done.stdout
