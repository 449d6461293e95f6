"""One pass of a workload in a fresh process, as one CLI invocation would run it.

    python3 perfbench/worker.py --workload audit-power --seed 0 --config CFG
        --out DIR --result JSON --spawn-ns NS [--trace 1] [--setup-only] [--reduced]

Set-up (interpreter, imports, config parsing, catalog construction) runs from
process start to the first timed call; ``--spawn-ns`` is the parent's
``time.monotonic_ns()`` just before it started this process (the clock is
system-wide).  The result, with the operation verdicts and, when traced, the
per-layer metrics, goes to ``--result``.  The parent takes CPU time and peak
RSS of this process from ``wait4``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402

import solab  # noqa: E402
from solab import cli, orlicz as oz, solver as sv  # noqa: E402
from solab.config import load_config  # noqa: E402

import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402

REPORT_FILES = ("audit_report.json", "audit_report.csv", "estimate_ratio.csv",
                "moser_trace.csv", "plot_fitted_vs_h.csv")
REDUCED_LABELS = ["power:p=2", "glued:alpha=1.5,beta=2.5,eps=0.5,k1=1,k2=2"]


def _parser():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--config", help="audit config file")
    ap.add_argument("--out", help="audit output directory")
    ap.add_argument("--result", required=True)
    ap.add_argument("--spawn-ns", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--reduced", action="store_true",
                    help="smoke-test size of the conjugation pass: 2 families, fewer points")
    return ap


# ------------------------------------------------------------------ audits


def audit_pass(args, cfg, tracer):
    reports = []
    solve = sv.solve_dirichlet

    def capture(prob, init="zero"):
        sol, rep = solve(prob, init=init)
        reports.append(rep)
        return sol, rep

    sv.solve_dirichlet = capture
    if tracer is not None:
        tr.install_solab(tracer)
    try:
        start = time.perf_counter()
        if tracer is None:
            rc = cli.cmd_audit(cfg, args.out)
            root = None
        else:
            with tracer.span("cli.cmd_audit") as root:
                rc = cli.cmd_audit(cfg, args.out)
        wall = time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.restore()
        sv.solve_dirichlet = solve

    with open(os.path.join(args.out, "audit_report.json")) as fh:
        report = json.load(fh)
    levels = [{"iterations": r.iterations, "final_energy": r.final_energy,
               "weak_residual": r.weak_residual, "initial_residual": r.residual_history[0],
               "converged": r.converged} for r in reports]
    ratios = [row["ratio"] for row in report["lipschitz_ratios"]]
    ref = wl.load_reference()
    variant = str(wl.audit_variant(args.seed))
    try:
        ref_levels = ref[args.workload][variant]["levels"]
    except KeyError:
        ops = [{"op": f"solve.L{i}", "ok": False, "reasons": ["no reference for this variant"]}
               for i in range(len(levels))]
    else:
        # level i does not depend on how many levels follow it, so a config
        # with fewer refinements is checked against the first references
        ops = wl.check_audit_levels(levels, ratios, ref_levels[:cfg.refinements + 1],
                                    ref["tolerances"])
    reasons = []
    if rc != 0:
        reasons.append(f"exit code {rc}")
    if not report["all_pass"]:
        reasons.append("all_pass false")
    if not report["converged"]:
        reasons.append("converged false")
    ops.append({"op": "audit", "ok": not reasons, "reasons": reasons})
    return wall, ops, {"levels": levels, "lipschitz_ratios": ratios}, root


# ------------------------------------------------------------- conjugation


def equality_line_errors(triple, young, s):
    """Young equality-line error |G(s) + G*(g(s)) - s g(s)| / (1 + G(s)) at each point."""
    return np.abs(oz.young_gap(young, s, triple.g(s))) / (1.0 + young(s))


def conjugation_setup(labels, tracer):
    families = []
    for label in labels:
        g = oz.catalog_structure_function(label)
        if tracer is not None:
            g = tr.counting_structure_function(tracer, g)
        families.append((wl.family_key(label), oz.OrliczTriple(g)))
    return families


def conjugation_pass(args, families, tracer):
    s_line = wl.line_points(args.seed)
    t_round = wl.roundtrip_points()
    if args.reduced:
        s_line, t_round = s_line[::6], t_round[:2]
    ops, values = [], {}

    def span(name):
        return tracer.span(name) if tracer is not None else contextlib.nullcontext()

    if tracer is not None:
        tr.install_orlicz(tracer, oz)
    try:
        start = time.perf_counter()
        with span("bench.conjugation") as root:
            for key, triple in families:
                # built after install_orlicz: the Young function keeps the G it is given
                young = oz.young_from_structure(triple)
                with span(f"orlicz.equality_line.{key}"):
                    line_err = float(np.max(equality_line_errors(triple, young, s_line)))
                with span(f"orlicz.roundtrip.{key}"):
                    back = oz.conjugate(oz.conjugate_young(young), t_round)
                    direct = young(t_round)
                    round_err = float(np.max(np.abs(back - direct) / (1.0 + direct)))
                values[key] = {"young_equality_line": line_err, "double_conjugate": round_err}
                for check, err, tol in (("young_equality_line", line_err, wl.LINE_TOL),
                                        ("double_conjugate", round_err, wl.ROUNDTRIP_TOL)):
                    ok = err <= tol
                    ops.append({"op": f"{key}.{check}", "ok": ok, "value": err,
                                "reasons": [] if ok else [f"{err:.4e} > {tol:g}"]})
        wall = time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.restore()
    return wall, ops, values, root


# ---------------------------------------------------------- per-layer view

SOLVE_LEVELS = 3
LAYERS = ("solver", "operator", "orlicz", "verify", "grid", "cli")
TIMED = {  # metric -> span name, inclusive time of the outermost spans
    "solver.solve_s": "solver.solve",
    "solver.cell_gradient_s": "solver.cell_gradient",
    "solver.cell_gradient_adjoint_s": "solver.cell_gradient_adjoint",
    "orlicz.G_s": "orlicz.G",
    "orlicz.H_s": "orlicz.H",
    "orlicz.table_build_s": "orlicz.table_build",
    "orlicz.conjugate_s": "orlicz.conjugate",
    "orlicz.conjugate_young_s": "orlicz.conjugate_young",
    "orlicz.young_gap_s": "orlicz.young_gap",
    "verify.solution_fields_s": "verify.solution_fields",
    "verify.audits_s": "verify.audits",
    "verify.moser_trace_s": "verify.moser_trace",
    "verify.lipschitz_ratio_s": "verify.lipschitz_ratio",
    "grid.integrate_s": "grid.integrate",
    "grid.make_cutoff_s": "grid.make_cutoff",
    "grid.ball_node_mask_s": "grid.ball_node_mask",
    "grid.horizontal_gradient_s": "grid.horizontal_gradient",
    "grid.horizontal_hessian_s": "grid.horizontal_hessian",
    "grid.refine_values_s": "grid.refine_values",
}
CALLS = {
    "orlicz.G_calls": "orlicz.G",
    "verify.solution_fields_calls": "verify.solution_fields",
    "grid.integrate_calls": "grid.integrate",
}
SELF = {
    "solver.lbfgs_self_s": "solver.solve",
    "operator.G_eps_s": "operator.G_eps",
    "operator.F_eps_s": "operator.F_eps",
}


def layer_metrics(tracer, root, wall, levels, workers) -> dict:
    spans = tracer.spans
    selfs = tr.self_times(spans)
    by_id = {s[0]: s for s in spans}
    own = tr.self_by_name(spans, selfs)
    m = {"trace.wall_s": wall}
    for key, name in TIMED.items():
        m[key] = tr.inclusive(spans, name)
    for key, name in CALLS.items():
        m[key] = sum(1 for s in spans if s[1] == name)
    for key, name in SELF.items():
        m[key] = own.get(name, 0.0)
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(v for k, v in own.items() if k.split(".")[0] == layer)

    solves = sorted(tr.outermost(spans, "solver.solve"), key=lambda s: s[2])
    for i in range(SOLVE_LEVELS):
        m[f"solver.solve_s.L{i}"] = solves[i][3] - solves[i][2] if i < len(solves) else 0.0
        m[f"solver.iters.L{i}"] = levels[i]["iterations"] if i < len(levels) else 0

    def under_solve(s):
        p = s[4]
        while p is not None:
            if by_id[p][1] == "solver.solve":
                return True
            p = by_id[p][4]
        return False

    evals = sum(1 for s in spans if s[1] == "operator.G_eps" and under_solve(s))
    iters = sum(lv["iterations"] for lv in levels)
    m["solver.evals"] = evals
    m["solver.evals_per_iter"] = evals / iters if iters else 0.0

    pools = [s for s in spans if s[1] == "verify.audits"]
    busy = sum(s[3] - s[2] for s in spans
               if s[4] is not None and by_id[s[4]][1] == "verify.audits" and s[5] != by_id[s[4]][5])
    window = sum(s[3] - s[2] for s in pools) * workers
    m["verify.pool_busy_frac"] = busy / window if window else 0.0

    m["orlicz.psi_points"] = tracer.counts.get("orlicz.psi_points", 0)
    for key in (wl.family_key(lab) for lab in wl.CONJUGATION_LABELS):
        m[f"orlicz.roundtrip_s.{key}"] = tr.inclusive(spans, f"orlicz.roundtrip.{key}")
        m[f"orlicz.equality_line_s.{key}"] = tr.inclusive(spans, f"orlicz.equality_line.{key}")
    m["trace.spans"] = len(spans)
    m["trace.self_sum_gap"] = tr.main_thread_check(spans, root, selfs)
    return m


# -------------------------------------------------------------------- main


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if not os.path.abspath(solab.__file__).startswith(os.path.join(ROOT, "src")):
        raise RuntimeError(f"solab imported from {solab.__file__}, not from the checkout")
    tracer = tr.Tracer(run_id=f"{args.workload}-{args.seed}-{os.getpid()}") if args.trace else None
    if args.workload in wl.AUDIT_WORKLOADS:
        cfg = load_config(args.config)
        families = None
    else:
        cfg = None
        labels = REDUCED_LABELS if args.reduced else wl.CONJUGATION_LABELS
        families = conjugation_setup(labels, tracer)
    setup_s = (time.monotonic_ns() - args.spawn_ns) / 1e9
    result = {"setup_s": setup_s}
    if not args.setup_only:
        if cfg is not None:
            wall, ops, detail, root = audit_pass(args, cfg, tracer)
            levels = detail["levels"]
            result["report_sha256"] = _hashes(args.out)
        else:
            wall, ops, detail, root = conjugation_pass(args, families, tracer)
            levels = []
        result.update(wall_s=wall, ops=ops, detail=detail)
        if tracer is not None:
            result["layers"] = layer_metrics(tracer, root, wall, levels, cli.worker_count())
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


def _hashes(out: str) -> dict:
    digests = {}
    for name in REPORT_FILES:
        with open(os.path.join(out, name), "rb") as fh:
            digests[name] = hashlib.sha256(fh.read()).hexdigest()
    return digests


if __name__ == "__main__":
    sys.exit(main())
