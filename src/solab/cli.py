"""Command-line orchestration.

Commands: orlicz-check, operator-check, solve, audit.  Each takes two flags,
``--config`` (a ``key = value`` file, the only place a setting is given) and
``--out`` (the output directory, default ``.``).  All numeric output is CSV
with 17 significant digits plus JSON reports; an identical config produces
byte-identical files.  Exit codes: 0 pass, 1 numeric non-convergence,
2 config error, 3 IO error.  The audits of one level run in order in the
main thread, on the level's one set of solution fields and cutoff.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from concurrent import futures

import numpy as np

from . import operator as op_mod
from . import orlicz as oz
from . import solver as sv
from . import verify as vf
from .config import ConfigError, ExperimentConfig, load_config
from . import grid as gr
from .grid import GaugeBall, Grid, make_cutoff, save_field_binary
from .orlicz import OrliczTriple, UnknownLabelError, catalog_structure_function
from .problems import boundary_field

refine_values = gr.refine_values  # unused here: perfbench/tracer.py patches it with grid's (ROADMAP item 5)
ThreadPoolExecutor = futures.ThreadPoolExecutor  # unused here: perfbench/tracer.py replaces it (ROADMAP item 5)

EXIT_PASS = 0
EXIT_NONCONV = 1
EXIT_CONFIG = 2
EXIT_IO = 3


# unused here: perfbench/worker.py --trace 1 reads it (ROADMAP item 5)
def worker_count() -> int:
    return os.cpu_count() or 1


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _write_csv(path, header, rows):
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _write_checks(out, stem, checks, **fields) -> int:
    """Write ``<stem>_report.json`` and ``.csv`` from the checks and extra fields; return the exit code."""
    rows = [{"name": n, "value": v, "criterion": c, "pass": p} for n, v, c, p in checks]
    payload = dict(fields, checks=rows, all_pass=all(p for *_, p in checks))
    _write_json(os.path.join(out, f"{stem}_report.json"), payload)
    _write_csv(os.path.join(out, f"{stem}_report.csv"), ["check", "value", "criterion", "pass"], checks)
    return EXIT_PASS if payload["all_pass"] else EXIT_NONCONV


# --------------------------------------------------------------------------
# orlicz-check
# --------------------------------------------------------------------------


def cmd_orlicz_check(cfg: ExperimentConfig, out: str) -> int:
    g = catalog_structure_function(cfg.structure)
    triple = OrliczTriple(g)
    young = oz.young_from_structure(triple)
    rng = np.random.default_rng(cfg.seed)
    checks: list[tuple[str, float, str, bool]] = []

    t_dense = np.geomspace(1e-3, 1e3, 2000)
    d_est, g0_est = oz.verify_exponents(g, t_dense)
    checks.append(("exponent_window_low", d_est, f">= {g.delta - 1e-6}", d_est >= g.delta - 1e-6))
    checks.append(("exponent_window_high", g0_est, f"<= {g.g0 + 1e-6}", g0_est <= g.g0 + 1e-6))

    c2 = oz.doubling_constant(g, t_dense)
    bound = 2.0 ** g.g0 + 1e-6
    checks.append(("doubling_constant", c2, f"<= {bound}", c2 <= bound))

    alphas = rng.uniform(0.05, 5.0, size=2000)
    ts = np.exp(rng.uniform(math.log(1e-2), math.log(1e2), size=2000))
    gt = g(ts)
    envelope = np.maximum(alphas ** g.delta, alphas ** g.g0) * gt
    scaled_margin = float(np.min(envelope - g(alphas * ts)) / np.max(envelope))
    checks.append(("scaled_argument_margin", scaled_margin, ">= -1e-9", scaled_margin >= -1e-9))

    pair_lo = np.exp(rng.uniform(math.log(1e-2), math.log(1e2), size=1000))
    pair_hi = pair_lo * np.exp(rng.uniform(0.01, 3.0, size=1000))
    lemma_fail = 0
    for s, t in zip(pair_lo, pair_hi):
        if not oz.lemma_gG_audit(triple, float(t), float(s)):
            lemma_fail += 1
    checks.append(("growth_lemma_failures", float(lemma_fail), "== 0", lemma_fail == 0))

    ss = np.exp(rng.uniform(math.log(1e-2), math.log(10.0), size=10_000))
    tt = np.exp(rng.uniform(math.log(1e-2), math.log(10.0), size=10_000))
    gaps = oz.young_gap(young, ss, tt)
    scale = 1.0 + float(np.max(young(ss)))
    gap_min = float(np.min(gaps)) / scale
    checks.append(("young_gap_min", gap_min, ">= -1e-9", gap_min >= -1e-9))
    s_line = np.geomspace(0.05, 5.0, 50)
    line_gap = oz.young_gap(young, s_line, g(s_line))
    line_err = float(np.max(np.abs(line_gap) / (1.0 + young(s_line))))
    checks.append(("young_equality_line", line_err, "<= 1e-8", line_err <= 1e-8))

    t_round = np.geomspace(1e-2, 1e2, 40)
    conj = oz.conjugate_young(young)
    back = oz.conjugate(conj, t_round)
    direct = young(t_round)
    round_err = float(np.max(np.abs(back - direct) / (1.0 + direct)))
    checks.append(("double_conjugate", round_err, "<= 1e-6", round_err <= 1e-6))

    t_cp = np.geomspace(0.1, 10.0, 100)
    margins = oz.comp_prop_margin(young, t_cp)
    cp_min = float(np.min(margins / (1.0 + young(t_cp))))
    checks.append(("complementary_pair_margin", cp_min, ">= -1e-8", cp_min >= -1e-8))

    quad = oz.YoungFunction(integrand=lambda s: s, closed_eval=lambda t: t * t / 2)
    err_quad = abs(oz.conjugate(quad, 1.0) - 0.5)
    checks.append(("quad_self_conjugate", err_quad, "<= 1e-8", err_quad <= 1e-8))
    entropy = oz.YoungFunction(integrand=np.log1p, closed_eval=lambda t: (1 + t) * np.log1p(t) - t)
    err_ent = abs(oz.conjugate(entropy, 1.0) - (math.e - 2.0))
    checks.append(("entropy_exp_conjugate", err_ent, "<= 1e-8", err_ent <= 1e-8))

    return _write_checks(out, "orlicz", checks, structure=cfg.structure, delta=g.delta, g0=g.g0,
                         delta_estimate=d_est, g0_estimate=g0_est, doubling_constant=c2)


# --------------------------------------------------------------------------
# operator-check
# --------------------------------------------------------------------------


def _fd_jacobian(a_map, z):
    """Central-difference Jacobian with steps 1e-6 max(|z_j|, 1)."""
    d = z.shape[-1]
    out = np.empty(z.shape + (d,))
    for j in range(d):
        h = 1e-6 * np.maximum(np.abs(z[..., j]), 1.0)
        zp = z.copy(); zp[..., j] += h
        zm = z.copy(); zm[..., j] -= h
        out[..., j] = (a_map(zp) - a_map(zm)) / (2 * h)[..., None]
    return out


def _jacobian_vs_fd(op: op_mod.OperatorSpec, z) -> float:
    """Largest relative deviation of the closed-form Jacobian from central differences."""
    da = op.DA(z)
    return float(np.max(np.max(np.abs(da - _fd_jacobian(op.A, z)), axis=(1, 2))
                        / np.max(np.abs(da), axis=(1, 2))))


def cmd_operator_check(cfg: ExperimentConfig, out: str) -> int:
    triple = OrliczTriple(catalog_structure_function(cfg.structure))
    spec = op_mod.prototype_operator(triple)
    rng = np.random.default_rng(cfg.seed)
    checks: list[tuple[str, float, str, bool]] = []

    def sample_z(m):
        radii = np.exp(rng.uniform(math.log(1e-2), math.log(1e2), size=m))
        dirs = rng.normal(size=(m, 2))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        return radii[:, None] * dirs

    z = sample_z(1000)
    da = spec.DA(z)
    rel = _jacobian_vs_fd(spec, z)
    checks.append(("jacobian_vs_fd", rel, "<= 1e-5", rel <= 1e-5))

    asym = float(np.max(np.max(np.abs(da - np.swapaxes(da, 1, 2)), axis=(1, 2))
                        / np.max(np.abs(da), axis=(1, 2))))
    checks.append(("jacobian_asymmetry", asym, "<= 1e-10", asym <= 1e-10))

    eigs = np.linalg.eigvalsh(0.5 * (da + np.swapaxes(da, 1, 2)))
    r = np.linalg.norm(z, axis=1)
    lo_ok = float(np.min(eigs[:, 0] / (spec.lo * spec.weight(r))))
    hi_ok = float(np.max(eigs[:, -1] / (spec.hi * spec.weight(r))))
    checks.append(("eigen_bracket_low", lo_ok, ">= 1 - 1e-6", lo_ok >= 1.0 - 1e-6))
    checks.append(("eigen_bracket_high", hi_ok, "<= 1 + 1e-6", hi_ok <= 1.0 + 1e-6))

    z2 = sample_z(10_000)
    xi = rng.normal(size=z2.shape)
    xi2, r2 = np.sum(xi * xi, axis=-1), np.linalg.norm(z2, axis=-1)
    lower, upper, growth = op_mod.structure_margins(spec, z2, xi)
    norm = xi2 * (spec.hi * spec.weight(r2))
    lower_min, upper_min = float(np.min(lower / norm)), float(np.min(upper / norm))
    checks.append(("structure_lower_margin", lower_min, ">= -1e-9", lower_min >= -1e-9))
    checks.append(("structure_upper_margin", upper_min, ">= -1e-9", upper_min >= -1e-9))
    growth_min = float(np.min(growth / (1.0 + np.linalg.norm(spec.A(z2), axis=-1))))
    checks.append(("growth_margin", growth_min, ">= -1e-9", growth_min >= -1e-9))

    w2 = sample_z(10_000)
    gap, fitted = op_mod.monotonicity_gap(spec, z2, w2)
    gap_min = float(np.min(gap))
    checks.append(("monotonicity_gap_min", gap_min, ">= -1e-12", gap_min >= -1e-12))
    fit_min = float(np.nanmin(fitted))
    checks.append(("monotonicity_fitted_lower", fit_min, "> 0 (recorded)", fit_min > 0))

    ell = op_mod.ellipticity_margin(spec, triple, z2)
    ell_rel = float(np.min(ell / (1.0 + np.abs(ell))))
    checks.append(("ellipticity_margin", ell_rel, ">= -1e-9", ell_rel >= -1e-9))

    plap_rows = []
    for p in (1.5, 2.0, 3.0):
        gaps, ratios = op_mod.p_laplace_gap(p, z2, w2)
        ratio_min = float(np.min(ratios))
        plap_rows.append((p, float(np.min(gaps)), ratio_min))
        checks.append((f"p_laplace_ratio_min_p={p:g}", ratio_min, "> 0", ratio_min > 0))

    reg_rows = []
    probe = sample_z(2000)
    prev_sup = math.inf
    sup_decreasing = True
    reg_jac = 0.0
    t = np.geomspace(1e-4, 1e4, 400)
    for eps in (1e-2, 5e-3, 2.5e-3, 1e-3):
        rspec = op_mod.regularized_operator(triple, eps)
        m1, m2 = rspec.weight(0.0), rspec.weight(1.0 / eps)
        sup_diff = float(np.max(np.linalg.norm(rspec.A(probe) - spec.A(probe), axis=-1)))
        reg_rows.append((eps, m1, m2, max(rspec.hi, 1.0 / rspec.lo), sup_diff))
        sup_decreasing &= sup_diff < prev_sup or sup_diff == 0.0  # 0 when F is constant (p = 2)
        prev_sup = sup_diff
        m1_ref = triple.F(eps)
        m2_ref = triple.F(1.0 / eps)
        checks.append((f"regularized_m1_eps={eps:g}", m1, "== F(eps)",
                       abs(m1 - m1_ref) <= 1e-12 * (1 + abs(m1_ref))))
        checks.append((f"regularized_m2_eps={eps:g}", m2, "== F(1/eps)",
                       abs(m2 - m2_ref) <= 1e-12 * (1 + abs(m2_ref))))

        lower, upper, growth = op_mod.structure_margins(rspec, z2, xi)
        w_hi = rspec.hi * rspec.weight(r2)
        margin = float(min(np.min(lower / (xi2 * w_hi)), np.min(upper / (xi2 * w_hi)),
                           np.min(growth / (r2 * w_hi))))
        checks.append((f"regularized_structure_margins_eps={eps:g}", margin, ">= -1e-9",
                       margin >= -1e-9))

        # difference quotients must not straddle the saturation kink of F_eps at 1/eps - eps
        kink = 1.0 / eps - eps
        smooth = np.abs(r - kink) > 1e-3 * kink
        reg_jac = max(reg_jac, _jacobian_vs_fd(rspec, z[smooth]))
        ts = t[np.abs(t - kink) > 1e-4 * t]
        hs = 1e-4 * ts
        g_eps = op_mod.regularized_energy_density(triple, eps)
        dens = ts * rspec.weight(ts)
        up, down = ts + hs, ts - hs
        diff = g_eps(up, rspec.weight(up)) - g_eps(down, rspec.weight(down))
        dens_err = float(np.max(np.abs(diff / (2 * hs) - dens) / dens))
        checks.append((f"energy_density_derivative_eps={eps:g}", dens_err, "<= 1e-6",
                       dens_err <= 1e-6))
    checks.append(("regularized_jacobian_vs_fd", reg_jac, "<= 1e-5", reg_jac <= 1e-5))
    checks.append(("regularized_sup_diff_decreasing", float(sup_decreasing), "strictly (or 0)",
                   sup_decreasing))

    return _write_checks(out, "operator", checks, structure=cfg.structure, seed=cfg.seed,
                         p_laplace=[{"p": p, "gap_min": a, "ratio_min": b} for p, a, b in plap_rows],
                         regularization=[{"eps": e, "m1": m1, "m2": m2, "L_tilde": lt, "sup_diff": sd}
                                         for e, m1, m2, lt, sd in reg_rows])


# --------------------------------------------------------------------------
# solve
# --------------------------------------------------------------------------


def _problem(cfg: ExperimentConfig, triple: OrliczTriple, grid: Grid) -> sv.DirichletProblem:
    """The configured Dirichlet problem on ``grid``."""
    return sv.DirichletProblem(grid=grid, triple=triple, boundary=boundary_field(cfg.boundary, grid),
                               eps=cfg.epsilon, residual_tol=cfg.residual_tol, max_iters=cfg.max_iters)


def cmd_solve(cfg: ExperimentConfig, out: str) -> int:
    triple = OrliczTriple(catalog_structure_function(cfg.structure))
    grid = Grid.from_box(cfg.box, cfg.resolutions())
    (sol, report), = sv.solve_ladder([_problem(cfg, triple, grid)])
    save_field_binary(os.path.join(out, "solution.bin"), grid, sol)
    _write_json(os.path.join(out, "solve_report.json"), {
        "structure": cfg.structure,
        "boundary": cfg.boundary,
        "resolution": cfg.resolutions(),
        "epsilon": cfg.epsilon,
        **report.record(),
        "gradient_cap_observed": report.gradient_cap_observed,
        "converged": report.converged,
        "energy_history_head": report.energy_history[:16],
        "energy_history_tail": report.energy_history[-16:],
        # a grid that is not halved has no coarser solves, so its report omits start_levels
        **({"start_levels": report.start_levels} if report.start_levels else {}),
    })
    return EXIT_PASS if report.converged else EXIT_NONCONV


# --------------------------------------------------------------------------
# audit
# --------------------------------------------------------------------------


def _audit_jobs(cfg: ExperimentConfig):
    """(audit, keyword arguments) pairs; each audit's report carries its own name, gamma and omega."""
    for gamma in cfg.gammas:
        yield vf.caccioppoli_T_audit, {"gamma": gamma}
        yield vf.caccioppoli_X_audit, {"gamma": gamma}
        if gamma >= 1:
            yield vf.horizontal_estimate_audit, {"gamma": gamma}
            yield vf.vertical_estimate_audit, {"gamma": gamma}
            for omega in cfg.omegas:
                yield vf.reverse_audit, {"gamma": gamma, "omega": omega}


def cmd_audit(cfg: ExperimentConfig, out: str) -> int:
    if cfg.refinements < 1:
        raise ConfigError("audit needs at least 2 refinement levels (refinements >= 1)")
    grids = [Grid.from_box(cfg.box, cfg.resolutions())]
    for _ in range(cfg.refinements):
        grids.append(grids[-1].refined())
    # every other ball the audit integrates over holds B_{sigma r}: B_r and the Moser balls; finest
    # grid first, so the weights the ball cache keeps through the solves are the coarse grids' small ones
    for grid in reversed(grids):
        for name, radius in (("B_{sigma r}", cfg.sigma * cfg.radius), ("supp eta", cfg.eta_outer)):
            if not gr.ball_volume(grid, GaugeBall(cfg.center, radius)) > 0:
                raise ConfigError(f"the gauge ball {name} (radius {radius:g}) gets no quadrature weight "
                                  f"on the {'x'.join(map(str, grid.shape))} grid")
    triple = OrliczTriple(catalog_structure_function(cfg.structure))
    jobs = list(_audit_jobs(cfg))
    per_level: dict[tuple, list[vf.AuditReport]] = {}
    level_records = []
    ratio_rows = []
    moser_rows = []
    csv_rows = []
    plot_rows = []
    all_converged = True
    solves = sv.solve_ladder([_problem(cfg, triple, g) for g in grids])
    for level, (grid, (sol, report)) in enumerate(zip(grids, solves)):
        all_converged &= report.converged
        h = float(np.max(grid.spacing))
        level_records.append({"level": level, "shape": list(grid.shape), "h": h, **report.record()})
        # the fields live on the node box of the regions read below: B_r (which holds
        # B_{sigma r} and the Moser balls) and supp eta, the cutoff's outer ball; the
        # cutoff is made after the ratio and the trace, whose freed temporaries it reuses
        balls = (GaugeBall(cfg.center, cfg.radius), GaugeBall(cfg.center, cfg.eta_outer))
        fields = vf.solution_fields(grid, sol, triple, cfg.epsilon, balls=balls)
        ratio = vf.lipschitz_ratio(fields, cfg.center, cfg.radius, cfg.sigma)
        ratio_rows.append((level, h, ratio))
        trace = vf.moser_trace(fields, cfg.center, cfg.radius, cfg.sigma, levels=8)
        moser_rows.extend((level, h, row["gamma"], row["radius"], row["exponent"],
                           row["norm"], row["inner_norm"]) for row in trace["levels"])
        eta = make_cutoff(grid, cfg.center, cfg.eta_inner, cfg.eta_outer)
        for audit, kwargs in jobs:
            rep = audit(fields, eta, **kwargs)
            omega = rep.extras.get("omega", "")
            per_level.setdefault((rep.name, rep.gamma, omega), []).append(rep)
            csv_rows.append((rep.name, rep.gamma, rep.lhs, rep.rhs, rep.fitted_constant, h,
                             rep.passed, omega, level))
            plot_rows.append((rep.name, rep.gamma, omega, level, h, rep.fitted_constant))

    finals = [vf.attach_refinement(reps) for key, reps in sorted(per_level.items(),
                                                                 key=lambda kv: str(kv[0]))]
    ratios = [r for *_, r in ratio_rows]
    # an all-zero history (G(|Xu|) = 0 on the ball at every level) passes: 0 <= c * 0 for every c
    lo, hi = min(ratios), max(ratios)
    ratio_ok = all(np.isfinite(ratios)) and (hi == 0 or 0 < lo and hi <= 1.25 * lo)
    sup = trace["inner_sup"]  # the finest level's trace
    last_norm = trace["levels"][-1]["inner_norm"]
    moser_ok = sup == 0 or abs(last_norm - sup) <= 0.05 * sup
    all_pass = bool(all_converged and ratio_ok and moser_ok and all(r.passed for r in finals))

    _write_csv(os.path.join(out, "estimate_ratio.csv"), ["level", "h", "lipschitz_ratio"], ratio_rows)
    _write_csv(os.path.join(out, "moser_trace.csv"),
               ["level", "h", "gamma", "radius", "exponent", "norm", "inner_norm"], moser_rows)
    _write_csv(os.path.join(out, "audit_report.csv"),
               ["name", "gamma", "lhs", "rhs", "fitted_constant", "h", "pass", "omega", "level"],
               csv_rows)
    _write_csv(os.path.join(out, "plot_fitted_vs_h.csv"),
               ["name", "gamma", "omega", "level", "h", "fitted_constant"], plot_rows)
    _write_json(os.path.join(out, "audit_report.json"), {
        "structure": cfg.structure,
        "boundary": cfg.boundary,
        "sigma": cfg.sigma,
        "metric": "gauge",  # all balls use the homogeneous gauge norm
        "levels": level_records,
        "lipschitz_ratios": [{"level": l, "h": h, "ratio": r} for l, h, r in ratio_rows],
        "lipschitz_stable_25pct": bool(ratio_ok),
        "moser_final_vs_sup": {"final_inner_norm": last_norm, "inner_sup": sup, "pass": bool(moser_ok)},
        "audits": [r.as_record() for r in finals],
        "converged": bool(all_converged),
        "all_pass": all_pass,
    })
    return EXIT_PASS if all_pass else EXIT_NONCONV


# --------------------------------------------------------------------------
# entry point
# --------------------------------------------------------------------------

COMMANDS = {
    "orlicz-check": (cmd_orlicz_check, "structure/Young-function audit suite"),
    "operator-check": (cmd_operator_check, "operator structure and regularization sweeps"),
    "solve": (cmd_solve, "solve the configured Dirichlet problem"),
    "audit": (cmd_audit, "solve over refinements and audit every inequality"),
}


def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="solab",
                                 description="sub-elliptic Orlicz laboratory: checks, solves, audits")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (_, doc) in COMMANDS.items():
        p = sub.add_parser(name, help=doc)
        p.add_argument("--config", required=True, help="key = value config file")
        p.add_argument("--out", default=".", help="output directory (default: .)")
    return ap


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        os.makedirs(args.out, exist_ok=True)
        return COMMANDS[args.command][0](cfg, args.out)
    except (ConfigError, UnknownLabelError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
