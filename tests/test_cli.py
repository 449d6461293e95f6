import argparse
import json
import math
import operator
import os
import pkgutil
import re
import subprocess
import sys
import threading
import warnings

import numpy as np
import pytest

import solab
import solab.cli as cli
import solab.solver as sv
import solab.verify as vf
from conftest import CATALOG_LABELS, bumped_start
from solab.config import ConfigError, load_config
from solab.grid import Grid, save_field_binary
from solab.operator import regularized_weight
from solab.orlicz import OrliczTriple, catalog_structure_function
from solab.problems import boundary_field


def write_cfg(tmp_path, text, name="cfg.txt"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def with_keys(text, extra):
    """The config ``text`` with each ``key = value`` line of ``extra`` in its key's place, or appended."""
    lines = text.splitlines()
    keys = [line.partition("=")[0].strip() for line in lines]
    for line in extra.splitlines():
        key = line.partition("=")[0].strip()
        if key in keys:
            lines[keys.index(key)] = line
        else:
            lines.append(line)
            keys.append(key)
    return "\n".join(lines) + "\n"


BASE = """
structure = power:p=2
boundary = poly2:x1=0.5,x1t=0.3
resolution = 9
epsilon = 1e-4
sigma = 0.5
gammas = [1]
omegas = [1]
radius = 0.7
eta_inner = 0.25
eta_outer = 0.6
seed = 42
refinements = 1
"""


# ---------------------------------------------------------------- families

def test_boundary_families(grid9):
    f = boundary_field("affine:c0=1,x1=2,t=0.5", grid9)
    expected = 1 + 2 * grid9.coord(0) + 0.5 * grid9.coord(2)
    assert np.allclose(f, expected * np.ones(grid9.shape))
    q = boundary_field("poly2:x1x2=1", grid9)
    assert np.allclose(q, grid9.coord(0) * grid9.coord(1) * np.ones(grid9.shape))
    s = boundary_field("sine:amp=0.5,kx=1,ky=2", grid9)
    assert np.isfinite(s).all()


def test_boundary_family_errors(grid9):
    from solab.orlicz import UnknownLabelError
    with pytest.raises(UnknownLabelError):
        boundary_field("nope:a=1", grid9)
    for label in ("affine:bogus=1", "poly2:bogus=1", "sine:bogus=1"):
        with pytest.raises(UnknownLabelError):
            boundary_field(label, grid9)


def test_overflowing_boundary_data_raise_without_warning(grid9):
    # affine samples that overflow on the box fail the finiteness check, not numpy's warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="finite"):
            boundary_field("affine:x1=1e308,x2=1e308", grid9)


# ---------------------------------------------------------------- config

def test_config_is_key_value_only(tmp_path):
    p1 = write_cfg(tmp_path, BASE)
    cfg = load_config(p1)
    assert cfg.structure == "power:p=2" and cfg.seed == 42
    # key = value is the one config form: a JSON document, on one line or indented, fails on its first line
    data = {"structure": "power:p=3", "boundary": "affine:x1=1", "resolution": 11}
    for i, text in enumerate((json.dumps(data), json.dumps(data, indent=2))):
        path = write_cfg(tmp_path, text, f"cfg{i}.json")
        with pytest.raises(ConfigError, match="^line 1: expected key = value$"):
            load_config(path)
        assert cli.main(["solve", "--config", path, "--out", str(tmp_path / f"json{i}")]) == 2


def test_config_validation_errors(tmp_path):
    with pytest.raises(ConfigError):
        load_config(write_cfg(tmp_path, with_keys(BASE, "sigma = 1"), "s1.txt"))
    with pytest.raises(ConfigError):
        load_config(write_cfg(tmp_path, with_keys(BASE, "resolution = 5"), "r5.txt"))
    with pytest.raises(ConfigError):
        load_config(write_cfg(tmp_path, with_keys(BASE, "structure = foo"), "sf.txt"))
    with pytest.raises(ConfigError):
        load_config(write_cfg(tmp_path, with_keys(BASE, "bogus_key = 3"), "bk.txt"))
    with pytest.raises(ConfigError):
        load_config(str(tmp_path / "missing.txt"))
    empty_inner = "center = [0.1, 0.1, 0.05]\nsigma = 0.01\nradius = 0.5\neta_outer = 0.45"
    for i, extra in enumerate(("gammas = [-1]", "omegas = [0.5]", "radius = 1.5", "eta_outer = 1.5",
                               "init = foo", "init = boundary", "init = zero", "init = harmonic",
                               empty_inner)):
        with pytest.raises(ConfigError):
            load_config(write_cfg(tmp_path, with_keys(BASE, extra), f"audit{i}.txt"))
    # an audit with no gamma or no omega audits nothing; it used to pass with "all_pass": true
    for i, extra in enumerate(("gammas = []", "omegas = []")):
        path = write_cfg(tmp_path, with_keys(BASE, extra), f"empty{i}.txt")
        with pytest.raises(ConfigError):
            load_config(path)
        assert cli.main(["audit", "--config", path, "--out", str(tmp_path / f"empty{i}")]) == 2
    # malformed values: each used to crash with a traceback (exit 1) or pass silently
    for i, extra in enumerate(("seed = -1", "epsilon = x", "resolution = abc", "refinements = 1.5",
                               "gammas = 1", "resolution = 9.7", "residual_tol = -1",
                               "max_iters = 0", "sigma = true", "center = [0, 0, nan]")):
        with pytest.raises(ConfigError):
            load_config(write_cfg(tmp_path, with_keys(BASE, extra), f"value{i}.txt"))
    # non-finite label parameters: each used to crash the command (exit 1) instead of exit 2
    for i, extra in enumerate(("structure = power:p=inf", "structure = sinlog:a=inf",
                               "structure = glued:beta=inf", "boundary = affine:x1=nan",
                               "boundary = affine:x1=inf", "boundary = sine:amp=nan")):
        path = write_cfg(tmp_path, with_keys(BASE, extra), f"label{i}.txt")
        with pytest.raises(ConfigError):
            load_config(path)
        command = "orlicz-check" if extra.startswith("structure") else "solve"
        assert cli.main([command, "--config", path, "--out", str(tmp_path / f"label{i}")]) == 2
    # each used to be accepted: a repeated gamma or omega duplicated every audit row, a repeated
    # label key ran with its last value, and moser_levels was a key no command varied
    for i, extra in enumerate(("gammas = [1, 1.0]", "omegas = [1, 1]", "structure = power:p=3,p=4",
                               "moser_levels = 8")):
        path = write_cfg(tmp_path, with_keys(BASE, extra), f"repeat{i}.txt")
        with pytest.raises(ConfigError):
            load_config(path)
        assert cli.main(["audit", "--config", path, "--out", str(tmp_path / f"repeat{i}")]) == 2
    # a cutoff annulus with no node inside has K_eta = 0: the audit used to solve, then raise (exit 1)
    text = with_keys(readme_cli()[1][""], "eta_inner = 0.5\neta_outer = 0.51\nresolution = 9")
    with pytest.raises(ConfigError, match="K_eta = 0"):
        load_config(write_cfg(tmp_path, text, "annulus.txt"))
    assert cli.main(["audit", "--config", str(tmp_path / "annulus.txt"), "--out", str(tmp_path / "a")]) == 2
    # a repeated config key used to run with its last value
    lines = BASE.count("\n")
    path = write_cfg(tmp_path, BASE + "structure = loglin\n", "twice.txt")
    with pytest.raises(ConfigError, match=rf"'structure' repeated on lines 2 and {lines + 1}"):
        load_config(path)
    assert cli.main(["audit", "--config", path, "--out", str(tmp_path / "twice")]) == 2
    # the group is H^1: a config naming n, even n = 1, names an unknown key; the output
    # directory is --out's alone, so a config naming out names an unknown key too
    for i, (key, extra) in enumerate((("n", "n = 1"), ("n", "n = 2"), ("out", "out = elsewhere"))):
        path = write_cfg(tmp_path, with_keys(BASE, extra), f"unknown{i}.txt")
        with pytest.raises(ConfigError, match=rf"unknown config keys: \['{key}'\]"):
            load_config(path)
        assert cli.main(["solve", "--config", path, "--out", str(tmp_path / f"unknown{i}")]) == 2
    # boundary data is sampled on the grid: an undefined quadratic term used to pass orlicz-check
    # (exit 0), and data overflowing on the box used to crash solve (exit 1)
    for i, (command, extra) in enumerate((("orlicz-check", "boundary = poly2:zz=1"),
                                          ("solve", "boundary = affine:x1=1e308,x2=1e308"))):
        path = write_cfg(tmp_path, with_keys(BASE, extra), f"boundary{i}.txt")
        with pytest.raises(ConfigError):
            load_config(path)
        assert cli.main([command, "--config", path, "--out", str(tmp_path / f"boundary{i}")]) == 2
    with pytest.raises(ConfigError):
        load_config(write_cfg(tmp_path, with_keys(BASE, 'sigma = "0.5"'), "sigma.txt"))


def readme_section(title):
    """The README from the heading ``## title`` on."""
    readme = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")
    with open(readme) as fh:
        return fh.read().split(f"## {title}", 1)[1]


def readme_cli():
    """The README's CLI section and its code blocks by language ("" is the example config)."""
    section = readme_section("CLI")
    return section, dict(re.findall(r"```(\w*)\n(.*?)```", section, re.S))


def test_readme_cli_section_matches_the_program(tmp_path):
    section, blocks = readme_cli()
    cfg = load_config(write_cfg(tmp_path, blocks[""]))  # the example config
    assert cfg.structure == "power:p=3" and cfg.refinements == 2
    # each README command line with its flags, against each subcommand's parser, both ways
    readme = {m[0]: sorted(re.findall(r"(--[\w-]+) ", m[1]))
              for m in re.findall(r"^solab (\S+)(.*)$", blocks["sh"], re.M)}
    sub = next(a for a in cli._parser()._actions if isinstance(a, argparse._SubParsersAction))
    program = {name: sorted(opt for a in p._actions for opt in a.option_strings
                            if opt not in ("-h", "--help")) for name, p in sub.choices.items()}
    assert readme == program
    flags = re.findall(r"`(--[\w-]+) \w+`", section.split("Flags:", 1)[1].split("\n\n", 1)[0])
    assert sorted(flags) == sorted({flag for opts in program.values() for flag in opts})


def test_readme_layout_lists_every_module():
    rows = re.findall(r"^\| `solab\.(\w+)` \|", readme_section("Layout").split("\n## ", 1)[0], re.M)
    assert sorted(rows) == sorted(m.name for m in pkgutil.iter_modules(solab.__path__))


def test_readme_dump_header_matches_the_writer(tmp_path):
    names = re.search(r"header `\[(.*?)\]`", readme_section("Field dump format")).group(1).split(", ")
    grid = Grid.from_box([(-1, 1), (-2, 2), (0, 1)], (9, 5, 3))
    save_field_binary(tmp_path / "f.bin", grid, np.zeros(grid.shape))
    values = {"N_1": 9, "N_2": 5, "N_3": 3, "h_1": 0.25, "h_2": 1.0, "h_3": 0.5}
    assert [values[name] for name in names] == list(np.fromfile(tmp_path / "f.bin", dtype="<f8")[:6])


# ---------------------------------------------------------------- exit codes

def test_unknown_label_exits_2(tmp_path):
    path = write_cfg(tmp_path, BASE.replace("power:p=2", "foo"))
    assert cli.main(["orlicz-check", "--config", path, "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("command", ["orlicz-check", "operator-check"])
def test_negative_seed_exits_2(tmp_path, command):
    path = write_cfg(tmp_path, with_keys(BASE, "seed = -1"))
    assert cli.main([command, "--config", path, "--out", str(tmp_path)]) == 2
    # the seed is a config key only: argparse exits 2 on the flag
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--config", write_cfg(tmp_path, BASE), "--out", str(tmp_path), "--seed", "1"])
    assert exc.value.code == 2


def test_sigma_one_exits_2(tmp_path):
    path = write_cfg(tmp_path, with_keys(BASE, "sigma = 1"))
    assert cli.main(["audit", "--config", path, "--out", str(tmp_path)]) == 2


def test_io_failure_exits_3(tmp_path):
    blocker = tmp_path / "blocked"
    blocker.write_text("")
    path = write_cfg(tmp_path, BASE)
    assert cli.main(["solve", "--config", path, "--out", str(blocker / "sub")]) == 3


def test_solve_non_convergence_exits_1(tmp_path):
    path = write_cfg(tmp_path, with_keys(BASE, "max_iters = 1\nresidual_tol = 1e-14"))
    out = tmp_path / "nc"
    assert cli.main(["solve", "--config", path, "--out", str(out)]) == 1
    report = json.loads((out / "solve_report.json").read_text())
    assert not report["converged"] and report["stop_reason"] == "max_iters"
    assert report["tol"] == 1e-14 < report["weak_residual"] and report["rejected_pairs"] == 0
    assert (out / "solution.bin").exists()  # partial dump still written


def test_solve_writes_loadable_dump(tmp_path):
    path = write_cfg(tmp_path, BASE)
    out = tmp_path / "ok"
    assert cli.main(["solve", "--config", path, "--out", str(out)]) == 0
    grid = Grid.from_box([(-1, 1)] * 3, 9)
    raw = np.fromfile(out / "solution.bin", dtype="<f8")
    assert raw.size == 6 + 9 ** 3 and tuple(raw[:3]) == grid.shape and np.allclose(raw[3:6], grid.spacing)
    assert np.isfinite(raw[6:]).all()
    report = json.loads((out / "solve_report.json").read_text())
    assert report["converged"] and report["weak_residual"] <= 1e-7
    assert report["stop_reason"] == "tol"


# ---------------------------------------------------------------- determinism

def test_operator_check_deterministic(tmp_path):
    path = write_cfg(tmp_path, with_keys(BASE, "seed = 9"))
    out1, out2 = tmp_path / "d1", tmp_path / "d2"
    assert cli.main(["operator-check", "--config", path, "--out", str(out1)]) == 0
    assert cli.main(["operator-check", "--config", path, "--out", str(out2)]) == 0
    for name in ("operator_report.csv", "operator_report.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_operator_check_seed_changes_samples(tmp_path):
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    for seed, out in ((1, out1), (2, out2)):
        path = write_cfg(tmp_path, with_keys(BASE, f"seed = {seed}"), f"seed{seed}.txt")
        assert cli.main(["operator-check", "--config", path, "--out", str(out)]) == 0
    assert (out1 / "operator_report.csv").read_bytes() != (out2 / "operator_report.csv").read_bytes()


# ---------------------------------------------------------------- audit command

def test_audit_command(tmp_path):
    path = write_cfg(tmp_path, BASE)
    out = tmp_path / "audit"
    code = cli.main(["audit", "--config", path, "--out", str(out)])
    report = json.loads((out / "audit_report.json").read_text())
    assert report["converged"]
    assert code in (0, 1)
    assert sorted(os.listdir(out)) == ["audit_report.csv", "audit_report.json", "estimate_ratio.csv",
                                       "moser_trace.csv", "plot_fitted_vs_h.csv"]
    assert [(lv["level"], lv["shape"], lv["stop_reason"]) for lv in report["levels"]] == [
        (0, [9, 9, 9], "tol"), (1, [17, 17, 17], "tol")]


def test_audit_is_uniform_in_eps_on_readme_data(tmp_path):
    # the README data keep |Xu| away from 0 on the balls, so cutting eps from 1e-4 to 1e-6 moves
    # no audit number at 9^3 -> 17^3 by more than 2.3e-4 relative (the largest, a refinement
    # history entry; the sup-bound ratios move by 4.5e-6); no verdict is asserted
    rtol = 1e-3
    reports = []
    for eps in ("1e-4", "1e-6"):
        text = with_keys(readme_cli()[1][""], f"resolution = 9\nrefinements = 1\nepsilon = {eps}")
        out = tmp_path / eps
        out.mkdir()
        cli.cmd_audit(load_config(write_cfg(tmp_path, text, f"cfg{eps}.txt")), str(out))
        reports.append(json.loads((out / "audit_report.json").read_text()))
    coarse, fine = reports

    def rows(report):
        return [(row["name"], row["gamma"], row.get("omega"), row["weight"], row["reason"])
                for row in report["audits"]]

    assert rows(coarse) == rows(fine) and rows(coarse)
    assert len(coarse["lipschitz_ratios"]) == len(fine["lipschitz_ratios"]) == 2
    for a, b in zip(coarse["lipschitz_ratios"], fine["lipschitz_ratios"]):
        assert a["ratio"] == pytest.approx(b["ratio"], rel=rtol), a
    for a, b in zip(coarse["audits"], fine["audits"]):
        if a["reason"] == "judged":
            assert a["refinement_history"] == pytest.approx(b["refinement_history"], rel=rtol), a


def test_audit_names_the_level_that_stopped(tmp_path):
    # README config at 9^3 -> 17^3: the levels take 57 and 83 iterations, so max_iters = 70
    # stops the second one, and the report says which level stopped and why
    text = with_keys(readme_cli()[1][""], "resolution = 9\nrefinements = 1\nmax_iters = 70")
    out = tmp_path / "audit"
    assert cli.main(["audit", "--config", write_cfg(tmp_path, text), "--out", str(out)]) == 1
    report = json.loads((out / "audit_report.json").read_text())
    assert not report["converged"]
    levels = report["levels"]
    assert [(lv["level"], lv["shape"], lv["stop_reason"]) for lv in levels] == [
        (0, [9, 9, 9], "tol"), (1, [17, 17, 17], "max_iters")]
    assert levels[0]["iterations"] < 70 and levels[1]["iterations"] == 70
    assert levels[1]["h"] == pytest.approx(levels[0]["h"] / 2)
    for lv in levels:
        assert lv["evaluations"] >= lv["iterations"] + 1 and lv["restarts"] >= 0
        assert np.isfinite(lv["final_energy"]) and lv["weak_residual"] > 0
        assert lv["rejected_pairs"] >= 0 and lv["tol"] > 0
    assert levels[0]["weak_residual"] <= levels[0]["tol"]
    assert levels[1]["weak_residual"] > levels[1]["tol"]
    # both reports list the solve record's keys, and level 0 is the cold 9^3 solve
    keys = sv.SolveReport(iterations=0, evaluations=1, restarts=0, final_energy=0.0, weak_residual=0.0,
                          rejected_pairs=0, tol=1.0).record().keys()
    assert all(lv.keys() - {"level", "shape", "h"} == keys for lv in levels)
    solve_out = tmp_path / "solve"
    assert cli.main(["solve", "--config", write_cfg(tmp_path, text), "--out", str(solve_out)]) == 0
    solve = json.loads((solve_out / "solve_report.json").read_text())
    assert {k: solve[k] for k in keys} == {k: levels[0][k] for k in keys}


def test_audit_starts_no_thread(tmp_path, monkeypatch):
    # the audits run in order in the main thread: an audit that started a thread (a pool) fails here
    def refuse(thread):
        raise RuntimeError(f"audit started thread {thread.name}")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    # t-independent affine data pass every audit at 9^3 -> 17^3 (see the analytic-zeros test below)
    text = with_keys(readme_cli()[1][""], "boundary = affine:x1=0.5,x2=-0.2\nresolution = 9\nrefinements = 1")
    out = tmp_path / "audit"
    assert cli.main(["audit", "--config", write_cfg(tmp_path, text), "--out", str(out)]) == 0
    assert json.loads((out / "audit_report.json").read_text())["converged"]


def test_zero_boundary_data_report_ratio_zero(tmp_path):
    # u = 0, so G(|Xu|) vanishes on every ball: the sup-bound holds as 0 <= c * 0
    path = write_cfg(tmp_path, BASE.replace("poly2:x1=0.5,x1t=0.3", "affine:c0=0"))
    out = tmp_path / "audit"
    assert cli.main(["audit", "--config", path, "--out", str(out)]) == 0
    report = json.loads((out / "audit_report.json").read_text())
    assert [row["ratio"] for row in report["lipschitz_ratios"]] == [0.0, 0.0]
    assert report["lipschitz_stable_25pct"] and report["all_pass"]


def test_zero_data_singular_weight_audits_with_f_eps(tmp_path):
    # p = 1.5 makes F singular at 0 and u = 0 makes Xu vanish, so solution_fields
    # falls back to the problem's regularized weight F_eps on every level
    text = with_keys(readme_cli()[1][""], "structure = power:p=1.5\nboundary = affine:c0=0\n"
                                          "resolution = 9\nrefinements = 1")
    out = tmp_path / "audit"
    assert cli.main(["audit", "--config", write_cfg(tmp_path, text), "--out", str(out)]) == 0
    report = json.loads((out / "audit_report.json").read_text())
    assert [row["ratio"] for row in report["lipschitz_ratios"]] == [0.0, 0.0]
    assert report["audits"] and all(row["weight"] == "F_eps" for row in report["audits"])


def test_constant_data_audit_is_exact(tmp_path):
    # the cold start is the boundary field, here the exact solution u = 1, so Xu = 0 on both
    # levels and the sup-bound ratio is 0 <= c * 0, not algebraic error outside the 25% band
    text = with_keys(readme_cli()[1][""], "boundary = affine:c0=1\nresolution = 9\nrefinements = 1")
    out = tmp_path / "audit"
    assert cli.main(["audit", "--config", write_cfg(tmp_path, text), "--out", str(out)]) == 0
    report = json.loads((out / "audit_report.json").read_text())
    assert [row["ratio"] for row in report["lipschitz_ratios"]] == [0.0, 0.0]
    assert report["lipschitz_stable_25pct"] and report["all_pass"]


# the overflow is the behaviour under test, so its RuntimeWarnings, errors elsewhere in the suite, are expected
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning", "ignore:invalid value:RuntimeWarning")
def test_overflowing_audit_fails_its_rows(tmp_path):
    # G(|Xu|)^61 and the reverse envelope 61^244 overflow at gamma = 60: the audit used to exit 1
    # with a traceback; now it writes its report, and no row with a side that is not finite passes
    text = "structure = power:p=4\nboundary = affine:x1=100,t=50\nresolution = 9\nrefinements = 1\ngammas = [1, 60]"
    out = tmp_path / "audit"
    assert cli.main(["audit", "--config", write_cfg(tmp_path, text), "--out", str(out)]) == 1
    rows = json.loads((out / "audit_report.json").read_text())["audits"]
    assert all(not row["pass"] and row["reason"] == "not finite" for row in rows if row["gamma"] == 60)
    levels = [line.split(",") for line in (out / "audit_report.csv").read_text().splitlines()[1:]]
    sides = [(row["lhs"], row["rhs"], row["pass"]) for row in rows] + [
        (float(row[2]), float(row[3]), row[6] == "1") for row in levels]
    assert not any(passed for lhs, rhs, passed in sides if not (math.isfinite(lhs) and math.isfinite(rhs)))


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning", "ignore:invalid value:RuntimeWarning")
def test_huge_gamma_fails_its_rows(tmp_path):
    # the (gamma+1)^4 and (gamma+1)^2 factors overflow at gamma = 1e80: the audit used to exit 1 with an
    # OverflowError; now it writes its report, and every gamma = 1e80 row fails
    text = "structure = power:p=4\nboundary = affine:x1=100,t=50\nresolution = 9\nrefinements = 1\ngammas = [1, 1e80]"
    out = tmp_path / "audit"
    assert cli.main(["audit", "--config", write_cfg(tmp_path, text), "--out", str(out)]) == 1
    rows = [row for row in json.loads((out / "audit_report.json").read_text())["audits"] if row["gamma"] == 1e80]
    assert len(rows) == 5 and not any(row["pass"] for row in rows)


@pytest.mark.parametrize("boundary, zeros", [
    # t-independent affine data: Tu and XXu vanish, and with Tu its derivative X(Tu)
    ("affine:x1=0.5,x2=-0.2", {"caccioppoli_T": "X(Tu)", "caccioppoli_X": "XXu",
                               "horizontal_estimate": "XXu", "reverse": "Tu", "vertical_estimate": "Tu"}),
    # Tu = 0.3 is constant, so only X(Tu) vanishes
    ("affine:x1=0.5,x2=-0.2,t=0.3", {"caccioppoli_T": "X(Tu)"}),
])
def test_affine_audit_names_its_analytic_zeros(tmp_path, boundary, zeros):
    text = with_keys(readme_cli()[1][""], f"boundary = {boundary}\nrefinements = 1")
    out = tmp_path / "audit"
    assert cli.main(["audit", "--config", write_cfg(tmp_path, text), "--out", str(out)]) == 0
    rows = json.loads((out / "audit_report.json").read_text())["audits"]
    assert len(rows) == 12
    for row in rows:
        zero = zeros.get(row["name"])
        assert row["reason"] == (f"analytic zero: {zero} at algebraic error" if zero else "judged"), row
        assert row["pass"], row


def test_audit_computes_fields_once_per_level(tmp_path, monkeypatch):
    calls = {"solution_fields": 0, "horizontal_gradient": 0}
    for name in calls:
        inner = getattr(vf, name)

        def counted(*args, _name=name, _inner=inner, **kwargs):
            calls[_name] += 1
            return _inner(*args, **kwargs)

        monkeypatch.setattr(vf, name, counted)
    path = write_cfg(tmp_path, BASE)
    # refinements = 1: two levels; per level one fields pass, which takes X of u and of Tu
    assert cli.main(["audit", "--config", path, "--out", str(tmp_path / "audit")]) in (0, 1)
    assert calls == {"solution_fields": 2, "horizontal_gradient": 4}


def test_audit_reports_byte_identical(tmp_path):
    path = write_cfg(tmp_path, BASE)
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert cli.main(["audit", "--config", path, "--out", str(out1)]) in (0, 1)
    assert cli.main(["audit", "--config", path, "--out", str(out2)]) in (0, 1)
    for name in ("audit_report.json", "audit_report.csv", "plot_fitted_vs_h.csv",
                 "estimate_ratio.csv", "moser_trace.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


@pytest.mark.parametrize("command, report", [("orlicz-check", "orlicz_report.json"),
                                             ("operator-check", "operator_report.json")])
def test_check_criteria_state_their_bounds(tmp_path, command, report):
    ops = {"<=": operator.le, ">=": operator.ge, "==": operator.eq, "<": operator.lt,
           ">": operator.gt}
    path = write_cfg(tmp_path, BASE)
    out = tmp_path / "c"
    cli.main([command, "--config", path, "--out", str(out)])
    rows = json.loads((out / report).read_text())["checks"]
    tested = 0
    for row in rows:
        m = re.fullmatch(r"(<=|>=|==|<|>) ([-+.e0-9]+)", row["criterion"])
        if m:
            assert row["pass"] == ops[m.group(1)](row["value"], float(m.group(2))), row
            tested += 1
    assert tested >= len(rows) // 2


def test_audit_requires_two_levels(tmp_path):
    path = write_cfg(tmp_path, BASE.replace("refinements = 1", "refinements = 0"))
    assert cli.main(["audit", "--config", path, "--out", str(tmp_path / "x")]) == 2


def test_audit_on_a_ball_narrower_than_two_cells(tmp_path):
    # B_{sigma r} = B_0.2 on 9^3 spans 1.6 cells along x and y and a third of one along t: every
    # corner of its centre cell lies outside it while sub-cell points of that cell lie inside
    text = with_keys(readme_cli()[1][""], "resolution = 9\nradius = 0.4\nsigma = 0.5\neta_inner = 0.1\n"
                     "eta_outer = 0.35\nrefinements = 1")
    out = tmp_path / "small"
    assert cli.main(["audit", "--config", write_cfg(tmp_path, text), "--out", str(out)]) in (0, 1)
    assert (out / "audit_report.json").exists()


def test_audit_on_a_ball_with_no_quadrature_weight_exits_2(tmp_path, capsys, monkeypatch):
    # B_{sigma r} = B_0.025 holds the centre node but no sub-cell point on 9^3 or 17^3
    text = with_keys(readme_cli()[1][""], "resolution = 9\nradius = 0.05\neta_inner = 0.1\neta_outer = 0.3\n"
                     "refinements = 1")
    solves = []
    monkeypatch.setattr(sv, "solve_ladder", lambda *a, **k: solves.append(a))
    assert cli.main(["audit", "--config", write_cfg(tmp_path, text), "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and "B_{sigma r}" in err and "Traceback" not in err
    assert not solves


def test_orlicz_check_loglin_a1_reports_exponents(tmp_path):
    path = write_cfg(tmp_path, BASE.replace("power:p=2", "loglin:alpha=1,beta=1,a=1"))
    out = tmp_path / "loglin"
    assert cli.main(["orlicz-check", "--config", path, "--out", str(out)]) == 0
    report = json.loads((out / "orlicz_report.json").read_text())
    # estimates over the sampled window sit inside the declared [1, 2]
    assert 1.0 - 1e-6 <= report["delta_estimate"] <= report["g0_estimate"] <= 2.0 + 1e-6
    assert report["delta"] == 1.0 and report["g0"] == 2.0


@pytest.mark.parametrize("label", CATALOG_LABELS)
def test_orlicz_check_passes_catalog(tmp_path, label):
    path = write_cfg(tmp_path, BASE.replace("power:p=2", label))
    out = tmp_path / "oc"
    assert cli.main(["orlicz-check", "--config", path, "--out", str(out)]) == 0
    assert json.loads((out / "orlicz_report.json").read_text())["all_pass"]


@pytest.mark.parametrize("label", CATALOG_LABELS)
def test_operator_check_passes_catalog(tmp_path, label):
    path = write_cfg(tmp_path, BASE.replace("power:p=2", label))
    out = tmp_path / "op"
    assert cli.main(["operator-check", "--config", path, "--out", str(out)]) == 0
    report = json.loads((out / "operator_report.json").read_text())
    assert report["all_pass"]
    g = catalog_structure_function(label)
    l_tilde = max(max(1.0, g.g0), 1.0 / min(1.0, g.delta))
    assert [row["L_tilde"] for row in report["regularization"]] == [l_tilde] * 4
    sups = [row["sup_diff"] for row in report["regularization"]]
    assert all(a > b > 0 for a, b in zip(sups, sups[1:])) or sups == [0.0] * 4  # 0 only for p = 2
    # m1 and m2 are the limits of the solver's own F_eps, bit for bit
    triple = OrliczTriple(g)
    for row in report["regularization"]:
        f_eps = regularized_weight(triple, row["eps"])
        assert row["m1"] == f_eps(0.0) == triple.F(row["eps"]), row
        assert row["m2"] == f_eps(1.0 / row["eps"]) == triple.F(1.0 / row["eps"]), row


def test_solve_bytes_independent_of_blas_threads(tmp_path):
    # at 33^3 the L-BFGS vectors are long enough for OpenBLAS to split a dot product over
    # threads, which reorders its sum; the solver's reductions, including those of the
    # 17^3 solve behind the nested start, must not go through BLAS
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    path = write_cfg(tmp_path, "structure = power:p=3\nboundary = poly2:x1=0.5,x1t=0.4,x2=0.2\n"
                               "resolution = 33\nepsilon = 1e-4\n")
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
        done = subprocess.run([sys.executable, "-m", "solab.cli", "solve", "--config", path,
                               "--out", str(out)], env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        outputs.append([(out / name).read_bytes() for name in ("solution.bin", "solve_report.json")])
    assert outputs[0] == outputs[1]
    assert [level["shape"] for level in json.loads(outputs[0][1])["start_levels"]] == [[17, 17, 17]]


def test_warm_audit_bytes_independent_of_blas_threads(tmp_path):
    # the 33^3 level starts from the prolonged 17^3 solution, so it runs the diagonal
    # metric's reductions on vectors long enough for OpenBLAS to split a dot product
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    path = write_cfg(tmp_path, with_keys(readme_cli()[1][""], "refinements = 1"))
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
        done = subprocess.run([sys.executable, "-m", "solab.cli", "audit", "--config", path,
                               "--out", str(out)], env=env, capture_output=True, text=True)
        assert done.returncode in (0, 1), done.stderr
        outputs.append([(out / name).read_bytes()
                        for name in ("estimate_ratio.csv", "moser_trace.csv", "audit_report.json")])
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0][2])["converged"]


def test_solve_report_counters_repeat_across_blas_threads(tmp_path):
    # every accepted step costs one evaluation at least, and the start costs one more
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    path = write_cfg(tmp_path, "structure = loglin:alpha=1,beta=1,a=2.718281828\n"
                               "boundary = poly2:x1=0.5,x1t=0.4,x2=0.2\nresolution = 17\nepsilon = 1e-4\n")
    counts = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
        done = subprocess.run([sys.executable, "-m", "solab.cli", "solve", "--config", path, "--out", str(out)],
                              env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        report = json.loads((out / "solve_report.json").read_text())
        assert report["evaluations"] >= report["iterations"] + 1
        counts.append((report["iterations"], report["evaluations"], report["restarts"]))
    assert counts[0] == counts[1]


def test_audit_passes_init_at_every_level(tmp_path, monkeypatch):
    # the benchmark wraps solve_dirichlet as capture(prob, init="zero"): every level passes init
    solve, calls = sv.solve_dirichlet, []

    def init_required(prob, *, init):
        calls.append((prob.grid.shape, init))
        return solve(prob, init=init)

    monkeypatch.setattr(sv, "solve_dirichlet", init_required)
    path = write_cfg(tmp_path, BASE)
    assert cli.main(["audit", "--config", path, "--out", str(tmp_path / "a")]) in (0, 1)
    assert [shape for shape, _ in calls] == [(9, 9, 9), (17, 17, 17)]
    assert calls[0][1] is None and isinstance(calls[1][1], np.ndarray)


def test_solve_affine_family_is_exact(tmp_path, monkeypatch):
    # the boundary field is the exact solution, so the cold solve gets a bumped start to work from
    solve = sv.solve_dirichlet
    monkeypatch.setattr(sv, "solve_dirichlet", lambda prob, init=None: solve(
        prob, init=bumped_start(prob.grid, prob.boundary) if init is None else init))
    path = write_cfg(tmp_path, BASE.replace("boundary = poly2:x1=0.5,x1t=0.3",
                                            "boundary = affine:x1=0.7,x2=-0.2,c0=0.1")
                     + "residual_tol = 1e-12\n")
    out = tmp_path / "affine"
    assert cli.main(["solve", "--config", path, "--out", str(out)]) == 0
    report = json.loads((out / "solve_report.json").read_text())
    assert report["iterations"] > 0 and report["weak_residual"] <= 1e-10
