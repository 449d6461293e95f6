"""Reduced-size smoke test of the benchmark harness.

    python3 -m pytest -q perfbench/test_smoke.py

Runs the audit (17 -> 33, one gamma and omega) and the conjugation check (two
families, few points) through ``run.py --reduced`` and checks the result
line, the reference gate of the first two audit levels, the traced
per-layer metrics against BENCHMARK.json, the repeat of the traced counts, the
known glued failure and its waiver limit, and the refusal to run without the
solab source.  It takes under a minute on two cores.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    BENCH = json.load(_fh)


def run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def result_line(proc) -> dict:
    assert proc.returncode == 0, proc.stderr[-2000:]
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["attempted"] >= 1
    return res


def test_reduced_audit_end_to_end():
    res = result_line(run("--workload", "audit-power", "--reduced", "--seconds", "0"))
    assert res["correct"] and res["failed"] == 0
    assert set(res["metrics"]) == {m["name"] for m in BENCH["end_to_end"]}
    for m in BENCH["end_to_end"]:
        assert res["metrics"][m["name"]]["unit"] == m["unit"]
        assert res["metrics"][m["name"]]["value"] > 0


def test_reduced_audit_traced_twice_repeats_counts():
    runs = [result_line(run("--workload", "audit-loglin", "--reduced", "--seconds", "0",
                            "--trace", "1")) for _ in range(2)]
    per_layer = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    for res in runs:
        assert res["correct"]
        assert {k: v["unit"] for k, v in res["metrics"].items()} == per_layer
    counts = [k for k, unit in per_layer.items() if unit == "count"]
    first, second = ([r["metrics"][k]["value"] for k in counts] for r in runs)
    assert first == second
    m = runs[0]["metrics"]
    assert m["solver.iters.L0"]["value"] > 0 and m["solver.evals"]["value"] > 0
    assert m["verify.solution_fields_calls"]["value"] == 2 * 5  # 2 levels x 5 audit jobs
    assert m["orlicz.table_build_s"]["value"] > 0  # loglin has no closed-form G
    assert 0 < m["verify.pool_busy_frac"]["value"] <= 1


def test_reduced_conjugation_counts_glued_failure():
    res = result_line(run("--workload", "conjugation", "--reduced", "--seconds", "0",
                          "--trace", "1"))
    assert res["correct"]
    assert res["attempted"] == 4 and res["failed"] == 1  # glued's equality line
    assert res["metrics"]["fail_frac"]["value"] == 0.25
    assert res["metrics"]["orlicz.psi_points"]["value"] > 0
    assert res["metrics"]["orlicz.G_calls"]["value"] > 0  # G lookups inside young() are traced
    assert res["metrics"]["orlicz.roundtrip_s.glued"]["value"] > 0
    assert res["metrics"]["solver.solve_s"]["value"] == 0


def test_known_failure_is_waived_only_up_to_its_seed_value():
    known = wl.load_reference()["known_failures"]["conjugation"]
    (name, entry), = known.items()
    limit = entry["waived_up_to"]
    assert entry["peak"] < limit < 1.05 * entry["peak"]
    assert wl.is_known_failure({"op": name, "value": entry["orlicz_check_grid"]}, known)
    assert not wl.is_known_failure({"op": name, "value": 1.01 * limit}, known)
    assert not wl.is_known_failure({"op": name, "value": float("nan")}, known)
    assert not wl.is_known_failure({"op": name}, known)
    assert not wl.is_known_failure({"op": "power_p2.young_equality_line", "value": 0.0}, known)


def test_refuses_without_solab_source():
    os.makedirs(os.path.join(ROOT, ".bench_build"), exist_ok=True)
    with tempfile.TemporaryDirectory(dir=os.path.join(ROOT, ".bench_build")) as bare:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for path in BENCH["paths"]:
            shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run("--workload", "conjugation", "--seconds", "1", cwd=bare)
    assert proc.returncode != 0
    assert not proc.stdout.strip().endswith("}")


def test_self_times_sum_to_root_across_threads():
    tracer = tr.Tracer("unit")
    with tracer.span("cli.root") as root:
        with tracer.span("grid.a"):
            time.sleep(0.01)
            with tracer.span("grid.b"):
                time.sleep(0.01)

        def job():
            with tracer.span("verify.job"):
                time.sleep(0.01)

        with tracer.span("verify.audits") as pool:
            threads = [threading.Thread(target=tracer.adopt(job, pool)) for _ in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=5)
            assert not any(t.is_alive() for t in threads)
    selfs = tr.self_times(tracer.spans)
    assert tr.main_thread_check(tracer.spans, root, selfs) < 1e-9
    jobs = [s for s in tracer.spans if s[1] == "verify.job"]
    assert len(jobs) == 2 and all(s[4] == pool for s in jobs)
    assert all(s[6] == "unit" for s in tracer.spans)
