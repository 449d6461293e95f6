"""solab benchmark: run one workload (or all) for a fixed time and check the outputs.

    python3 perfbench/run.py --workload audit-power --seed 0 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all            # the three workloads, one table

Workloads (closed loop, one operation at a time, default thread settings):
  audit-power   solab audit on the README config, power:p=3, 17 -> 33 -> 65
  audit-loglin  the same config with the loglin growth law (table path)
  conjugation   Young equality line and double conjugate for the 7 catalog families

Every pass runs in a fresh worker process (perfbench/worker.py), like one CLI
invocation; passes repeat until ``--seconds`` have elapsed, and at least
``MIN_PASSES`` run.  Set-up is sampled in every pass and in ``SETUP_PROBES``
set-up-only processes.  With
``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics of
traced passes.  Exit code 2 when the solab source is missing, 1 on a harness
failure.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads as wl  # noqa: E402

# audits need two passes so their reports can be compared byte for byte
MIN_PASSES = {"audit-power": 2, "audit-loglin": 2, "conjugation": 1}
SETUP_PROBES = 5
RUN_DEADLINE_S = 150.0  # a worker still running then is killed, so a run ends within 180 s
OPS_PER_PASS = {"audit-power": 4, "audit-loglin": 4, "conjugation": 2 * len(wl.CONJUGATION_LABELS)}
END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
COUNT_METRICS = ("solver.iters.L0", "solver.iters.L1", "solver.iters.L2", "solver.evals",
                 "orlicz.G_calls", "orlicz.psi_points", "verify.solution_fields_calls",
                 "grid.integrate_calls", "trace.spans")
TRACE_CHECKS = ("trace.spans", "trace.self_sum_gap")  # checked, not reported


def unit_of(metric: str) -> str:
    if metric in END_TO_END:
        return END_TO_END[metric]
    if metric in COUNT_METRICS or metric.endswith("_calls"):
        return "count"
    if metric.endswith("_frac") or metric.endswith("_per_iter"):
        return "ratio"
    return "s"


class Child:
    """One worker process, waited for with wait4 so its CPU time and peak RSS are its own."""

    def __init__(self, workdir: str, workload: str, seed: int, index: int, *, deadline: float,
                 trace: int, setup_only: bool, reduced: bool, config: str | None):
        tag = f"{'setup' if setup_only else 'pass'}{index}"
        self.out = os.path.join(workdir, tag)
        self.result_path = os.path.join(workdir, tag + ".json")
        os.makedirs(self.out, exist_ok=True)
        argv = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
                "--seed", str(seed), "--trace", str(trace), "--out", self.out,
                "--result", self.result_path]
        if config:
            argv += ["--config", config]
        if setup_only:
            argv.append("--setup-only")
        if reduced:
            argv.append("--reduced")
        spawn_ns = time.monotonic_ns()
        self.proc = subprocess.Popen(argv + ["--spawn-ns", str(spawn_ns)], cwd=ROOT,
                                     stdout=sys.stderr)
        self.exit_code, self.cpu_s, self.peak_rss_mb = self._wait(deadline)
        self.result = None
        if self.exit_code == 0 and os.path.exists(self.result_path):
            with open(self.result_path) as fh:
                self.result = json.load(fh)

    def _wait(self, deadline: float):
        while True:
            pid, status, ru = os.wait4(self.proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                self.proc.kill()
                pid, status, ru = os.wait4(self.proc.pid, 0)
                break
            time.sleep(0.01)
        code = os.waitstatus_to_exitcode(status)
        self.proc.returncode = code
        return code, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024.0


def run_workload(workload: str, seed: int, seconds: float, trace: int, reduced: bool = False) -> dict:
    workdir = os.path.join(ROOT, ".bench_build", "perfbench", f"{workload}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        return _run(workdir, workload, seed, seconds, trace, reduced)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(workdir, workload, seed, seconds, trace, reduced):
    config = None
    if workload in wl.AUDIT_WORKLOADS:
        config = os.path.join(workdir, "audit.cfg")
        with open(config, "w") as fh:
            fh.write(wl.audit_config_text(workload, seed, reduced=reduced))
    kw = dict(trace=trace, reduced=reduced, config=config,
              deadline=time.monotonic() + RUN_DEADLINE_S)
    problems = []
    setups = []
    probes = 1 if reduced else SETUP_PROBES
    for i in range(probes):
        child = Child(workdir, workload, seed, i, setup_only=True, **kw)
        if child.result is None:
            problems.append(f"set-up probe {i} exited with {child.exit_code}")
        else:
            setups.append(child.result["setup_s"])

    passes = []
    start = time.monotonic()
    while ((len(passes) < MIN_PASSES[workload] or time.monotonic() - start < seconds)
           and time.monotonic() < kw["deadline"]):
        passes.append(Child(workdir, workload, seed, len(passes), setup_only=False, **kw))

    known = wl.load_reference()["known_failures"].get(workload, {})
    attempted = failed = 0
    failures, unexpected = [], []
    first_hashes = None
    for i, child in enumerate(passes):
        if child.result is None:
            attempted += OPS_PER_PASS[workload]
            failed += OPS_PER_PASS[workload]
            failures.append(f"pass {i}: worker exited with {child.exit_code}")
            continue
        setups.append(child.result["setup_s"])
        ops = child.result["ops"]
        hashes = child.result.get("report_sha256")
        if hashes is not None:
            if first_hashes is None:
                first_hashes = hashes
            elif hashes != first_hashes:
                differ = sorted(k for k in hashes if hashes[k] != first_hashes.get(k))
                for op in ops:
                    if op["op"] == "audit":
                        op["ok"] = False
                        op["reasons"].append(f"reports differ from pass 0: {', '.join(differ)}")
        attempted += len(ops)
        for op in ops:
            if not op["ok"]:
                failed += 1
                failures.append(f"pass {i}: {op['op']}: {'; '.join(op['reasons'])}")
                if not wl.is_known_failure(op, known):
                    unexpected.append(failures[-1])

    done = [c for c in passes if c.result is not None]
    metrics = {}
    if trace:
        layer_sets = [c.result["layers"] for c in done]
        if layer_sets:
            for key in layer_sets[0]:
                if key not in TRACE_CHECKS:
                    metrics[key] = statistics.median(ls[key] for ls in layer_sets)
            for key in COUNT_METRICS:
                if len({ls[key] for ls in layer_sets}) != 1:
                    problems.append(f"count {key} differs between traced passes")
            gap = max(ls["trace.self_sum_gap"] for ls in layer_sets)
            if gap > 1e-9:
                problems.append(f"main-thread self times miss the traced wall by {gap:.2e}")
        metrics["fail_frac"] = failed / attempted if attempted else 1.0
    elif done:
        metrics = {
            "wall_s": statistics.median(c.result["wall_s"] for c in done),
            "cpu_s": statistics.median(c.cpu_s for c in done),
            "setup_s": statistics.median(setups) if setups else 0.0,
            "peak_rss_mb": statistics.median(c.peak_rss_mb for c in done),
        }
    if not done:
        problems.append("no pass completed")
    return {
        "workload": workload,
        "seed": seed,
        "passes": len(passes),
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "known_failures": [f"{op} (up to {k['waived_up_to']:g})" for op, k in sorted(known.items())],
        "problems": problems,
        "correct": not unexpected and not problems,
        "metrics": metrics,
        "samples": {
            "wall_s": [c.result["wall_s"] for c in done],
            "cpu_s": [c.cpu_s for c in done],
            "peak_rss_mb": [c.peak_rss_mb for c in done],
            "setup_s": setups,
        },
    }


def machine_block() -> dict:
    """nproc, CPU model, library versions and thread settings of this machine (threads are not pinned)."""
    import platform

    import numpy as np
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                                 "SOLAB_THREADS")},
    }


def print_summary(res: dict):
    print(f"workload {res['workload']}  seed {res['seed']}  passes {res['passes']}  "
          f"correct {str(res['correct']).lower()}")
    for key, value in res["metrics"].items():
        print(f"  {key:38s} {value:14.6g} {unit_of(key)}")
    if "trace.wall_s" in res["metrics"]:
        print(f"  {'trace.overhead_s':38s} {'dropped':>14s} (sweep.py takes it from paired untraced runs)")
    if "fail_frac" not in res["metrics"]:
        frac = res["failed"] / res["attempted"] if res["attempted"] else 1.0
        print(f"  {'fail_frac':38s} {frac:14.6g} ratio")
    print(f"  {'operations failed/attempted':38s} {res['failed']}/{res['attempted']}")
    for key, values in res["samples"].items():
        print(f"  {key + ' samples':38s} {', '.join(f'{v:.4g}' for v in values)}")
    for line in res["failures"] + res["problems"]:
        print(f"  failure: {line}")
    if res["known_failures"]:
        print(f"  known failures of the seed commit: {', '.join(res['known_failures'])}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="solab benchmark")
    ap.add_argument("--workload", required=True, choices=(*wl.WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        run_seconds = json.load(fh)["run_seconds"]
    ap.add_argument("--seconds", type=float, default=run_seconds)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--reduced", action="store_true",
                    help="smoke-test size (17 -> 33 audit with one gamma and omega; 2 families)")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "solab", "__init__.py")):
        print(f"solab source not found under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    names = wl.WORKLOADS if args.workload == "all" else (args.workload,)
    machine = machine_block()
    print("machine " + json.dumps(machine, sort_keys=True))
    results = []
    for name in names:
        res = run_workload(name, args.seed, args.seconds, args.trace, args.reduced)
        print_summary(res)
        results.append(res)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {k: {"value": v, "unit": unit_of(k.split(".", 1)[1] if len(results) > 1 else k)}
                    for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
