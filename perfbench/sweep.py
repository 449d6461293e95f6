"""Repeat benchmark runs over seeds and report medians, quartiles and spreads.

    python3 perfbench/sweep.py --workloads all --seeds 1-10 --out sweep.json
    python3 perfbench/sweep.py --workloads conjugation --seeds 1-5 --traced-seeds 1-2

Each run is ``perfbench/run.py`` in its own process.  For every end-to-end
metric the spread is (q3 - q1) / median over the untraced runs, with the
quartiles of ``statistics.quantiles(values, n=4)``; it is compared with the
metric's bound in BENCHMARK.json.  Traced runs give the per-layer medians.
Each traced run follows an untraced run of the same seed, and
``trace.overhead_s`` is the median over these pairs of traced minus untraced
wall time of one pass, so drift between the untraced set and the traced runs
does not enter it.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads as wl  # noqa: E402


def seed_range(text: str) -> list[int]:
    if not text:
        return []
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def one_run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    res = json.loads(lines[-1])
    res["seed"] = seed
    machine = next(json.loads(l[len("machine "):]) for l in lines if l.startswith("machine "))
    return res, machine


def summarize(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"n": len(values), "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default="all")
    ap.add_argument("--seeds", default="1-10", help="untraced seeds, e.g. 1-10")
    ap.add_argument("--traced-seeds", default="", help="traced seeds, e.g. 1-2")
    ap.add_argument("--seconds", type=float, default=None,
                    help="run length (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--out", help="write runs and summary as JSON")
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    names = wl.WORKLOADS if args.workloads == "all" else args.workloads.split(",")
    report = {"seconds": seconds, "workloads": {}}
    worst = 0.0
    for workload in names:
        runs, traced = [], []
        for s in seed_range(args.seeds):
            res, report["machine"] = one_run(workload, s, seconds, 0)
            runs.append(res)
        paired, overheads = [], []
        for s in seed_range(args.traced_seeds):
            plain, _ = one_run(workload, s, seconds, 0)
            res, report["machine"] = one_run(workload, s, seconds, 1)
            paired.append(plain)
            traced.append(res)
            overheads.append(res["metrics"]["trace.wall_s"]["value"]
                             - plain["metrics"]["wall_s"]["value"])
        entry = {"runs": runs, "traced_runs": traced, "paired_untraced_runs": paired,
                 "end_to_end": {}, "per_layer": {}}
        print(f"{workload}: {len(runs)} runs, correct "
              f"{all(r['correct'] for r in runs + traced + paired)}, "
              f"failed/attempted {sum(r['failed'] for r in runs)}/{sum(r['attempted'] for r in runs)}")
        for metric in bench["end_to_end"]:
            key = metric["name"]
            vals = [r["metrics"][key]["value"] for r in runs]
            if not vals:
                continue
            st = summarize(vals)
            entry["end_to_end"][key] = st
            ratio = st["spread"] / bounds[key]
            if key != "setup_s":
                worst = max(worst, ratio)
            print(f"  {key:14s} median {st['median']:10.4f} {metric['unit']:3s} q1 {st['q1']:10.4f} "
                  f"q3 {st['q3']:10.4f} spread {st['spread']:.4f} (bound {bounds[key]}, "
                  f"{ratio:.2f} of it)")
        if traced:
            for key in traced[0]["metrics"]:
                entry["per_layer"][key] = statistics.median(r["metrics"][key]["value"] for r in traced)
            entry["per_layer"]["trace.overhead_s"] = statistics.median(overheads)
            for key, value in entry["per_layer"].items():
                print(f"    {key:40s} {value:.6g}")
        report["workloads"][workload] = entry
    print(f"largest spread/bound (setup_s excluded): {worst:.2f}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
