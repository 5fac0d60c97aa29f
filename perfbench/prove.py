"""Run-to-run spread of the benchmark's end-to-end metrics.

    python3 perfbench/prove.py --runs 10 [--workloads quad-bench64 ...] [--write]

Runs ``perfbench/run.py`` once per (workload, seed) in fresh processes, the
workloads taken in turn so that a noisy stretch of machine time hits all of
them alike.  For each metric it prints the median and the spread, the
distance between the first and third quartile (``statistics.quantiles``,
n=4) as a share of the median, beside a third of the metric's bound.
``--write`` stores the medians, quartiles, environment and per-run values in
``perfbench/baseline.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stdout}\n{proc.stderr}")
    env = next(json.loads(l[4:]) for l in lines if l.startswith("env "))
    digest = next(l.split()[1] for l in lines if l.startswith("digest "))
    result = json.loads(lines[-1])
    result["digest"] = digest
    return result, env


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", default=names, choices=names)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write", action="store_true", help="store perfbench/baseline.json")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values = {w: [] for w in args.workloads}
    env = None
    ok = True
    for seed in range(args.first_seed, args.first_seed + args.runs):
        for w in args.workloads:
            result, env = run_once(w, seed, args.seconds, args.trace)
            ok &= result["correct"] and result["failed"] == 0
            values[w].append({"seed": seed, **result})
            shown = {k: round(m["value"], 6) for k, m in result["metrics"].items()
                     if k in bounds or args.trace}
            print(f"{w} seed {seed}: correct {result['correct']} {shown}", flush=True)

    summary = {}
    for w, runs in values.items():
        summary[w] = {}
        for metric in runs[0]["metrics"]:
            xs = [r["metrics"][metric]["value"] for r in runs]
            med = statistics.median(xs)
            q1, _, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else 0.0
            summary[w][metric] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                                  "unit": runs[0]["metrics"][metric]["unit"]}
            if metric in bounds:
                flag = "ok" if metric == "setup_s" or spread < bounds[metric] / 3 else "WIDE"
                print(f"{w:14s} {metric:18s} median {med:14.6g}  spread {spread:7.4f}  "
                      f"bound/3 {bounds[metric] / 3:.4f}  {flag}")
                ok &= flag == "ok"
    if args.write:
        baseline = {
            "runs_per_workload": args.runs,
            "seeds": [args.first_seed, args.first_seed + args.runs - 1],
            "run_seconds": args.seconds,
            "trace": args.trace,
            "environment": env,
            "summary": summary,
            "failed_ratio": {w: sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)
                             for w, runs in values.items()},
            "runs": values,
        }
        (BENCH_DIR / "baseline.json").write_text(json.dumps(baseline, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
