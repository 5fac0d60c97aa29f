"""sgdm-sched benchmark: seed-step throughput of whole experiments.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload quad-bench64 --seed 0 --seconds 30 --trace 0

The package is imported from ``src/`` of the same checkout, never from an
installed copy.  ``--trace 0`` measures the end-to-end metrics with no
instrumentation; ``--trace 1`` runs one plain repetition, then traced
repetitions, and reports per-layer metrics (mean per traced repetition) and
the tracing overhead.  Wall times are corrected to nominal host speed with
the yardstick in ``hostspeed.py``; the uncorrected rate is printed too.
Every repetition is checked: each experiment must pass
its bound checks, produce the full trace rows and, on every repetition, the
same SHA-256 artifact digest.  The digest is also compared with the one an
earlier run of the same sources, workload and seed recorded, traced or not.

Human-readable lines go first; the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit
code is 0 only when every check passed.  ``--workload all`` runs every
workload in its own fresh process and prints their end-to-end metrics.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import types
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

sys.path.insert(0, str(BENCH_DIR))
import hostspeed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

END_TO_END = {
    "seed_steps_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
# Setup repeats until both bounds are met, and its median is reported.
SETUP_MIN_REPS = 5
SETUP_MIN_SECONDS = 1.5
SETUP_MAX_REPS = 2000
SETUP_CHUNK_S = 0.25
# Host-speed sampling period inside untraced repetitions.
SAMPLE_INTERVAL_S = 0.5


def per_layer_units() -> dict[str, str]:
    units = {}
    for span in tracing.SPAN_NAMES:
        units[f"{span}.calls"] = "count"
        units[f"{span}.busy_s"] = "s"
        units[f"{span}.self_s"] = "s"
    units.update({
        "optim.seed_steps": "count",
        "problems.samples_gathered": "count",
        "problems.full_evals_per_row": "ratio",
        "harness.artifact_bytes": "bytes",
        "fmt.fmt_float.calls": "count",
        "bench.traced_wall_s": "s",
        "bench.unattributed_s": "s",
        "bench.trace_overhead_ratio": "ratio",
    })
    return units


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing sources, bad arguments)."""


def load_package():
    if not (SRC / "sgdm_sched" / "__init__.py").is_file():
        raise BenchError(f"no package sources at {SRC}; run from a full source checkout")
    sys.path.insert(0, str(SRC))
    import sgdm_sched
    from sgdm_sched import _fmt, cli, harness

    if Path(sgdm_sched.__file__).resolve().parent != (SRC / "sgdm_sched").resolve():
        raise BenchError(f"imported sgdm_sched from {sgdm_sched.__file__}, not from {SRC}")
    return types.SimpleNamespace(harness=harness, cli=cli, dumps17=_fmt.dumps17)


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "sgdm_sched").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment() -> dict:
    import numpy as np

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": blas_threads(),
        "machine": platform.machine(),
    }


def blas_threads():
    """Thread count of the BLAS library numpy loaded, read from the library itself."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "blas" in line.lower() and "/" in line}
    except OSError:
        return None
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
            getter = getattr(lib, fn, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return int(getter())
    return None


class Run:
    """Repetitions of one workload plus the bookkeeping every check needs."""

    def __init__(self, workload, tracer: tracing.Tracer | None = None):
        self.workload = workload
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.digests: list[str] = []
        self.reps: list[dict] = []

    def rep(self, traced: bool) -> dict:
        """Run every experiment once, timed and host-speed corrected.

        Untraced repetitions sample host speed all through; traced ones only
        at both ends, so that no sample lands inside a span.
        """
        results = []
        experiments = self.workload.experiments()
        gc.collect()
        with hostspeed.Clock(None if traced else SAMPLE_INTERVAL_S) as clock:
            for exp in experiments:
                if traced:
                    self.tracer.request += 1
                    self.tracer.enabled = True
                try:
                    results.append(exp())
                except Exception as exc:  # a raising experiment is a counted failure
                    results.append(exc)
                finally:
                    if traced:
                        self.tracer.enabled = False
        outcomes = []
        for k, result in enumerate(results):
            self.attempted += 1
            if isinstance(result, Exception):
                outcome = workloads.Outcome(ok=False, detail=f"raised {result!r}")
            else:
                outcome = self.workload.check(k, result)
            if not outcome.ok:
                self.failed += 1
                self.failures.append(f"experiment {k}: {outcome.detail}")
            outcomes.append(outcome)
        digest = hashlib.sha256(b"".join(o.digest_input for o in outcomes)).hexdigest()
        self.digests.append(digest)
        rep = {
            "wall_s": clock.wall_s,
            "corrected_s": clock.corrected_s,
            "host_speed": hostspeed.NOMINAL_S / statistics.median(clock.samples),
            "seed_steps": sum(o.seed_steps for o in outcomes),
            "rows": sum(o.rows for o in outcomes),
            "artifact_bytes": sum(o.artifact_bytes for o in outcomes),
        }
        self.reps.append(rep)
        return rep


def measure_setup(workload) -> list[float]:
    """Corrected times of repeated passes through the workload's build functions.

    Passes run in chunks of at least SETUP_CHUNK_S between host-speed samples.
    """
    times = []
    start = time.perf_counter()
    while len(times) < SETUP_MAX_REPS and (
        len(times) < SETUP_MIN_REPS or time.perf_counter() - start < SETUP_MIN_SECONDS
    ):
        chunk = []
        with hostspeed.Clock() as clock:
            while not chunk or sum(chunk) < SETUP_CHUNK_S:
                t0 = time.perf_counter_ns()
                workload.setup()
                chunk.append((time.perf_counter_ns() - t0) / 1e9)
        times.extend(t * clock.corrected_s / clock.wall_s for t in chunk)
    return times


def repeat_until(run: Run, deadline: float, traced: bool) -> list[dict]:
    """Whole repetitions, at least one, ending as close to ``deadline`` as they can."""
    start = time.perf_counter()
    reps = []
    while True:
        reps.append(run.rep(traced))
        now = time.perf_counter()
        if now + (now - start) / len(reps) / 2 > deadline:
            return reps


def layer_metrics(tracer: tracing.Tracer, cols: dict, traced: list[dict], plain: dict) -> dict:
    calls, busy, own, root_ns = tracing.span_totals(cols)
    n = len(traced)
    wall = sum(r["wall_s"] for r in traced)
    self_total = own.sum() / 1e9
    if abs(self_total - root_ns / 1e9) > 1e-6 * max(1.0, wall) or root_ns / 1e9 > wall + 1e-6:
        raise BenchError(
            f"span accounting is inconsistent: self {self_total} s, roots {root_ns / 1e9} s, "
            f"wall {wall} s"
        )
    out = {}
    for k, span in enumerate(tracing.SPAN_NAMES):
        out[f"{span}.calls"] = calls[k] / n
        out[f"{span}.busy_s"] = busy[k] / 1e9 / n
        out[f"{span}.self_s"] = own[k] / 1e9 / n
    observe = tracing.SPAN_NAMES.index("problems.observe")
    rows = sum(r["rows"] for r in traced)
    out["optim.seed_steps"] = sum(r["seed_steps"] for r in traced) / n
    out["problems.samples_gathered"] = tracer.counts["problems.samples_gathered"] / n
    out["problems.full_evals_per_row"] = float(calls[observe]) / rows if rows else 0.0
    out["harness.artifact_bytes"] = sum(r["artifact_bytes"] for r in traced) / n
    out["fmt.fmt_float.calls"] = tracer.counts["fmt.fmt_float.calls"] / n
    out["bench.traced_wall_s"] = wall / n
    out["bench.unattributed_s"] = (wall - self_total) / n
    corrected = sum(r["corrected_s"] for r in traced) / n
    out["bench.trace_overhead_ratio"] = corrected / plain["corrected_s"] - 1.0
    return {k: float(v) for k, v in out.items()}


def check_recorded_digest(workload: str, seed: int, digest: str) -> str | None:
    """Compare with the digest an earlier run of the same sources recorded."""
    path = WORK / "digests.json"
    key = f"{workload}:{seed}:{source_digest()}"
    known = json.loads(path.read_text()) if path.is_file() else {}
    if key in known and known[key] != digest:
        return f"artifact digest {digest} differs from the recorded {known[key]}"
    if key not in known:
        known[key] = digest
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
        os.replace(tmp, path)
    return None


def write_spans(tracer: tracing.Tracer, cols: dict, workload: str, seed: int) -> Path:
    import numpy as np

    path = WORK / f"spans-{workload}.npz"
    np.savez_compressed(
        path,
        names=np.array(tracing.SPAN_NAMES),
        workload=np.array(workload),
        seed=np.array(seed),
        absent=np.array(tracer.absent, dtype=str),
        **cols,
    )
    return path


def run_one(args) -> int:
    pkg = load_package()
    WORK.mkdir(exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](pkg, args.seed, WORK / args.workload)
    size = workload.size()
    stated = json.loads((BENCH_DIR / "spec.json").read_text())["workloads"][args.workload]["size"]
    if size != stated:
        raise BenchError(f"workload size {size} differs from the one perfbench/spec.json states")
    env = environment()
    print(f"workload {args.workload} seed {args.seed} size {json.dumps(size)}")
    print(f"env {json.dumps(env)}")

    if args.trace:
        tracer = tracing.Tracer()
        run = Run(workload, tracer)
        workload.setup()  # warm up as the untraced run does before timing
        deadline = time.perf_counter() + args.seconds
        plain = run.rep(traced=False)
        tracer.install()
        traced = repeat_until(run, deadline, traced=True)
        cols = tracer.columns()
        metrics = layer_metrics(tracer, cols, traced, plain)
        units = per_layer_units()
        spans_path = write_spans(tracer, cols, args.workload, args.seed)
        print(f"spans {spans_path.relative_to(ROOT)} ({cols['name'].size} spans)")
        if tracer.absent:
            print(f"absent {json.dumps(tracer.absent)}")
    else:
        run = Run(workload)
        setup_times = measure_setup(workload)
        reps = repeat_until(run, time.perf_counter() + args.seconds, traced=False)
        rates = [r["seed_steps"] / r["corrected_s"] for r in reps]
        raw = [r["seed_steps"] / r["wall_s"] for r in reps]
        metrics = {
            "seed_steps_per_s": statistics.median(rates),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END
        print(f"setup {len(setup_times)} passes; timed {len(reps)} repetitions")
        for r in reps:
            print(f"  wall {r['wall_s']:.4f} s  corrected {r['corrected_s']:.4f} s  "
                  f"host_speed {r['host_speed']:.3f}")
        print(f"uncorrected seed_steps_per_s {statistics.median(raw)!r} 1/s")

    problems = list(run.failures)
    if any(r["seed_steps"] != size["seed_steps"] for r in run.reps):
        problems.append(f"seed steps per repetition differ from the stated {size['seed_steps']}")
    if len(set(run.digests)) != 1:
        problems.append(f"artifact digests differ between repetitions: {sorted(set(run.digests))}")
    else:
        mismatch = check_recorded_digest(args.workload, args.seed, run.digests[0])
        if mismatch:
            problems.append(mismatch)
    correct = not problems
    print(f"digest {run.digests[0]}")
    print(f"failed_ratio {run.failed / run.attempted} ratio")
    for name, value in metrics.items():
        print(f"{name} {value!r} {units[name]}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    result = {
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in a fresh process; print its end-to-end metrics."""
    status = 0
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"{name}: no result (exit {proc.returncode})\n{proc.stderr}")
            status = 1
            continue
        for metric, m in result["metrics"].items():
            print(f"{name} {metric} {m['value']!r} {m['unit']}")
        print(f"{name} correct {result['correct']} attempted {result['attempted']} "
              f"failed {result['failed']}")
        if proc.returncode != 0:
            status = 1
    return status


def check_declared_metrics() -> None:
    """BENCHMARK.json must list exactly the metrics this script reports."""
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError(f"{path} is missing")
    spec = json.loads(path.read_text())
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    if declared != END_TO_END or layers != per_layer_units():
        raise BenchError("BENCHMARK.json metrics differ from the ones perfbench/run.py reports")
    if [w["name"] for w in spec["workloads"]] != list(workloads.WORKLOADS):
        raise BenchError("BENCHMARK.json workloads differ from perfbench/workloads.py")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        if args.seed < 0:
            raise BenchError("--seed must be >= 0")
        if not args.seconds > 0:
            raise BenchError("--seconds must be > 0")
        check_declared_metrics()
        if args.workload == "all":
            return run_all(args)
        return run_one(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
