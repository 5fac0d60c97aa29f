"""The benchmark's workloads, built from a workload seed.

A workload seed ``s`` shifts each workload's master-seed range from
``[0, R)`` to ``[s*R, s*R + R)`` and adds ``s`` to the problem seed, so a
claim can be re-checked on inputs nobody tuned against.  ``s = 0`` gives the
configurations of the acceptance suite that each workload is taken from.

Every workload goes through a public entry point only:
``harness.run_experiment(config, out_dir)`` or
``cli.main(["run", ini, "--out", dir])``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import shutil
from dataclasses import dataclass
from pathlib import Path


@dataclass
class Outcome:
    """What one experiment of one repetition produced, reduced to checkable facts."""

    ok: bool
    detail: str
    seed_steps: int = 0
    rows: int = 0
    artifact_bytes: int = 0
    digest_input: bytes = b""


class ExperimentsWorkload:
    """A list of configs run in memory through ``harness.run_experiment``."""

    def __init__(self, configs, pkg):
        self.configs = configs
        self.pkg = pkg

    def size(self) -> dict:
        return _size(self.configs)

    def setup(self) -> None:
        """The public build functions the timed run goes through, once per config."""
        for cfg in self.configs:
            problem = cfg.problem.build()
            cfg.schedule.build(problem.n)

    def experiments(self) -> list:
        """One zero-argument callable per experiment of a repetition."""
        harness = self.pkg.harness
        return [lambda cfg=cfg: harness.run_experiment(cfg, None) for cfg in self.configs]

    def check(self, k: int, report) -> Outcome:
        cfg = self.configs[k]
        T = int(report.total_steps)
        rows = sum(tr.rows for tr in report.traces)
        problems = []
        if not report.passed:
            failed = [n for n, c in report.checks.items() if not c["pass"]]
            problems.append(f"checks failed: {failed}")
        if len(report.traces) != len(cfg.seeds) or any(tr.rows * cfg.record_every < T for tr in report.traces):
            problems.append(f"expected {len(cfg.seeds)} traces of {T} steps")
        text = self.pkg.dumps17(report.to_dict()).encode()
        return Outcome(
            ok=not problems,
            detail="; ".join(problems) or "ok",
            seed_steps=T * len(report.traces),
            rows=rows,
            digest_input=text,
        )


class CliWorkload:
    """One INI config run through ``sgdm-sched run`` in-process, artifacts written."""

    def __init__(self, ini_text: str, pkg, work_dir: Path):
        self.pkg = pkg
        self.ini = work_dir / "experiment.ini"
        self.out = work_dir / "out"
        work_dir.mkdir(parents=True, exist_ok=True)
        self.ini.write_text(ini_text)
        self.config = pkg.cli.load_config(self.ini)
        self.T = self.size()["T"][0]

    def size(self) -> dict:
        return _size([self.config])

    def setup(self) -> None:
        cfg = self.pkg.cli.load_config(self.ini)
        problem = cfg.problem.build()
        cfg.schedule.build(problem.n)

    def experiments(self) -> list:
        shutil.rmtree(self.out, ignore_errors=True)
        cli = self.pkg.cli
        argv = ["run", str(self.ini), "--out", str(self.out)]

        def one():
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                code = cli.main(argv)
            return code, stdout.getvalue()

        return [one]

    def check(self, k: int, result) -> Outcome:
        code, stdout = result
        cfg, T = self.config, self.T
        problems = []
        if code != 0:
            problems.append(f"exit code {code}: {stdout.strip()}")
        dirs = list(self.out.iterdir()) if self.out.is_dir() else []
        files = {}
        if len(dirs) != 1:
            problems.append(f"expected one experiment directory, found {len(dirs)}")
        else:
            files = {p.name: p.read_bytes() for p in sorted(dirs[0].iterdir())}
        expected = {"report.json", "aggregate.csv"} | {f"trace_{s}.csv" for s in cfg.seeds}
        if files and set(files) != expected:
            problems.append(f"artifact set differs: {sorted(set(files) ^ expected)}")
        rows = sum(
            files[f"trace_{s}.csv"].count(b"\n") - 1 for s in cfg.seeds if f"trace_{s}.csv" in files
        )
        if rows * cfg.record_every < T * len(cfg.seeds):
            problems.append(f"traces hold {rows} rows, expected {T * len(cfg.seeds)}")
        digest_input = b"".join(
            name.encode() + b"\0" + hashlib.sha256(data).digest() for name, data in files.items()
        )
        shutil.rmtree(self.out, ignore_errors=True)
        return Outcome(
            ok=not problems,
            detail="; ".join(problems) or "ok",
            seed_steps=T * len(cfg.seeds),
            rows=rows,
            artifact_bytes=sum(len(v) for v in files.values()),
            digest_input=digest_input,
        )


def _size(configs) -> dict:
    """Stated size of a workload: largest seeds, n, d and batch over its configs, each T."""
    tables = [cfg.schedule.build(cfg.problem.n)[0] for cfg in configs]
    return {
        "configs": len(configs),
        "seeds": max(len(cfg.seeds) for cfg in configs),
        "T": [int(t.T) for t in tables],
        "n": max(cfg.problem.n for cfg in configs),
        "d": max(cfg.problem.d for cfg in configs),
        "max_batch": max(int(t.batch.max()) for t in tables),
        "seed_steps": sum(len(cfg.seeds) * int(t.T) for cfg, t in zip(configs, tables)),
    }


def _seed_range(seed: int, count: int) -> tuple[int, ...]:
    return tuple(range(seed * count, seed * count + count))


def quad_bench64(pkg, seed: int, work_dir: Path) -> ExperimentsWorkload:
    """The eight criterion-4 cells: four regimes x {nshb, shb}, 64 seeds."""
    h = pkg.harness
    problem = h.ProblemSpec(family="quadratic", d=20, n=256, sigma_sq=1.0, seed=7 + seed)
    plan = dict(b0=8, delta=2.0, epochs_per_phase=(2,) * 6)
    cells = [
        ("nshb", h.ScheduleSpec(regime="constant-bs", kind="cosine", lambda_max=0.15, batch=16, T=240)),
        ("shb", h.ScheduleSpec(regime="constant-bs", kind="cosine", lambda_max=0.01, batch=16, T=240)),
        ("nshb", h.ScheduleSpec(regime="increasing-bs", kind="constant", lambda_max=0.15, **plan)),
        ("shb", h.ScheduleSpec(regime="increasing-bs", kind="constant", lambda_max=0.01, **plan)),
        ("nshb", h.ScheduleSpec(regime="joint-growth", gamma=1.2, lambda0=0.08, **plan)),
        ("shb", h.ScheduleSpec(regime="joint-growth", gamma=1.2, lambda0=0.005, **plan)),
        ("nshb", h.ScheduleSpec(regime="warmup", kind="constant", gamma=1.2, lambda0=0.1,
                                warmup_phases=2, **plan)),
        ("shb", h.ScheduleSpec(regime="warmup", kind="constant", gamma=1.2, lambda0=0.008,
                               warmup_phases=2, **plan)),
    ]
    configs = [
        h.ExperimentConfig(problem=problem, alg=alg, beta=0.9, schedule=schedule,
                           seeds=_seed_range(seed, 64), theta0_seed=11, budget=1e12)
        for alg, schedule in cells
    ]
    return ExperimentsWorkload(configs, pkg)


def logcosh_dense(pkg, seed: int, work_dir: Path) -> ExperimentsWorkload:
    """Log-cosh with a certified sigma: observation dominates each step."""
    h = pkg.harness
    config = h.ExperimentConfig(
        problem=h.ProblemSpec(family="logcosh", d=20, n=1024, seed=3 + seed, box_radius=6.0),
        alg="nshb",
        beta=0.9,
        schedule=h.ScheduleSpec(regime="constant-bs", kind="cosine", lambda_max=0.15,
                                batch=16, T=480, dataset_size=768),
        seeds=_seed_range(seed, 16),
        record_every=1,
    )
    return ExperimentsWorkload([config], pkg)


CLI_DOUBLING_INI = """\
[problem]
family = quadratic
d = 10
n = 4096
sigma_sq = 1.0
seed = {problem_seed}

[optimizer]
alg = nshb
beta = 0.3
theta0_seed = 5

[schedule]
regime = increasing-bs
kind = constant
lambda_max = 0.2
b0 = 8
delta = 2.0
epochs_per_phase = 8,8,8,8,8,8,8,8,8,8

[harness]
seeds = {seeds}
"""


def cli_doubling(pkg, seed: int, work_dir: Path) -> CliWorkload:
    """Criterion-6 shape at its largest point, end to end through the CLI."""
    ini = CLI_DOUBLING_INI.format(
        problem_seed=42 + seed, seeds=",".join(str(s) for s in _seed_range(seed, 16))
    )
    return CliWorkload(ini, pkg, work_dir)


WORKLOADS = {
    "quad-bench64": quad_bench64,
    "logcosh-dense": logcosh_dense,
    "cli-doubling": cli_doubling,
}
