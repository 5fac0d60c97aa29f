"""Command-line front end: config-driven experiments, bound calculators, and
schedule inspection.

Subcommands: run, bounds, schedule, audit, ratefit.  Exit codes: 0 all checks
pass, 1 bound-check failure, 2 config/flag error, 3 admissibility failure in
strict mode, 4 divergence.  The SGDM_SCHED_OUT environment variable overrides
the default output root (./runs).
"""

from __future__ import annotations

import argparse
import configparser
import json
import os
import sys
import types
import typing
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import harness, optim, problems, schedules, theory
from ._fmt import dumps17

EXIT_OK = 0
EXIT_BOUND_FAIL = 1
EXIT_CONFIG = 2
EXIT_ADMISSIBILITY = 3
EXIT_DIVERGENCE = 4


class ConfigError(ValueError):
    """Malformed config file: unknown keys, missing fields, or bad values."""


def _spec_fields(spec) -> dict:
    """Config key -> value kind, read off the spec dataclass's field types."""
    kinds = {}
    for name, hint in typing.get_type_hints(spec).items():
        if isinstance(hint, types.UnionType):  # X | None
            (hint,) = (a for a in typing.get_args(hint) if a is not type(None))
        kinds[name] = "int_list" if typing.get_origin(hint) is tuple else hint
    return kinds


_OPTIMIZER_FIELDS = {"alg": str, "beta": float, "theta0_seed": int}
_HARNESS_FIELDS = {
    "seeds": "seeds",
    "record_every": int,
    "validation_mode": str,
    "budget": float,
}
_SECTIONS = {
    "problem": _spec_fields(harness.ProblemSpec),
    "optimizer": _OPTIMIZER_FIELDS,
    "schedule": _spec_fields(harness.ScheduleSpec),
    "harness": _HARNESS_FIELDS,
}


def _parse_value(section: str, key: str, raw: str, kind):
    raw = raw.strip()
    try:
        if kind is str:
            return raw
        if kind is int:
            return int(raw)
        if kind is float:
            return float(raw)
        if kind == "int_list":
            return tuple(int(p) for p in raw.split(",") if p.strip())
        if kind == "seeds":
            if "," in raw:
                return tuple(int(p) for p in raw.split(",") if p.strip())
            return tuple(range(int(raw)))  # a bare count means seeds 0..count-1
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key} = {raw!r}: {exc}") from None
    raise AssertionError(f"unhandled field kind {kind!r}")


def load_config(path: str | Path) -> harness.ExperimentConfig:
    """Parse and range-check an experiment config (INI with four sections)."""
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"), interpolation=None)
    # keep key case as written so unknown-key messages are readable
    cp.optionxform = str
    try:
        read = cp.read(path)
    except configparser.Error as exc:  # no section header, duplicate key, ...
        raise ConfigError(str(exc)) from None
    if not read:
        raise ConfigError(f"cannot read config file {path}")
    values: dict[str, dict] = {}
    for section in cp.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"unknown section [{section}]")
        fields = _SECTIONS[section]
        values[section] = {}
        for key, raw in cp.items(section):
            if key not in fields:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            values[section][key] = _parse_value(section, key, raw, fields[key])
    for required in ("optimizer", "schedule"):
        if required not in values:
            raise ConfigError(f"missing required section [{required}]")
    for key in ("alg", "beta"):
        if key not in values["optimizer"]:
            raise ConfigError(f"missing required key {key!r} in [optimizer]")
    if "regime" not in values["schedule"]:
        raise ConfigError("missing required key 'regime' in [schedule]")

    opt = values["optimizer"]
    har = values.get("harness", {})
    try:
        problem = harness.ProblemSpec(**values.get("problem", {}))
        schedule = harness.ScheduleSpec(**values["schedule"])
        return harness.ExperimentConfig(
            problem=problem,
            alg=opt["alg"],
            beta=opt["beta"],
            schedule=schedule,
            seeds=har.get("seeds", tuple(range(64))),
            record_every=har.get("record_every", 1),
            validation_mode=har.get("validation_mode", "strict"),
            budget=har.get("budget", 1e10),
            theta0_seed=opt.get("theta0_seed", 0),
        )
    except (ValueError, TypeError) as exc:
        raise ConfigError(str(exc)) from None


def _out_root(arg_out: str | None) -> Path:
    return Path(arg_out or os.environ.get("SGDM_SCHED_OUT") or "runs")


def _load_with_overrides(args) -> harness.ExperimentConfig:
    config = load_config(args.config)
    if args.seeds is not None:
        config = replace(config, seeds=tuple(range(args.seeds)))
    if args.waive_admissibility:
        config = replace(config, validation_mode="waived")
    elif args.strict:
        config = replace(config, validation_mode="strict")
    return config


def cmd_run(args) -> int:
    config = _load_with_overrides(args)
    out_root = _out_root(args.out)
    report = harness.run_experiment(config, out_dir=out_root)
    for name, check in report.checks.items():
        verdict = "PASS" if check["pass"] else "FAIL"
        detail = ""
        if "margin" in check:
            detail = f" (statistic={check['statistic']:.6g}, rhs={check['rhs']:.6g})"
        elif name == "admissible":
            if check["waived"]:
                verdict = "WAIVED"
            if check["lr_bound"] is not None:
                detail = f" (lr_max={check['lr_max']:.6g}, bound={check['lr_bound']:.6g})"
            else:
                detail = " (no admissible rate: c >= 1/beta^2)"
        print(f"{name}: {verdict}{detail}")
    print(f"artifacts: {Path(out_root) / report.config_hash}")
    failed = [
        name
        for name, check in report.checks.items()
        if not check["pass"] and not (name == "admissible" and check["waived"])
    ]
    return EXIT_OK if not failed else EXIT_BOUND_FAIL


def _schedule_spec_from_flags(args, kind: str) -> harness.ScheduleSpec:
    """Map the schedule flags and a rate kind to a ScheduleSpec.

    The regime is inferred: without --b0 the batch is constant; with it the
    kind picks joint-growth (exp_growth), warmup (warmup_*) or increasing-bs.
    """
    if args.dataset_size is None and (args.b0 is not None or kind.endswith("cosine")):
        raise ConfigError(
            "--dataset-size is required for phase plans and cosine kinds "
            "(it fixes the steps-per-epoch bookkeeping)"
        )
    if args.b0 is None:
        regime = "constant-bs"
    elif kind == "exp_growth":
        regime = "joint-growth"
    elif kind.startswith("warmup_"):
        regime, kind = "warmup", kind.removeprefix("warmup_")
    else:
        regime = "increasing-bs"
    lambda_max = args.lr if args.lr is not None else args.lr_max
    return harness.ScheduleSpec(
        regime=regime,
        kind=kind,
        lambda_max=lambda_max if lambda_max is not None else 0.1,
        lambda_min=args.lr_min,
        p=args.p,
        gamma=args.gamma,
        lambda0=args.lr0,
        warmup_phases=args.warmup_phases,
        batch=args.batch,
        T=args.T,
        b0=args.b0,
        delta=args.delta,
        epochs_per_phase=tuple(int(x) for x in args.epochs_per_phase.split(","))
        if args.epochs_per_phase
        else None,
        dataset_size=args.dataset_size,
    )


def cmd_bounds(args) -> int:
    try:
        if args.regime not in theory.REGIMES:
            raise ConfigError(f"unknown regime {args.regime!r}; expected one of {theory.REGIMES}")
        # the corollary fixes the rate kind; the flags then infer the regime
        # exactly as `schedule` does, and must land on the corollary asked for
        prefix, _, kind = args.regime.partition("-")
        kind = {"cor3.3": "exp_growth", "cor3.4": f"warmup_{kind}"}.get(prefix, kind)
        table, regime, symbols = _schedule_spec_from_flags(args, kind).build(args.dataset_size)
        if regime != args.regime:
            raise ConfigError(
                f"regime {args.regime!r} is inconsistent with the schedule flags (built {regime!r})"
            )
        constants = theory.TheoremConstants(
            L=args.L,
            beta=args.beta,
            c=table.growth_constant_c,
            f0_minus_fstar=args.f0_gap,
            sigma_sq=args.sigma_sq,
            alg=args.alg,
        )
        report = theory.build_report(constants, table, regime, symbols)
    except (ConfigError, schedules.ScheduleError, ValueError) as exc:
        print(f"flag error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    sys.stdout.write(report.to_json())
    return EXIT_OK


def cmd_schedule(args) -> int:
    try:
        table = _schedule_spec_from_flags(args, args.kind).build(args.dataset_size)[0]
    except (ConfigError, schedules.ScheduleError, ValueError) as exc:
        print(f"flag error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    sys.stdout.write(schedules.table_to_csv(table))
    return EXIT_OK


def cmd_audit(args) -> int:
    config = _load_with_overrides(args)
    report = harness.lyapunov_descent_audit(config)
    out_dir = _out_root(args.out) / config.config_hash
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "audit.csv").write_text(report.to_csv())
    n_bad = int(np.sum(~report.ok))
    print(
        f"lyapunov_descent: {'PASS' if report.all_ok else 'FAIL'} "
        f"({report.t.shape[0] - n_bad}/{report.t.shape[0]} audited steps within 3 standard errors)"
    )
    print(f"artifacts: {out_dir / 'audit.csv'}")
    return EXIT_OK if report.all_ok else EXIT_BOUND_FAIL


def cmd_ratefit(args) -> int:
    try:
        xs, ys = [], []
        for path in args.reports:
            with open(path) as fh:
                doc = json.load(fh)
            emp = doc["empirical"]
            if args.x == "T":
                xs.append(doc["totals"]["T"])
            elif args.x == "M":
                if doc["totals"]["M"] is None:
                    raise ConfigError(f"{path} has no phase count M")
                xs.append(doc["totals"]["M"])
            else:
                xs.append(doc["totals"]["samples"])
            ys.append(emp["min_mean_grad_norm"])
        fit = harness.rate_fit(xs, ys, mode=args.mode)
    except (ConfigError, ValueError, KeyError, TypeError, OSError, json.JSONDecodeError) as exc:
        # a report that is not an object of objects fails to index (TypeError)
        print(f"ratefit error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    out = {
        "mode": fit.mode,
        "x": args.x,
        "n_points": fit.n_points,
        "slope": fit.slope,
        "stderr": fit.stderr,
        "ci95": [fit.ci_low, fit.ci_high],
    }
    if fit.mode == "per-phase":
        out["decay_factor"] = fit.decay_factor
    sys.stdout.write(dumps17(out))
    return EXIT_OK


def _add_common_run_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", default=None, help="output root (default $SGDM_SCHED_OUT or ./runs)")
    p.add_argument("--seeds", type=int, default=None, help="override: use seeds 0..k-1")
    g = p.add_mutually_exclusive_group()
    g.add_argument("--strict", action="store_true", help="require admissibility (default)")
    g.add_argument(
        "--waive-admissibility",
        action="store_true",
        help="run even when the schedule fails the admissible-LR check",
    )


def _add_schedule_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--kind",
        default="constant",
        choices=sorted(schedules.ALL_KINDS),
        help="learning-rate shape",
    )
    p.add_argument("--lr", type=float, default=None, help="alias for --lr-max")
    p.add_argument("--lr-max", type=float, default=None)
    p.add_argument("--lr-min", type=float, default=0.0)
    p.add_argument("--p", type=float, default=1.0, help="polynomial power")
    p.add_argument("--gamma", type=float, default=None, help="per-phase LR growth factor")
    p.add_argument("--lr0", type=float, default=None, help="initial LR for growth kinds")
    p.add_argument("--warmup-phases", type=int, default=None, help="last growing phase index")
    p.add_argument("--batch", type=int, default=None, help="constant batch size")
    p.add_argument("--T", type=int, default=None, help="total steps (constant-batch regimes)")
    p.add_argument("--dataset-size", type=int, default=None, help="n for epoch bookkeeping")
    p.add_argument("--b0", type=int, default=None, help="initial batch size of a phase plan")
    p.add_argument("--delta", type=float, default=None, help="per-phase batch growth factor")
    p.add_argument(
        "--epochs-per-phase",
        default=None,
        help="comma-separated epochs per phase, e.g. 2,2,2",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sgdm-sched",
        description="Momentum-SGD scheduling laboratory: runs, bounds, schedules, audits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a config-driven experiment and check its bounds")
    p_run.add_argument("config", help="experiment config file (INI)")
    _add_common_run_flags(p_run)
    p_run.set_defaults(func=cmd_run)

    p_bounds = sub.add_parser("bounds", help="print the theory report JSON for parameters")
    p_bounds.add_argument("--regime", required=True, help="e.g. cor3.1-constant, cor3.3")
    p_bounds.add_argument("--alg", required=True, choices=schedules.ALGS)
    p_bounds.add_argument("--beta", type=float, required=True)
    p_bounds.add_argument("--L", type=float, required=True)
    p_bounds.add_argument("--sigma-sq", type=float, required=True)
    p_bounds.add_argument("--f0-gap", type=float, required=True)
    _add_schedule_flags(p_bounds)
    p_bounds.set_defaults(func=cmd_bounds)

    p_sched = sub.add_parser("schedule", help="print a schedule table as CSV (t,lr,batch)")
    _add_schedule_flags(p_sched)
    p_sched.set_defaults(func=cmd_schedule)

    p_audit = sub.add_parser("audit", help="per-step Lyapunov descent audit (nshb)")
    p_audit.add_argument("config", help="experiment config file (INI)")
    _add_common_run_flags(p_audit)
    p_audit.set_defaults(func=cmd_audit)

    p_fit = sub.add_parser("ratefit", help="fit a decay rate over report.json budget points")
    p_fit.add_argument("reports", nargs="+", help="report.json files (>= 4)")
    p_fit.add_argument("--mode", choices=("loglog", "per-phase"), default="loglog")
    p_fit.add_argument("--x", choices=("T", "M", "samples"), default="T")
    p_fit.set_defaults(func=cmd_ratefit)
    return parser


# Exception -> (exit code, stderr line) for the commands that let failures
# propagate.  The first matching row wins: the admissibility errors are
# ScheduleErrors, hence ValueErrors, so they come before the config row.
_EXIT_CODES = (
    ((schedules.MomentumTooLarge, schedules.InadmissibleSchedule), EXIT_ADMISSIBILITY,
     "admissibility: FAIL ({})"),
    ((optim.NumericalDivergence, problems.IterateOutsideCertifiedBox), EXIT_DIVERGENCE,
     "divergence: FAIL ({})"),
    ((ValueError, harness.BudgetExceeded), EXIT_CONFIG, "config error: {}"),
)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except tuple(kind for kinds, _, _ in _EXIT_CODES for kind in kinds) as exc:
        for kinds, code, line in _EXIT_CODES:
            if isinstance(exc, kinds):
                print(line.format(exc), file=sys.stderr)
                return code


if __name__ == "__main__":
    sys.exit(main())
