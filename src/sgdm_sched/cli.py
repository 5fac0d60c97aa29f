"""Command-line front end: config-driven experiments, bound calculators, and
schedule inspection.

Subcommands: run, bounds, schedule, audit, ratefit.  Exit codes: 0 all checks
pass, 1 bound-check failure, 2 config/flag error, 3 admissibility failure in
strict mode, 4 divergence.  Every subcommand lets its failures propagate to
`main`, whose `_EXIT_CODES` table alone maps an exception to its exit code
and stderr line; every exit-2 failure (a bad config or flag, an unreadable
input, an --out that cannot be made a directory, which is found before the
first step) prints `config error: ...`.  `run` exits 0 when
every check of the report passes (`AggregateReport.passed`), else 1.  The
SGDM_SCHED_OUT environment variable overrides the default output root
(./runs).  Flags are never abbreviated.

`schedule` and `bounds` describe a schedule with one flag per [schedule]
config key (--regime, --kind, --lambda-max, --b0, --epochs-per-phase, ...),
parsed as the INI parses that key.  --regime is one of constant-bs,
increasing-bs, joint-growth and warmup; a flag the regime does not read is
ignored, as an unread INI key is.  `bounds` prints the corollary the schedule
falls under as `regime` in its JSON.
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
    "schedule": _spec_fields(schedules.ScheduleSpec),
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

    # only the keys the file gives; 64 seeds is the CLI's own default
    har = {"seeds": tuple(range(64)), **values.get("harness", {})}
    try:
        return harness.ExperimentConfig(
            problem=harness.ProblemSpec(**values.get("problem", {})),
            schedule=schedules.ScheduleSpec(**values["schedule"]),
            **values["optimizer"],
            **har,
        )
    except (ValueError, TypeError) as exc:
        raise ConfigError(str(exc)) from None


def _out_root(arg_out: str | None) -> Path:
    return Path(arg_out or os.environ.get("SGDM_SCHED_OUT") or "runs")


def _load_with_overrides(args) -> harness.ExperimentConfig:
    config = load_config(args.config)
    if args.seeds is not None:
        config = replace(config, seeds=tuple(range(args.seeds)))
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
    return EXIT_OK if report.passed else EXIT_BOUND_FAIL


def _flag_schedule(args) -> schedules.ScheduleSpec:
    """The ScheduleSpec of the [schedule] flags, each parsed as its INI key is."""
    given = {
        key: _parse_value("schedule", key, getattr(args, key), kind)
        for key, kind in _SECTIONS["schedule"].items()
        if getattr(args, key) is not None
    }
    return schedules.ScheduleSpec(**given)


def cmd_bounds(args) -> int:
    table, regime, symbols = _flag_schedule(args).build(None)
    constants = theory.TheoremConstants(
        L=args.L,
        beta=args.beta,
        f0_minus_fstar=args.f0_gap,
        sigma_sq=args.sigma_sq,
        alg=args.alg,
    )
    sys.stdout.write(theory.build_report(constants, table, regime, symbols).to_json())
    return EXIT_OK


def cmd_schedule(args) -> int:
    table = _flag_schedule(args).build(None)[0]
    sys.stdout.write(schedules.table_to_csv(table))
    return EXIT_OK


def cmd_audit(args) -> int:
    config = _load_with_overrides(args)
    out_root = _out_root(args.out)
    report = harness.lyapunov_descent_audit(config, out_dir=out_root)
    n_bad = int(np.sum(~report.ok))
    print(
        f"lyapunov_descent: {'PASS' if report.all_ok else 'FAIL'} "
        f"({report.t.shape[0] - n_bad}/{report.t.shape[0]} audited steps within 3 standard errors)"
    )
    print(f"artifacts: {out_root / config.config_hash / 'audit.csv'}")
    return EXIT_OK if report.all_ok else EXIT_BOUND_FAIL


def _report_value(path: str, doc, section: str, key: str) -> float:
    """``doc[section][key]`` of a report as a finite float; ConfigError naming
    the file and the field otherwise."""
    try:  # a report that is not an object of objects fails to index (TypeError)
        value = doc[section][key]
    except (KeyError, TypeError) as exc:
        raise ConfigError(f"{path} is not a report: {exc!r}") from None
    # null is the M of a report without a phase plan; json reads NaN and Infinity
    if type(value) not in (int, float) or not abs(value) <= sys.float_info.max:
        raise ConfigError(f"{path}: {section}.{key} = {json.dumps(value)} is not a finite number")
    return float(value)


def cmd_ratefit(args) -> int:
    xs, ys = [], []
    for path in args.reports:
        with open(path) as fh:
            try:
                doc = json.load(fh)
            except ValueError as exc:  # malformed JSON or text that is not UTF-8
                raise ConfigError(f"{path} is not JSON: {exc}") from None
        xs.append(_report_value(path, doc, "totals", args.x))
        ys.append(_report_value(path, doc, "empirical", "min_mean_grad_norm"))
    fit = harness.rate_fit(xs, ys, mode=args.mode)
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


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("config", help="experiment config file (INI)")
    p.add_argument("--out", default=None, help="output root (default $SGDM_SCHED_OUT or ./runs)")
    p.add_argument("--seeds", type=int, default=None, help="override: use seeds 0..k-1")


def _add_schedule_flags(p: argparse.ArgumentParser) -> None:
    g = p.add_argument_group(
        "schedule", "the [schedule] config keys; a key the regime does not read is ignored"
    )
    for key in _SECTIONS["schedule"]:
        g.add_argument("--" + key.replace("_", "-"), dest=key, required=key == "regime")


def build_parser() -> argparse.ArgumentParser:
    # no parser takes an abbreviated flag: each flag has exactly one spelling
    parser = argparse.ArgumentParser(
        prog="sgdm-sched",
        description="Momentum-SGD scheduling laboratory: runs, bounds, schedules, audits.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help):
        p = sub.add_parser(name, help=help, allow_abbrev=False)
        p.set_defaults(func=func)
        return p

    p_run = command("run", cmd_run, "run a config-driven experiment and check its bounds")
    _add_config_flags(p_run)

    p_bounds = command("bounds", cmd_bounds, "print the theory report JSON for parameters")
    p_bounds.add_argument("--alg", required=True, choices=schedules.ALGS)
    p_bounds.add_argument("--beta", type=float, required=True)
    p_bounds.add_argument("--L", type=float, required=True)
    p_bounds.add_argument("--sigma-sq", type=float, required=True)
    p_bounds.add_argument("--f0-gap", type=float, required=True)
    _add_schedule_flags(p_bounds)

    p_sched = command("schedule", cmd_schedule, "print a schedule table as CSV (t,lr,batch)")
    _add_schedule_flags(p_sched)
    _add_config_flags(command("audit", cmd_audit, "per-step Lyapunov descent audit (nshb)"))

    p_fit = command("ratefit", cmd_ratefit, "fit a decay rate over report.json budget points")
    p_fit.add_argument("reports", nargs="+", help="report.json files (>= 4)")
    p_fit.add_argument("--mode", choices=("loglog", "per-phase"), default="loglog")
    p_fit.add_argument("--x", choices=("T", "M", "samples"), default="T")
    return parser


# Exception -> (exit code, stderr line): the one place a failure of any
# command becomes an exit code.  The first matching row wins: the
# admissibility errors are ScheduleErrors, hence ValueErrors, so they come
# before the config row.  OSError covers an unreadable input and an
# unwritable --out.
_EXIT_CODES = (
    ((schedules.MomentumTooLarge, schedules.InadmissibleSchedule), EXIT_ADMISSIBILITY,
     "admissibility: FAIL ({})"),
    ((optim.NumericalDivergence, problems.IterateOutsideCertifiedBox), EXIT_DIVERGENCE,
     "divergence: FAIL ({})"),
    ((ValueError, OSError, harness.BudgetExceeded), EXIT_CONFIG, "config error: {}"),
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
