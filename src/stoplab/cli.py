"""Command-line front end.

Subcommands: ``run`` (full configured experiment), ``verify`` (one check
suite), ``constants`` (certified envelope constants for a schedule),
``sweep`` (re-run a config over a grid of one parameter), ``report``
(re-render a saved report).  Exit codes: 0 all checks passed, 1 a check
failed, 2 configuration or usage error.
"""

import argparse
import json
import sys
from pathlib import Path

from .errors import ConfigError
from .harness import (CHECKS, GRAMMAR, Key, build_schedule, load_config, parse_config,
                      run_experiment)
from .lyapunov import envelope_constants


def _print_report(checks, passed):
    """Print a report's lines, each formed before the first is printed."""
    lines = [f"[{'PASS' if c['pass'] else 'FAIL'}] {c['name']} {c['params']} "
             f"estimate={c['estimate']} ci={c['ci']} bound={c['bound']}" for c in checks]
    print(*lines, "overall: " + ("PASS" if passed else "FAIL"), sep="\n")


def _cmd_run(args) -> int:
    cfg = load_config(args.config)
    rep = run_experiment(cfg)
    _print_report(rep.checks, rep.passed)
    print("artifacts:", rep.output_dir)
    return 0 if rep.passed else 1


def _cmd_verify(args) -> int:
    cfg = load_config(args.config)
    raw = dict(cfg.raw)
    raw["checks"] = [args.suite]
    rep = run_experiment(parse_config(raw))
    _print_report(rep.checks, rep.passed)
    return 0 if rep.passed else 1


def _cmd_constants(args) -> int:
    problems = [key.problem(flag, value) for flag, key, value in (
        ("--sigma", GRAMMAR["noise"]["sigma"], args.sigma),
        ("--tol", GRAMMAR["options"]["gamma_tol"], args.tol),
        ("--E0", Key("number", lo=0), args.E0)) if not key.accepts(value)]
    sched = build_schedule({"variant": args.schedule, "L": args.L, "epsilon": args.epsilon,
                            "c0_prime": args.c0_prime}, args.L, problems)
    if problems:
        raise ConfigError(problems)
    env = envelope_constants(sched, args.sigma, args.E0, args.tol)
    print(f"schedule={args.schedule} L={args.L} sigma={args.sigma} "
          f"E0={args.E0} tol={args.tol}")
    print(f"gamma1 in [{env.gamma1 - env.gamma1_tail!r}, {env.gamma1!r}]")
    print(f"gamma2 in [{env.gamma2 - env.gamma2_tail!r}, {env.gamma2!r}]")
    print(f"C1 = {env.C1!r}")
    print(f"C2 = {env.C2!r}")
    return 0


def _set_path(doc: dict, dotted: str, value):
    keys = dotted.split(".")
    node = doc
    for k in keys[:-1]:
        if not isinstance(node.get(k), dict):
            raise ConfigError([f"sweep parameter path {dotted!r} not found in config"])
        node = node[k]
    if keys[-1] not in node:
        raise ConfigError([f"sweep parameter path {dotted!r} not found in config"])
    node[keys[-1]] = value


def _cmd_sweep(args) -> int:
    cfg = load_config(args.config)
    runs = []  # every value's config is parsed before any runs
    for v in args.values:
        raw = json.loads(json.dumps(cfg.raw))
        try:
            value = json.loads(v)
        except json.JSONDecodeError:
            value = v
        _set_path(raw, args.param, value)
        raw["output_dir"] = str(Path(cfg.output_dir) / f"{args.param}={v}")
        runs.append((v, parse_config(raw)))
    worst = 0
    for v, run_cfg in runs:
        rep = run_experiment(run_cfg)
        print(f"--- {args.param} = {v} ---")
        _print_report(rep.checks, rep.passed)
        worst = max(worst, 0 if rep.passed else 1)
    return worst


def _cmd_report(args) -> int:
    path = Path(args.dir) / "report.json"
    if not path.is_file():
        raise ConfigError([f"no report.json under {args.dir}"])
    try:
        doc = json.loads(path.read_bytes())
        _print_report(doc["checks"], doc["pass"])
    except (ValueError, LookupError, TypeError) as exc:
        raise ConfigError([f"{path} is not a stoplab report: {exc!r}"])
    return 0 if doc["pass"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="stoplab", description="Momentum-SGD envelope verification lab")
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("run", help="run a configured experiment")
    p.add_argument("config")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("verify", help="run a single check suite")
    p.add_argument("suite", choices=tuple(CHECKS))
    p.add_argument("config")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("constants", help="print certified envelope constants")
    p.add_argument("schedule", choices=GRAMMAR["schedule"]["variant"].names)
    p.add_argument("--L", type=float, default=1.0)
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--E0", type=float, default=1.0)
    p.add_argument("--epsilon", type=float, default=0.3)
    p.add_argument("--c0-prime", type=float, default=100.0)
    p.set_defaults(func=_cmd_constants)

    p = sub.add_parser("sweep", help="re-run a config over parameter values")
    p.add_argument("config")
    p.add_argument("--param", required=True, help="dotted config path, e.g. noise.sigma")
    p.add_argument("--values", nargs="+", required=True)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("report", help="re-render a saved report")
    p.add_argument("dir")
    p.set_defaults(func=_cmd_report)

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    if not getattr(args, "command", None):
        parser.print_usage()
        return 2
    try:
        return args.func(args)
    except ConfigError as exc:
        for problem in exc.problems:
            print(f"config error: {problem}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
