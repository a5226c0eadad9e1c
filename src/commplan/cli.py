"""Command-line harness: run experiments, generate task streams, lint configs.

Exit codes: 0 success, 2 validation error (scenario, option or output path),
3 infeasible simulation.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path
from typing import Optional

from .experiment import run_experiment
from .meeting import MeetingInfeasible
from .scenario import ScenarioError, generate_tasks, load_scenario, task_to_dict
from .simulator import SimulationError
from .strategies import STRATEGY_KINDS
from .workspace import MapError, Unreachable

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_INFEASIBLE = 3


def _unwritable(args) -> Optional[str]:
    """Why `run` could not write an output path, checked before any trial runs."""
    for flag, path in (("--out", args.out), ("--series", args.series)):
        if path is not None and (Path(path).is_dir() or not Path(path).parent.is_dir()):
            return f"{flag}: {path} is a directory or lies in a missing one"
    if args.log_dir is not None and Path(args.log_dir).exists() and not Path(args.log_dir).is_dir():
        return f"--log-dir: {args.log_dir} is not a directory"
    return None


def _cmd_run(args) -> int:
    problem = "--trials must be >= 1" if args.trials < 1 else _unwritable(args)
    if problem is not None:
        print(f"validation error: {problem}", file=sys.stderr)
        return EXIT_VALIDATION
    strategy = None
    try:
        cfg = load_scenario(args.scenario)
        if args.strategy is not None:
            # StrategyConfig refuses a kind whose field the scenario lacks.
            strategy = dataclasses.replace(cfg.strategy, kind=args.strategy)
    except ValueError as exc:  # ScenarioError, or the StrategyConfig check
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    if args.seed is not None:
        cfg.seed = args.seed
    try:
        rows = run_experiment(cfg, args.trials, out_path=args.out, strategy=strategy,
                              series_path=args.series, log_dir=args.log_dir)
    except (MeetingInfeasible, Unreachable, SimulationError) as exc:
        print(f"infeasible simulation: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except OSError as exc:  # an output path that the checks above could not foresee
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    summary = rows[-2]
    print(f"strategy={summary['strategy']} env={summary['env']} trials={args.trials} "
          f"finished_mean={summary['finished']:.2f}")
    if args.out:
        print(f"metrics written to {args.out}")
    return EXIT_OK


def _cmd_generate(args) -> int:
    try:
        cfg = load_scenario(args.scenario)
        if cfg.generator is None:
            print("validation error: scenario has no generator section", file=sys.stderr)
            return EXIT_VALIDATION
        seed = cfg.seed if args.seed is None else args.seed
        start_id = max((t.id for t in cfg.tasks), default=-1) + 1
        tasks = generate_tasks(cfg.generator, seed, cfg.grid, start_id=start_id)
        text = json.dumps([task_to_dict(t) for t in tasks], indent=2)
        if args.out:
            Path(args.out).write_text(text + "\n", encoding="utf-8")
    except (ScenarioError, OSError) as exc:  # OSError: --out cannot be written
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    if args.out:
        print(f"{len(tasks)} tasks written to {args.out}")
    else:
        print(text)
    return EXIT_OK


def _cmd_validate(args) -> int:
    try:
        cfg = load_scenario(args.scenario)
    except (ScenarioError, MapError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    print(f"ok: {len(cfg.agents)} agents, {len(cfg.tasks)} tasks, "
          f"{len(cfg.relations)} relations, strategy={cfg.strategy.kind}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="commplan",
                                     description="Multi-robot planning and rendezvous experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario and export metrics CSV")
    p_run.add_argument("scenario")
    p_run.add_argument("--trials", type=int, default=1)
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--strategy", choices=STRATEGY_KINDS, default=None)
    p_run.add_argument("--out", default=None, help="metrics CSV path")
    p_run.add_argument("--series", default=None, help="robustness series CSV path")
    p_run.add_argument("--log-dir", default=None, help="write per-trial event logs here")
    p_run.set_defaults(func=_cmd_run)

    p_gen = sub.add_parser("generate", help="generate a task stream from the scenario's generator")
    p_gen.add_argument("scenario")
    p_gen.add_argument("--seed", type=int, default=None)
    p_gen.add_argument("--out", default=None)
    p_gen.set_defaults(func=_cmd_generate)

    p_val = sub.add_parser("validate", help="lint a scenario config")
    p_val.add_argument("scenario")
    p_val.set_defaults(func=_cmd_validate)

    args = parser.parse_args(argv)
    if getattr(args, "seed", None) is not None and args.seed < 0:  # random.Random uses abs()
        sub.choices[args.command].error(f"argument --seed: must be >= 0, not {args.seed}")
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
