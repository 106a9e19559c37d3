"""Command line entry point.

Subcommands:
  fit          single configuration, repeated fits, full output set
  sweep        config must name a sweep; runs every (value, repetition) pair
  influence    sigma sweep writing phi_curves.csv (default grid 10^0..10^4)
  bound-curve  worst-case single-outlier share as a function of n

Exit codes: 0 success, 1 input error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .errors import InputError, NumericalError
from .experiment import Sweep, load_config, run_bound_curve, run_experiment

DEFAULT_SIGMAS = [1.0, 10.0, 100.0, 1000.0, 10000.0]


def _add_common(parser):
    parser.add_argument("--config", required=True, help="JSON experiment config")
    parser.add_argument("--output", default=None, help="output directory (overrides config)")
    parser.add_argument("--seed", type=int, default=None, help="override solver seed")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="entnmf", description=__doc__.strip().splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    _add_common(sub.add_parser("fit", help="run the configured experiment without a sweep"))
    _add_common(sub.add_parser("sweep", help="run the configured sweep"))
    _add_common(sub.add_parser("influence", help="perturb one entry and trace objective shares"))

    bound = sub.add_parser("bound-curve", help="tabulate the single-outlier share bound")
    bound.add_argument("--n-max", type=int, default=100)
    bound.add_argument("--p-step", type=float, default=0.01)
    bound.add_argument("--output", default=".", help="output directory")
    return parser


def _load(args):
    cfg = load_config(args.config)
    if args.output is not None:
        cfg = replace(cfg, output_dir=args.output)
    if args.seed is not None:
        cfg = replace(cfg, solver=replace(cfg.solver, seed=args.seed))
    return cfg


def _run(args) -> int:
    if args.command == "bound-curve":
        path = run_bound_curve(args.n_max, args.p_step, args.output)
        print(path)
        return 0

    cfg = _load(args)
    if args.command == "fit":
        if cfg.sweep is not None:
            raise InputError("'fit' runs a single point; use 'sweep' for a sweep config")
    elif args.command == "sweep":
        if cfg.sweep is None:
            raise InputError("'sweep' requires a sweep section in the config")
    else:
        if cfg.sweep is None:
            cfg = replace(cfg, sweep=Sweep(name="sigma", values=list(DEFAULT_SIGMAS)))
        elif cfg.sweep.name != "sigma":
            raise InputError("'influence' requires a sigma sweep")
    for path in run_experiment(cfg):
        print(path)
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _run(args)
    except InputError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except NumericalError as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
