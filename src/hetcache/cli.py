"""Command-line front end.

Subcommands::

    hetcache run     --config scenario.yaml --engine both --out run.csv
    hetcache sweep   --param "tiers[2].density" --logspace 1e-4 1e2 13 --out sweep.csv
    hetcache search  --var "tiers[1].cache.mpc_fraction=0,0.5,1" \
                     --var "tiers[2].cache.mpc_fraction=0,0.5,1" --out surface.csv
    hetcache preset  fig2 --out fig2.csv

Exit codes: 0 success, 1 validation failure, 2 numerical failure (including
any failed sweep row).
"""
from __future__ import annotations

import argparse
import sys

import numpy as np

from .experiments import (PRESET_NAMES, grid_search, run_experiment, run_preset,
                          set_parameter, write_csv)
from .metrics import UndefinedEfficiencyError
from .quadrature import QuadratureError
from .scenario import ConfigError, default_scenario, load_config

_SUMMARY_FIELDS = ("p_hit", "p_bh", "ase", "cost", "efficiency")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hetcache",
        description="Coverage, caching, and cost metrics for multi-tier "
                    "cellular networks (quadrature and Monte Carlo engines).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", metavar="PATH",
                       help="YAML scenario file (defaults apply when omitted)")
        p.add_argument("--engine", choices=("analytic", "mc", "both"),
                       default="analytic")
        p.add_argument("--seed", type=int, metavar="U64",
                       help="override protocol.master_seed")
        p.add_argument("--snapshots", type=int, metavar="N",
                       help="override protocol.num_snapshots")
        p.add_argument("--out", metavar="PATH", default="hetcache_results.csv")
        p.add_argument("--workers", type=int, default=1)

    add_common(sub.add_parser("run", help="evaluate a single scenario"))

    sweep = sub.add_parser("sweep", help="sweep one parameter over a grid")
    add_common(sweep)
    sweep.add_argument("--param", required=True, metavar="PATH",
                       help="parameter path, e.g. tiers[2].density")
    group = sweep.add_mutually_exclusive_group(required=True)
    group.add_argument("--values", metavar="V1,V2,...",
                       help="explicit comma-separated grid")
    group.add_argument("--logspace", nargs=3, metavar=("LO", "HI", "N"),
                       help="log-spaced grid")
    group.add_argument("--linspace", nargs=3, metavar=("LO", "HI", "N"),
                       help="linearly spaced grid")

    search = sub.add_parser("search", help="grid-search the caching efficiency")
    add_common(search)
    search.add_argument("--var", action="append", required=True,
                        metavar="PATH=V1,V2,...",
                        help="searched variable with its grid (up to 3)")

    preset = sub.add_parser("preset", help="run a canned experiment")
    add_common(preset)
    preset.add_argument("name", choices=PRESET_NAMES)
    return parser


def _load_scenario(args):
    """The config file's scenario with ``--seed`` and ``--snapshots`` set at their paths."""
    scenario = load_config(args.config) if args.config else default_scenario()
    for path, value in (("protocol.master_seed", args.seed),
                        ("protocol.num_snapshots", args.snapshots)):
        if value is not None:
            scenario = set_parameter(scenario, path, value)
    return scenario


def _value(token: str):
    """``token`` as a number, else as given: the swept field's own check
    accepts a string it takes (``auto``) and rejects others with its path."""
    try:
        return float(token)
    except ValueError:
        return token


def _sweep_grid(args):
    if args.values is not None:
        return tuple(_value(v) for v in args.values.split(",") if v != "")
    flag = "--logspace" if args.logspace else "--linspace"
    lo, hi, n = args.logspace or args.linspace
    try:
        lo, hi, count = float(lo), float(hi), int(n)
    except ValueError as exc:
        raise ConfigError("sweep", f"{flag}: {exc}") from None
    if count < 1:
        raise ConfigError("sweep", "grid size must be >= 1")
    if args.logspace:
        if not (lo > 0 and hi > 0):
            raise ConfigError("sweep", f"{flag}: LO and HI must be positive")
        return tuple(np.logspace(np.log10(lo), np.log10(hi), count))
    return tuple(np.linspace(lo, hi, count))


def _print_rows(rows):
    for row in rows:
        if row.get("status") != "ok":
            print(f"engine={row.get('engine', '?')} status={row.get('status')} "
                  f"error={row.get('error')}")
            continue
        parts = [f"{k}={row[k]:.6g}" for k in _SUMMARY_FIELDS
                 if isinstance(row.get(k), float)]
        print(f"engine={row['engine']} " + " ".join(parts))


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1

    try:
        scenario = _load_scenario(args)
        if args.command in ("run", "sweep"):
            variables = {args.param: _sweep_grid(args)} if args.command == "sweep" else {}
            rows = run_experiment(scenario, variables, engine=args.engine,
                                  out_path=args.out, workers=args.workers)
        elif args.command == "search":
            variables = {}
            for spec in args.var:
                path, _, values = spec.partition("=")
                if not values:
                    raise ConfigError("search", f"missing grid in {spec!r}")
                variables[path] = tuple(_value(v) for v in values.split(","))
            engine = "analytic" if args.engine == "both" else args.engine
            result = grid_search(scenario, variables, engine=engine,
                                 workers=args.workers)
            rows = list(result.surface)
            write_csv(rows, args.out, scenario)
            point = " ".join(f"{k}={v if isinstance(v, str) else format(v, 'g')}"
                             for k, v in result.best_point.items())
            print(f"best: {point} efficiency={result.best_efficiency:.6g}")
        else:
            rows = run_preset(args.name, scenario, out_path=args.out,
                              workers=args.workers)
        _print_rows(rows[:20])
        if len(rows) > 20:
            print(f"... {len(rows)} rows total, written to {args.out}")
        if any(row.get("status") == "error" for row in rows):
            return 2
        return 0
    except (QuadratureError, UndefinedEfficiencyError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
