"""Parameter sweeps, grid search, canned experiments, and CSV persistence.

A grid maps each axis, a parameter path (``scenario.set_parameter``) or a
tuple of paths set together such as ``("tiers[1].rho", "tiers[2].rho")``,
to its values.

One driver, ``_grid_rows``, turns every run, sweep, grid search and
canned experiment into rows: one per grid point per engine. The canned
experiments (``PRESET_NAMES``) are data, a table of axes and engines.
Result rows are flattened metric reports; float cells are printed with 17
significant digits so a fixed config and seed reproduce byte-identical CSV
files. A sidecar ``<out>.meta.json`` records the config hash, seed, and
engine versions.
"""
from __future__ import annotations

import dataclasses
import itertools
import json
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import __version__
from .analytic import build_coverage_table
from .metrics import METRIC_NAMES, analytic_columns
# Grid rows do not call it; perfbench/tracing.py wraps it at this lookup site.
from .metrics import analytic_report  # noqa: F401
from .montecarlo import run_simulation
from .quadrature import QuadratureError
# ``_set_point`` calls ``set_parameter`` by this module's name, which
# perfbench/tracing.py wraps.
from .scenario import (_COVERAGE_FIELDS, ConfigError, ScenarioConfig, _names, _reaches,
                       _stage_key, set_parameter)

__all__ = [
    "GridSearchResult",
    "set_parameter",
    "run_experiment",
    "grid_search",
    "run_preset",
    "write_csv",
    "PRESET_NAMES",
    "CSV_SCHEMA_VERSION",
]

CSV_SCHEMA_VERSION = 2

_ENGINES = {"analytic": ("analytic",), "mc": ("mc",), "both": ("analytic", "mc")}


@dataclass(frozen=True)
class GridSearchResult:
    """Argmax point, its efficiency, and the full evaluated surface."""

    best_point: dict
    best_efficiency: float
    surface: tuple


def _reach(path) -> tuple:
    """The name sequences an axis sets, for ``scenario._reaches``."""
    return tuple(map(_names, (path,) if isinstance(path, str) else path))


# Every metric cell of a row, blank, in row order: the metrics, their
# Monte Carlo standard errors, their analytic error estimates.
_BLANK_CELLS = dict.fromkeys([
    "p_hit", "p_bh", "p_bh_operational", "coverage_all_bs",
    "ase", "cost", "cost_over_backhaul_unit", "efficiency",
    *(f"se_{name}" for name in METRIC_NAMES), *(f"err_{name}" for name in METRIC_NAMES)], "")


@dataclass
class _SweepCache:
    """Coverage tables of one sweep and the exponent tables they share.

    Each is keyed by the fields its tables read (``scenario._stage_key``).
    One lives for one sweep, grid search or preset call, so every call
    pays for its own tabulation and no state outlives it.
    """

    tables: dict = dataclasses.field(default_factory=dict)
    exponents: dict = dataclasses.field(default_factory=dict)


def _error_row(engine: str, message: str) -> dict:
    return {"engine": engine, "status": "error", "error": message, **_BLANK_CELLS}


# The cells every ok analytic row shares, in row order.
_ANALYTIC_ROW = {"engine": "analytic", "status": "ok", "error": "", **_BLANK_CELLS,
                 "p_bh_operational": None, "coverage_all_bs": None}


# Most rows x ranks in one ``analytic_columns`` call. A block of a cache-size
# axis has up to F rows, so its (rows, tiers, ranks) arrays would otherwise
# grow as F^2; this keeps each near 1 MB at two tiers, and leaves blocks of
# a 100-file library whole. Rows do not depend on the split.
_BATCH_ROW_RANKS = 1 << 16


def _analytic_rows(scenarios, cache: _SweepCache, heads, reach=None) -> list:
    """Analytic rows of ``scenarios``, in order, each opening with its ``heads``.

    ``reach`` is what the block's axis sets (``_reach``), None if unknown;
    ``scenario._reaches`` says which fields it can change. Each run of rows
    with one key of ``_COVERAGE_FIELDS`` takes one coverage table from
    ``cache`` (built on a miss), so one batch may span several tables; when
    ``reach`` reaches none of those fields, the block is one run with its
    first row's key. Each run of rows with one library size is one
    ``analytic_columns`` call, given ``reach``, split only past
    ``_BATCH_ROW_RANKS``. A row whose table fails or whose cost is zero gets
    status ``error``.
    """
    if any(_reaches(reach, field) for field in _COVERAGE_FIELDS):
        keys = [_stage_key(s, _COVERAGE_FIELDS) for s in scenarios]
    else:
        keys = [_stage_key(s, _COVERAGE_FIELDS) for s in scenarios[:1]] * len(scenarios)
    rows = [None] * len(scenarios)
    ready = []
    for key, run in itertools.groupby(range(len(scenarios)), keys.__getitem__):
        run = list(run)
        table = cache.tables.get(key)
        if table is None:
            try:
                table = build_coverage_table(scenarios[run[0]], exponents=cache.exponents)
            except (QuadratureError, ValueError) as exc:
                for b in run:
                    rows[b] = {**heads[b], **_error_row("analytic", str(exc))}
                continue
            cache.tables[key] = table
        ready += ((b, scenarios[b], table) for b in run)
    batches = []
    for library_size, run in itertools.groupby(
            ready, lambda item: item[1].content.library_size):
        run = list(run)
        step = max(1, _BATCH_ROW_RANKS // library_size)
        batches += (run[lo:lo + step] for lo in range(0, len(run), step))
    for batch_rows in batches:
        index, batch, tables = zip(*batch_rows)
        columns = analytic_columns(batch, tables, _reach=reach)
        values, errors = columns.values, columns.error_estimates
        names = [*values, "cost_over_backhaul_unit", *(f"err_{k}" for k in errors),
                 *(f"rho_{i}" for i in range(1, columns.rho.shape[1] + 1))]
        cost_per_unit = values["cost"] / [s.costs.backhaul_unit_cost for s in batch]
        cells = np.column_stack([*values.values(), cost_per_unit, *errors.values(),
                                 columns.rho]).tolist()
        template = {**heads[index[0]], **_ANALYTIC_ROW}  # a block's heads share their keys
        for b, failure, row_cells in zip(index, columns.failures, cells):
            if failure is None:
                rows[b] = row = template.copy()
                row.update(heads[b])
                row.update(zip(names, row_cells))
            else:
                rows[b] = {**heads[b], **_error_row("analytic", failure)}
    return rows


def _mc_row(scenario: ScenarioConfig, workers: int) -> dict:
    """The Monte Carlo row dict of ``scenario``."""
    try:
        report = run_simulation(scenario, workers=workers)
    except (QuadratureError, ValueError) as exc:
        return _error_row("mc", str(exc))
    row = {"engine": "mc", "status": "ok", "error": "", **_BLANK_CELLS}
    row.update((name, getattr(report, name)) for name in _BLANK_CELLS
               if hasattr(report, name))
    row["cost_over_backhaul_unit"] = report.cost / scenario.costs.backhaul_unit_cost
    row.update((f"se_{k}", v) for k, v in report.stderr.items() if f"se_{k}" in row)
    row.update((f"rho_{i}", rho) for i, rho in enumerate(report.per_tier_coverage_density, 1))
    return row


def _cells(path, value) -> dict:
    """The row cells of one axis value; a tuple of paths takes a tuple of values."""
    return {path: value} if isinstance(path, str) else dict(zip(path, value))


def _set_point(scenario: ScenarioConfig, path, value) -> ScenarioConfig:
    for name, v in _cells(path, value).items():
        scenario = set_parameter(scenario, name, v)
    return scenario


def _grid_rows(scenario: ScenarioConfig, axes, engines: tuple, workers: int,
               cache: _SweepCache | None = None, point: dict | None = None):
    """Yield the rows of every point of the product of ``axes``, in grid order.

    ``axes`` is an ordered sequence of (path, grid) pairs; the last varies
    fastest, and no axes means the one point ``scenario``. A path may be a
    tuple of paths, set together, in order, from a grid of tuples. Each
    point yields one row per engine of ``engines``, in that order; a row's
    first cells are the point's values, one per path. Each point is built
    from the deepest prefix it shares with the previous one, as nested
    loops would: ``set_parameter`` runs once per changed value, in path
    order. The points of one innermost grid form a block whose analytic
    rows are scored in one batch. A block's points differ from the scenario
    they are built from only in the fields their path reaches (the rule is
    ``scenario._reaches``), so the batch is told that path (``_reach``): it
    reads every other field once, and a block whose path reaches no field
    of ``scenario._COVERAGE_FIELDS`` takes one coverage table. Failed
    rows are yielded with status ``error``; a bad parameter value raises
    where it is set, after the rows of its block before it.
    """
    cache = _SweepCache() if cache is None else cache
    point = {} if point is None else point
    path, grid = axes[0] if axes else ((), ((),))
    if len(axes) > 1:
        for value in grid:
            yield from _grid_rows(_set_point(scenario, path, value), axes[1:], engines,
                                  workers, cache, {**point, **_cells(path, value)})
        return
    scenarios, failure = [], None
    for value in grid:
        try:
            scenarios.append(_set_point(scenario, path, value))
        except (ValueError, TypeError) as exc:  # raised once the rows before it are out
            failure = exc
            break
    heads = [{**point, **_cells(path, value)} for value, _ in zip(grid, scenarios)]
    blocks = [_analytic_rows(scenarios, cache, heads, _reach(path)) if engine == "analytic"
              else [{**h, **_mc_row(s, workers)} for h, s in zip(heads, scenarios)]
              for engine in engines]
    for rows in zip(*blocks):
        yield from rows
    if failure is not None:
        raise failure


def _plan(variables: dict, engine: str):
    """The axes of ``variables``, in order, and the engines named by ``engine``."""
    if engine not in _ENGINES:
        raise ValueError(f"engine must be one of {sorted(_ENGINES)}, not {engine!r}")
    axes = [(path, tuple(grid)) for path, grid in variables.items()]
    for path, grid in axes:
        if not grid:
            raise ConfigError(path if isinstance(path, str) else ", ".join(path),
                              "grid must be non-empty")
    return axes, _ENGINES[engine]


def _point(row: dict, paths) -> dict:
    """The grid point of ``row``: its cell of every path, a tuple's path by path."""
    return {name: row[name] for path in paths
            for name in ((path,) if isinstance(path, str) else path)}


def run_experiment(config: ScenarioConfig, variables: dict, engine: str = "analytic",
                   out_path=None, workers: int = 1):
    """Evaluate every point of the grid of ``variables`` with ``engine``.

    ``variables`` maps each axis, a path or a tuple of paths, to its grid;
    no axes means the one point ``config``. ``engine`` is ``analytic``,
    ``mc`` or ``both``. Returns the rows in grid order (one per grid point
    per engine, analytic first) and, when ``out_path`` is given, persists
    them as CSV plus a metadata sidecar. Rows that fail keep the run going;
    their status column reads ``error``.
    """
    axes, engines = _plan(variables, engine)
    rows = list(_grid_rows(config, axes, engines, workers))
    if out_path is not None:
        write_csv(rows, out_path, config)
    return rows


def grid_search(config: ScenarioConfig, variables: dict,
                engine: str = "analytic", workers: int = 1) -> GridSearchResult:
    """Exhaustive search for the caching-efficiency maximizer.

    ``variables`` maps 1 to 3 axes to grids, as for ``run_experiment``,
    and ``engine`` is ``analytic`` or ``mc``. Points are visited in grid
    order and ties keep the first maximizer; the best point holds one value
    per path. Points share a coverage table where they agree on the fields
    it reads (``scenario._COVERAGE_FIELDS``), so cache- and content-side
    searches cost one quadrature pass total; the tables share exponent
    tables, one per tier radio whatever its threshold.
    """
    if not 1 <= len(variables) <= 3:
        raise ConfigError("search", f"supports 1 to 3 variables, not {len(variables)}")
    axes, engines = _plan(variables, engine)
    if len(engines) > 1:
        raise ValueError("grid search uses a single engine")
    best_point = None
    best_eta = -np.inf
    surface = []
    for row in _grid_rows(config, axes, engines, workers):
        surface.append(row)
        if row["status"] != "ok":
            raise QuadratureError(
                f"grid point {_point(row, variables)} failed: {row['error']}")
        if row["efficiency"] > best_eta:
            best_eta = row["efficiency"]
            best_point = _point(row, variables)
    return GridSearchResult(best_point=best_point, best_efficiency=best_eta,
                            surface=tuple(surface))


def _fmt(value) -> str:
    if value is None or value == "":
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


def write_csv(rows, out_path, config: ScenarioConfig | None = None) -> None:
    """Persist rows as CSV (stable column order) plus a ``.meta.json`` sidecar."""
    columns = list(dict.fromkeys(key for row in rows for key in row))
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(_fmt(row.get(col, "")) for col in columns))
    text = "\n".join(lines) + "\n"
    with open(out_path, "w", encoding="utf-8") as fh:
        fh.write(text)
    meta = {
        "schema_version": CSV_SCHEMA_VERSION,
        "engine_version": __version__,
        "numpy_version": np.__version__,
    }
    if config is not None:
        meta["config_hash"] = config.fingerprint()
        meta["master_seed"] = config.protocol.master_seed
    with open(str(out_path) + ".meta.json", "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")


# --- canned experiments ------------------------------------------------------

PRESET_NAMES = ("fig1", "fig2", "fig3", "fig4", "fig5")


class _Preset(NamedTuple):
    """One canned experiment: a grid over the caller's config, run by
    ``_grid_rows``. A callable grid is made from the config. With
    ``efficiency_ratio`` each row also gets its efficiency over that of
    its baseline: the row of the same engine at its point of the grid
    without the last axis."""

    axes: tuple
    engines: tuple = ("analytic",)
    efficiency_ratio: bool = False


_PRESETS = {
    # fig1: analytic coverage bound next to Monte Carlo coverage vs threshold
    "fig1": _Preset((("tiers[2].radio.sir_threshold", (0.5, 1.0, 2.0, 3.0, 4.0, 6.0, 8.0)),),
                    engines=("analytic", "mc")),
    # fig2: backhaul use, hit ratio, ASE, cost and efficiency vs small-cell density
    "fig2": _Preset((("content.popularity_exponent", (0.5, 1.0, 1.5)),
                     ("tiers[2].density", np.logspace(-4, 2, 13)))),
    # fig3: efficiency over the (MPC fraction tier 1, MPC fraction tier 2) grid
    "fig3": _Preset((("content.popularity_exponent", (0.5, 1.0, 1.5)),
                     ("tiers[1].cache.mpc_fraction", (0.0, 0.25, 0.5, 0.75, 1.0)),
                     ("tiers[2].cache.mpc_fraction", (0.0, 0.25, 0.5, 0.75, 1.0)))),
    # fig4: efficiency vs small-cell cache size for several macro cache sizes
    "fig4": _Preset((("tiers[2].density", (1e-1, 1e2)),
                     ("content.popularity_exponent", (0.5, 1.2)),
                     ("tiers[1].cache.cache_size", (10, 20, 50, 80)),
                     ("tiers[2].cache.cache_size",
                      lambda config: range(1, config.content.library_size + 1, 3)))),
    # fig5: efficiency under macro-favoring bias (rho_1 = 1 - rho_2), over the
    # unbiased efficiency at each density. Cache slots cost a tenth of the
    # usual default, the regime where biasing can pay at moderate densities.
    "fig5": _Preset((("costs.cache_unit_cost",
                      lambda config: (0.001 * config.costs.backhaul_unit_cost,)),
                     ("tiers[2].density", (1e-2, 1e-1, 1.0, 1e2)),
                     (("tiers[1].rho", "tiers[2].rho"),
                      tuple((1.0 - rho2, rho2) for rho2 in np.arange(0.05, 1.0, 0.05)))),
                    efficiency_ratio=True),
}


def run_preset(name: str, config: ScenarioConfig, out_path=None, workers: int = 1):
    """Run one canned experiment and optionally persist its rows."""
    if name not in _PRESETS:
        raise ConfigError("preset", f"unknown preset {name!r}; choose from {PRESET_NAMES}")
    preset = _PRESETS[name]
    axes = [(path, grid(config) if callable(grid) else grid) for path, grid in preset.axes]
    cache = _SweepCache()
    rows = list(_grid_rows(config, axes, preset.engines, workers, cache))
    if preset.efficiency_ratio:
        baselines = list(_grid_rows(config, axes[:-1], preset.engines, workers, cache))
        engines, last = len(preset.engines), len(axes[-1][1])
        for k, row in enumerate(rows):
            base = baselines[k // (last * engines) * engines + k % engines]
            ok = row["status"] == "ok" and base["status"] == "ok"
            row["efficiency_ratio"] = row["efficiency"] / base["efficiency"] if ok else ""
    if out_path is not None:
        write_csv(rows, out_path, config)
    return rows
