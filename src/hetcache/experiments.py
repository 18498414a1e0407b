"""Parameter sweeps, grid search, canned experiments, and CSV persistence.

A grid maps each axis, a parameter path (``scenario.set_parameter``) or a
tuple of paths set together such as ``("tiers[1].rho", "tiers[2].rho")``,
to its values.

One driver, ``_grid_rows``, turns every run, sweep, grid search and canned
experiment into rows: one per grid point per engine. The points of an
innermost grid are one block (``scenario.Block``), scored together. Where
``scenario._column`` checks every path's values, a block is a base scenario
and a column per path, and a point is built only where read; any other
block sets its points at once. The canned experiments (``PRESET_NAMES``)
are data, a table of axes and an engine. Result rows are flattened metric
reports; float cells are printed with 17 significant digits so a fixed
config and seed reproduce byte-identical CSV files. A sidecar
``<out>.meta.json`` records the config hash, seed, and engine versions.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import __version__
from .analytic import CoverageTable, build_coverage_table
from .metrics import METRIC_NAMES, analytic_columns
# Grid rows do not call it; perfbench/tracing.py wraps it at this lookup site.
from .metrics import analytic_report  # noqa: F401
from .montecarlo import run_simulation
from .quadrature import QuadratureError
# ``_set_point`` calls ``set_parameter`` by this module's name, which
# perfbench/tracing.py wraps.
from .scenario import _COVERAGE_FIELDS, Block, ConfigError, ScenarioConfig, set_parameter

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


# Every metric cell of a row, blank, in row order: the metrics, their
# Monte Carlo standard errors, their analytic error estimates.
_BLANK_CELLS = dict.fromkeys([
    "p_hit", "p_bh", "p_bh_operational", "coverage_all_bs",
    "ase", "cost", "cost_over_backhaul_unit", "efficiency",
    *(f"se_{name}" for name in METRIC_NAMES), *(f"err_{name}" for name in METRIC_NAMES)], "")


def _error_row(engine: str, message: str) -> dict:
    return {"engine": engine, "status": "error", "error": message, **_BLANK_CELLS}


# The cells every ok analytic row shares, in row order.
_ANALYTIC_ROW = {"engine": "analytic", "status": "ok", "error": "", **_BLANK_CELLS,
                 "p_bh_operational": None, "coverage_all_bs": None}


def _analytic_rows(block, cache: dict, heads) -> list:
    """Analytic rows of the points of ``block`` (a ``scenario.Block``), in
    order, each opening with its ``heads``.

    The coverage tables are ``build_coverage_table``'s, on the sweep's store
    ``cache``, of the scenarios ``block.scenarios`` gives for
    ``_COVERAGE_FIELDS``: one per point, or the base's alone, which has the
    points' key, for all. The block, even a whole cache axis, is one
    ``analytic_columns`` call on the store. A row whose table fails (scored
    on zero densities, its cells dropped) or whose cost is zero is an error."""
    tables = build_coverage_table(block.scenarios(_COVERAGE_FIELDS), cache)
    tables *= len(block) // len(tables)
    zero = CoverageTable(*[(0.0,) * block.base.num_tiers] * 2)
    columns = analytic_columns(block, [zero if isinstance(t, Exception) else t for t in tables],
                               store=cache)
    values, errors = columns.values, columns.error_estimates
    names = [*values, "cost_over_backhaul_unit", *(f"err_{k}" for k in errors),
             *(f"rho_{i}" for i in range(1, columns.rho.shape[1] + 1))]
    cost_per_unit = values["cost"] / block.column(("costs", "backhaul_unit_cost"))
    cells = np.column_stack([*values.values(), cost_per_unit, *errors.values(),
                             columns.rho]).tolist()
    template = {**heads[0], **_ANALYTIC_ROW}  # a block's heads share their keys
    rows = []
    for head, table, failure, row_cells in zip(heads, tables, columns.failures, cells):
        error = str(table) if isinstance(table, Exception) else failure
        if error is None:
            rows.append(row := template.copy())
            row.update(head)
            row.update(zip(names, row_cells))
        else:
            rows.append({**head, **_error_row("analytic", error)})
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


def _set_point(scenario: ScenarioConfig, paths: tuple, values: tuple) -> ScenarioConfig:
    for path, value in zip(paths, values):
        scenario = set_parameter(scenario, path, value)
    return scenario


def _grid_rows(scenario: ScenarioConfig, axes, engines: tuple, workers: int,
               cache: dict | None = None, point: dict | None = None):
    """Yield the rows of every point of the product of ``axes``, in grid order.

    ``axes`` are ``_plan``'s (paths, grid) pairs; the last varies fastest,
    and no axes means the one point ``scenario``. Each point yields one row
    per engine of ``engines``, in that order; a row's first cells are the
    point's values, one per path. Each point of an outer axis is built from
    the deepest prefix it shares with the previous one, as nested loops
    would: ``set_parameter`` runs once per changed value, in path order.
    The points of one innermost grid form a block (``scenario.Block``).
    Where ``scenario._column`` checks each path's values (a number leaf of a
    record that ``check_fields`` alone checks), it is their base scenario
    and one column of values per path, and a point's scenario is built only
    where it is read: by the Monte Carlo engine, and by the stages whose
    fields the paths reach (``Block.scenarios``), the coverage tables (else
    the block takes one) and ``metrics._gather``'s density unit, rates and
    content models. Any other block sets its points with
    ``set_parameter`` at once. Every block reads and fills one table store,
    ``cache`` (``build_coverage_table``'s and ``metrics._gather``'s; a new
    one if None), so a sweep builds each table once. Failed rows are
    yielded with status ``error``; a bad parameter value raises with
    ``set_parameter``'s own error, before its block is scored.
    """
    cache = {} if cache is None else cache
    point = {} if point is None else point
    paths, grid = axes[0] if axes else ((), ((),))
    if len(axes) > 1:
        for values in grid:
            yield from _grid_rows(_set_point(scenario, paths, values), axes[1:], engines,
                                  workers, cache, {**point, **dict(zip(paths, values))})
        return
    block = Block(scenario, paths, grid, _set_point)
    heads = [{**point, **dict(zip(paths, values))} for values in grid]
    blocks = [_analytic_rows(block, cache, heads) if engine == "analytic"
              else [{**h, **_mc_row(s, workers)} for h, s in zip(heads, block.points)]
              for engine in engines]
    for rows in zip(*blocks):
        yield from rows


def _plan(variables: dict, engine: str):
    """The axes of ``variables`` as ``(paths, grid)`` pairs, in order, and
    the engines named by ``engine``. A path alone is a tuple of one, and a
    grid value must hold one value per path. A bad value raises where
    ``_grid_rows`` sets it, before its block is scored."""
    if engine not in _ENGINES:
        raise ValueError(f"engine must be one of {sorted(_ENGINES)}, not {engine!r}")
    axes = [((path,), tuple((value,) for value in grid)) if isinstance(path, str)
            else (tuple(path), tuple(map(tuple, grid))) for path, grid in variables.items()]
    for paths, grid in axes:
        if not grid:
            raise ConfigError(", ".join(paths), "grid must be non-empty")
        for values in grid:
            if len(values) != len(paths):
                raise ConfigError(", ".join(paths),
                                  f"grid value {values!r} does not hold one value per path")
    return axes, _ENGINES[engine]


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

    def point(row):
        return {path: row[path] for paths, _ in axes for path in paths}

    best_point = None
    best_eta = -np.inf
    surface = []
    for row in _grid_rows(config, axes, engines, workers):
        surface.append(row)
        if row["status"] != "ok":
            raise QuadratureError(f"grid point {point(row)} failed: {row['error']}")
        if row["efficiency"] > best_eta:
            best_eta = row["efficiency"]
            best_point = point(row)
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
    """One canned experiment: a grid over the caller's config and its engine,
    named as for ``run_experiment``. A callable grid is made from the
    config. With ``efficiency_ratio`` each row also gets its efficiency over
    that of its baseline: the row of the same engine at its point of the
    grid without the last axis."""

    axes: tuple
    engine: str = "analytic"
    efficiency_ratio: bool = False


_PRESETS = {
    # fig1: analytic coverage bound next to Monte Carlo coverage vs threshold
    "fig1": _Preset((("tiers[2].radio.sir_threshold", (0.5, 1.0, 2.0, 3.0, 4.0, 6.0, 8.0)),),
                    engine="both"),
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
    """Run one canned experiment and optionally persist its rows; as in
    ``run_experiment``, a bad value raises before its block is scored."""
    if name not in _PRESETS:
        raise ConfigError("preset", f"unknown preset {name!r}; choose from {PRESET_NAMES}")
    preset = _PRESETS[name]
    axes, engines = _plan({path: grid(config) if callable(grid) else grid
                           for path, grid in preset.axes}, preset.engine)
    cache = {}
    rows = list(_grid_rows(config, axes, engines, workers, cache))
    if preset.efficiency_ratio:
        baselines = list(_grid_rows(config, axes[:-1], engines, workers, cache))
        width, last = len(engines), len(axes[-1][1])
        for k, row in enumerate(rows):
            base = baselines[k // (last * width) * width + k % width]
            ok = row["status"] == "ok" and base["status"] == "ok" and base["efficiency"] != 0.0
            row["efficiency_ratio"] = row["efficiency"] / base["efficiency"] if ok else ""
    if out_path is not None:
        write_csv(rows, out_path, config)
    return rows
