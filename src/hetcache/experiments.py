"""Parameter sweeps, grid search, canned experiments, and CSV persistence.

Swept parameters are addressed by dotted paths into the scenario, with
1-based tier indices matching the usual tier numbering:

    tiers[2].density            tiers[1].cache.cache_size
    tiers[2].radio.sir_threshold tiers[*].rho
    content.popularity_exponent  costs.cache_unit_cost

``tiers[*]`` applies the value to every tier. Result rows are flattened
metric reports; float cells are printed with 17 significant digits so a
fixed config and seed reproduce byte-identical CSV files. A sidecar
``<out>.meta.json`` records the config hash, seed, and engine versions.
"""
from __future__ import annotations

import dataclasses
import json
import re
from dataclasses import dataclass

import numpy as np

from . import __version__
from .analytic import build_coverage_table
from .metrics import MetricReport, analytic_report
from .montecarlo import run_simulation
from .quadrature import QuadratureError
from .scenario import _INT_FIELDS, ConfigError, ScenarioConfig

__all__ = [
    "SweepSpec",
    "GridSearchResult",
    "set_parameter",
    "get_parameter",
    "run_experiment",
    "grid_search",
    "run_preset",
    "write_csv",
    "PRESET_NAMES",
    "CSV_SCHEMA_VERSION",
]

CSV_SCHEMA_VERSION = 1

_ENGINES = {"analytic": "analytic", "mc": "mc", "monte-carlo": "mc", "both": "both"}

_METRIC_COLUMNS = [
    "coverage", "bound_value", "p_hit", "p_bh", "p_bh_operational",
    "coverage_all_bs", "ase", "cost", "cost_over_backhaul_unit", "efficiency",
]
_SE_COLUMNS = ["se_coverage", "se_p_hit", "se_p_bh", "se_ase", "se_cost",
               "se_efficiency"]
_ERR_COLUMNS = ["err_coverage", "err_p_hit", "err_p_bh", "err_ase", "err_cost",
                "err_efficiency"]


@dataclass(frozen=True)
class SweepSpec:
    """One swept parameter: a path into the scenario plus its value grid."""

    parameter_path: str
    grid: tuple
    engine: str = "analytic"

    def __post_init__(self):
        if len(self.grid) == 0:
            raise ValueError("sweep grid must be non-empty")
        if self.engine not in _ENGINES:
            raise ValueError(f"engine must be one of {sorted(_ENGINES)}")


@dataclass(frozen=True)
class GridSearchResult:
    """Argmax point, its efficiency, and the full evaluated surface."""

    best_point: dict
    best_efficiency: float
    surface: tuple


_PATH_RE = re.compile(r"^tiers\[(\d+|\*)\]\.(.+)$")


def _coerce_value(field_name: str, value):
    if field_name in _INT_FIELDS:
        as_float = float(value)
        if not as_float.is_integer():
            raise ConfigError(field_name, "expected an integer value")
        return int(as_float)
    return float(value)


def _replace_tier(scenario: ScenarioConfig, index: int, rest: str, value):
    tier = scenario.tiers[index]
    parts = rest.split(".")
    try:
        if parts[0] in ("density", "rho") and len(parts) == 1:
            new_tier = dataclasses.replace(tier, **{parts[0]: float(value)})
        elif parts[0] == "radio" and len(parts) == 2:
            radio = dataclasses.replace(
                tier.radio, **{parts[1]: _coerce_value(parts[1], value)})
            new_tier = dataclasses.replace(tier, radio=radio)
        elif parts[0] == "cache" and len(parts) == 2:
            cache = dataclasses.replace(
                tier.cache, **{parts[1]: _coerce_value(parts[1], value)})
            new_tier = dataclasses.replace(tier, cache=cache)
        else:
            raise ConfigError(rest, "unknown tier parameter path")
    except TypeError as exc:  # unknown dataclass field
        raise ConfigError(rest, str(exc)) from exc
    tiers = list(scenario.tiers)
    tiers[index] = new_tier
    return dataclasses.replace(scenario, tiers=tuple(tiers))


def set_parameter(scenario: ScenarioConfig, path: str, value) -> ScenarioConfig:
    """Return a copy of ``scenario`` with the addressed parameter replaced."""
    m = _PATH_RE.match(path)
    if m:
        rest = m.group(2)
        if m.group(1) == "*":
            for i in range(scenario.num_tiers):
                scenario = _replace_tier(scenario, i, rest, value)
            return scenario
        index = int(m.group(1)) - 1
        if not 0 <= index < scenario.num_tiers:
            raise ConfigError(path, f"tier index out of range 1..{scenario.num_tiers}")
        return _replace_tier(scenario, index, rest, value)
    parts = path.split(".")
    if len(parts) == 2 and parts[0] in ("content", "costs", "protocol", "integration"):
        section = getattr(scenario, parts[0])
        try:
            replaced = dataclasses.replace(
                section, **{parts[1]: _coerce_value(parts[1], value)})
            return dataclasses.replace(scenario, **{parts[0]: replaced})
        except TypeError as exc:
            raise ConfigError(path, str(exc)) from exc
    if len(parts) == 1 and parts[0] == "rate_log_base":
        return dataclasses.replace(scenario, rate_log_base=float(value))
    raise ConfigError(path, "parameter path does not resolve")


def get_parameter(scenario: ScenarioConfig, path: str):
    """Read the parameter addressed by ``path``."""
    m = _PATH_RE.match(path)
    if m:
        if m.group(1) == "*":
            raise ConfigError(path, "cannot read a wildcard path")
        tier = scenario.tiers[int(m.group(1)) - 1]
        node = tier
        for part in m.group(2).split("."):
            node = getattr(node, part)
        return node
    node = scenario
    try:
        for part in path.split("."):
            node = getattr(node, part)
    except AttributeError as exc:
        raise ConfigError(path, "parameter path does not resolve") from exc
    return node


def _report_cells(report: MetricReport | None) -> dict:
    cells = dict.fromkeys(_METRIC_COLUMNS + _SE_COLUMNS + _ERR_COLUMNS
                          + ["provenance"], "")
    if report is None:
        return cells
    cells["provenance"] = report.provenance
    for name in ("coverage", "p_hit", "p_bh", "ase", "cost", "efficiency"):
        cells[name] = getattr(report, name)
    cells["bound_value"] = report.bound_value
    cells["p_bh_operational"] = report.p_bh_operational
    cells["coverage_all_bs"] = report.coverage_all_bs
    for i, rho in enumerate(report.per_tier_coverage_density, start=1):
        cells[f"rho_{i}"] = rho
    if report.stderr:
        for key, value in report.stderr.items():
            if f"se_{key}" in _SE_COLUMNS:
                cells[f"se_{key}"] = value
    if report.error_estimates:
        for key, value in report.error_estimates.items():
            if f"err_{key}" in _ERR_COLUMNS:
                cells[f"err_{key}"] = value
    return cells


@dataclass
class _SweepCache:
    """Coverage tables of one sweep, the exponent tables they share, and
    the content vectors its reports share (``analytic_report``'s ``memo``).

    One lives for one sweep, grid search or preset call, so every call
    pays for its own tabulation and no state outlives it.
    """

    tables: dict = dataclasses.field(default_factory=dict)
    exponents: dict = dataclasses.field(default_factory=dict)
    vectors: dict = dataclasses.field(default_factory=dict)


def _evaluate_row(scenario: ScenarioConfig, engine: str, workers: int,
                  cache: _SweepCache | None = None):
    """One (grid point, engine) evaluation -> row dict."""
    row = {"engine": engine, "status": "ok", "error": ""}
    if cache is None:
        cache = _SweepCache()
    try:
        if engine == "analytic":
            key = scenario.radio_fingerprint()
            table = cache.tables.get(key)
            if table is None:
                table = build_coverage_table(scenario, exponents=cache.exponents)
                cache.tables[key] = table
            report = analytic_report(scenario, table=table, memo=cache.vectors)
        else:
            report = run_simulation(scenario, workers=workers)
        cells = _report_cells(report)
        cells["cost_over_backhaul_unit"] = (
            report.cost / scenario.costs.backhaul_unit_cost)
        row.update(cells)
    except (QuadratureError, ValueError) as exc:
        row["status"] = "error"
        row["error"] = str(exc)
        row.update(_report_cells(None))
    return row


def run_experiment(config: ScenarioConfig, sweep: SweepSpec,
                   engines: str | None = None, out_path=None,
                   workers: int = 1):
    """Evaluate every grid point with the selected engine(s).

    Returns the rows in grid order (one per grid point per engine) and, when
    ``out_path`` is given, persists them as CSV plus a metadata sidecar.
    Rows that fail keep the run going; their status column reads ``error``.
    """
    engine = _ENGINES[engines if engines is not None else sweep.engine]
    engine_list = ["analytic", "mc"] if engine == "both" else [engine]
    cache = _SweepCache()
    rows = []
    for value in sweep.grid:
        scenario = set_parameter(config, sweep.parameter_path, value)
        for eng in engine_list:
            row = {sweep.parameter_path: value}
            row.update(_evaluate_row(scenario, eng, workers, cache))
            rows.append(row)
    if out_path is not None:
        write_csv(rows, out_path, config)
    return rows


def _grid_rows(scenario: ScenarioConfig, axes, engine: str, workers: int,
               cache: _SweepCache, point: dict | None = None):
    """Yield one row per point of the product of ``axes``, in grid order.

    ``axes`` is an ordered sequence of (path, grid) pairs; the last varies
    fastest. Each point is built from the deepest prefix it shares with
    the previous one, as nested loops would: ``set_parameter`` runs once
    per changed value, in path order. Failed rows are yielded with status
    ``error``; a bad parameter value raises where it is set.
    """
    point = {} if point is None else point
    if len(point) == len(axes):
        row = dict(point)
        row.update(_evaluate_row(scenario, engine, workers, cache))
        yield row
        return
    path, grid = axes[len(point)]
    for value in grid:
        yield from _grid_rows(set_parameter(scenario, path, value), axes, engine,
                              workers, cache, {**point, path: value})


def grid_search(config: ScenarioConfig, variables: dict,
                engine: str = "analytic", workers: int = 1) -> GridSearchResult:
    """Exhaustive search for the caching-efficiency maximizer.

    ``variables`` maps parameter paths to grids (at most 3 paths). Points
    are visited in lexicographic grid order and ties keep the first (i.e.
    lexicographically smallest) maximizer. Coverage tables are reused
    across points that share radio-side parameters, so cache- and
    content-side searches cost one quadrature pass total; every table of
    the search shares one set of interference-exponent tables, and every
    report one set of content vectors.
    """
    if not 1 <= len(variables) <= 3:
        raise ValueError("grid search supports 1 to 3 variables")
    eng = _ENGINES[engine]
    if eng == "both":
        raise ValueError("grid search uses a single engine")
    axes = [(path, tuple(grid)) for path, grid in variables.items()]
    if any(len(grid) == 0 for _, grid in axes):
        raise ValueError("grids must be non-empty")
    best_point = None
    best_eta = -np.inf
    surface = []
    for row in _grid_rows(config, axes, eng, workers, _SweepCache()):
        surface.append(row)
        point = {path: row[path] for path in variables}
        if row["status"] != "ok":
            raise QuadratureError(f"grid point {point} failed: {row['error']}")
        if row["efficiency"] > best_eta:
            best_eta = row["efficiency"]
            best_point = point
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
    columns = []
    for row in rows:
        for key in row:
            if key not in columns:
                columns.append(key)
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


def _preset_fig1(config, workers):
    """Analytic coverage bound next to Monte Carlo coverage over a threshold grid."""
    sweep = SweepSpec("tiers[2].radio.sir_threshold",
                      (0.5, 1.0, 2.0, 3.0, 4.0, 6.0, 8.0), engine="both")
    return run_experiment(config, sweep, workers=workers)


def _preset_fig5(config, workers):
    """Efficiency ratio under macro-favoring bias (rho_1 = 1 - rho_2).

    Cache slots are priced at a tenth of the usual default here, the regime
    where biasing can pay off at moderate densities.
    """
    rows = []
    cache = _SweepCache()
    cheap = set_parameter(config, "costs.cache_unit_cost",
                          0.001 * config.costs.backhaul_unit_cost)
    for lam2 in (1e-2, 1e-1, 1.0, 1e2):
        base = set_parameter(cheap, "tiers[2].density", lam2)
        baseline = _evaluate_row(base, "analytic", workers, cache)
        for rho2 in np.arange(0.05, 1.0, 0.05):
            scenario = set_parameter(base, "tiers[1].rho", 1.0 - rho2)
            scenario = set_parameter(scenario, "tiers[2].rho", rho2)
            row = {"tiers[2].density": lam2, "rho_2": round(float(rho2), 10)}
            row.update(_evaluate_row(scenario, "analytic", workers, cache))
            if row["status"] == "ok" and baseline["status"] == "ok":
                row["efficiency_ratio"] = row["efficiency"] / baseline["efficiency"]
            else:
                row["efficiency_ratio"] = ""
            rows.append(row)
    return rows


# Presets that are one analytic grid over the caller's config: ordered
# (path, grid) axes, run by ``_grid_rows``. A callable grid is made from
# the config.
_GRID_PRESETS = {
    # fig2: backhaul use, hit ratio, ASE, cost and efficiency vs small-cell density
    "fig2": (("content.popularity_exponent", (0.5, 1.0, 1.5)),
             ("tiers[2].density", np.logspace(-4, 2, 13))),
    # fig3: efficiency over the (MPC fraction tier 1, MPC fraction tier 2) grid
    "fig3": (("content.popularity_exponent", (0.5, 1.0, 1.5)),
             ("tiers[1].cache.mpc_fraction", (0.0, 0.25, 0.5, 0.75, 1.0)),
             ("tiers[2].cache.mpc_fraction", (0.0, 0.25, 0.5, 0.75, 1.0))),
    # fig4: efficiency vs small-cell cache size for several macro cache sizes
    "fig4": (("tiers[2].density", (1e-1, 1e2)),
             ("content.popularity_exponent", (0.5, 1.2)),
             ("tiers[1].cache.cache_size", (10, 20, 50, 80)),
             ("tiers[2].cache.cache_size",
              lambda config: range(1, config.content.library_size + 1, 3))),
}


def run_preset(name: str, config: ScenarioConfig, out_path=None, workers: int = 1):
    """Run one canned experiment and optionally persist its rows."""
    if name in _GRID_PRESETS:
        axes = [(path, grid(config) if callable(grid) else grid)
                for path, grid in _GRID_PRESETS[name]]
        rows = list(_grid_rows(config, axes, "analytic", workers, _SweepCache()))
    elif name == "fig1":
        rows = _preset_fig1(config, workers)
    elif name == "fig5":
        rows = _preset_fig5(config, workers)
    else:
        raise ConfigError("preset", f"unknown preset {name!r}; choose from {PRESET_NAMES}")
    if out_path is not None:
        write_csv(rows, out_path, config)
    return rows
