"""Sweeps, grid search, CSV persistence, presets."""
import dataclasses
import json
import math
import re

import numpy as np
import pytest

from hetcache import analytic, experiments
from hetcache.analytic import ExponentTable, build_coverage_table
from hetcache.cli import main
from hetcache.experiments import (_grid_rows, _SweepCache, grid_search,
                                  run_experiment, run_preset, set_parameter,
                                  write_csv)
from hetcache.metrics import (UndefinedEfficiencyError, analytic_columns,
                              analytic_report, caching_efficiency)
from hetcache.scenario import (_COVERAGE_FIELDS, _EXPONENT_FIELDS, ConfigError,
                               SimulationProtocol, _reaches, _stage_key,
                               default_scenario, scenario_to_mapping)


def desk_config(snapshots=150, radius=5000.0, seed=7):
    s = default_scenario()
    return dataclasses.replace(s, protocol=SimulationProtocol(
        num_snapshots=snapshots, region_radius=radius, master_seed=seed))


def test_set_parameter_paths():
    s = default_scenario()
    assert set_parameter(s, "tiers[2].density", 3.5).tiers[1].density == 3.5
    assert set_parameter(s, "tiers[1].cache.cache_size", 7).tiers[0].cache.cache_size == 7
    assert set_parameter(s, "tiers[2].radio.sir_threshold",
                         1.5).tiers[1].radio.sir_threshold == 1.5
    assert set_parameter(s, "content.popularity_exponent",
                         0.9).content.popularity_exponent == 0.9
    both = set_parameter(s, "tiers[*].rho", 0.5)
    assert both.tiers[0].rho == 0.5 and both.tiers[1].rho == 0.5


@pytest.mark.parametrize("path, value, reason", [
    ("tiers[0].density", 1.0, "tier index out of range 1..2"),
    ("tiers[3].density", 1.0, "tier index out of range 1..2"),
    # a tier needs its index; an index is a number or *; a property is not
    # a field, and a float has no fields
    *((path, 1.0, "parameter path does not resolve") for path in (
        "tiers.density", "tiers[x].density", "tiers[1].antenna",
        "tiers[1].radio.antenna_gain", "tiers[1].effective_threshold",
        "tiers[1].density.real", "content.nothing", "nonsense.path")),
    ("tiers[1].cache.cache_size", 2.5, "expected an integer value"),
])
def test_set_parameter_bad_paths(path, value, reason):
    with pytest.raises(ConfigError) as info:
        set_parameter(default_scenario(), path, value)
    assert str(info.value) == f"{path}: {reason}"


@pytest.mark.parametrize("path, bad", [
    ("tiers[2].density", math.nan), ("tiers[2].density", math.inf),
    ("tiers[*].density", -1.0), ("costs.cache_unit_cost", math.nan),
    ("costs.cache_unit_cost", math.inf), ("protocol.master_seed", -1),
    ("tiers[*].rho", 1.5), ("costs.backhaul_unit_cost", math.inf),
    ("rate_log_base", math.inf), ("integration.rel_tol", math.inf),
    ("integration.abs_tol", math.inf), ("integration.outer_truncation_radius", math.inf),
    ("protocol.region_radius", math.inf), ("tiers[1].radio.tx_power", math.inf),
    ("tiers[2].radio.near_field_dist", math.inf), ("tiers[2].radio.far_field_dist", math.nan),
    ("tiers[2].radio.sir_threshold", math.inf), ("tiers[2].radio.intercept_nlos", 0.0),
    ("tiers[1].cache.mpc_fraction", 2.0), ("content.library_size", 0),
    ("tiers[2].radio.pathloss_exp_los", 5.0), ("tiers[2].cache.cache_size", 200),
    ("tiers[2].rho", 0.0), ("tiers[2].rho", -0.5),
    ("protocol.content_evaluation", "sampled"),
])
def test_set_parameter_rejects_out_of_range(path, bad):
    with pytest.raises(ConfigError, match=f"^{re.escape(path)}: must be "):
        set_parameter(default_scenario(), path, bad)


def test_degenerate_sweep_equals_direct_call():
    s = default_scenario()
    rows = run_experiment(s, {"tiers[2].density": (10.0,)})
    assert len(rows) == 1
    direct = analytic_report(s)
    assert rows[0]["efficiency"] == pytest.approx(direct.efficiency, rel=1e-12)
    assert rows[0]["p_hit"] == pytest.approx(direct.p_hit, rel=1e-12)
    assert rows[0]["status"] == "ok"


def test_sweep_rows_in_grid_order_both_engines():
    # 20 km region: the LOS tail reaches km scales, smaller disks bias MC up
    s = desk_config(snapshots=150, radius=20000.0)
    grid = (5.0, 10.0)
    rows = run_experiment(s, {"tiers[2].density": grid}, engine="both")
    assert len(rows) == 4
    assert [r["tiers[2].density"] for r in rows] == [5.0, 5.0, 10.0, 10.0]
    assert [r["engine"] for r in rows] == ["analytic", "mc", "analytic", "mc"]
    for i in (0, 2):
        ana, mc = rows[i], rows[i + 1]
        assert ana["status"] == "ok" and mc["status"] == "ok"
        # analytic bound must not fall below the estimate minus 3 stderr
        assert ana["p_hit"] >= mc["p_hit"] - 3.0 * mc["se_p_hit"]


def test_error_rows_keep_run_going(tmp_path):
    # zero total density makes the cost vanish: efficiency is undefined
    s = default_scenario()
    rows = run_experiment(
        dataclasses.replace(s, tiers=(
            dataclasses.replace(s.tiers[0], density=0.0),
            dataclasses.replace(s.tiers[1], density=0.0))),
        {"content.popularity_exponent": (1.0,)},
        out_path=tmp_path / "err.csv")
    assert rows[0]["status"] == "error"
    assert "efficiency" in rows[0]["error"] or rows[0]["error"]


def test_csv_reproducibility(tmp_path):
    s = desk_config(snapshots=100, seed=13)
    variables = {"tiers[2].density": (10.0, 20.0)}
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    run_experiment(s, variables, engine="mc", out_path=p1)
    run_experiment(s, variables, engine="mc", out_path=p2)
    assert p1.read_bytes() == p2.read_bytes()
    meta = json.loads((tmp_path / "a.csv.meta.json").read_text())
    assert meta["config_hash"] == s.fingerprint()
    assert meta["master_seed"] == 13
    assert meta["schema_version"] == 2


def test_csv_layout(tmp_path):
    rows = [{"x": 1.0, "engine": "analytic", "status": "ok", "error": "",
             "p_hit": 0.25}]
    out = tmp_path / "t.csv"
    write_csv(rows, out)
    lines = out.read_text().splitlines()
    assert lines[0] == "x,engine,status,error,p_hit"
    assert lines[1] == "1,analytic,ok,,0.25"


def test_grid_search_tie_breaks_lexicographically():
    # the master seed does not influence the analytic engine: all points tie
    s = default_scenario()
    res = grid_search(s, {"protocol.master_seed": (3, 1, 2)})
    assert res.best_point == {"protocol.master_seed": 3}
    assert len(res.surface) == 3
    etas = {row["protocol.master_seed"]: row["efficiency"] for row in res.surface}
    assert len(set(etas.values())) == 1


def test_grid_search_reuses_tables_for_cache_paths():
    s = default_scenario()
    res = grid_search(s, {"tiers[2].cache.cache_size": tuple(range(1, 21))})
    assert res.best_point["tiers[2].cache.cache_size"] in range(1, 21)
    assert len(res.surface) == 20
    # radio side never changed: every row shares the coverage densities
    rhos = {row["rho_2"] for row in res.surface}
    assert len(rhos) == 1


def test_grid_search_variable_count_limits():
    s = default_scenario()
    with pytest.raises(ValueError):
        grid_search(s, {})
    with pytest.raises(ValueError):
        grid_search(s, {f"tiers[{i}].rho": (0.5,) for i in (1, 2)} |
                    {"content.popularity_exponent": (1.0,),
                     "costs.cache_unit_cost": (0.01,)})


def test_grid_search_tuple_path_best_point():
    # a tuple of paths is one axis; the best point holds a value per path
    s = default_scenario()
    pair = ("tiers[1].rho", "tiers[2].rho")
    res = grid_search(s, {pair: ((1.0, 1.0), (0.5, 1.0))})
    assert len(res.surface) == 2
    best = max(res.surface, key=lambda row: row["efficiency"])
    assert res.best_point == {path: best[path] for path in pair}
    assert res.best_efficiency == best["efficiency"]


@pytest.mark.parametrize("engine", ["monte-carlo", "scipy"])
def test_unknown_engine_raises_value_error(engine):
    s = default_scenario()
    with pytest.raises(ValueError, match=f"engine must be one of .*{engine}"):
        grid_search(s, {"tiers[2].density": (1.0,)}, engine=engine)
    with pytest.raises(ValueError, match=f"engine must be one of .*{engine}"):
        run_experiment(s, {"tiers[2].density": (1.0,)}, engine=engine)


def test_run_experiment_without_axes_equals_cli_run(tmp_path, capsys):
    s = desk_config(snapshots=64, radius=10000.0, seed=5)
    cli_out, lib_out = tmp_path / "cli.csv", tmp_path / "lib.csv"
    assert main(["run", "--engine", "both", "--snapshots", "64", "--seed", "5",
                 "--out", str(cli_out)]) == 0
    rows = run_experiment(s, {}, engine="both", out_path=lib_out)
    assert [r["engine"] for r in rows] == ["analytic", "mc"]
    assert all(r["status"] == "ok" for r in rows)
    assert lib_out.read_bytes() == cli_out.read_bytes()
    assert (tmp_path / "lib.csv.meta.json").read_bytes() == (
        tmp_path / "cli.csv.meta.json").read_bytes()


def test_run_experiment_tuple_path_axis():
    # both tiers' bias factors set together, one row per pair
    s = default_scenario()
    pair = ("tiers[1].rho", "tiers[2].rho")
    grid = ((1.0, 1.0), (0.5, 1.0), (1.0, 0.25))
    rows = run_experiment(s, {pair: grid, "content.popularity_exponent": (0.8,)})
    assert [(r["tiers[1].rho"], r["tiers[2].rho"]) for r in rows] == list(grid)
    for row, (rho1, rho2) in zip(rows, grid):
        scenario = set_parameter(set_parameter(s, "tiers[1].rho", rho1), "tiers[2].rho", rho2)
        scenario = set_parameter(scenario, "content.popularity_exponent", 0.8)
        assert list(row)[:3] == [*pair, "content.popularity_exponent"]
        assert row["efficiency"] == analytic_report(scenario).efficiency
        assert row["rho_2"] == analytic_report(scenario).per_tier_coverage_density[1]


def test_preset_fig3_smoke():
    rows = run_preset("fig3", default_scenario())
    assert len(rows) == 75  # 3 kappa x 5 phi1 x 5 phi2
    assert all(r["status"] == "ok" for r in rows)
    kappas = {r["content.popularity_exponent"] for r in rows}
    assert kappas == {0.5, 1.0, 1.5}


def test_preset_fig1_smoke(tmp_path):
    cfg = desk_config(snapshots=60, radius=4000.0)
    rows = run_preset("fig1", cfg, out_path=tmp_path / "fig1.csv")
    assert len(rows) == 14  # 7 thresholds x 2 engines
    assert (tmp_path / "fig1.csv").exists()
    assert (tmp_path / "fig1.csv.meta.json").exists()


def test_unknown_preset_rejected():
    with pytest.raises(ConfigError):
        run_preset("fig9", default_scenario())


def _count_calls(monkeypatch, name):
    """Record the arguments of every call to ``experiments.<name>``."""
    calls = []
    original = getattr(experiments, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(experiments, name, counted)
    return calls


def test_grid_search_rows_equal_naive_evaluation(monkeypatch):
    # a radio-side path (two coverage tables) between content and cache
    # paths, so the content vectors of one sweep are shared across tables
    s = default_scenario()
    variables = {"content.popularity_exponent": (0.6, 1.1),
                 "tiers[2].density": (3.0, 30.0),
                 "tiers[1].cache.cache_size": (5, 20, 5)}
    calls = _count_calls(monkeypatch, "set_parameter")
    res = grid_search(s, variables)
    # one call per changed value: 2 + 2*2 + 2*2*3, not 3 per row
    assert len(calls) == 2 + 4 + 12
    monkeypatch.undo()
    assert len(res.surface) == 12
    assert len({(r["rho_1"], r["rho_2"]) for r in res.surface}) == 2
    for row in res.surface:
        scenario = s
        for path in variables:
            scenario = set_parameter(scenario, path, row[path])
        (naive,) = _grid_rows(scenario, (), ("analytic",), 1)
        assert row == {**{path: row[path] for path in variables}, **naive}


def test_columns_are_not_aliased_across_calls():
    # writing into one call's arrays leaves the next call's values alone
    s = default_scenario()
    table = build_coverage_table(s)
    fresh = analytic_columns([s], [table])
    first = analytic_columns([s], [table])
    for array in first.per_rank:  # per-rank hit, backhaul and ASE
        array[:] = -1.0
    later = analytic_columns([s], [table])
    for got, want in zip(later.per_rank, fresh.per_rank, strict=True):
        assert np.array_equal(got, want)
    for name in ("p_hit", "p_bh", "ase", "cost", "efficiency"):
        assert later.values[name].tolist() == fresh.values[name].tolist()
    assert ({k: v.tolist() for k, v in later.error_estimates.items()}
            == {k: v.tolist() for k, v in fresh.error_estimates.items()})


def _lone(scenario, cache, engines=("analytic",)):
    """The rows of one scenario: a zero-axis grid, a block of one."""
    return list(_grid_rows(scenario, (), engines, 1, cache))


def _fig1_loops(config):
    rows = []
    cache = _SweepCache()
    for threshold in (0.5, 1.0, 2.0, 3.0, 4.0, 6.0, 8.0):
        scenario = set_parameter(config, "tiers[2].radio.sir_threshold", threshold)
        for cells in _lone(scenario, cache, ("analytic", "mc")):
            rows.append({"tiers[2].radio.sir_threshold": threshold, **cells})
    return rows


def _fig3_loops(config):
    rows = []
    cache = _SweepCache()
    grid = (0.0, 0.25, 0.5, 0.75, 1.0)
    for kappa in (0.5, 1.0, 1.5):
        base = set_parameter(config, "content.popularity_exponent", kappa)
        for phi1 in grid:
            with_phi1 = set_parameter(base, "tiers[1].cache.mpc_fraction", phi1)
            for phi2 in grid:
                scenario = set_parameter(with_phi1, "tiers[2].cache.mpc_fraction", phi2)
                row = {"content.popularity_exponent": kappa,
                       "tiers[1].cache.mpc_fraction": phi1,
                       "tiers[2].cache.mpc_fraction": phi2}
                row.update(*_lone(scenario, cache))
                rows.append(row)
    return rows


def _fig4_loops(config):
    rows = []
    cache = _SweepCache()
    s2_grid = range(1, config.content.library_size + 1, 3)
    for lam2 in (1e-1, 1e2):
        with_lam = set_parameter(config, "tiers[2].density", lam2)
        for kappa in (0.5, 1.2):
            with_kappa = set_parameter(with_lam, "content.popularity_exponent", kappa)
            for s1 in (10, 20, 50, 80):
                with_s1 = set_parameter(with_kappa, "tiers[1].cache.cache_size", s1)
                for s2 in s2_grid:
                    scenario = set_parameter(with_s1, "tiers[2].cache.cache_size", s2)
                    row = {"tiers[2].density": lam2,
                           "content.popularity_exponent": kappa,
                           "tiers[1].cache.cache_size": s1,
                           "tiers[2].cache.cache_size": s2}
                    row.update(*_lone(scenario, cache))
                    rows.append(row)
    return rows


def _fig5_loops(config):
    rows = []
    cache = _SweepCache()
    cost = 0.001 * config.costs.backhaul_unit_cost
    cheap = set_parameter(config, "costs.cache_unit_cost", cost)
    for lam2 in (1e-2, 1e-1, 1.0, 1e2):
        base = set_parameter(cheap, "tiers[2].density", lam2)
        (baseline,) = _lone(base, cache)
        for rho2 in np.arange(0.05, 1.0, 0.05):
            scenario = set_parameter(base, "tiers[1].rho", 1.0 - rho2)
            scenario = set_parameter(scenario, "tiers[2].rho", rho2)
            row = {"costs.cache_unit_cost": cost, "tiers[2].density": lam2,
                   "tiers[1].rho": 1.0 - rho2, "tiers[2].rho": rho2}
            row.update(*_lone(scenario, cache))
            if row["status"] == "ok" and baseline["status"] == "ok":
                row["efficiency_ratio"] = row["efficiency"] / baseline["efficiency"]
            else:
                row["efficiency_ratio"] = ""
            rows.append(row)
    return rows


@pytest.mark.parametrize("name, loops", [
    ("fig1", _fig1_loops), ("fig3", _fig3_loops), ("fig4", _fig4_loops),
    ("fig5", _fig5_loops)])
def test_grid_presets_equal_nested_loops(name, loops):
    # fig1 runs Monte Carlo at every point, so it gets a small desk protocol;
    # a smaller library changes fig4's small-cell cache grid with it
    if name == "fig1":
        config = desk_config(snapshots=40, radius=3000.0)
    else:
        config = set_parameter(default_scenario(), "content.library_size", 90)
    rows = run_preset(name, config)
    expected = loops(config)
    assert len(rows) == len(expected)
    for row, oracle in zip(rows, expected):
        assert list(row) == list(oracle)
        assert row == oracle


def test_fig5_records_each_bias():
    config = default_scenario()
    rows = run_preset("fig5", config)
    biases = np.arange(0.05, 1.0, 0.05)
    assert len(rows) == 4 * len(biases)
    for k in range(4):
        block = rows[k * len(biases):(k + 1) * len(biases)]
        assert np.array_equal([r["tiers[2].rho"] for r in block], biases)
        assert np.array_equal([r["tiers[1].rho"] for r in block], 1.0 - biases)
    # rho_2 is the tier-2 coverage density of the row's own scenario
    for row in rows[::25]:
        scenario = config
        for path in ("costs.cache_unit_cost", "tiers[2].density", "tiers[1].rho",
                     "tiers[2].rho"):
            scenario = set_parameter(scenario, path, row[path])
        assert row["rho_2"] == analytic_report(scenario).per_tier_coverage_density[1]


@pytest.mark.parametrize("bad, error, message", [
    (101, ValueError, "tiers[2].cache.cache_size: must be ordered "
     "tiers[2].cache.cache_size <= content.library_size (101 > 100)"),
    (2.5, ConfigError, "tiers[2].cache.cache_size: expected an integer value"),
])
def test_grid_search_bad_value_raises_where_set(monkeypatch, bad, error, message):
    s = default_scenario()
    variables = {"content.popularity_exponent": (0.5, 1.0),
                 "tiers[2].cache.cache_size": (5, bad, 7)}
    with pytest.raises(error) as naive:
        set_parameter(set_parameter(s, "content.popularity_exponent", 0.5),
                      "tiers[2].cache.cache_size", bad)
    assert str(naive.value) == message
    batches = _count_calls(monkeypatch, "analytic_columns")
    calls = _count_calls(monkeypatch, "set_parameter")
    with pytest.raises(error) as raised:
        grid_search(s, variables)
    assert type(raised.value) is type(naive.value)
    assert str(raised.value) == message
    # the second point fails, after one row, at its own value
    assert sum(len(args[0]) for args in batches) == 1
    assert [args[1:] for args in calls] == [
        ("content.popularity_exponent", 0.5),
        ("tiers[2].cache.cache_size", 5),
        ("tiers[2].cache.cache_size", bad)]


def _row_alone(scenario, tables):
    """The analytic row of one scenario, a block of one on a new ``_SweepCache``.

    The cache starts with only this radio's coverage table, built alone
    (a table does not depend on the sweep that builds it), so no content
    vector, exponent table or batch is shared with any other row.
    """
    key = _stage_key(scenario, _COVERAGE_FIELDS)
    if key not in tables:
        tables[key] = build_coverage_table(scenario)
    (row,) = _grid_rows(scenario, (), ("analytic",), 1, _SweepCache(tables={key: tables[key]}))
    return row


def _assert_rows_alone(config, axes, rows):
    """Every row equals, cell for cell and in key order, its own lone evaluation."""
    tables = {}
    assert len(rows) == int(np.prod([len(grid) for _, grid in axes]))
    for row in rows:
        alone = experiments._point(row, [path for path, _ in axes])
        scenario = config
        for path, value in alone.items():
            scenario = set_parameter(scenario, path, value)
        alone.update(_row_alone(scenario, tables))
        assert list(row) == list(alone)
        assert row == alone


@pytest.mark.parametrize("name", ["fig2", "fig3", "fig4"])
def test_grid_preset_rows_equal_rows_alone(name):
    config = set_parameter(default_scenario(), "content.library_size", 90)
    axes = [(path, grid(config) if callable(grid) else grid)
            for path, grid in experiments._PRESETS[name].axes]
    rows = run_preset(name, config)
    assert all(r["status"] == "ok" for r in rows)
    _assert_rows_alone(config, axes, rows)


# Exponent tables per block below: one per tier radio, as a threshold is no
# field of e(t), and more only where the axis sets a tolerance or a shape.
_BLOCK_EXPONENT_TABLES = {"integration.rel_tol": 4, "tiers[2].radio.nakagami_los": 3}


@pytest.mark.parametrize("path, grid, tables", [
    # a radio path innermost: each block of three rows needs three tables
    ("tiers[2].density", (1.0, 10.0, 100.0), 3),
    ("tiers[1].radio.sir_threshold", (1.0, 2.0, 4.0), 3),
    ("density_unit", ("per-m2", "per-km2"), 2),
    # every other field the metrics read of a row, one table per block
    ("rate_log_base", (2.0, math.e, 10.0), 1),
    ("costs.backhaul_unit_cost", (0.5, 1.0, 4.0), 1),
    ("costs.cache_unit_cost", (0.0, 0.01, 0.1), 1),
    ("tiers[*].cache.mpc_fraction", (0.0, 0.3, 1.0), 1),
    ("content.popularity_exponent", (0.0, 0.8, 1.5), 1),
    # more radio paths, fig5's pair of biases, and the macro tier's cache
    ("tiers[*].rho", (1.0, 0.5, 0.8), 3),
    (("tiers[1].rho", "tiers[2].rho"), ((1.0, 1.0), (0.9, 0.1)), 2),
    ("integration.rel_tol", (1e-6, 1e-8), 2),
    ("tiers[2].radio.nakagami_los", (2, 3), 2),
    ("tiers[1].cache.cache_size", (10, 20, 50), 1),
])
def test_block_spanning_tables_equals_rows_alone(monkeypatch, path, grid, tables):
    s = default_scenario()
    axes = [("tiers[2].cache.cache_size", (3, 9)), (path, grid)]
    batches = _count_calls(monkeypatch, "analytic_columns")
    cache = _SweepCache()
    rows = list(_grid_rows(s, axes, ("analytic",), 1, cache))
    assert [len(args[0]) for args in batches] == [len(grid), len(grid)]
    assert len(cache.tables) == tables
    assert len(cache.exponents) == _BLOCK_EXPONENT_TABLES.get(path, 2)
    assert len({(r["rho_1"], r["rho_2"]) for r in rows}) == tables
    _assert_rows_alone(s, axes, rows)


def _leaves(node, path=""):
    """``{path: value}`` of every leaf of a scenario mapping, tiers 1-based."""
    if isinstance(node, dict):
        return {k: v for key, value in node.items()
                for k, v in _leaves(value, f"{path}.{key}" if path else key).items()}
    if isinstance(node, list):
        return {k: v for i, entry in enumerate(node, 1)
                for k, v in _leaves(entry, f"{path}[{i}]").items()}
    return {path: node}


# Every leaf path of the default scenario, and each tier leaf as ``tiers[*]``.
_LEAVES = _leaves(scenario_to_mapping(default_scenario()))
_LEAVES.update({"tiers[*]" + path[8:]: value for path, value in _LEAVES.items()
                if path.startswith("tiers[1].")})


def _other_value(scenario, path, value):
    """A value other than ``value`` that ``set_parameter`` takes at ``path``,
    else ``value`` itself (a field with one valid value)."""
    if isinstance(value, str):
        candidates = ("per-m2", 5000.0)
    elif isinstance(value, int):
        candidates = (value + 1,)
    else:
        candidates = (value * 0.8, value * 1.25)
    for candidate in candidates:
        try:
            set_parameter(scenario, path, candidate)
        except ValueError:
            continue
        return candidate
    return value


def _column_bytes(columns):
    arrays = [*columns.values.values(), *columns.error_estimates.values(), columns.rho,
              *columns.per_rank]
    return [(a.dtype.str, a.shape, a.tobytes()) for a in arrays], columns.failures


def test_block_reads_only_what_its_axis_reaches(monkeypatch):
    # a two-value block over every leaf path, and each tier leaf for every
    # tier: the block's columns equal the read of every field of every row,
    # with every row scored on the coverage table of its own key
    s = default_scenario()
    calls = []
    original = experiments.analytic_columns

    def recorded(*args, **kwargs):
        calls.append((args, original(*args, **kwargs)))
        return calls[-1][1]

    monkeypatch.setattr(experiments, "analytic_columns", recorded)
    exponents = {}  # exponent tables do not depend on the sweep
    for path, value in sorted(_LEAVES.items()):
        grid = (value, _other_value(s, path, value))
        cache = _SweepCache(exponents=exponents)
        calls.clear()
        rows = list(_grid_rows(s, [(path, grid)], ("analytic",), 1, cache))
        assert [r["status"] for r in rows] == ["ok", "ok"], path
        keys = {_stage_key(set_parameter(s, path, v), _COVERAGE_FIELDS) for v in grid}
        assert len(cache.tables) == len(keys) and keys <= set(cache.tables), path
        assert sum(len(args[0]) for args, _ in calls) == 2, path
        for (batch, _), block in calls:
            every_field = original(
                batch, [cache.tables[_stage_key(x, _COVERAGE_FIELDS)] for x in batch])
            assert _column_bytes(block) == _column_bytes(every_field), path


_STAGES = {"exponent": _EXPONENT_FIELDS, "coverage": _COVERAGE_FIELDS}
_STAGE_T = 10.0 ** np.arange(-3.0, 10.0, 4.0)  # one t in each of four exponent pieces


@pytest.fixture(scope="module")
def stage_exponents():
    """Exponent tables shared by the coverage tables of the stage test."""
    return {}


def _stage_outputs(scenario, stage, exponents):
    """``(key, output)`` pairs of ``stage`` in ``scenario``: per tier, its
    exponent table's values and error bounds at ``_STAGE_T``; or the one
    coverage table's densities and error estimates."""
    fields = _STAGES[stage]
    if stage == "exponent":
        return [(_stage_key(scenario, fields, k),
                 np.concatenate(ExponentTable(tier.radio, scenario.integration)(_STAGE_T)))
                for k, tier in enumerate(scenario.tiers, 1)]
    table = build_coverage_table(scenario, exponents)
    return [(_stage_key(scenario, fields),
             np.array(table.per_tier_density + table.error_estimates))]


@pytest.mark.parametrize("stage", sorted(_STAGES))
@pytest.mark.parametrize("path", sorted(_LEAVES))
def test_stage_key_changes_exactly_with_its_output(stage, path, stage_exponents):
    # a new value at a leaf changes a stage's key only where the stage
    # declares a field the leaf reaches, and the stage's output changes,
    # bit for bit, exactly where its key does: so every declared field is
    # read, every field read is declared, and a table is shared only by
    # scenarios it serves unchanged
    s = default_scenario()
    changed = set_parameter(s, path, _other_value(s, path, _LEAVES[path]))
    declared = any(_reaches(experiments._reach(path), field) for field in _STAGES[stage])
    for (key, out), (new_key, new_out) in zip(_stage_outputs(s, stage, stage_exponents),
                                              _stage_outputs(changed, stage, stage_exponents)):
        assert declared or new_key == key
        assert (new_key == key) == (new_out.tobytes() == out.tobytes())


def test_threshold_block_shares_exponent_pieces(monkeypatch):
    # fig1's seven thresholds of the small-cell tier: e(t) does not read a
    # threshold, so the block builds each piece of the two tiers' tables
    # once, 22 pieces, not once per threshold (88)
    builds = []
    direct = analytic.interference_laplace_exponent

    def counting(*args, **kwargs):
        builds.append(args)
        return direct(*args, **kwargs)

    monkeypatch.setattr(analytic, "interference_laplace_exponent", counting)
    cache = _SweepCache()
    axes = [("tiers[2].radio.sir_threshold", (0.5, 1.0, 2.0, 3.0, 4.0, 6.0, 8.0))]
    rows = list(_grid_rows(default_scenario(), axes, ("analytic",), 1, cache))
    assert [r["status"] for r in rows] == ["ok"] * 7
    assert len(cache.tables) == 7 and len(cache.exponents) == 2
    assert len(builds) == 22


def test_split_block_equals_whole_block(monkeypatch):
    # a large library splits a block; here a cap of two rows forces it
    s = default_scenario()
    axes = [("tiers[2].cache.cache_size", (1, 2, 3, 4, 5))]
    whole = list(_grid_rows(s, axes, ("analytic",), 1, _SweepCache()))
    monkeypatch.setattr(experiments, "_BATCH_ROW_RANKS", 2 * s.content.library_size)
    batches = _count_calls(monkeypatch, "analytic_columns")
    split = list(_grid_rows(s, axes, ("analytic",), 1, _SweepCache()))
    assert [len(args[0]) for args in batches] == [2, 2, 1]
    assert [list(row) for row in split] == [list(row) for row in whole]
    assert split == whole


def test_zero_cost_row_fails_alone_in_its_block():
    # free cache slots and a macro cache holding the whole library: no cost
    s = set_parameter(default_scenario(), "costs.cache_unit_cost", 0.0)
    axes = [("content.popularity_exponent", (0.8,)),
            ("tiers[1].cache.cache_size", (20, 100, 50))]
    rows = list(_grid_rows(s, axes, ("analytic",), 1, _SweepCache()))
    with pytest.raises(UndefinedEfficiencyError) as undefined:
        caching_efficiency(1.0, 0.0)
    assert [r["status"] for r in rows] == ["ok", "error", "ok"]
    assert rows[1]["error"] == str(undefined.value)
    assert rows[1]["efficiency"] == "" and "rho_1" not in rows[1]
    assert rows[0]["efficiency"] > 0 and rows[2]["efficiency"] > 0
    _assert_rows_alone(s, axes, rows)
