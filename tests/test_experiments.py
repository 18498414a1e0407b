"""Sweeps, grid search, CSV persistence, presets."""
import dataclasses
import json
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from hetcache import analytic, experiments
from hetcache.analytic import CoverageTable, ExponentTable, build_coverage_table
from hetcache.channel import TierRadioParams
from hetcache.cli import main
from hetcache.experiments import (_grid_rows, grid_search, run_experiment, run_preset,
                                  set_parameter, write_csv)
from hetcache.metrics import (UndefinedEfficiencyError, analytic_columns,
                              analytic_report, caching_efficiency)
from hetcache.quadrature import QuadratureError
from hetcache.scenario import (_COVERAGE_FIELDS, _EXPONENT_FIELDS, Block, ConfigError,
                               SimulationProtocol, _column, _names, _reaches, _stage_key,
                               _value, default_scenario, scenario_to_mapping)


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


def test_path_axis_equals_its_one_path_tuple():
    # a path alone and a tuple of that one path are the same axis
    s = default_scenario()
    alone = {"tiers[2].density": (1.0, 10.0)}
    one_tuple = {("tiers[2].density",): ((1.0,), (10.0,))}
    rows, tuple_rows = run_experiment(s, alone), run_experiment(s, one_tuple)
    assert [list(row) for row in rows] == [list(row) for row in tuple_rows]
    assert rows == tuple_rows
    assert grid_search(s, alone).best_point == grid_search(s, one_tuple).best_point


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


@pytest.mark.parametrize("value", [(0.5,), (0.5, 0.5, 0.5)])
def test_grid_value_holds_one_value_per_path(value):
    # a short value would score its point at the default of the paths it
    # leaves out, and a long one drop values, each in an ok row
    paths = ("tiers[1].rho", "tiers[2].rho")
    with pytest.raises(ConfigError) as info:
        run_experiment(default_scenario(), {paths: ((0.5, 0.5), value)})
    assert str(info.value) == (
        f"tiers[1].rho, tiers[2].rho: grid value {value!r} does not hold one value per path")


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
    # every axis is checked, so the grid is one block: it builds the two
    # content models and, for the coverage tables, the two densities; the
    # cache-size column builds no point
    assert len(calls) == 2 + 2
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
    [table] = build_coverage_table([s])
    store = {}  # the popularity-mass tables every call reads
    fresh = analytic_columns(Block(s), [table], store)
    first = analytic_columns(Block(s), [table], store)
    for array in (*first.values.values(), *first.error_estimates.values(), first.rho):
        array[:] = -1.0
    later = analytic_columns(Block(s), [table], store)
    assert later.rho.tolist() == fresh.rho.tolist()
    for name in ("p_hit", "p_bh", "ase", "cost", "efficiency"):
        assert later.values[name].tolist() == fresh.values[name].tolist()
    assert ({k: v.tolist() for k, v in later.error_estimates.items()}
            == {k: v.tolist() for k, v in fresh.error_estimates.items()})


def _lone(scenario, cache, engines=("analytic",)):
    """The rows of one scenario: a zero-axis grid, a block of one."""
    return list(_grid_rows(scenario, (), engines, 1, cache))


def _fig1_loops(config):
    rows = []
    cache = {}
    for threshold in (0.5, 1.0, 2.0, 3.0, 4.0, 6.0, 8.0):
        scenario = set_parameter(config, "tiers[2].radio.sir_threshold", threshold)
        for cells in _lone(scenario, cache, ("analytic", "mc")):
            rows.append({"tiers[2].radio.sir_threshold": threshold, **cells})
    return rows


def _fig3_loops(config):
    rows = []
    cache = {}
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
    cache = {}
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
    cache = {}
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
            if row["status"] == baseline["status"] == "ok" and baseline["efficiency"] != 0.0:
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


def test_fig5_ratio_is_blank_over_a_zero_efficiency():
    # at a threshold of 1e15 on both tiers no station covers at a small-cell
    # density of 100 per km2: those rows are ok with efficiency 0, their
    # baseline's too, so they have no ratio; the sparser rows keep theirs
    config = default_scenario()
    for path in ("tiers[1].radio.sir_threshold", "tiers[2].radio.sir_threshold"):
        config = set_parameter(config, path, 1e15)
    rows = run_preset("fig5", config)
    assert len(rows) == 4 * 19
    assert {(r["status"], r["efficiency"], r["efficiency_ratio"]) for r in rows[3 * 19:]} == {
        ("ok", 0.0, "")}
    assert all(r["efficiency_ratio"] > 0.0 for r in rows[:3 * 19])


# The good values around a bad one in the innermost column of the test
# below, by the path its message names.
_AROUND_BAD = {"tiers[2].cache.cache_size": (5, 7), "tiers[2].cache.mpc_fraction": (0.5, 0.7),
               "tiers[2].radio.pathloss_exp_los": (3.5, 4.5),
               "content.library_size": (100, 200)}


@pytest.mark.parametrize("bad, error, message", [
    (101, ValueError, "tiers[2].cache.cache_size: must be ordered "
     "tiers[2].cache.cache_size <= content.library_size (101 > 100)"),
    (2.5, ConfigError, "tiers[2].cache.cache_size: expected an integer value"),
    (-1, ConfigError, "tiers[2].cache.cache_size: must be a nonnegative integer"),
    (math.nan, ConfigError, "tiers[2].cache.mpc_fraction: must be in [0, 1]"),
    # the column crosses pathloss_exp_nlos, 4, midway: 3.5, 4.0, 4.5
    (4.0, ConfigError, "tiers[2].radio.pathloss_exp_los: must be ordered "
     "pathloss_exp_los < pathloss_exp_nlos"),
    (10, ConfigError, "content.library_size: must be ordered "
     "tiers[1].cache.cache_size <= content.library_size (20 > 10)"),
])
def test_grid_search_bad_value_raises_where_set(monkeypatch, bad, error, message):
    s = default_scenario()
    path = message.split(": ")[0]
    first, last = _AROUND_BAD[path]
    variables = {"content.popularity_exponent": (0.5, 1.0), path: (first, bad, last)}
    with pytest.raises(error) as naive:
        set_parameter(set_parameter(s, "content.popularity_exponent", 0.5), path, bad)
    assert str(naive.value) == message
    batches = _count_calls(monkeypatch, "analytic_columns")
    tables = _count_calls(monkeypatch, "build_coverage_table")
    calls = _count_calls(monkeypatch, "set_parameter")
    with pytest.raises(error) as raised:
        grid_search(s, variables)
    assert type(raised.value) is type(naive.value)
    assert str(raised.value) == message
    # the second point fails at its own value, before its block is scored
    assert sum(len(args[0]) for args in batches) == 0
    assert tables == []
    assert [args[1:] for args in calls] == [
        ("content.popularity_exponent", 0.5),
        (path, first),
        (path, bad)]


def test_mc_block_bad_last_value_raises_before_any_simulation(monkeypatch):
    s = desk_config(snapshots=40, radius=3000.0)
    with pytest.raises(ConfigError) as naive:
        set_parameter(s, "tiers[2].cache.cache_size", 2.5)
    runs = _count_calls(monkeypatch, "run_simulation")
    with pytest.raises(ConfigError) as raised:
        run_experiment(s, {"tiers[2].cache.cache_size": (5, 10, 2.5)}, engine="mc")
    assert str(raised.value) == str(naive.value)
    assert runs == []


def test_failed_coverage_table_is_built_once_per_sweep(monkeypatch):
    # a tolerance the quadrature cannot meet fails the same way in every
    # block; its key keeps the error, so each key is built once
    s = default_scenario()
    blocks = []
    direct = analytic._coverage_block
    monkeypatch.setattr(analytic, "_coverage_block",
                        lambda pairs, cache: blocks.append(pairs) or direct(pairs, cache))
    rows = run_experiment(s, {"content.popularity_exponent": (0.5, 1.0, 1.5),
                              "integration.rel_tol": (1e-6, 1e-15)})
    # the first block builds both keys together, two tiers each; later
    # blocks build none
    assert sum(map(len, blocks)) == 4
    monkeypatch.undo()
    failed = set_parameter(s, "integration.rel_tol", 1e-15)
    (alone,) = _grid_rows(failed, (), ("analytic",), 1)
    assert alone["status"] == "error"
    assert [r["status"] for r in rows] == ["ok", "error"] * 3
    for row in rows[1::2]:
        assert row == {"content.popularity_exponent": row["content.popularity_exponent"],
                       "integration.rel_tol": 1e-15, **alone}


def _axes(variables):
    """``_plan``'s axes of ``variables``."""
    return experiments._plan(variables, "analytic")[0]


def _row_alone(scenario, tables):
    """The analytic row of one scenario, a block of one on a new table store.

    The cache starts with only this radio's coverage table, built alone
    (a table does not depend on the sweep that builds it), so no content
    vector, exponent table or batch is shared with any other row.
    """
    key = _stage_key(scenario, _COVERAGE_FIELDS)
    if key not in tables:
        [tables[key]] = build_coverage_table([scenario])
    (row,) = _grid_rows(scenario, (), ("analytic",), 1, {key: tables[key]})
    return row


def _assert_rows_alone(config, axes, rows):
    """Every row equals, cell for cell and in key order, its own lone evaluation."""
    tables = {}
    assert len(rows) == int(np.prod([len(grid) for _, grid in axes]))
    for row in rows:
        alone = {path: row[path] for paths, _ in axes for path in paths}
        scenario = config
        for path, value in alone.items():
            scenario = set_parameter(scenario, path, value)
        alone.update(_row_alone(scenario, tables))
        assert list(row) == list(alone)
        assert row == alone


@pytest.mark.parametrize("name", ["fig2", "fig3", "fig4"])
def test_grid_preset_rows_equal_rows_alone(name):
    config = set_parameter(default_scenario(), "content.library_size", 90)
    axes = _axes({path: grid(config) if callable(grid) else grid
                  for path, grid in experiments._PRESETS[name].axes})
    rows = run_preset(name, config)
    assert all(r["status"] == "ok" for r in rows)
    _assert_rows_alone(config, axes, rows)


@pytest.mark.parametrize("variables, built", [
    # a cache-size column builds no point; a radio path builds each point
    # for its coverage tables, once per value, and a popularity exponent
    # each content model
    ({"tiers[1].cache.cache_size": (10, 50), "tiers[2].cache.cache_size": (1, 2, 5, 8, 100)}, 0),
    ({("tiers[1].rho", "tiers[2].rho"): ((1.0, 1.0), (0.9, 0.1), (0.5, 0.5))}, 3 * 2),
    ({"tiers[*].rho": (1.0, 0.5, 0.8)}, 3),
    ({"content.popularity_exponent": (0.8,), "tiers[*].cache.mpc_fraction": (0.0, 0.3, 1.0)}, 1),
])
def test_column_block_rows_equal_rows_alone(monkeypatch, variables, built):
    s = default_scenario()
    axes = _axes(variables)
    calls = _count_calls(monkeypatch, "set_parameter")
    rows = list(_grid_rows(s, axes, ("analytic",), 1))
    assert len(calls) == built
    monkeypatch.undo()
    assert all(r["status"] == "ok" for r in rows)
    _assert_rows_alone(s, axes, rows)


@pytest.mark.parametrize("path, grid, stored", [
    ("tiers[2].cache.cache_size", (5.0, np.int64(5), 7), [5, 5, 7]),
    ("tiers[2].cache.mpc_fraction", (np.float64(0.25), 0.5, np.float64(1)), [0.25, 0.5, 1.0]),
    ("costs.backhaul_unit_cost", (2, np.float64(0.5), 1.0), [2.0, 0.5, 1.0]),
    ("costs.cache_unit_cost", (0, np.int64(1), 0.02), [0.0, 1.0, 0.02]),
])
def test_column_stores_the_normal_form(monkeypatch, path, grid, stored):
    # the head cell keeps the grid value; the block holds the value
    # set_parameter stores, of its type, and builds no point
    s = default_scenario()
    scenarios, index = Block(s).scenarios(_COVERAGE_FIELDS)
    assert scenarios == [s] and index.tolist() == [0]
    axes = _axes({path: grid})
    batches = _count_calls(monkeypatch, "analytic_columns")
    calls = _count_calls(monkeypatch, "set_parameter")
    rows = list(_grid_rows(s, axes, ("analytic",), 1))
    assert calls == []
    ((block, *_),) = batches
    column = block.column(_names(path))
    assert column == stored and list(map(type, column)) == list(map(type, stored))
    assert block.points == [set_parameter(s, path, value) for value in grid]
    monkeypatch.undo()
    assert [row[path] for row in rows] == list(grid)
    assert [type(row[path]) for row in rows] == list(map(type, grid))
    _assert_rows_alone(s, axes, rows)


def _entries(cache):
    """A table store's coverage entries (tables or errors) and its exponent
    tables, as two dicts; its popularity-mass tables are neither."""
    exponents = {k: v for k, v in cache.items() if isinstance(v, ExponentTable)}
    return {k: v for k, v in cache.items()
            if isinstance(v, CoverageTable | Exception)}, exponents


# Exponent tables per block below: one per tier radio, as a threshold is no
# field of e(t), and more only where the axis sets a tolerance or a shape.
_BLOCK_EXPONENT_TABLES = {"integration.rel_tol": 4, "tiers[2].radio.nakagami_los": 3}
# Paths of the test below that ``_column`` does not check: a radio record
# checks orderings across its fields, and the scenario a string and a
# bound across records. Under them each cache-size value is its own block;
# any other path joins the cache-size axis in one block.
_UNCHECKED = {"tiers[1].radio.sir_threshold", "density_unit", "rate_log_base",
              "tiers[2].radio.nakagami_los"}


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
    axes = _axes({"tiers[2].cache.cache_size": (3, 9), path: grid})
    batches = _count_calls(monkeypatch, "analytic_columns")
    cache = {}
    rows = list(_grid_rows(s, axes, ("analytic",), 1, cache))
    sizes = [len(grid)] * 2 if path in _UNCHECKED else [2 * len(grid)]
    assert [len(args[0]) for args in batches] == sizes
    coverage, exponents = _entries(cache)
    assert len(coverage) == tables
    assert len(exponents) == _BLOCK_EXPONENT_TABLES.get(path, 2)
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


_CANDIDATES = (-1, 0, 1, 2, 0.5, 2.5, 4.0, 9.0, 150, 10 ** 400, math.nan, math.inf, True, "auto",
               "per-m2", np.int64(3), np.float64(0.3), None)


@pytest.mark.parametrize("path", sorted(_LEAVES))
def test_column_check_takes_no_value_set_parameter_rejects(path):
    # where the column check takes a value, set_parameter takes it too and
    # stores the same value, of the same type
    s = default_scenario()
    names = _names(path)
    for value in _CANDIDATES:
        column = _column(s, names, [value])
        try:
            stored = _value(set_parameter(s, path, value), names, 1)
        except ValueError:
            assert column is None, value
        else:
            assert column is None or (column == [stored] and type(column[0]) is type(stored))


@pytest.mark.parametrize("paths, grid, message", [
    # each value of the second point passes alone against the base
    # scenario, not after the other
    (("content.library_size", "tiers[2].cache.cache_size"), ((100, 5), (50, 70)),
     "tiers[2].cache.cache_size: must be ordered tiers[2].cache.cache_size "
     "<= content.library_size (70 > 50)"),
    (("tiers[2].radio.pathloss_exp_nlos", "tiers[2].radio.pathloss_exp_los"),
     ((4.0, 2.5), (3.0, 3.5)),
     "tiers[2].radio.pathloss_exp_los: must be ordered pathloss_exp_los < pathloss_exp_nlos"),
])
def test_paths_set_together_are_checked_together(monkeypatch, paths, grid, message):
    batches = _count_calls(monkeypatch, "analytic_columns")
    tables = _count_calls(monkeypatch, "build_coverage_table")
    with pytest.raises(ConfigError) as raised:
        run_experiment(default_scenario(), {paths: grid})
    assert str(raised.value) == message
    assert batches == tables == []  # raised before the block is scored


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


def _column_bytes(*columns):
    """dtype, shape and bytes of each array of ``columns`` with their rows
    stacked in order, and the rows' failures."""
    arrays = [np.concatenate(parts) for parts in zip(*(
        [*c.values.values(), *c.error_estimates.values(), c.rho]
        for c in columns))]
    return ([(a.dtype.str, a.shape, a.tobytes()) for a in arrays],
            sum((c.failures for c in columns), ()))


def test_block_reads_only_what_its_axis_reaches(monkeypatch):
    # a two-value block over every leaf path, and each tier leaf for every
    # tier: the block's columns equal its points' own blocks of one,
    # stacked, with every row scored on the coverage table of its own key
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
        cache = dict(exponents)
        calls.clear()
        rows = list(_grid_rows(s, _axes({path: grid}), ("analytic",), 1, cache))
        assert [r["status"] for r in rows] == ["ok", "ok"], path
        keys = {_stage_key(set_parameter(s, path, v), _COVERAGE_FIELDS) for v in grid}
        coverage, built = _entries(cache)
        exponents.update(built)
        assert len(coverage) == len(keys) and keys <= set(coverage), path
        assert sum(len(args[0]) for args, _ in calls) == 2, path
        for (batch, *_), block in calls:
            alone = [original(Block(x), [coverage[_stage_key(x, _COVERAGE_FIELDS)]])
                     for x in batch.points]
            assert _column_bytes(block) == _column_bytes(*alone), path


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
    store = dict(exponents)  # the shared exponent tables, and no coverage table
    [table] = build_coverage_table([scenario], store)
    exponents.update(_entries(store)[1])
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
    ((paths, _),) = _axes({path: (_LEAVES[path],)})
    declared = any(_reaches(tuple(map(_names, paths)), field) for field in _STAGES[stage])
    for (key, out), (new_key, new_out) in zip(_stage_outputs(s, stage, stage_exponents),
                                              _stage_outputs(changed, stage, stage_exponents)):
        assert declared or new_key == key
        assert (new_key == key) == (new_out.tobytes() == out.tobytes())


def test_threshold_block_shares_exponent_pieces(monkeypatch):
    # fig1's seven thresholds of the small-cell tier: e(t) does not read a
    # threshold, so the block builds each piece of the two tiers' tables
    # once, 22 pieces, not once per threshold (88)
    builds = []
    block = analytic._laplace_exponents

    def counting(pieces):
        results = block(pieces)
        builds.extend((radio, float(np.min(t)), float(np.max(t)))
                      for (t, radio, *_), e in zip(pieces, results) if e is not None)
        return results

    monkeypatch.setattr(analytic, "_laplace_exponents", counting)
    cache = {}
    axes = _axes({"tiers[2].radio.sir_threshold": (0.5, 1.0, 2.0, 3.0, 4.0, 6.0, 8.0)})
    rows = list(_grid_rows(default_scenario(), axes, ("analytic",), 1, cache))
    assert [r["status"] for r in rows] == ["ok"] * 7
    coverage, exponents = _entries(cache)
    assert len(coverage) == 7 and len(exponents) == 2
    assert len(builds) == len(set(builds)) == 22


def test_threshold_block_builds_each_radio_record_once(monkeypatch):
    # fig1's seven thresholds: a radio path is no column, so the block sets
    # its points at once, and builds one radio record per point, no other
    s = default_scenario()
    built = []
    check = TierRadioParams.__post_init__
    monkeypatch.setattr(TierRadioParams, "__post_init__",
                        lambda radio: built.append(radio) or check(radio))
    axes = _axes({"tiers[2].radio.sir_threshold": (0.5, 1.0, 2.0, 3.0, 4.0, 6.0, 8.0)})
    rows = list(_grid_rows(s, axes, ("analytic",), 1))
    assert [r["status"] for r in rows] == ["ok"] * 7
    assert [radio.sir_threshold for radio in built] == [0.5, 1.0, 2.0, 3.0, 4.0, 6.0, 8.0]


@pytest.mark.parametrize("path, good, bad, message", [
    # the first probe radius, 1e200 m, puts t past the largest float: tier
    # 1's row, which reads tier 2's exponent table, fails first
    ("tiers[2].radio.far_field_dist", 36.0, 1e200,
     "no finite truncation radius for the interference integral"),
    # the closed-form lower bound on e(t), which sets the tolerance of the
    # piece, leaves the float range (u underflows to 0, r^2 overflows)
    ("tiers[2].radio.near_field_dist", 16.0, 1e200,
     "interference exponent lower bound out of float range"),
    # binomial coefficients of the fading sum past the largest float
    ("tiers[2].radio.nakagami_los", 2, 2000, "fading sum coefficients overflow the float range"),
    # the coefficients fit, but the sum of their magnitudes does not
    ("tiers[2].radio.nakagami_los", 2, 1029, "fading sum coefficients overflow the float range"),
])
def test_overflowing_value_fails_its_row_alone(path, good, bad, message):
    s = default_scenario()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rows = list(_grid_rows(s, _axes({path: (good, bad)}), ("analytic",), 1))
    assert [r["status"] for r in rows] == ["ok", "error"]
    assert rows[1]["error"] == message
    _assert_rows_alone(s, _axes({path: (good,)}), rows[:1])


def test_whole_cache_axis_is_one_block_equal_to_rows_alone(monkeypatch):
    # S_2 = 0 ... F at F = 1,001: one analytic_columns call scores the
    # whole axis, and each row equals its point run alone
    s = set_parameter(default_scenario(), "content.library_size", 1001)
    s = set_parameter(s, "tiers[2].cache.mpc_fraction", 0.3)
    axes = _axes({"tiers[2].cache.cache_size": range(1002)})
    batches = _count_calls(monkeypatch, "analytic_columns")
    rows = list(_grid_rows(s, axes, ("analytic",), 1, {}))
    assert [len(args[0]) for args in batches] == [1002]
    assert [r["status"] for r in rows] == ["ok"] * 1002
    _assert_rows_alone(s, axes, rows)


def test_rows_whose_error_swamps_their_value_are_errors():
    # the alternating fading sum loses significance as the LOS shape grows:
    # p_hit read 0.186, 0.212, 0.218, 4.7e-4, 2.9e13 and 1.5e73, every row
    # ok. Now every ok row's error bar is within the limit, the others are
    # errors, and a search over them raises rather than pick noise.
    s = default_scenario()
    shapes = (2, 20, 30, 60, 100, 300)
    rows = run_experiment(s, {"tiers[2].radio.nakagami_los": shapes})
    assert [r["status"] for r in rows] == ["ok"] + ["error"] * 5
    settings = s.integration
    fraction = max(analytic._SIGNIFICANCE, 10.0 * settings.rel_tol)
    for shape, row in zip(shapes, rows):
        if row["status"] == "ok":
            point = set_parameter(s, "tiers[2].radio.nakagami_los", shape)
            [table] = build_coverage_table([point])
            for rho, err in zip(table.per_tier_density, table.error_estimates):
                assert err <= fraction * abs(rho) + 2.0 * settings.abs_tol
            assert row["err_p_hit"] < row["p_hit"]
        else:
            assert row["error"].startswith("fading sum lost significance: value "), shape
    with pytest.raises(QuadratureError, match="fading sum lost significance"):
        grid_search(s, {"tiers[2].radio.nakagami_los": shapes[:2]})


def test_zero_cost_row_fails_alone_in_its_block():
    # free cache slots and a macro cache holding the whole library: no cost
    s = set_parameter(default_scenario(), "costs.cache_unit_cost", 0.0)
    axes = _axes({"content.popularity_exponent": (0.8,),
                  "tiers[1].cache.cache_size": (20, 100, 50)})
    rows = list(_grid_rows(s, axes, ("analytic",), 1, {}))
    with pytest.raises(UndefinedEfficiencyError) as undefined:
        caching_efficiency(1.0, 0.0)
    assert [r["status"] for r in rows] == ["ok", "error", "ok"]
    assert rows[1]["error"] == str(undefined.value)
    assert rows[1]["efficiency"] == "" and "rho_1" not in rows[1]
    assert rows[0]["efficiency"] > 0 and rows[2]["efficiency"] > 0
    _assert_rows_alone(s, axes, rows)


def _assert_engine_rows_alone(config, axes, engines, rows):
    """Every row of ``engines`` equals, cell for cell and in key order, its
    point run alone: analytic rows as ``_assert_rows_alone`` checks them,
    Monte Carlo rows as a lone ``_grid_rows`` call."""
    tables = {}
    assert len(rows) == len(engines) * int(np.prod([len(grid) for _, grid in axes]))
    for row, engine in zip(rows, engines * (len(rows) // len(engines))):
        alone = {path: row[path] for paths, _ in axes for path in paths}
        scenario = config
        for path, value in alone.items():
            scenario = set_parameter(scenario, path, value)
        if engine == "analytic":
            alone.update(_row_alone(scenario, tables))
        else:
            alone.update(*_grid_rows(scenario, (), (engine,), 1))
        assert list(row) == list(alone)
        assert row == alone


@pytest.mark.parametrize("base, variables, engines, batches, calls", [
    # three checked axes: one block, and no point built
    ({}, {"tiers[1].cache.cache_size": (10, 50), "tiers[2].cache.mpc_fraction": (0.0, 0.6),
          "tiers[2].cache.cache_size": (1, 4, 9)}, ("analytic",), [12], 0),
    # an unchecked radio axis outside a checked cache axis: a block per threshold
    ({}, {"tiers[2].radio.sir_threshold": (2.0, 4.0), "tiers[2].cache.cache_size": (1, 5, 9)},
     ("analytic",), [3, 3], 2),
    # a checked axis outside an unchecked one: a block per density
    ({}, {"tiers[2].density": (1.0, 50.0), "tiers[2].radio.nakagami_los": (2, 3)},
     ("analytic",), [2, 2], 2 + 4),
    # fig5's pair of biases, inside and outside a checked axis
    ({}, {"tiers[2].density": (1.0, 100.0),
          ("tiers[1].rho", "tiers[2].rho"): ((1.0, 1.0), (0.9, 0.1), (0.5, 0.5))},
     ("analytic",), [6], 2 + 6 * 2),
    ({}, {("tiers[1].rho", "tiers[2].rho"): ((1.0, 1.0), (0.9, 0.1), (0.5, 0.5)),
          "content.popularity_exponent": (0.8, 1.2)}, ("analytic",), [6], 3 * 2 + 2),
    # free cache slots: a macro cache of the whole library costs nothing (an
    # error row), and a tolerance the quadrature cannot meet fails its table
    ({"costs.cache_unit_cost": 0.0},
     {"integration.rel_tol": (1e-6, 1e-15), "tiers[1].cache.cache_size": (20, 100, 50)},
     ("analytic",), [6], 2),
    # both engines: the Monte Carlo points share the densities the coverage
    # tables built, as nested loops would
    ({"protocol.num_snapshots": 40, "protocol.region_radius": 3000.0},
     {"tiers[2].density": (1.0, 10.0), "tiers[2].cache.cache_size": (2, 5)},
     ("analytic", "mc"), [4], 2 + 4),
])
def test_merged_block_rows_equal_rows_alone(monkeypatch, base, variables, engines, batches,
                                            calls):
    s = default_scenario()
    for path, value in base.items():
        s = set_parameter(s, path, value)
    axes = _axes(variables)
    scored = _count_calls(monkeypatch, "analytic_columns")
    built = _count_calls(monkeypatch, "set_parameter")
    rows = list(_grid_rows(s, axes, engines, 1, {}))
    assert [len(args[0]) for args in scored] == batches
    assert len(built) == calls
    monkeypatch.undo()
    if "integration.rel_tol" in variables:
        assert [r["status"] for r in rows] == ["ok", "error", "ok"] + ["error"] * 3
        assert rows[1]["error"] == ("cost per area is zero (empty network); "
                                    "efficiency is undefined")
        assert {r["error"] for r in rows[3:]} == {"no convergence within 4000 panels"}
    else:
        assert all(r["status"] == "ok" for r in rows)
    _assert_engine_rows_alone(s, axes, engines, rows)


def _cache_search_grid():
    """The axes of the ``analytic-cache-search`` benchmark workload: 8 macro
    cache sizes, 11 MPC fractions and every small-cell cache size."""
    return {"tiers[1].cache.cache_size": tuple(range(5, 45, 5)),
            "tiers[2].cache.mpc_fraction": tuple(np.linspace(0.0, 1.0, 11)),
            "tiers[2].cache.cache_size": tuple(range(1, 101))}


@pytest.mark.parametrize("grid, calls, parent", [
    ("fig2", 16, 42),
    ("fig3", 3, 18),
    ("fig4", 4, 22),
    ("fig5", 160, 162),
    # the benchmark's analytic workloads, on their grids' shapes
    (_cache_search_grid(), 0, 96),
    ({"content.popularity_exponent": (0.5, 1.0, 1.5),
      "tiers[2].density": tuple(np.logspace(-4, 2, 7))}, 10, 24),
])
def test_grids_set_no_more_parameters_than_nested_blocks(monkeypatch, grid, calls, parent):
    # ``parent`` is the count when only the innermost axis was one block: a
    # grid that spans more axes builds each value's scenario once, where a
    # stage reads it, and never more often than nested loops
    built = _count_calls(monkeypatch, "set_parameter")
    if isinstance(grid, str):
        run_preset(grid, default_scenario())
    else:
        grid_search(default_scenario(), grid)
    assert len(built) == calls <= parent


def test_cache_search_block_transient_memory():
    # one 8,800-row block on a built coverage table: what it holds while it
    # scores, beyond the rows it returns, is its columns (a dozen (B,) float
    # arrays of 70 kB) and one slice of 256 rows of cells, never all cells
    # at once. Measured 1.15 MB (CPython 3.11, numpy 2.4), where blocks of
    # one cache-size axis held 0.05 MB; pinned with 0.2 MB to spare
    s = set_parameter(default_scenario(), "tiers[2].density", 100.0)
    axes = _axes(_cache_search_grid())
    cache = {}
    build_coverage_table([s], cache)
    list(_grid_rows(s, axes, ("analytic",), 1, cache))  # the content tables too
    tracemalloc.start()
    try:
        rows = list(_grid_rows(s, axes, ("analytic",), 1, cache))
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(rows) == 8800 and all(r["status"] == "ok" for r in rows)
    assert peak - held < 1.35e6
