"""Metric assembly: hit/backhaul split, ASE, cost, efficiency, bias factors."""
import dataclasses
import math
import warnings

import numpy as np
import pytest

from hetcache import metrics
from hetcache.analytic import CoverageTable, build_coverage_table
from hetcache.content import ContentModel, TierCachePolicy
from hetcache.experiments import set_parameter
from hetcache.metrics import (AnalyticColumns, UndefinedEfficiencyError,
                              analytic_columns,
                              analytic_report, caching_efficiency, tier_rates)
from hetcache.scenario import (PER_M2, Block, CostModel, default_scenario,
                               scenario_from_mapping)

CONTENT = ContentModel(library_size=100, popularity_exponent=1.0)


def hand_built(rho, policies, densities_per_m2=(1e-9, 1e-5), content=CONTENT,
               costs=CostModel()):
    """Default radios with the given caches and densities, and a table of ``rho``.

    The first ``len(policies)`` default tiers are kept; the table carries
    the given covering-station expectations with zero error bounds.
    """
    base = default_scenario()
    tiers = tuple(dataclasses.replace(t, density=lam, cache=p)
                  for t, lam, p in zip(base.tiers, densities_per_m2, policies))
    scenario = dataclasses.replace(base, tiers=tiers, content=content, costs=costs,
                                   density_unit=PER_M2)
    return scenario, CoverageTable(tuple(rho), (0.0,) * len(rho))


def hand_built_report(*args, **kwargs):
    scenario, table = hand_built(*args, **kwargs)
    return analytic_report(scenario, table=table)


@pytest.fixture
def no_efficiency(monkeypatch):
    """Let ``analytic_report`` finish on a zero-cost network.

    Such a network has no efficiency (``caching_efficiency`` raises), so
    the division is stubbed out to read its ASE and cost.
    """
    monkeypatch.setattr(metrics, "caching_efficiency", lambda ase, cost: math.nan)
    with np.errstate(invalid="ignore"):  # its error bound divides by the cost
        yield


def test_full_macro_cache_kills_backhaul():
    policies = [TierCachePolicy(100, 1.0), TierCachePolicy(5, 1.0)]
    report = hand_built_report([0.4, 0.3], policies)
    assert report.p_bh == 0.0


def test_empty_caches_kill_hits():
    policies = [TierCachePolicy(0, 1.0), TierCachePolicy(0, 1.0)]
    report = hand_built_report([0.4, 0.3], policies)
    assert report.p_hit == 0.0
    assert report.p_bh == pytest.approx(0.4)  # every request goes over the backhaul


def test_hit_backhaul_decomposition_identity():
    # p_hit + p_bh equals the popularity average of the combined split
    policies = [TierCachePolicy(20, 0.6), TierCachePolicy(5, 0.3)]
    report = hand_built_report([0.37, 0.22], policies)
    a = CONTENT.request_probabilities()
    combined = float(a @ (report.per_content_hit + report.per_content_backhaul))
    assert report.p_hit + report.p_bh == pytest.approx(combined, rel=1e-12)


def test_backhaul_decreases_with_popularity_exponent():
    s = default_scenario()
    [table] = build_coverage_table([s])
    values = []
    for kappa in (0.5, 1.0, 1.5):
        content = ContentModel(library_size=100, popularity_exponent=kappa)
        values.append(analytic_report(dataclasses.replace(s, content=content),
                                      table=table).p_bh)
    assert values[0] > values[1] > values[2]


def test_ase_single_tier_collapse():
    policies = [TierCachePolicy(100, 1.0)]
    content = ContentModel(library_size=100)
    s, table = hand_built([0.5], policies, densities_per_m2=[1e-5], content=content)
    # sir_threshold 3 delivers log2(1 + 3) = 2 bit/s/Hz
    s = set_parameter(s, "tiers[1].radio.sir_threshold", 3.0)
    assert tier_rates(s) == (2.0,)
    ase = analytic_report(s, table=table).ase
    assert ase == pytest.approx(0.5 * 1e-5 * 2.0, rel=1e-12)


def test_ase_zero_density_network(no_efficiency):
    policies = [TierCachePolicy(20, 1.0), TierCachePolicy(5, 1.0)]
    report = hand_built_report([0.4, 0.3], policies, densities_per_m2=[0.0, 0.0])
    assert report.ase == 0.0


def test_cost_trivial_zeros(no_efficiency):
    # full macro cache: no per-content backhaul, and storage is free
    policies = [TierCachePolicy(100, 1.0), TierCachePolicy(5, 1.0)]
    costs = CostModel(backhaul_unit_cost=1.0, cache_unit_cost=0.0)
    report = hand_built_report([0.3, 0.2], policies, costs=costs)
    assert np.all(report.per_content_backhaul == 0.0)
    assert report.cost == 0.0
    # no stations at all
    report = hand_built_report(
        [0.3, 0.2], [TierCachePolicy(20, 1.0), TierCachePolicy(5, 1.0)],
        densities_per_m2=[0.0, 0.0])
    assert report.cost == 0.0


def test_zero_cost_network_has_no_efficiency():
    policies = [TierCachePolicy(20, 1.0), TierCachePolicy(5, 1.0)]
    with pytest.raises(UndefinedEfficiencyError):
        hand_built_report([0.4, 0.3], policies, densities_per_m2=[0.0, 0.0])


def test_efficiency_trivials_and_homogeneity():
    assert caching_efficiency(0.0, 1.0) == 0.0
    assert caching_efficiency(4.0, 2.0) == 2.0
    with pytest.raises(UndefinedEfficiencyError):
        caching_efficiency(1.0, 0.0)
    # doubling both unit costs halves the efficiency at fixed ASE
    s = default_scenario()
    [table] = build_coverage_table([s])
    r1 = analytic_report(s, table=table)
    doubled = dataclasses.replace(s, costs=CostModel(2.0, 0.02))
    r2 = analytic_report(doubled, table=table)
    assert r2.efficiency == pytest.approx(r1.efficiency / 2.0, rel=1e-12)
    assert r2.ase == pytest.approx(r1.ase, rel=1e-12)


def test_popularity_rescaling_is_invisible():
    a = CONTENT.request_probabilities()
    rescaled = 10.0 * a
    renormalized = rescaled / rescaled.sum()
    assert np.allclose(a, renormalized, atol=1e-15)


def test_tier_rates_use_unscaled_thresholds():
    s = default_scenario()
    assert tier_rates(s) == (pytest.approx(math.log2(3.0)),
                             pytest.approx(math.log2(5.0)))
    biased = set_parameter(set_parameter(s, "tiers[1].rho", 0.5), "tiers[2].rho", 0.25)
    assert tier_rates(biased) == tier_rates(s)
    natural = dataclasses.replace(s, rate_log_base=math.e)
    assert tier_rates(natural)[0] == pytest.approx(math.log(3.0))


def test_range_expansion_identity():
    s = default_scenario()
    assert set_parameter(s, "tiers[*].rho", 1.0) == s
    r_base = analytic_report(s)
    r_same = analytic_report(set_parameter(s, "tiers[*].rho", 1.0))
    assert r_same.efficiency == pytest.approx(r_base.efficiency, rel=1e-9)


def test_analytic_report_fields():
    s = default_scenario()
    report = analytic_report(s)
    assert report.provenance == "analytic"
    assert report.coverage_is_bound
    assert 0.0 <= report.p_hit <= 1.0
    assert 0.0 <= report.p_bh <= 1.0
    assert report.cost > 0.0 and report.ase > 0.0
    assert report.efficiency == pytest.approx(report.ase / report.cost, rel=1e-12)
    assert report.per_content_hit.shape == (100,)
    a = s.content.request_probabilities()
    assert float(a @ report.per_content_ase) == pytest.approx(report.ase, rel=1e-12)
    assert float(a @ report.per_content_hit) == pytest.approx(report.p_hit, rel=1e-12)
    assert set(report.error_estimates) == {"p_hit", "p_bh", "ase", "cost", "efficiency"}
    assert all(v >= 0.0 for v in report.error_estimates.values())


def test_analytic_report_decomposition_against_table():
    s = default_scenario()
    [table] = build_coverage_table([s])
    report = analytic_report(s, table=table)
    a = s.content.request_probabilities()
    q1 = np.array([1.0] * 20 + [0.0] * 80)  # full-MPC macro with 20 slots
    manual_bh = float(a @ ((1.0 - q1) * table.per_tier_density[0]))
    assert report.p_bh == pytest.approx(manual_bh, rel=1e-12)


def test_tier_counts_other_than_two():
    # a lone macro tier and a three-tier network both evaluate end to end
    from hetcache.montecarlo import run_simulation
    from hetcache.scenario import (ScenarioConfig, SimulationProtocol,
                                   TierConfig, IntegrationSettings)

    base = default_scenario()
    one = ScenarioConfig(
        tiers=(base.tiers[1],),
        content=base.content, costs=base.costs,
        protocol=SimulationProtocol(num_snapshots=60, region_radius=3000.0,
                                    master_seed=2),
        integration=IntegrationSettings())
    pico = TierConfig(
        density=30.0,
        radio=dataclasses.replace(base.tiers[1].radio, tx_power=1.0,
                                  sir_threshold=5.0),
        cache=TierCachePolicy(cache_size=2, mpc_fraction=0.5))
    three = dataclasses.replace(
        one, tiers=(base.tiers[0], base.tiers[1], pico))
    for s in (one, three):
        ana = analytic_report(s)
        assert len(ana.per_tier_coverage_density) == s.num_tiers
        assert ana.cost > 0.0 and 0.0 <= ana.p_hit <= 1.0
        mc = run_simulation(s)
        assert len(mc.per_tier_coverage_density) == s.num_tiers
        assert mc.p_hit + mc.p_bh_operational <= 1.0 + 1e-12


def test_shared_table_reports_equal_fresh_table_reports():
    # one table serves every row of a cache x content grid, as in a sweep;
    # each row's report must be the one its own scenario's table gives
    s = default_scenario()
    [table] = build_coverage_table([s])
    for cache_size in (5, 9):
        for kappa in (1.0, 0.6):
            row = set_parameter(s, "tiers[2].cache.cache_size", cache_size)
            row = set_parameter(row, "content.popularity_exponent", kappa)
            shared = analytic_columns(Block(row), [table])
            fresh = analytic_columns(Block(row), build_coverage_table([row]))
            for f in dataclasses.fields(AnalyticColumns):
                got, want = getattr(shared, f.name), getattr(fresh, f.name)
                if isinstance(want, dict):
                    assert got.keys() == want.keys(), f.name
                    got, want = list(got.values()), list(want.values())
                if isinstance(want, np.ndarray):
                    assert np.array_equal(got, want), f.name
                elif isinstance(want, list | tuple) and isinstance(want[0], np.ndarray):
                    assert all(np.array_equal(g, w) for g, w in zip(got, want, strict=True)), f.name
                else:
                    assert got == want, f.name


# A drawn scenario whose ASE (3.1e-307) is so small that err_ase / ase
# overflows, though the efficiency's first-order bound is finite.
_TINY_ASE = {
    "tiers": [{"density": 37273.41149410796, "rho": 1.0e-06,
               "cache": {"cache_size": 57, "mpc_fraction": 0.3448780521269212},
               "radio": {"tx_power": 532593.0243255695,
                         "pathloss_exp_los": 6.545176347938337,
                         "pathloss_exp_nlos": 7.4042709529321415,
                         "intercept_los": 598901.2781614418, "intercept_nlos": 999999.0,
                         "near_field_dist": 652491.3575739412,
                         "far_field_dist": 910925.7472174908, "nakagami_los": 58,
                         "nakagami_nlos": 21, "sir_threshold": 349982.5236179412}}],
    "content": {"library_size": 58, "popularity_exponent": 341227.6136110766},
    "costs": {"backhaul_unit_cost": 10.0, "cache_unit_cost": 341227.6136110766},
    "integration": {"rel_tol": 200.0, "abs_tol": 402694.4746719413},
    "rate_log_base": 217729.22997811233,
}


def test_tiny_ase_keeps_a_finite_efficiency_bound():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = analytic_report(scenario_from_mapping(_TINY_ASE))
    err = report.error_estimates
    assert 0.0 < report.ase < 1e-300 and err["ase"] > 1e4
    # |efficiency| * err_ase / ase is err_ase / |cost|, about 0.0215
    assert math.isclose(err["efficiency"], err["ase"] / abs(report.cost)
                        + report.efficiency * err["cost"] / report.cost, rel_tol=1e-12)
    assert 0.02 < err["efficiency"] < 0.023
