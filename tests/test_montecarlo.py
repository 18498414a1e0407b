"""Monte Carlo engine: sampling laws, SIR arithmetic, estimates, determinism."""
import math

import numpy as np
import pytest
from scipy.stats import kstest

from hetcache.channel import TierRadioParams
from hetcache.content import (ContentModel, TierCachePolicy,
                              cache_probability_vector)
from hetcache.experiments import set_parameter
from hetcache.metrics import _delivery_metrics, _scenario_constants, tier_rates
from hetcache.montecarlo import (Snapshot, TierSnapshot, _sir_per_tier,
                                 evaluate_snapshot, run_simulation,
                                 sample_network, snapshot_rng)
from hetcache.scenario import (CostModel, IntegrationSettings, ScenarioConfig,
                               SimulationProtocol, TierConfig, default_scenario)


def single_tier_scenario(density_per_km2=10.0, region_radius=1784.0,
                         cache_size=5, library_size=10):
    radio = TierRadioParams(tx_power=4.0, pathloss_exp_los=2.4,
                            pathloss_exp_nlos=4.0, near_field_dist=16.0,
                            far_field_dist=36.0, sir_threshold=4.0)
    return ScenarioConfig(
        tiers=(TierConfig(density=density_per_km2, radio=radio,
                          cache=TierCachePolicy(cache_size, 1.0)),),
        content=ContentModel(library_size=library_size),
        costs=CostModel(),
        protocol=SimulationProtocol(num_snapshots=10,
                                    region_radius=region_radius,
                                    master_seed=0),
        integration=IntegrationSettings(),
    )


def manual_tier(powers_as_pathloss, tx_power, cache_size, library_size,
                is_mpc=None, window_start=None):
    """Tier with pinned path loss and unit fading (received power = P * L)."""
    n = len(powers_as_pathloss)
    pathloss = np.asarray(powers_as_pathloss, dtype=float) / tx_power
    return TierSnapshot(
        positions=np.zeros((n, 2)),
        distances=np.zeros(n),
        is_los=np.ones(n, dtype=bool),
        fading=np.ones(n),
        pathloss=pathloss,
        is_mpc=np.ones(n, dtype=bool) if is_mpc is None else np.asarray(is_mpc),
        window_start=np.ones(n, dtype=np.int64) if window_start is None
        else np.asarray(window_start),
    )


def test_zero_density_tier_always_empty():
    s = set_parameter(default_scenario(), "tiers[1].density", 0.0)
    rng = np.random.default_rng(0)
    for _ in range(20):
        snap = sample_network(rng, s, region_radius=5000.0)
        assert len(snap.tiers[0]) == 0


def test_poisson_count_mean():
    # lam * pi * R^2 = 100; empirical mean over 1e4 snapshots within 3 se
    s = single_tier_scenario(density_per_km2=10.0, region_radius=1784.124)
    mean_target = s.densities_per_m2()[0] * math.pi * 1784.124 ** 2
    assert mean_target == pytest.approx(100.0, abs=0.01)
    rng = np.random.default_rng(21)
    counts = np.array([len(sample_network(rng, s).tiers[0]) for _ in range(10_000)])
    se = counts.std(ddof=1) / math.sqrt(len(counts))
    assert abs(counts.mean() - mean_target) < 3.0 * se


def test_positions_uniform_on_disk():
    # radial CDF of uniform disk points is (r/R)^2
    s = single_tier_scenario(density_per_km2=10.0, region_radius=1784.124)
    rng = np.random.default_rng(22)
    radii = []
    while sum(len(r) for r in radii) < 100_000:
        radii.append(sample_network(rng, s).tiers[0].distances)
    r = np.concatenate(radii)
    stat = kstest(r, lambda x: (x / 1784.124) ** 2)
    assert stat.pvalue > 0.01
    xy = sample_network(rng, s).tiers[0]
    assert np.allclose(np.hypot(xy.positions[:, 0], xy.positions[:, 1]),
                       xy.distances)


def test_single_station_has_infinite_sir():
    s = single_tier_scenario()
    snap = Snapshot([manual_tier([1e-3], tx_power=4.0, cache_size=5,
                                 library_size=10)])
    assert _sir_per_tier(snap, s)[0][0] == np.inf
    est = evaluate_snapshot(snap, s)
    assert est.covering[0] == 1  # infinite SIR counts as covering


def test_two_identical_stations_sir_one():
    s = single_tier_scenario()
    snap = Snapshot([manual_tier([2e-4, 2e-4], tx_power=4.0, cache_size=5,
                                 library_size=10)])
    sir = _sir_per_tier(snap, s)[0]
    assert sir[0] == pytest.approx(1.0, rel=1e-12)
    assert sir[1] == pytest.approx(1.0, rel=1e-12)


def test_three_station_hand_computed_sir():
    # received powers 3.2e-3, 9.6e-5, 8e-6 (pinned path loss, unit fading)
    s = single_tier_scenario()
    snap = Snapshot([manual_tier([3.2e-3, 9.6e-5, 8e-6], tx_power=4.0,
                                 cache_size=5, library_size=10)])
    expected0 = 3.2e-3 / (9.6e-5 + 8e-6)
    expected1 = 9.6e-5 / (3.2e-3 + 8e-6)
    expected2 = 8e-6 / (3.2e-3 + 9.6e-5)
    sir = _sir_per_tier(snap, s)[0]
    assert sir[0] == pytest.approx(expected0, rel=1e-12)
    assert sir[1] == pytest.approx(expected1, rel=1e-12)
    assert sir[2] == pytest.approx(expected2, rel=1e-12)


def test_evaluate_snapshot_pinned_two_tier():
    # tier-2 station caching ranks 1..5 clears its threshold, macro does not
    s = default_scenario()
    macro = manual_tier([1e-9], tx_power=40.0, cache_size=20, library_size=100)
    small = manual_tier([1.0], tx_power=4.0, cache_size=5, library_size=100)
    est = evaluate_snapshot(Snapshot([macro, small]), s)
    assert est.covering.tolist() == [0, 1]
    assert np.all(est.hit[:5]) and not np.any(est.hit[5:])
    assert not np.any(est.backhaul)  # macro does not cover anything
    assert np.all(est.caching_covering[1, :5] == 1)
    assert np.all(est.caching_covering[1, 5:] == 0)


def test_evaluate_snapshot_backhaul_event():
    # only the macro covers; it caches 1..20, so ranks > 20 go to backhaul
    s = default_scenario()
    macro = manual_tier([1.0], tx_power=40.0, cache_size=20, library_size=100)
    small = manual_tier([1e-9], tx_power=4.0, cache_size=5, library_size=100)
    est = evaluate_snapshot(Snapshot([macro, small]), s)
    assert est.covering.tolist() == [1, 0]
    assert np.all(est.hit[:20]) and not np.any(est.hit[20:])
    assert not np.any(est.backhaul[:20]) and np.all(est.backhaul[20:])


def test_unattainable_thresholds_zero_everything():
    s = set_parameter(set_parameter(default_scenario(),
                                    "tiers[1].radio.sir_threshold", 1e12),
                      "tiers[2].radio.sir_threshold", 1e12)
    rng = np.random.default_rng(3)
    snap = sample_network(rng, s, region_radius=3000.0)
    est = evaluate_snapshot(snap, s)
    assert not np.any(est.hit) and not np.any(est.backhaul)
    assert np.all(est.covering == 0) and np.all(est.caching_covering == 0)


def test_tiny_bias_factor_makes_thresholds_unattainable():
    # rho -> 0+ scales thresholds to beta/rho, far beyond any realized SIR
    s = set_parameter(set_parameter(default_scenario(), "tiers[1].rho", 1e-12),
                      "tiers[2].rho", 1e-12)
    rng = np.random.default_rng(8)
    for _ in range(5):
        snap = sample_network(rng, s, region_radius=3000.0)
        if snap.station_count() < 2:
            continue  # a lone station has infinite SIR and covers regardless
        est = evaluate_snapshot(snap, s)
        assert not np.any(est.hit)
        assert np.all(est.covering == 0)


def test_full_caches_never_use_backhaul():
    s = set_parameter(set_parameter(default_scenario(),
                                    "tiers[1].cache.cache_size", 100),
                      "tiers[2].cache.cache_size", 100)
    rng = np.random.default_rng(4)
    for _ in range(10):
        est = evaluate_snapshot(sample_network(rng, s, region_radius=3000.0), s)
        assert not np.any(est.backhaul)


def test_snapshot_estimate_invariants():
    s = default_scenario()
    rng = np.random.default_rng(5)
    for _ in range(15):
        est = evaluate_snapshot(sample_network(rng, s, region_radius=3000.0), s)
        # hit and operational backhaul are mutually exclusive
        assert not np.any(est.hit & est.backhaul)
        # covering count dominates the caching-restricted count
        assert np.all(est.caching_covering.max(axis=1) <= est.covering)
        # a hit needs at least one caching covering station
        assert np.all(est.caching_covering.sum(axis=0)[est.hit] >= 1)
        assert est.any_coverage == bool(np.any(est.covering > 0))


def test_snapshot_rng_is_order_independent():
    a = snapshot_rng(123, 7).random(4)
    b = snapshot_rng(123, 7).random(4)
    c = snapshot_rng(123, 8).random(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_run_simulation_single_snapshot_reproduces_indicators():
    s = default_scenario()
    proto = SimulationProtocol(num_snapshots=1, region_radius=5000.0,
                               master_seed=17)
    report = run_simulation(s, protocol=proto)
    snap = sample_network(snapshot_rng(17, 0), s, region_radius=5000.0)
    est = evaluate_snapshot(snap, s)
    weights = s.content.request_probabilities()
    assert report.p_hit == pytest.approx(float(weights @ est.hit), abs=1e-15)
    assert report.per_tier_coverage_density == tuple(est.covering.astype(float))
    assert report.stderr["p_hit"] == 0.0


@pytest.mark.parametrize("mode", ["all-weighted", "sampled"])
def test_single_snapshot_metrics_match_closed_forms(mode):
    # a denser macro tier, half-MPC macro caches and low thresholds, so that
    # on a 2.5 km disk both tiers cover and every term of p_bh, ASE and
    # cost is nonzero
    s = set_parameter(default_scenario(), "tiers[1].density", 1.0)
    s = set_parameter(s, "tiers[1].cache.mpc_fraction", 0.5)
    s = set_parameter(s, "tiers[*].radio.sir_threshold", 0.02)
    proto = SimulationProtocol(num_snapshots=1, region_radius=2500.0,
                               master_seed=5, content_evaluation=mode)
    report = run_simulation(s, protocol=proto)

    rng = snapshot_rng(5, 0)
    est = evaluate_snapshot(sample_network(rng, s, region_radius=2500.0), s)
    F = s.content.library_size
    a = s.content.request_probabilities()
    if mode == "sampled":
        a = np.eye(F)[rng.choice(F, p=a)]  # weight 1 on the one drawn rank
    n1 = est.covering[0]
    assert n1 > 0 and np.all(est.caching_covering.sum(axis=1) > 0)
    q1 = cache_probability_vector(s.tiers[0].cache, F)
    lam = s.densities_per_m2()
    rate = tier_rates(s)
    p_hit = sum(a[c] * est.hit[c] for c in range(F))
    p_bh = sum(a[c] * (1.0 - q1[c]) * n1 for c in range(F))
    ase = sum(a[c] * (lam[0] * rate[0] * est.caching_covering[0, c]
                      + lam[1] * rate[1] * est.caching_covering[1, c]
                      + lam[0] * rate[0] * (1.0 - q1[c]) * n1)
              for c in range(F))
    costs = s.costs
    cost = (lam[0] * (F - 20) * costs.backhaul_unit_cost * p_bh
            + costs.cache_unit_cost * (lam[0] * 20 + lam[1] * 5))
    assert report.p_hit == pytest.approx(p_hit, rel=1e-12)
    assert report.p_bh == pytest.approx(p_bh, rel=1e-12)
    assert report.ase == pytest.approx(ase, rel=1e-12)
    assert report.cost == pytest.approx(cost, rel=1e-12)
    assert report.efficiency == pytest.approx(ase / cost, rel=1e-12)


def test_run_simulation_worker_count_invariance():
    s = default_scenario()
    proto = SimulationProtocol(num_snapshots=200, region_radius=5000.0,
                               master_seed=31)
    r1 = run_simulation(s, protocol=proto, workers=1)
    r4 = run_simulation(s, protocol=proto, workers=4)
    assert r1.p_hit == r4.p_hit
    assert r1.p_bh == r4.p_bh
    assert r1.ase == r4.ase
    assert r1.cost == r4.cost
    assert r1.stderr == r4.stderr
    assert r1.per_tier_coverage_density == r4.per_tier_coverage_density
    assert np.array_equal(r1.per_content_hit, r4.per_content_hit)


def test_caching_agnostic_coverage_dominates_hit():
    s = default_scenario()
    proto = SimulationProtocol(num_snapshots=300, region_radius=5000.0,
                               master_seed=41)
    report = run_simulation(s, protocol=proto)
    assert report.coverage_all_bs >= report.p_hit
    assert report.p_hit + report.p_bh_operational <= 1.0 + 1e-12
    assert report.provenance == "monte-carlo"
    weights = s.content.request_probabilities()
    assert float(weights @ report.per_content_hit) == pytest.approx(
        report.p_hit, rel=1e-9)
    assert float(weights @ report.per_content_ase) == pytest.approx(
        report.ase, rel=1e-9)


def test_sampled_content_mode_agrees_with_weighted():
    s = default_scenario()
    weighted = run_simulation(s, protocol=SimulationProtocol(
        num_snapshots=400, region_radius=5000.0, master_seed=51))
    sampled = run_simulation(s, protocol=SimulationProtocol(
        num_snapshots=400, region_radius=5000.0, master_seed=51,
        content_evaluation="sampled"))
    se = math.hypot(weighted.stderr["p_hit"], sampled.stderr["p_hit"])
    assert abs(weighted.p_hit - sampled.p_hit) < 4.0 * se


def test_region_doubling_within_two_stderr():
    # truncation-bias guard at the scenario's default radius
    s = default_scenario()
    base = run_simulation(s, protocol=SimulationProtocol(
        num_snapshots=800, region_radius=10000.0, master_seed=61), workers=4)
    double = run_simulation(s, protocol=SimulationProtocol(
        num_snapshots=800, region_radius=20000.0, master_seed=62), workers=4)
    for key in ("p_hit", "ase"):
        se = math.hypot(base.stderr[key], double.stderr[key])
        assert abs(getattr(base, key) - getattr(double, key)) < 2.0 * se


@pytest.mark.parametrize("mode", ["all-weighted", "sampled"])
def test_chunked_metrics_equal_snapshot_rows(mode):
    # 70 snapshots: a full chunk and a ragged one of 6
    s = default_scenario()
    proto = SimulationProtocol(num_snapshots=70, region_radius=2500.0,
                               master_seed=23, content_evaluation=mode)
    report = run_simulation(s, protocol=proto)

    F = s.content.library_size
    a = s.content.request_probabilities()
    q1 = cache_probability_vector(s.tiers[0].cache, F)
    constants = _scenario_constants([s])
    rows = np.empty((70, 5))
    for k in range(70):
        rng = snapshot_rng(23, k)
        est = evaluate_snapshot(sample_network(rng, s, region_radius=2500.0), s)
        w = a if mode == "all-weighted" else np.eye(F)[rng.choice(F, p=a)]
        p_hit, p_bh, _, ase, cost = _delivery_metrics(
            w[None], est.hit[None], est.caching_covering[None],
            ((1.0 - q1) * est.covering[0])[None], constants)
        rows[k] = (p_hit[0], p_bh[0], float(w @ est.backhaul), ase[0], cost[0])
    for j, name in enumerate(("p_hit", "p_bh", "p_bh_operational", "ase", "cost")):
        assert getattr(report, name) == float(np.mean(rows[:, j])), name
