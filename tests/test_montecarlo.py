"""Monte Carlo engine: sampling laws, SIR arithmetic, estimates, determinism."""
import dataclasses
import math

import numpy as np
import pytest
from scipy.stats import kstest

from hetcache import montecarlo
from hetcache.channel import TierRadioParams, link_path_loss
from hetcache.content import (ContentModel, TierCachePolicy,
                              cache_probability_vector)
from hetcache.experiments import set_parameter
from hetcache.metrics import (MetricReport, _delivery_metrics,
                              _scenario_constants, tier_rates)
from hetcache.montecarlo import (CHUNK_SNAPSHOTS, Snapshot, TierSnapshot,
                                 _chunk_indicators, _sir_per_tier, _stack,
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


def manual_tier(powers, tx_power, cache_size, library_size,
                is_mpc=None, window_start=None):
    """Tier of stations at distance 0, where path loss is exactly 1, with
    pinned fading ``powers / P``: received power P * fading = ``powers``."""
    n = len(powers)
    return TierSnapshot(
        distances=np.zeros(n),
        is_los=np.ones(n, dtype=bool),
        fading=np.asarray(powers, dtype=float) / tx_power,
        is_mpc=np.ones(n, dtype=bool) if is_mpc is None else np.asarray(is_mpc),
        window_start=np.ones(n, dtype=np.int64) if window_start is None
        else np.asarray(window_start),
    )


def sir_per_tier(snapshot, scenario):
    """Each station's SIR, per tier, of one snapshot scored as a group of one."""
    return _sir_per_tier(*_stack([snapshot], scenario.num_tiers), scenario)


def chunk_of_one(est, scenario):
    """``(hit, backhaul, caching_covering)`` of one snapshot's pass: the
    chunk assembly on a chunk of one."""
    hit, backhaul, caching_covering, _ = _chunk_indicators([est], scenario)
    return hit[0], backhaul[0], caching_covering[0]


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
    counts = np.array([len(sample_network(rng, s, s.region_radius_m()).tiers[0])
                       for _ in range(10_000)])
    se = counts.std(ddof=1) / math.sqrt(len(counts))
    assert abs(counts.mean() - mean_target) < 3.0 * se


def test_distances_uniform_on_disk():
    # radial CDF of uniform disk points is (r/R)^2
    s = single_tier_scenario(density_per_km2=10.0, region_radius=1784.124)
    rng = np.random.default_rng(22)
    radii = []
    while sum(len(r) for r in radii) < 100_000:
        radii.append(sample_network(rng, s, s.region_radius_m()).tiers[0].distances)
    r = np.concatenate(radii)
    stat = kstest(r, lambda x: (x / 1784.124) ** 2)
    assert stat.pvalue > 0.01


def test_empty_tier_keeps_dtypes_and_never_covers():
    # ~3e-9 macro stations expected on a 1 km disk: the Poisson draw gives 0
    s = set_parameter(default_scenario(), "tiers[1].density", 1e-9)
    rng = np.random.default_rng(9)
    for _ in range(5):
        snap = sample_network(rng, s, region_radius=1000.0)
        macro = snap.tiers[0]
        assert len(macro) == 0 and len(snap.tiers[1]) > 0
        for name, dtype in (("distances", np.float64), ("is_los", bool),
                            ("fading", np.float64), ("is_mpc", bool),
                            ("window_start", np.int64)):
            field = getattr(macro, name)
            assert field.shape == (0,) and field.dtype == dtype, name
        est = evaluate_snapshot([snap], s)
        assert est.covering[0, 0] == 0
        assert not np.any(chunk_of_one(est, s)[2][0])


def test_single_station_has_infinite_sir():
    s = single_tier_scenario()
    snap = Snapshot([manual_tier([1e-3], tx_power=4.0, cache_size=5,
                                 library_size=10)])
    assert sir_per_tier(snap, s)[0][0] == np.inf
    est = evaluate_snapshot([snap], s)
    assert est.covering[0, 0] == 1  # infinite SIR counts as covering


def test_two_identical_stations_sir_one():
    s = single_tier_scenario()
    snap = Snapshot([manual_tier([2e-4, 2e-4], tx_power=4.0, cache_size=5,
                                 library_size=10)])
    sir = sir_per_tier(snap, s)[0]
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
    sir = sir_per_tier(snap, s)[0]
    assert sir[0] == pytest.approx(expected0, rel=1e-12)
    assert sir[1] == pytest.approx(expected1, rel=1e-12)
    assert sir[2] == pytest.approx(expected2, rel=1e-12)


def test_evaluate_snapshot_pinned_two_tier():
    # tier-2 station caching ranks 1..5 clears its threshold, macro does not
    s = default_scenario()
    macro = manual_tier([1e-9], tx_power=40.0, cache_size=20, library_size=100)
    small = manual_tier([1.0], tx_power=4.0, cache_size=5, library_size=100)
    est = evaluate_snapshot([Snapshot([macro, small])], s)
    hit, backhaul, caching_covering = chunk_of_one(est, s)
    assert est.covering.tolist() == [[0, 1]]
    assert np.all(hit[:5]) and not np.any(hit[5:])
    assert not np.any(backhaul)  # macro does not cover anything
    assert np.all(caching_covering[1, :5] == 1)
    assert np.all(caching_covering[1, 5:] == 0)


def test_evaluate_snapshot_backhaul_event():
    # only the macro covers; it caches 1..20, so ranks > 20 go to backhaul
    s = default_scenario()
    macro = manual_tier([1.0], tx_power=40.0, cache_size=20, library_size=100)
    small = manual_tier([1e-9], tx_power=4.0, cache_size=5, library_size=100)
    est = evaluate_snapshot([Snapshot([macro, small])], s)
    hit, backhaul, _ = chunk_of_one(est, s)
    assert est.covering.tolist() == [[1, 0]]
    assert np.all(hit[:20]) and not np.any(hit[20:])
    assert not np.any(backhaul[:20]) and np.all(backhaul[20:])


def test_unattainable_thresholds_zero_everything():
    s = set_parameter(set_parameter(default_scenario(),
                                    "tiers[1].radio.sir_threshold", 1e12),
                      "tiers[2].radio.sir_threshold", 1e12)
    rng = np.random.default_rng(3)
    snap = sample_network(rng, s, region_radius=3000.0)
    est = evaluate_snapshot([snap], s)
    hit, backhaul, caching_covering = chunk_of_one(est, s)
    assert not np.any(hit) and not np.any(backhaul)
    assert np.all(est.covering == 0) and np.all(caching_covering == 0)


def test_tiny_bias_factor_makes_thresholds_unattainable():
    # rho -> 0+ scales thresholds to beta/rho, far beyond any realized SIR
    s = set_parameter(set_parameter(default_scenario(), "tiers[1].rho", 1e-12),
                      "tiers[2].rho", 1e-12)
    rng = np.random.default_rng(8)
    for _ in range(5):
        snap = sample_network(rng, s, region_radius=3000.0)
        if snap.station_count() < 2:
            continue  # a lone station has infinite SIR and covers regardless
        est = evaluate_snapshot([snap], s)
        assert not np.any(chunk_of_one(est, s)[0])
        assert np.all(est.covering == 0)


def test_full_caches_never_use_backhaul():
    s = set_parameter(set_parameter(default_scenario(),
                                    "tiers[1].cache.cache_size", 100),
                      "tiers[2].cache.cache_size", 100)
    rng = np.random.default_rng(4)
    for _ in range(10):
        est = evaluate_snapshot([sample_network(rng, s, region_radius=3000.0)], s)
        assert not np.any(chunk_of_one(est, s)[1])


def test_snapshot_estimate_invariants():
    s = default_scenario()
    rng = np.random.default_rng(5)
    for _ in range(15):
        est = evaluate_snapshot([sample_network(rng, s, region_radius=3000.0)], s)
        hit, backhaul, caching_covering = chunk_of_one(est, s)
        # hit and operational backhaul are mutually exclusive
        assert not np.any(hit & backhaul)
        # covering count dominates the caching-restricted count
        assert np.all(caching_covering.max(axis=1) <= est.covering[0])
        # a hit needs at least one caching covering station
        assert np.all(caching_covering.sum(axis=0)[hit] >= 1)
        assert bool(est.covering.any()) == bool(np.any(est.covering > 0))


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
    est = evaluate_snapshot([snap], s)
    weights = s.content.request_probabilities()
    hit = chunk_of_one(est, s)[0]
    assert report.p_hit == pytest.approx(float(weights @ hit), abs=1e-15)
    assert report.per_tier_coverage_density == tuple(est.covering[0].astype(float))
    assert report.stderr["p_hit"] == 0.0


@pytest.mark.parametrize("mode", ["all-weighted"])
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

    est = evaluate_snapshot([sample_network(snapshot_rng(5, 0), s, region_radius=2500.0)], s)
    hit, _, caching_covering = chunk_of_one(est, s)
    F = s.content.library_size
    a = s.content.request_probabilities()
    n1 = est.covering[0, 0]
    assert n1 > 0 and np.all(caching_covering.sum(axis=1) > 0)
    q1 = cache_probability_vector(s.tiers[0].cache, F)
    lam = s.densities_per_m2()
    rate = tier_rates(s)
    p_hit = sum(a[c] * hit[c] for c in range(F))
    p_bh = sum(a[c] * (1.0 - q1[c]) * n1 for c in range(F))
    ase = sum(a[c] * (lam[0] * rate[0] * caching_covering[0, c]
                      + lam[1] * rate[1] * caching_covering[1, c]
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
    assert report.provenance == "mc"
    weights = s.content.request_probabilities()
    assert float(weights @ report.per_content_hit) == pytest.approx(
        report.p_hit, rel=1e-9)
    assert float(weights @ report.per_content_ase) == pytest.approx(
        report.ase, rel=1e-9)


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


@pytest.mark.parametrize("mode", ["all-weighted"])
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
        est = evaluate_snapshot([sample_network(snapshot_rng(23, k), s,
                                                region_radius=2500.0)], s)
        hit, backhaul, caching_covering = chunk_of_one(est, s)
        p_hit, p_bh, _, ase, cost = _delivery_metrics(
            a[None], hit[None], caching_covering[None],
            ((1.0 - q1) * est.covering[0, 0])[None], constants)
        rows[k] = (p_hit[0], p_bh[0], float(a @ backhaul), ase[0], cost[0])
    for j, name in enumerate(("p_hit", "p_bh", "p_bh_operational", "ase", "cost")):
        assert getattr(report, name) == float(np.mean(rows[:, j])), name


def loop_indicators(snapshot, scenario):
    """One snapshot's indicators by a loop over its covering stations.

    The oracle of the chunk assembly: each covering caching station adds 1
    over its window, one station at a time. Returns (hit, backhaul,
    caching_covering, covering, any_coverage).
    """
    F = scenario.content.library_size
    K = scenario.num_tiers
    sirs = sir_per_tier(snapshot, scenario)
    covering = np.zeros(K, dtype=np.int64)
    caching_covering = np.zeros((K, F), dtype=np.int64)
    for i, (tier, ts) in enumerate(zip(scenario.tiers, snapshot.tiers)):
        mask = sirs[i] >= tier.effective_threshold()
        covering[i] = int(np.count_nonzero(mask))
        s = tier.cache.cache_size
        if s == 0:
            continue
        for b in np.nonzero(mask)[0]:
            lo = 0 if ts.is_mpc[b] else int(ts.window_start[b]) - 1
            caching_covering[i, lo:lo + s] += 1
    hit = caching_covering.sum(axis=0) > 0
    backhaul = ~hit & (covering[0] - caching_covering[0] > 0)
    return hit, backhaul, caching_covering, covering, bool(np.any(covering))


def assert_chunk_matches_loop(snapshots, scenario):
    """Assemble ``snapshots`` as one chunk, scored as one group and as a
    group per snapshot; each row must equal the loop."""
    hit, backhaul, caching_covering, covering = _chunk_indicators(
        [evaluate_snapshot(snapshots, scenario)], scenario)
    singles = _chunk_indicators([evaluate_snapshot([snap], scenario)
                                 for snap in snapshots], scenario)
    for got, want in zip(singles, (hit, backhaul, caching_covering, covering)):
        assert np.array_equal(got, want)
    F, K = scenario.content.library_size, scenario.num_tiers
    S = len(snapshots)
    assert hit.shape == backhaul.shape == (S, F)
    assert caching_covering.shape == (S, K, F) and covering.shape == (S, K)
    assert caching_covering.dtype == covering.dtype == np.int64
    for k, snap in enumerate(snapshots):
        want = loop_indicators(snap, scenario)
        assert np.array_equal(hit[k], want[0]), k
        assert np.array_equal(backhaul[k], want[1]), k
        assert np.array_equal(caching_covering[k], want[2]), k
        assert np.array_equal(covering[k], want[3]), k
        assert bool(covering[k].any()) == want[4], k
        # a single snapshot is a chunk of one
        est = evaluate_snapshot([snap], scenario)
        one_hit, one_backhaul, one_caching_covering = chunk_of_one(est, scenario)
        assert np.array_equal(one_hit, want[0]) and np.array_equal(one_backhaul, want[1])
        assert np.array_equal(one_caching_covering, want[2])
        assert np.array_equal(est.covering[0], want[3]) and bool(est.covering.any()) == want[4]
    return caching_covering


def low_threshold_scenario(macro_cache=20, small_cache=5):
    # thresholds low enough that stations of equal power all cover
    s = set_parameter(default_scenario(), "tiers[*].radio.sir_threshold", 0.01)
    s = set_parameter(s, "tiers[1].cache.cache_size", macro_cache)
    return set_parameter(s, "tiers[2].cache.cache_size", small_cache)


def test_chunk_assembly_mixed_windows_match_loop():
    # several covering stations per tier, MPC and RCS mixed, RCS windows
    # ending at rank F = 100 on both tiers, and one station too weak to cover
    s = low_threshold_scenario()
    macro = manual_tier([1.0, 1.0, 1e-12], tx_power=40.0, cache_size=20,
                        library_size=100, is_mpc=[False, True, False],
                        window_start=[81, 1, 30])
    small = manual_tier([1.0, 1.0, 1.0, 1.0], tx_power=4.0, cache_size=5,
                        library_size=100, is_mpc=[True, False, False, False],
                        window_start=[1, 96, 40, 96])
    counts = assert_chunk_matches_loop([Snapshot([macro, small])], s)
    assert counts[0, 0, 99] == 1 and counts[0, 1, 99] == 2  # both windows end at F
    assert not counts[0, 0, 20:80].any()  # the weak station's window, 30-49


@pytest.mark.parametrize("macro_cache, small_cache", [(0, 5), (20, 100), (100, 0)])
def test_chunk_assembly_edge_cache_sizes_match_loop(macro_cache, small_cache):
    # S = 0 (nothing cached, so a covering macro means backhaul) and S = F
    # (one window, the whole library), with an empty tier in one snapshot
    s = low_threshold_scenario(macro_cache, small_cache)
    macro = manual_tier([1.0, 1.0], tx_power=40.0, cache_size=macro_cache,
                        library_size=100, is_mpc=[False, True],
                        window_start=[101 - macro_cache, 1])
    small = manual_tier([1.0, 1.0], tx_power=4.0, cache_size=small_cache,
                        library_size=100, is_mpc=[False, True],
                        window_start=[101 - small_cache, 1])
    empty = manual_tier([], tx_power=40.0, cache_size=macro_cache, library_size=100)
    snapshots = [Snapshot([macro, small]), Snapshot([empty, small]),
                 Snapshot([macro, manual_tier([], 4.0, small_cache, 100)])]
    counts = assert_chunk_matches_loop(snapshots, s)
    assert not counts[1, 0].any()  # the empty tier
    for i, size in enumerate((macro_cache, small_cache)):
        if size == 0:
            assert not counts[:, i].any()
        elif size == 100:
            assert np.all(counts[0, i] == 2)  # both stations cache every rank


def test_chunk_assembly_of_sampled_snapshots_matches_loop():
    # 70 sampled snapshots in the engine's chunks: a full one and a ragged
    # one of 6; half the stations cache RCS windows, several often cover
    s = set_parameter(rcs_two_tier_scenario(), "tiers[*].radio.sir_threshold", 0.05)
    snapshots = [sample_network(snapshot_rng(29, k), s, region_radius=2500.0)
                 for k in range(70)]
    covering = []
    for start in range(0, 70, CHUNK_SNAPSHOTS):
        chunk = snapshots[start:start + CHUNK_SNAPSHOTS]
        assert_chunk_matches_loop(chunk, s)
        covering += list(evaluate_snapshot(chunk, s).covering)
    assert len(chunk) == 6
    assert max(c.sum() for c in covering) >= 3  # several cover at once


def unit_shape_scenario():
    s = default_scenario()
    for field in ("nakagami_los", "nakagami_nlos"):
        s = set_parameter(s, f"tiers[*].radio.{field}", 1)
    return s


def rcs_two_tier_scenario():
    # a macro tier dense enough to cover often, and half of every tier's
    # stations caching a random window (RCS) rather than the prefix
    s = set_parameter(default_scenario(), "tiers[1].density", 1.0)
    return set_parameter(s, "tiers[*].cache.mpc_fraction", 0.5)


def assert_reports_identical(a, b):
    for f in dataclasses.fields(MetricReport):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if isinstance(x, np.ndarray):
            assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), f.name
        else:
            assert x == y, f.name


@pytest.mark.parametrize("mode", ["all-weighted"])
@pytest.mark.parametrize("make", [default_scenario, rcs_two_tier_scenario],
                         ids=["default", "rcs-two-tier"])
def test_grouping_does_not_change_results(monkeypatch, make, mode):
    # 130 snapshots on a 2.5 km disk, ~200 stations each: two full chunks
    # and a ragged one of 2. The default cap closes a group after about 40
    # snapshots, so a chunk's end closes the second; a cap of one station
    # makes every snapshot its own group and 10**9 each chunk one group.
    # The default macro tier is empty in most snapshots.
    s = make()
    proto = SimulationProtocol(num_snapshots=130, region_radius=2500.0,
                               master_seed=37, content_evaluation=mode)
    groups = []
    evaluate = montecarlo.evaluate_snapshot

    def counted(snapshots, scenario):
        groups.append(len(snapshots))
        return evaluate(snapshots, scenario)

    monkeypatch.setattr(montecarlo, "evaluate_snapshot", counted)
    reports = {}
    for cap in (montecarlo.GROUP_STATIONS, 1, 10 ** 9):
        monkeypatch.setattr(montecarlo, "GROUP_STATIONS", cap)
        groups.clear()
        reports[cap] = run_simulation(s, protocol=proto)
        assert sum(groups) == 130
        if cap == 1:
            assert groups == [1] * 130
        elif cap == 10 ** 9:
            assert groups == [64, 64, 2]
        else:
            assert 1 < max(groups) < 64 and len(groups) > 3
    default, *others = reports.values()
    for report in others:
        assert_reports_identical(report, default)


def snapshot_sir_per_tier(snapshot, scenario):
    """Each station's SIR, per tier, against its snapshot's total received
    power: ``ndarray.sum`` of each tier's powers, added in tier order."""
    powers = [tier.radio.tx_power * link_path_loss(ts.distances, ts.is_los, tier.radio)
              * ts.fading for tier, ts in zip(scenario.tiers, snapshot.tiers)]
    total = float(sum(p.sum() for p in powers if len(p)))
    return [np.divide(p, total - p, out=np.full(len(p), np.inf), where=total - p > 0.0)
            for p in powers]


def test_group_sir_bits_equal_each_snapshot_alone():
    # 40 snapshots of ~200 stations, about one default group; a total summed
    # in another order (np.add.reduceat sums in sequence) moves the last
    # bits of about half of them, which no count may show
    s = rcs_two_tier_scenario()
    snapshots = [sample_network(snapshot_rng(43, k), s, region_radius=2500.0)
                 for k in range(40)]
    group = _sir_per_tier(*_stack(snapshots, s.num_tiers), s)
    alone = [snapshot_sir_per_tier(snap, s) for snap in snapshots]
    for i in range(s.num_tiers):
        want = np.concatenate([sirs[i] for sirs in alone])
        assert group[i].tobytes() == want.tobytes(), i


# Integer counts of the sampling stream at master seed 1234, recorded while
# sampling still computed station positions (the RCS cases: while each
# covering station's cache window was added in a Python loop). Integers, so
# no libm or BLAS difference can move them: a failure here means the stream
# itself changed, which must be a deliberate change. Each case is (scenario,
# disk radius m, snapshots, covering count per tier, coverage_all_bs count,
# hit count per rank from rank 1 (ranks past the list never hit)). 130
# snapshots are two full chunks and a ragged one; on the 2.5 km disk the
# default macro tier is empty in most snapshots.
STREAM_PINS = [
    (default_scenario, 2500.0, 130, [0, 75], 75, [75, 75, 75, 75, 75]),
    (unit_shape_scenario, 20000.0, 70, [0, 33], 33, [33, 33, 33, 33, 33]),
    (rcs_two_tier_scenario, 2500.0, 130, [50, 31], 81,
     [44, 44, 45, 45, 45, 30, 30, 31, 31, 31, 32, 32, 33, 33, 33, 34, 34, 34, 34, 34,
      7, 7, 7, 8, 8, 6, 7, 6, 7, 7, 6, 8, 7, 7, 8, 9, 7, 7, 7, 7,
      7, 7, 6, 6, 7, 8, 7, 7, 6, 5, 4, 5, 6, 6, 5, 4, 4, 3, 4, 5,
      5, 6, 7, 8, 8, 7, 8, 7, 6, 7, 7, 6, 6, 7, 7, 7, 7, 7, 6, 5,
      5, 5, 5, 5, 5, 5, 3, 3, 2, 2, 2, 2, 3, 2, 2, 2, 2, 1, 1, 0]),
]


@pytest.mark.parametrize(
    "make, radius, n, covering, any_count, hits", STREAM_PINS,
    ids=["default-weighted", "unit-20km-weighted", "rcs-two-tier-weighted"])
def test_sampling_stream_is_pinned(make, radius, n, covering, any_count, hits):
    report = run_simulation(make(), protocol=SimulationProtocol(
        num_snapshots=n, region_radius=radius, master_seed=1234))
    assert [round(x * n) for x in report.per_tier_coverage_density] == covering
    assert round(report.coverage_all_bs * n) == any_count
    hit_counts = np.zeros(100, dtype=np.int64)
    hit_counts[:len(hits)] = hits
    # a count ratio is one correctly rounded division, the same on any host
    assert np.array_equal(report.per_content_hit, hit_counts / n)
