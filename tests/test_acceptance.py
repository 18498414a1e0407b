"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines. Monte
Carlo criteria run at desk scale (a few thousand snapshots); the region for
the analytic/Monte-Carlo agreement checks is 20 km, twice the scenario
default, which keeps the disk-truncation bias of the long-range LOS tail
well below the Monte Carlo noise floor (the line-of-sight probability decays
only like D0/r, so coverage couples to stations kilometers away).
"""
import dataclasses
import math

import numpy as np
import pytest

from hetcache.analytic import build_coverage_table
from hetcache.content import (ContentModel, TierCachePolicy,
                              cache_probability_vector,
                              sample_placement_fields)
from hetcache.experiments import grid_search, run_experiment, set_parameter
from hetcache.metrics import analytic_report
from hetcache.montecarlo import run_simulation
from hetcache.scenario import (IntegrationSettings, SimulationProtocol,
                               default_scenario)

WORKERS = 4


def _report(name, ok, detail=""):
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"{name} failed: {detail}"


def with_unit_shapes(scenario):
    tiers = tuple(
        dataclasses.replace(t, radio=dataclasses.replace(
            t.radio, nakagami_los=1, nakagami_nlos=1))
        for t in scenario.tiers)
    return dataclasses.replace(scenario, tiers=tiers)


def agreement_protocol(seed, snapshots):
    return SimulationProtocol(num_snapshots=snapshots, region_radius=20000.0,
                              master_seed=seed)


def test_criterion_01_placement_mass_and_sampler():
    """Cache-probability mass = cache size; sampler frequencies match."""
    cases = [(phi, s, 100) for phi in (0.0, 0.25, 0.5, 1.0)
             for s in (1, 5, 20, 100)]
    cases += [(0.0, 4, 7), (0.0, 6, 7), (0.5, 4, 7), (0.5, 6, 7)]
    assert len(cases) == 20
    worst_mass = 0.0
    worst_freq = 0.0
    rng = np.random.default_rng(20240801)
    n = 100_000
    for phi, s, f in cases:
        policy = TierCachePolicy(s, phi)
        q = cache_probability_vector(policy, f)
        worst_mass = max(worst_mass, abs(q.sum() - s))
        is_mpc, starts = sample_placement_fields(rng, policy, f, n)
        edges = np.zeros(f + 1)
        rcs_starts = starts[~is_mpc]
        np.add.at(edges, rcs_starts - 1, 1.0)
        np.add.at(edges, np.minimum(rcs_starts - 1 + s, f), -1.0)
        freq = np.cumsum(edges)[:f]
        freq[:s] += np.count_nonzero(is_mpc)
        freq /= n
        worst_freq = max(worst_freq, float(np.max(np.abs(freq - q))))
    _report("1 placement mass + sampler",
            worst_mass < 1e-9 and worst_freq < 0.01,
            f"max |sum(q)-S| = {worst_mass:.2e}, max freq dev = {worst_freq:.4f}")


def test_criterion_02_zipf_normalization_and_uniform_limit():
    """Request probabilities sum to 1; zero exponent is exactly uniform."""
    worst = 0.0
    for f in (1, 10, 100, 5000):
        for kappa in (0.0, 0.5, 1.0, 2.5):
            a = ContentModel(f, kappa).request_probabilities()
            worst = max(worst, abs(a.sum() - 1.0))
    uniform = ContentModel(100, 0.0).request_probabilities()
    exact = bool(np.all(uniform == 1.0 / 100.0))
    _report("2 Zipf normalization + uniform limit", worst < 1e-12 and exact,
            f"max |sum(a)-1| = {worst:.2e}, kappa=0 exact: {exact}")


def test_criterion_03_unit_shape_exactness():
    """Analytic per-tier values equal MC mean covering counts at shape 1."""
    base = with_unit_shapes(default_scenario())
    details = []
    ok = True
    for i, beta2 in enumerate((1.0, 2.0, 4.0)):
        s = set_parameter(base, "tiers[2].radio.sir_threshold", beta2)
        [table] = build_coverage_table([s])
        mc = run_simulation(s, agreement_protocol(300 + i, 3000),
                            workers=WORKERS)
        n = 3000
        for k in range(2):
            ana = table.per_tier_density[k]
            est = mc.per_tier_coverage_density[k]
            se = mc.per_tier_coverage_density_stderr[k]
            # Poisson floor keeps the 3-se test meaningful for the very
            # sparse macro tier (expected events per run of order 1)
            tol = 3.0 * max(se, math.sqrt(max(ana, 1e-12) / n))
            z = abs(ana - est) / tol * 3.0
            details.append(f"b2={beta2} tier{k + 1} z={z:.2f}")
            ok = ok and abs(ana - est) <= tol
    _report("3 unit-shape exactness", ok, "; ".join(details))


def test_criterion_04_bound_direction_and_tightness():
    """Analytic coverage upper-bounds MC coverage; tight for thresholds >= 1."""
    ok = True
    details = []
    run = 0
    for label, make in (("M=1", with_unit_shapes), ("M^L=2", lambda s: s)):
        for beta2 in (0.5, 1.0, 2.0, 4.0):
            s = make(set_parameter(default_scenario(),
                                   "tiers[2].radio.sir_threshold", beta2))
            ana = analytic_report(s)
            mc = run_simulation(s, agreement_protocol(400 + run, 2000),
                                workers=WORKERS)
            run += 1
            gap = ana.p_hit - mc.p_hit
            bound_ok = gap >= -3.0 * mc.stderr["p_hit"]
            gap_limit = 0.10 if beta2 < 1.0 else 0.05
            tight_ok = gap <= gap_limit
            ok = ok and bound_ok and tight_ok
            details.append(f"{label} b2={beta2}: gap={gap:+.4f}")
    _report("4 bound direction + tightness", ok, "; ".join(details))


@pytest.fixture(scope="module")
def density_sweep_rows():
    """Shared analytic sweep over the dense-regime density grid.

    The grid covers the decades where small cells dominate the plane
    (1..100 per km^2); below that the macro tier rules both engines and the
    cost/hit trends flatten out or reverse.
    """
    grid = tuple(np.logspace(0.0, 2.0, 7))
    return run_experiment(default_scenario(), {"tiers[2].density": grid})


def test_criterion_05_monotone_trends(density_sweep_rows):
    """Backhaul falls, ASE and cost rise, efficiency peaks inside the grid."""
    rows = density_sweep_rows
    p_bh = np.array([r["p_bh"] for r in rows])
    ase = np.array([r["ase"] for r in rows])
    cost = np.array([r["cost"] for r in rows])
    eta = np.array([r["efficiency"] for r in rows])
    dec_bh = bool(np.all(-np.diff(p_bh) > 1e-12))
    inc_ase = bool(np.all(np.diff(ase) > 1e-12))
    inc_cost = bool(np.all(np.diff(cost) > 1e-12))
    k = int(np.argmax(eta))
    unimodal = (0 < k < len(eta) - 1
                and bool(np.all(np.diff(eta[:k + 1]) > 1e-12))
                and bool(np.all(np.diff(eta[k:]) < -1e-12)))
    _report("5 monotone trends",
            dec_bh and inc_ase and inc_cost and unimodal,
            f"p_bh dec: {dec_bh}, ase inc: {inc_ase}, cost inc: {inc_cost}, "
            f"eta interior unimodal: {unimodal}")


def test_criterion_06_hit_ratio_interior_maximum(density_sweep_rows):
    """Hit probability rises with density, then falls under LOS interference."""
    p_hit = np.array([r["p_hit"] for r in density_sweep_rows])
    k = int(np.argmax(p_hit))
    rises = bool(np.all(np.diff(p_hit[:k + 1]) > 1e-12))
    falls = bool(np.all(np.diff(p_hit[k:]) < -1e-12))
    ok = 0 < k < len(p_hit) - 1 and rises and falls
    _report("6 hit-ratio interior maximum", ok,
            f"argmax index {k} of {len(p_hit) - 1}, rise {rises}, fall {falls}")


def test_criterion_07_popular_prefix_dominates():
    """Full-MPC placement beats full-RCS and wins the placement grid search."""
    ok = True
    details = []
    for kappa in (0.5, 1.0, 1.5):
        s = set_parameter(default_scenario(), "content.popularity_exponent",
                          kappa)
        [table] = build_coverage_table([s])

        def eta(phi1, phi2, scenario=s, tbl=table):
            mod = set_parameter(scenario, "tiers[1].cache.mpc_fraction", phi1)
            mod = set_parameter(mod, "tiers[2].cache.mpc_fraction", phi2)
            return analytic_report(mod, table=tbl).efficiency

        dominance = eta(1.0, 1.0) >= eta(0.0, 0.0)
        res = grid_search(s, {"tiers[1].cache.mpc_fraction": (0.0, 0.5, 1.0),
                              "tiers[2].cache.mpc_fraction": (0.0, 0.5, 1.0)})
        argmax = tuple(res.best_point.values())
        ok = ok and dominance and argmax == (1.0, 1.0)
        details.append(f"kappa={kappa}: dom={dominance}, argmax={argmax}")
    _report("7 popular-prefix dominance", ok, "; ".join(details))


def test_criterion_08_small_optimal_cache_when_dense():
    """At 100 small cells per km^2 the optimal cache is <= 10% of the library."""
    dense = set_parameter(default_scenario(), "tiers[2].density", 100.0)
    res = grid_search(dense, {"tiers[2].cache.cache_size": tuple(range(1, 101))})
    best = res.best_point["tiers[2].cache.cache_size"]
    _report("8 small optimal cache", best <= 10,
            f"argmax cache size = {best} of 100")


def test_criterion_09_range_expansion():
    """Biasing can pay off at moderate density; it cannot when dense."""
    base = set_parameter(default_scenario(), "costs.cache_unit_cost", 0.001)
    results = {}
    for lam2 in (0.1, 100.0):
        s = set_parameter(base, "tiers[2].density", lam2)
        eta0 = analytic_report(s).efficiency
        ratios = []
        for rho2 in np.arange(0.1, 1.0, 0.1):
            biased = set_parameter(set_parameter(s, "tiers[1].rho", 1.0 - rho2),
                                   "tiers[2].rho", rho2)
            ratios.append(analytic_report(biased).efficiency / eta0)
        results[lam2] = max(ratios)
    moderate_ok = results[0.1] > 1.0
    dense_ok = results[100.0] <= 1.02
    _report("9 range expansion", moderate_ok and dense_ok,
            f"moderate max ratio = {results[0.1]:.3f} (> 1), "
            f"dense max ratio = {results[100.0]:.3f} (<= 1.02)")


def test_criterion_10_parallel_determinism(tmp_path):
    """Same seed, 1 vs 8 workers: byte-identical CSV output."""
    s = dataclasses.replace(default_scenario(), protocol=SimulationProtocol(
        num_snapshots=300, region_radius=5000.0, master_seed=42))
    variables = {"tiers[2].density": (10.0,)}
    p1 = tmp_path / "w1.csv"
    p8 = tmp_path / "w8.csv"
    run_experiment(s, variables, engine="mc", out_path=p1, workers=1)
    run_experiment(s, variables, engine="mc", out_path=p8, workers=8)
    identical = p1.read_bytes() == p8.read_bytes()
    _report("10 parallel determinism", identical,
            f"files identical: {identical}")


def test_criterion_11_quadrature_convergence():
    """Halving rel_tol moves every analytic metric less than its error bar."""
    base = default_scenario()
    battery = [
        base,
        set_parameter(base, "tiers[2].density", 0.1),
        set_parameter(base, "tiers[2].density", 100.0),
        set_parameter(base, "tiers[2].radio.sir_threshold", 0.5),
        set_parameter(base, "tiers[2].radio.sir_threshold", 8.0),
        set_parameter(base, "tiers[1].radio.pathloss_exp_los", 2.8),
        set_parameter(base, "content.popularity_exponent", 1.5),
        set_parameter(base, "tiers[*].rho", 0.5),
        set_parameter(base, "tiers[2].radio.nakagami_los", 3),
        set_parameter(base, "tiers[1].cache.mpc_fraction", 0.25),
    ]
    metrics = ("p_hit", "p_bh", "ase", "cost", "efficiency")
    worst = 0.0
    ok = True
    for s in battery:
        loose = analytic_report(s)
        tight_settings = IntegrationSettings(
            rel_tol=s.integration.rel_tol / 2.0, abs_tol=s.integration.abs_tol)
        tight = analytic_report(dataclasses.replace(s, integration=tight_settings))
        for m in metrics:
            delta = abs(getattr(loose, m) - getattr(tight, m))
            estimate = loose.error_estimates[m]
            if delta > 0:
                ok = ok and delta < estimate
                worst = max(worst, delta / estimate if estimate else math.inf)
    _report("11 quadrature convergence", ok,
            f"10-scenario battery, worst delta/estimate = {worst:.2e}")
