"""Network-level metrics assembled from per-rank delivery components.

Either engine reduces a scenario to per-rank delivery components: the
cache-hit component ``hit[c]``, the cached deliveries ``cached[i, c]`` of
each tier and the macro backhaul deliveries ``backhaul[c]``. One function,
``_delivery_metrics``, weights them by request popularity into the
cache-hit and backhaul-usage probabilities, the area spectral efficiency
(ASE) and the cost per unit area; ``caching_efficiency`` divides the last
two. ``analytic_report`` calls it with the quadrature engine's expected
counts, the Monte Carlo engine once per snapshot and once on the pooled
per-rank means, and ``coverage_probability`` for the hit component alone.
Backhaul is attributed solely to tier 1, the macro tier: lower tiers
without the requested content simply do not serve.

Range expansion rescales each tier's association threshold to
``sir_threshold / rho`` while the rate credited per delivery stays
``log(1 + sir_threshold)`` with the unscaled threshold.
"""
from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np

from .analytic import CoverageTable, build_coverage_table
from .content import ContentModel, cache_probability_vector
from .scenario import CostModel, IntegrationSettings, ScenarioConfig

__all__ = [
    "UndefinedEfficiencyError",
    "MetricReport",
    "tier_rates",
    "coverage_probability",
    "caching_efficiency",
    "apply_range_expansion",
    "analytic_report",
]

ANALYTIC = "analytic"
MONTE_CARLO = "monte-carlo"


class UndefinedEfficiencyError(ValueError):
    """Efficiency requested for a network with zero cost (empty network)."""


@dataclass(frozen=True, eq=False)
class MetricReport:
    """All scenario metrics from one engine run.

    ``coverage`` is clipped to [0, 1]; for the analytic engine the raw
    expected-count bound (which may exceed 1) is kept in ``bound_value`` and
    ``coverage_is_bound`` is set. ``p_bh`` is the per-content
    ``(1 - q_1[c]) * rho_1`` statistic averaged over popularity -- the
    quantity the analytic formula defines; the Monte Carlo engine also
    reports the operational event probability ("no cache hit but a
    non-caching macro station covers") as ``p_bh_operational``.
    ``stderr`` carries Monte Carlo standard errors, ``error_estimates``
    analytic quadrature error bounds; keys match the metric field names.
    """

    provenance: str
    coverage: float
    p_hit: float
    p_bh: float
    ase: float
    cost: float
    efficiency: float
    per_tier_coverage_density: tuple
    bound_value: float | None = None
    coverage_is_bound: bool = False
    p_bh_operational: float | None = None
    coverage_all_bs: float | None = None
    per_content_hit: np.ndarray | None = field(default=None, repr=False)
    per_content_backhaul: np.ndarray | None = field(default=None, repr=False)
    per_content_ase: np.ndarray | None = field(default=None, repr=False)
    per_tier_coverage_density_stderr: tuple | None = None
    stderr: dict | None = None
    error_estimates: dict | None = None


def tier_rates(scenario: ScenarioConfig) -> tuple:
    """Per-tier delivered rate log_base(1 + sir_threshold), bias-independent."""
    base = math.log(scenario.rate_log_base)
    return tuple(
        math.log1p(t.radio.sir_threshold) / base for t in scenario.tiers
    )


def _scenario_constants(scenario: ScenarioConfig):
    """The scenario's inputs to ``_delivery_metrics``.

    ``(lam, lam_rate, uncached_files, slots_per_m2, costs)``: per-tier
    densities per m^2, densities times delivered rates, the F - S_1 files
    the macro tier does not cache, the cache slots deployed per m^2 and the
    unit costs.
    """
    lam = scenario.densities_per_m2()
    cache_sizes = [t.cache.cache_size for t in scenario.tiers]
    return (lam, lam * np.asarray(tier_rates(scenario)),
            scenario.content.library_size - cache_sizes[0],
            float(np.sum(lam * np.array(cache_sizes))), scenario.costs)


def _delivery_metrics(w: np.ndarray, hit: np.ndarray, cached: np.ndarray,
                      backhaul: np.ndarray, constants):
    """Hit, backhaul, ASE and cost from per-rank delivery components.

    ``w[c]`` weights rank c+1 (request popularity, or a one-hot vector for
    one sampled request); ``hit[c]`` is its cache-hit component,
    ``cached[i, c]`` the expected number of tier-(i+1) stations delivering
    it from cache and ``backhaul[c]`` the expected number of macro stations
    delivering it over the backhaul. ``constants`` comes from
    ``_scenario_constants``. Returns ``(p_hit, p_bh, ase_per_rank, ase,
    cost)``: ASE in bit/s/Hz/m^2 counts cached deliveries at every tier plus
    macro backhaul deliveries; cost per m^2 is the backhaul term (macro
    density times the non-cached files times ``p_bh``) plus a storage
    charge for every deployed cache slot.
    """
    lam, lam_rate, uncached_files, slots_per_m2, costs = constants
    p_hit = float(w @ hit)
    p_bh = float(w @ backhaul)
    ase_per_rank = lam_rate @ cached + lam_rate[0] * backhaul
    ase = float(w @ ase_per_rank)
    cost = (lam[0] * uncached_files * costs.backhaul_unit_cost * p_bh
            + costs.cache_unit_cost * slots_per_m2)
    return p_hit, p_bh, ase_per_rank, ase, cost


def coverage_probability(table: CoverageTable, content: ContentModel,
                         policies) -> float:
    """Popularity- and cache-weighted coverage: sum_c a_c sum_i q_i[c] rho_i.

    Upper-bounds the true content-aware coverage probability; the bound is
    tight for thresholds >= 1 (and exact at unit fading shapes), but as an
    expected-count bound it may exceed 1. It is ``p_hit``, which needs no
    densities or costs, so those enter as zeros.
    """
    rho = np.asarray(table.per_tier_density)
    if len(policies) != rho.size:
        raise ValueError("one cache policy per tier is required")
    q = np.stack([cache_probability_vector(p, content.library_size) for p in policies])
    zeros = np.zeros(rho.size)
    constants = (zeros, zeros, 0, 0.0, CostModel())
    return _delivery_metrics(content.request_probabilities(), q.T @ rho,
                             q * rho[:, None], (1.0 - q[0]) * rho[0], constants)[0]


def caching_efficiency(ase: float, cost: float) -> float:
    """ASE per unit cost; undefined (raises) for a zero-cost network."""
    if cost == 0.0:
        raise UndefinedEfficiencyError(
            "cost per area is zero (empty network); efficiency is undefined")
    return ase / cost


def apply_range_expansion(scenario: ScenarioConfig, rho_factors) -> ScenarioConfig:
    """Return the scenario with per-tier bias factors replaced.

    Factors must lie in (0, 1]; factor 1 leaves a tier unbiased. Coverage
    and association use sir_threshold / rho, delivered rates do not change.
    """
    if len(rho_factors) != scenario.num_tiers:
        raise ValueError("one bias factor per tier is required")
    for r in rho_factors:
        if not 0.0 < r <= 1.0:
            raise ValueError("bias factors must lie in (0, 1]")
    tiers = tuple(
        dataclasses.replace(t, rho=float(r))
        for t, r in zip(scenario.tiers, rho_factors)
    )
    return dataclasses.replace(scenario, tiers=tiers)


def _memoised(memo: dict, key, make, *args) -> np.ndarray:
    """``make(*args)`` the first time ``key`` is seen, kept read-only after."""
    value = memo.get(key)
    if value is None:
        value = make(*args)
        value.flags.writeable = False
        memo[key] = value
    return value


def analytic_report(scenario: ScenarioConfig,
                    settings: IntegrationSettings | None = None,
                    table: CoverageTable | None = None,
                    memo: dict | None = None) -> MetricReport:
    """Evaluate every metric with the quadrature engine.

    A precomputed ``table`` may be supplied when only cache, content, or
    cost parameters changed since it was built (coverage densities do not
    depend on those). ``memo`` is a dict shared by the reports of one
    sweep: it keeps, read-only, the request probabilities of each content
    model and the caching vector of each (cache policy, library size).
    """
    if table is None:
        table = build_coverage_table(scenario, settings)
    if memo is None:
        memo = {}
    content = scenario.content
    library_size = content.library_size
    a = _memoised(memo, content, content.request_probabilities)
    q = np.stack([_memoised(memo, (t.cache, library_size), cache_probability_vector,
                            t.cache, library_size) for t in scenario.tiers])
    constants = _scenario_constants(scenario)
    lam, lam_rate, uncached_files = constants[:3]

    rho = np.asarray(table.per_tier_density)
    errs = np.asarray(table.error_estimates)

    hit_c = q.T @ rho
    bh_c = (1.0 - q[0]) * rho[0]
    p_hit, p_bh, ase_c, ase, cost = _delivery_metrics(
        a, hit_c, q * rho[:, None], bh_c, constants)
    efficiency = caching_efficiency(ase, cost)

    # First-order propagation of the per-tier quadrature error bounds.
    q_weights = q @ a  # popularity mass cached per tier
    bh_weight = float(a @ (1.0 - q[0]))
    err_hit = float(q_weights @ errs)
    err_bh = bh_weight * errs[0]
    err_ase = float((q_weights * lam_rate) @ errs) + lam_rate[0] * bh_weight * errs[0]
    err_cost = (lam[0] * uncached_files * scenario.costs.backhaul_unit_cost
                * bh_weight * errs[0])
    err_eff = abs(efficiency) * (
        err_ase / ase if ase > 0 else 0.0) + abs(efficiency) * (err_cost / cost)

    bound = p_hit
    return MetricReport(
        provenance=ANALYTIC,
        coverage=min(1.0, bound),
        bound_value=bound,
        coverage_is_bound=True,
        p_hit=p_hit,
        p_bh=p_bh,
        ase=ase,
        cost=cost,
        efficiency=efficiency,
        per_tier_coverage_density=tuple(float(x) for x in rho),
        per_content_hit=hit_c,
        per_content_backhaul=bh_c,
        per_content_ase=ase_c,
        error_estimates={
            "coverage": err_hit,
            "p_hit": err_hit,
            "p_bh": err_bh,
            "ase": err_ase,
            "cost": err_cost,
            "efficiency": err_eff,
        },
    )
