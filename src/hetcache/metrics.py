"""Network-level metrics assembled from per-tier coverage quantities.

Given per-tier covering-station expectations (from either engine), this
module forms the cache-hit and backhaul-usage probabilities, the area
spectral efficiency (ASE), the cost per unit area, and the caching
efficiency (ASE per cost). Backhaul is attributed solely to tier 1, the
macro tier: lower tiers without the requested content simply do not serve.

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
from .scenario import IntegrationSettings, ScenarioConfig

__all__ = [
    "UndefinedEfficiencyError",
    "MetricReport",
    "tier_rates",
    "hit_and_backhaul",
    "per_content_hit_backhaul",
    "ase_from_components",
    "area_spectral_efficiency",
    "cost_per_area",
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
    fingerprint: str = ""


def tier_rates(scenario: ScenarioConfig) -> tuple:
    """Per-tier delivered rate log_base(1 + sir_threshold), bias-independent."""
    base = math.log(scenario.rate_log_base)
    return tuple(
        math.log1p(t.radio.sir_threshold) / base for t in scenario.tiers
    )


def _q_matrix(policies, library_size: int) -> np.ndarray:
    return np.stack([cache_probability_vector(p, library_size) for p in policies])


def _hit_backhaul(rho: np.ndarray, q: np.ndarray):
    return q.T @ rho, (1.0 - q[0]) * rho[0]


def per_content_hit_backhaul(rho, policies, content: ContentModel):
    """Per-rank hit and backhaul quantities before popularity averaging.

    hit[c] = sum_i q_i[c] rho_i; backhaul[c] = (1 - q_1[c]) rho_1.
    """
    rho = np.asarray(rho, dtype=np.float64)
    return _hit_backhaul(rho, _q_matrix(policies, content.library_size))


def hit_and_backhaul(rho, policies, content: ContentModel):
    """Popularity-averaged cache-hit and backhaul-usage probabilities."""
    a = content.request_probabilities()
    hit, backhaul = per_content_hit_backhaul(rho, policies, content)
    return float(a @ hit), float(a @ backhaul)


def _ase_per_rank(lam_rate: np.ndarray, cached: np.ndarray,
                  backhaul: np.ndarray) -> np.ndarray:
    return lam_rate @ cached + lam_rate[0] * backhaul


def ase_from_components(cached_component: np.ndarray, backhaul_component: np.ndarray,
                        rates, densities_per_m2, content: ContentModel) -> float:
    """ASE in bit/s/Hz/m^2 from per-rank delivery expectations.

    ``cached_component[i, c-1]`` is the expected number of tier-(i+1)
    stations delivering rank c from cache; ``backhaul_component[c-1]`` the
    expected number of macro stations delivering it over the backhaul.
    """
    a = content.request_probabilities()
    rates = np.asarray(rates, dtype=np.float64)
    lam = np.asarray(densities_per_m2, dtype=np.float64)
    return float(a @ _ase_per_rank(lam * rates, cached_component, backhaul_component))


def area_spectral_efficiency(rho, policies, content: ContentModel, rates,
                             densities_per_m2) -> float:
    """ASE: cached deliveries at every tier plus macro backhaul deliveries."""
    rho = np.asarray(rho, dtype=np.float64)
    q = _q_matrix(policies, content.library_size)
    _, backhaul = _hit_backhaul(rho, q)
    return ase_from_components(q * rho[:, None], backhaul, rates, densities_per_m2,
                               content)


def _cost(lam: np.ndarray, library_size: int, cache_sizes, costs,
          p_bh: float) -> float:
    backhaul_term = (lam[0] * (library_size - cache_sizes[0])
                     * costs.backhaul_unit_cost * p_bh)
    storage_term = costs.cache_unit_cost * float(
        np.sum(lam * np.array(cache_sizes)))
    return backhaul_term + storage_term


def cost_per_area(per_content_backhaul, policies, densities_per_m2,
                  content: ContentModel, costs) -> float:
    """Cost per m^2: backhaul term plus aggregated cache-storage term.

    The backhaul term scales with the macro density, the number of
    non-cached files (F - S_1), and the popularity-averaged per-content
    backhaul usage; the storage term charges every deployed cache slot.
    """
    a = content.request_probabilities()
    p_bh = float(a @ np.asarray(per_content_backhaul))
    return _cost(np.asarray(densities_per_m2, dtype=np.float64), content.library_size,
                 [p.cache_size for p in policies], costs, p_bh)


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
    policies = [t.cache for t in scenario.tiers]
    cache_sizes = [p.cache_size for p in policies]
    a = _memoised(memo, content, content.request_probabilities)
    q = np.stack([_memoised(memo, (p, library_size), cache_probability_vector,
                            p, library_size) for p in policies])
    densities = scenario.densities_per_m2()
    lam_rate = densities * np.asarray(tier_rates(scenario))

    rho = np.asarray(table.per_tier_density)
    errs = np.asarray(table.error_estimates)

    hit_c, bh_c = _hit_backhaul(rho, q)
    p_hit = float(a @ hit_c)
    p_bh = float(a @ bh_c)
    ase_c = _ase_per_rank(lam_rate, q * rho[:, None], bh_c)
    ase = float(a @ ase_c)
    cost = _cost(densities, library_size, cache_sizes, scenario.costs, p_bh)
    efficiency = caching_efficiency(ase, cost)

    # First-order propagation of the per-tier quadrature error bounds.
    q_weights = q @ a  # popularity mass cached per tier
    bh_weight = float(a @ (1.0 - q[0]))
    err_hit = float(q_weights @ errs)
    err_bh = bh_weight * errs[0]
    err_ase = float((q_weights * lam_rate) @ errs) + lam_rate[0] * bh_weight * errs[0]
    err_cost = (densities[0] * (library_size - cache_sizes[0])
                * scenario.costs.backhaul_unit_cost * bh_weight * errs[0])
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
        fingerprint=table.fingerprint,
    )
