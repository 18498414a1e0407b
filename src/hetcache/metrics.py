"""Network-level metrics assembled from per-rank delivery components.

Either engine reduces a scenario to per-rank delivery components: the
cache-hit component ``hit[c]``, the cached deliveries ``cached[i, c]`` of
each tier and the macro backhaul deliveries ``backhaul[c]``. One function,
``_delivery_metrics``, weights them by request popularity into the
cache-hit and backhaul-usage probabilities, the area spectral efficiency
(ASE) and the cost per unit area; ``caching_efficiency`` divides the last
two.

Every input of ``_delivery_metrics`` carries a leading batch axis, one row
per evaluation: ``analytic_columns`` evaluates B scenarios (a block of
grid rows) in one call, ``analytic_report`` is its batch of one, the Monte
Carlo engine makes one call per chunk of snapshots and one on the pooled
per-rank means. Each row's reductions run in the order of the unbatched
vector products, so a row's figures do not depend on the batch it is in.
Backhaul is attributed solely to tier 1, the macro tier: lower tiers
without the requested content simply do not serve.

Range expansion rescales each tier's association threshold to
``sir_threshold / rho`` while the rate credited per delivery stays
``log(1 + sir_threshold)`` with the unscaled threshold.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .analytic import CoverageTable, build_coverage_table
from .content import cache_probability_vector
from .scenario import ScenarioConfig

__all__ = [
    "UndefinedEfficiencyError",
    "MetricReport",
    "tier_rates",
    "caching_efficiency",
    "AnalyticColumns",
    "analytic_columns",
    "analytic_report",
]

ANALYTIC = "analytic"
MONTE_CARLO = "mc"


class UndefinedEfficiencyError(ValueError):
    """Efficiency requested for a network with zero cost (empty network)."""


@dataclass(frozen=True, eq=False)
class MetricReport:
    """All scenario metrics from one engine run.

    ``provenance`` names the engine as ``--engine`` does: ``analytic`` or
    ``mc``. The analytic ``p_hit`` is an expected-count upper bound on the
    content-aware coverage that may exceed 1; ``coverage_is_bound`` is set.
    ``p_bh`` is the per-content ``(1 - q_1[c]) * rho_1`` statistic averaged
    over popularity -- the quantity the analytic formula defines; the Monte
    Carlo engine also reports the operational event probability ("no cache
    hit but a non-caching macro station covers") as ``p_bh_operational``.
    ``stderr`` carries Monte Carlo standard errors, ``error_estimates``
    analytic quadrature error bounds; keys match the metric field names.
    """

    provenance: str
    p_hit: float
    p_bh: float
    ase: float
    cost: float
    efficiency: float
    per_tier_coverage_density: tuple
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


def _scenario_constants(scenarios):
    """The inputs to ``_delivery_metrics`` of B scenarios, one row each.

    ``(lam, lam_rate, uncached_files, slots_per_m2, backhaul_unit_cost,
    cache_unit_cost)``: (B, K) per-tier densities per m^2 and densities
    times delivered rates; (B,) the F - S_1 files the macro tier does not
    cache, the cache slots deployed per m^2 and the two unit costs.
    """
    lam = np.stack([s.densities_per_m2() for s in scenarios])
    cache_sizes = np.array([[t.cache.cache_size for t in s.tiers] for s in scenarios])
    return (lam, lam * np.array([tier_rates(s) for s in scenarios]),
            np.array([s.content.library_size for s in scenarios]) - cache_sizes[:, 0],
            np.sum(lam * cache_sizes, axis=1),
            np.array([s.costs.backhaul_unit_cost for s in scenarios]),
            np.array([s.costs.cache_unit_cost for s in scenarios]))


def _dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Row-wise dot products of two (B, n) stacks (either may broadcast).

    Row b is summed exactly as the vector product ``x[b] @ y[b]``: each
    stacked (1, n) @ (n, 1) product runs the same BLAS dot. A plain
    ``(x * y).sum(1)``, ``einsum`` or matrix-vector product does not, and
    CSV cells are printed to 17 digits.
    """
    return (x[..., None, :] @ y[..., :, None])[..., 0, 0]


def _delivery_metrics(w: np.ndarray, hit: np.ndarray, cached: np.ndarray,
                      backhaul: np.ndarray, constants):
    """Hit, backhaul, ASE and cost from per-rank delivery components.

    Row b of every argument is one evaluation. ``w[b, c]`` weights rank
    c+1 by its request popularity;
    ``hit[b, c]`` is its cache-hit component, ``cached[b, i, c]`` the
    expected number of tier-(i+1) stations delivering it from cache and
    ``backhaul[b, c]`` the expected number of macro stations delivering it
    over the backhaul. ``constants`` comes from ``_scenario_constants``;
    a batch of one scenario broadcasts over every row. Returns ``(p_hit,
    p_bh, ase_per_rank, ase, cost)``, (B,) arrays and the (B, F) ASE per
    rank: ASE in bit/s/Hz/m^2 counts cached deliveries at every tier plus
    macro backhaul deliveries; cost per m^2 is the backhaul term (macro
    density times the non-cached files times ``p_bh``) plus a storage
    charge for every deployed cache slot.
    """
    lam, lam_rate, uncached_files, slots_per_m2, backhaul_cost, cache_cost = constants
    p_hit = _dot(w, hit)
    p_bh = _dot(w, backhaul)
    ase_per_rank = (lam_rate[:, None, :] @ cached)[:, 0] + lam_rate[:, :1] * backhaul
    ase = _dot(w, ase_per_rank)
    cost = (lam[:, 0] * uncached_files * backhaul_cost * p_bh
            + cache_cost * slots_per_m2)
    return p_hit, p_bh, ase_per_rank, ase, cost


_ZERO_COST = "cost per area is zero (empty network); efficiency is undefined"


def caching_efficiency(ase: float, cost: float) -> float:
    """ASE per unit cost; undefined (raises) for a zero-cost network."""
    if cost == 0.0:
        raise UndefinedEfficiencyError(_ZERO_COST)
    return ase / cost


def _memoised(memo: dict, key, make, *args) -> np.ndarray:
    """``make(*args)`` the first time ``key`` is seen, kept read-only after."""
    value = memo.get(key)
    if value is None:
        value = make(*args)
        value.flags.writeable = False
        memo[key] = value
    return value


@dataclass(frozen=True, eq=False)
class AnalyticColumns:
    """Analytic metrics of B scenarios as columns; row b is scenario b.

    ``values`` maps ``p_hit``, ``p_bh``, ``ase``, ``cost`` and
    ``efficiency`` to (B,) arrays, and ``error_estimates`` maps each of
    them to its first-order error bound, also (B,) arrays. ``rho`` holds
    the (B, K) coverage densities, ``per_rank`` the (B, F) per-rank hit,
    backhaul and ASE components. ``failures[b]`` is the
    ``UndefinedEfficiencyError`` message of a row whose cost is 0, whose
    efficiency and its error are then meaningless, else None.
    """

    values: dict
    error_estimates: dict
    rho: np.ndarray
    per_rank: tuple
    failures: tuple


def analytic_columns(scenarios, tables, memo: dict | None = None) -> AnalyticColumns:
    """Evaluate every metric of B scenarios with the quadrature engine at once.

    ``tables[b]`` is the coverage table of ``scenarios[b]``'s radio side;
    every scenario must have the same library size. ``memo`` is a dict
    shared by the evaluations of one sweep: it keeps, read-only, the
    request probabilities of each content model and the caching vector of
    each (cache policy, library size). Each row equals the batch of one.
    """
    if memo is None:
        memo = {}
    a = np.stack([_memoised(memo, s.content, s.content.request_probabilities)
                  for s in scenarios])
    q = np.stack([_memoised(memo, (t.cache, s.content.library_size),
                            cache_probability_vector, t.cache, s.content.library_size)
                  for s in scenarios for t in s.tiers]).reshape(len(scenarios), -1, a.shape[1])
    constants = _scenario_constants(scenarios)
    lam, lam_rate, uncached_files, _, backhaul_cost, _ = constants
    rho = np.array([t.per_tier_density for t in tables])
    errs = np.array([t.error_estimates for t in tables])

    hit_c = (q.transpose(0, 2, 1) @ rho[:, :, None])[:, :, 0]
    bh_c = (1.0 - q[:, 0]) * rho[:, :1]
    p_hit, p_bh, ase_c, ase, cost = _delivery_metrics(
        a, hit_c, q * rho[:, :, None], bh_c, constants)

    # First-order propagation of the per-tier quadrature error bounds.
    q_weights = (q @ a[:, :, None])[:, :, 0]  # popularity mass cached per tier
    bh_weight = _dot(a, 1.0 - q[:, 0])
    err_hit = _dot(q_weights, errs)
    err_bh = bh_weight * errs[:, 0]
    err_ase = _dot(q_weights * lam_rate, errs) + lam_rate[:, 0] * bh_weight * errs[:, 0]
    err_cost = lam[:, 0] * uncached_files * backhaul_cost * bh_weight * errs[:, 0]
    with np.errstate(divide="ignore", invalid="ignore"):  # zero-cost rows
        efficiency = ase / cost
        err_eff = np.abs(efficiency) * np.where(ase > 0, err_ase / ase, 0.0) + (
            np.abs(efficiency) * (err_cost / cost))

    return AnalyticColumns(
        values={"p_hit": p_hit, "p_bh": p_bh, "ase": ase, "cost": cost,
                "efficiency": efficiency},
        error_estimates={"p_hit": err_hit, "p_bh": err_bh, "ase": err_ase,
                         "cost": err_cost, "efficiency": err_eff},
        rho=rho,
        per_rank=(hit_c, bh_c, ase_c),
        failures=tuple(_ZERO_COST if c == 0.0 else None for c in cost.tolist()),
    )


def analytic_report(scenario: ScenarioConfig,
                    table: CoverageTable | None = None) -> MetricReport:
    """Evaluate every metric with the quadrature engine.

    The report is ``analytic_columns``'s batch of one, with quadrature
    settings from ``scenario.integration``. A precomputed ``table`` may be
    supplied when only cache, content, or cost parameters changed since it
    was built (coverage densities do not depend on those). Raises
    ``UndefinedEfficiencyError`` at zero cost.
    """
    if table is None:
        table = build_coverage_table(scenario)
    columns = analytic_columns([scenario], [table])
    fields = {name: column.tolist()[0] for name, column in columns.values.items()}
    fields["efficiency"] = caching_efficiency(fields["ase"], fields["cost"])
    hit_c, bh_c, ase_c = (x[0] for x in columns.per_rank)
    return MetricReport(
        provenance=ANALYTIC,
        coverage_is_bound=True,
        **fields,
        per_tier_coverage_density=tuple(columns.rho[0].tolist()),
        per_content_hit=hit_c,
        per_content_backhaul=bh_c,
        per_content_ase=ase_c,
        error_estimates={name: column.tolist()[0]
                         for name, column in columns.error_estimates.items()},
    )
