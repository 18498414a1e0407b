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
from .scenario import Block, ScenarioConfig, _reaches

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

# The metrics both engines report, each with an error figure, in report order.
METRIC_NAMES = ("p_hit", "p_bh", "ase", "cost", "efficiency")


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


def _gather(block):
    """The per-rank vectors and constants of a ``scenario.Block``'s B points.

    Returns ``(a, q, constants)``: (B, F) request probabilities; (B, K, F)
    caching probabilities, one broadcast ``cache_probability_vector`` call
    per tier; and for ``_delivery_metrics`` the (B, K) densities per m^2
    and those times the rates, and the (B,) F - S_1 files the macro tier
    does not cache, cache slots per m^2 and two unit costs. All points
    share their tier count and library size.

    A field the block's paths do not reach (``scenario._reaches``) is equal
    in every row, so it is read once, from the base, and so is a tier's
    caching vector. A reached leaf field is read from its column
    (``Block.column``), and the other reached fields from the points.
    """
    B, base = len(block), block.base
    K, F = base.num_tiers, block.column(("content", "library_size"))[0]

    def reached(*fields):
        return any(_reaches(block.reach, field) for field in fields)

    def rows(*fields):
        """Every point if the block's paths reach one of ``fields``, else the base alone."""
        return block.points if reached(*fields) else [base]

    def per_tier(name):
        """Field ``name`` of each tier as an (n, K) array: n = B when the
        block's paths reach it at some tier, else 1."""
        columns = [block.column(("tiers", k + 1, *name.split("."))) for k in range(K)]
        n = max(map(len, columns))
        return np.column_stack([column * (n // len(column)) for column in columns])

    density, size, fraction = map(per_tier, ("density", "cache.cache_size", "cache.mpc_fraction"))
    scale = np.array([s.density_scale for s in rows(("density_unit",))])
    backhaul_cost = np.array(block.column(("costs", "backhaul_unit_cost")))
    cache_cost = np.array(block.column(("costs", "cache_unit_cost")))
    rates = np.array([tier_rates(s) for s in rows(
        ("rate_log_base",), ("tiers", "*", "radio", "sir_threshold"))])
    a = np.array([s.content.request_probabilities() for s in rows(("content",))])
    q = np.empty((B, K, F))
    for k in range(K):
        n = B if reached(("tiers", k + 1, "cache")) else 1
        q[:, k] = cache_probability_vector((size[:n, k], fraction[:n, k]), F)
    lam = density * scale[:, None]

    def every_row(x):
        # copied rows, not a broadcast view: the batched products see the
        # same contiguous (B, ...) arrays as when every row is read
        return x if len(x) == B else np.repeat(x, B, axis=0)

    return every_row(a), q, tuple(map(every_row, (
        lam, lam * rates, F - size[:, 0], np.sum(lam * size, axis=1), backhaul_cost,
        cache_cost)))


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
    over the backhaul. ``constants`` comes from ``_gather``;
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


@dataclass(frozen=True, eq=False)
class AnalyticColumns:
    """Analytic metrics of B scenarios as columns; row b is scenario b.

    ``values`` maps each of ``METRIC_NAMES`` to a (B,) array, and
    ``error_estimates`` maps each of them to its first-order error bound,
    also (B,) arrays. ``rho`` holds the (B, K) coverage densities,
    ``per_rank`` the (B, F) per-rank hit, backhaul and ASE components.
    ``failures[b]`` is the ``UndefinedEfficiencyError`` message of a row
    whose cost is 0, whose efficiency and its error are then meaningless,
    else None.
    """

    values: dict
    error_estimates: dict
    rho: np.ndarray
    per_rank: tuple
    failures: tuple


def analytic_columns(block, tables) -> AnalyticColumns:
    """Evaluate every metric of a ``scenario.Block``'s B points at once.

    ``tables[b]`` is the coverage table of point b's radio side; every
    point must have the same library size. The fields of every row are read
    in one pass (``_gather``). Each row equals its point's block of one.
    """
    a, q, constants = _gather(block)
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
        # Where ase is so small that err_ase / ase overflows, |efficiency|
        # times it is err_ase / |cost|; the branch np.where drops may overflow.
        with np.errstate(over="ignore"):
            rel_ase = np.where(ase > 0, err_ase / ase, 0.0)
            err_eff = np.where(np.isfinite(rel_ase), np.abs(efficiency) * rel_ase,
                               err_ase / np.abs(cost)) + np.abs(efficiency) * (err_cost / cost)

    return AnalyticColumns(
        values=dict(zip(METRIC_NAMES, (p_hit, p_bh, ase, cost, efficiency))),
        error_estimates=dict(zip(METRIC_NAMES, (err_hit, err_bh, err_ase, err_cost, err_eff))),
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
    columns = analytic_columns(Block(scenario), [table])
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
