"""Network-level metrics assembled from popularity-weighted deliveries.

Either engine reduces a scenario to deliveries averaged over request
popularity: the cache-hit probability, and the expected stations of each
tier delivering a request from cache and of the macro tier delivering it
over the backhaul. ``_delivery_metrics`` turns the last two into the area
spectral efficiency (ASE) and cost per unit area; ``caching_efficiency``
divides them. The analytic engine reads caching probabilities only through
each tier's popularity mass (``_gather``); Monte Carlo weights its per-rank
counts by popularity (``_dot``).

Every input of ``_delivery_metrics`` carries a leading batch axis, one row
per evaluation: ``analytic_columns`` evaluates B scenarios (a block of
grid rows) in one call, ``analytic_report`` is its batch of one and a
stack of per-rank rows for its per-content figures, the Monte Carlo engine
makes one call per chunk of snapshots and one on the pooled per-rank
means. Each row's reductions run in the order of the unbatched vector
products, so a row's figures do not depend on the batch it is in.
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

# ``analytic_report`` looks ``build_coverage_table`` up here; perfbench/tracing.py wraps it.
from .analytic import CoverageTable, build_coverage_table
from .content import cache_probability_vector, popularity_mass_tables, popularity_masses
from .quadrature import _unwrapped
from .scenario import Block, ScenarioConfig

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


def _gather(block, store: dict):
    """The popularity masses and constants of a ``scenario.Block``'s B points.

    Returns the (B, K) masses m_k = sum_c a_c q_k(c) that each tier's
    caches hold, the (B,) 1 - m_1 (``content.popularity_masses``, from the
    tables ``store`` keeps under each content model) and, for
    ``_delivery_metrics``, the (B, K) densities per m^2 and those times the
    rates, and the (B,) F - S_1 files the macro tier does not cache, cache
    slots per m^2 and two unit costs. A leaf field is read by
    ``Block.column``, one value per point, the density unit, rates and
    content models from ``Block.scenarios``: once, from the base, where the
    block's paths do not reach them. All points share their tier count.
    """
    def per_tier(name):
        """Field ``name`` of each tier as a (B, K) array."""
        return np.column_stack([block.column(("tiers", k + 1, *name.split(".")))
                                for k in range(block.base.num_tiers)])

    density, size, fraction = map(per_tier, ("density", "cache.cache_size", "cache.mpc_fraction"))
    scale = np.array([s.density_scale for s in block.scenarios([("density_unit",)])])
    backhaul_cost = np.array(block.column(("costs", "backhaul_unit_cost")))
    cache_cost = np.array(block.column(("costs", "cache_unit_cost")))
    library_size = np.array(block.column(("content", "library_size")))
    rates = np.array([tier_rates(s) for s in block.scenarios(
        [("rate_log_base",), ("tiers", "*", "radio", "sir_threshold")])])
    tables = []
    for s in block.scenarios([("content",)]):
        if s.content not in store:
            store[s.content] = popularity_mass_tables(s.content.request_probabilities())
        tables.append(store[s.content])
    if len(tables) == 1:
        masses, uncached = popularity_masses(tables[0], size, fraction)
    else:  # each point's own content model
        masses, uncached = map(np.array, zip(*map(popularity_masses, tables, size, fraction)))
    lam = density * scale[:, None]
    return masses, uncached[:, 0], (lam, lam * rates, library_size - size[:, 0],
                                    np.sum(lam * size, axis=1), backhaul_cost, cache_cost)


def _dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Row-wise dot products of two (B, n) stacks (either may broadcast).

    Row b is summed exactly as the vector product ``x[b] @ y[b]``: each
    stacked (1, n) @ (n, 1) product runs the same BLAS dot. A plain
    ``(x * y).sum(1)``, ``einsum`` or matrix-vector product does not, and
    CSV cells are printed to 17 digits.
    """
    return (x[..., None, :] @ y[..., :, None])[..., 0, 0]


def _delivery_metrics(cached: np.ndarray, backhaul: np.ndarray, constants):
    """ASE and cost, (B,) arrays, from deliveries averaged over popularity.

    Row b of every argument is one evaluation: ``cached[b, i]`` expected
    tier-(i+1) stations delivering from cache, ``backhaul[b]`` expected
    macro stations delivering over the backhaul (``p_bh``), ``constants``
    from ``_gather`` (a batch of one broadcasts). ASE in bit/s/Hz/m^2 counts
    both; cost per m^2 is macro density times non-cached files times
    ``p_bh`` times the backhaul unit cost, plus every cache slot's charge.
    """
    lam, lam_rate, uncached_files, slots_per_m2, backhaul_cost, cache_cost = constants
    ase = _dot(lam_rate, cached) + lam_rate[:, 0] * backhaul
    cost = (lam[:, 0] * uncached_files * backhaul_cost * backhaul
            + cache_cost * slots_per_m2)
    return ase, cost


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
    also (B,) arrays. ``rho`` holds the (B, K) coverage densities.
    ``failures[b]`` is the ``UndefinedEfficiencyError`` message of a row
    whose cost is 0 (its efficiency is then meaningless), else None.
    """

    values: dict
    error_estimates: dict
    rho: np.ndarray
    failures: tuple


def analytic_columns(block, tables, store: dict | None = None) -> AnalyticColumns:
    """Evaluate every metric of a ``scenario.Block``'s B points at once.

    ``tables[b]`` is the coverage table of point b's radio side, ``store``
    a sweep's store for ``_gather``. With coverage densities rho_k, p_hit =
    sum_k rho_k m_k and p_bh = rho_1 (1 - m_1), and ASE, cost and every
    error bar follow from the masses too: no per-rank array is built. Each
    row equals its point's block of one.
    """
    masses, uncached, constants = _gather(block, {} if store is None else store)
    lam, lam_rate, uncached_files, _, backhaul_cost, _ = constants
    rho = np.array([t.per_tier_density for t in tables])
    errs = np.array([t.error_estimates for t in tables])

    p_hit = _dot(rho, masses)
    p_bh = rho[:, 0] * uncached
    ase, cost = _delivery_metrics(rho * masses, p_bh, constants)

    # First-order propagation of the per-tier quadrature error bounds.
    err_hit = _dot(masses, errs)
    err_bh = uncached * errs[:, 0]
    err_ase = _delivery_metrics(masses * errs, err_bh, constants)[0]
    err_cost = lam[:, 0] * uncached_files * backhaul_cost * err_bh
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
        failures=tuple(_ZERO_COST if c == 0.0 else None for c in cost.tolist()),
    )


def analytic_report(scenario: ScenarioConfig,
                    table: CoverageTable | None = None) -> MetricReport:
    """Evaluate every metric with the quadrature engine.

    The report is ``analytic_columns``'s batch of one, with quadrature
    settings from ``scenario.integration``, plus the per-rank components
    from ``cache_probability_vector``. A precomputed ``table`` may be
    supplied when only cache, content, or cost parameters changed since it
    was built. Raises ``UndefinedEfficiencyError`` at zero cost.
    """
    if table is None:
        table = _unwrapped(build_coverage_table([scenario])[0])
    block, store = Block(scenario), {}
    columns = analytic_columns(block, [table], store)
    fields = {name: column.tolist()[0] for name, column in columns.values.items()}
    fields["efficiency"] = caching_efficiency(fields["ase"], fields["cost"])
    rho = columns.rho[0]
    q = np.array([cache_probability_vector(t.cache, scenario.content.library_size)
                  for t in scenario.tiers])
    backhaul = (1.0 - q[0]) * rho[0]
    return MetricReport(
        provenance=ANALYTIC,
        coverage_is_bound=True,
        **fields,
        per_tier_coverage_density=tuple(rho.tolist()),
        per_content_hit=rho @ q,
        per_content_backhaul=backhaul,
        per_content_ase=_delivery_metrics((q * rho[:, None]).T, backhaul,
                                          _gather(block, store)[2])[0],
        error_estimates={name: column.tolist()[0]
                         for name, column in columns.error_estimates.items()},
    )
