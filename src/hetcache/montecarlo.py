"""Snapshot-based Monte Carlo engine.

Each snapshot drops every tier's stations as a Poisson point process on a
disk around a typical user at the origin, keeping only their distances to
it, draws link modes, fading, and cache placements, and computes each
station's SIR against the total received power of all other stations (all
tiers interfere; no noise). A station covers when its SIR clears its tier's
bias-scaled threshold; a content rank scores a hit when some covering
station caches it, and uses the backhaul when no cache hit exists but a
non-caching macro station covers.

Snapshots are independent work units: snapshot ``k`` draws from a stream
derived from ``(master_seed, k)`` by splittable seeding, and reductions use
integer accumulators plus per-snapshot floats combined in snapshot order,
so results are bit-identical for a fixed seed no matter how many workers
run or how the pool schedules them.
"""
from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .channel import sample_links
from .content import cache_probability_vector, sample_placement_fields
from .metrics import (MONTE_CARLO, MetricReport, _delivery_metrics, _dot,
                      _scenario_constants, caching_efficiency)
from .scenario import ScenarioConfig, SimulationProtocol

__all__ = [
    "Snapshot",
    "TierSnapshot",
    "SnapshotEstimates",
    "snapshot_rng",
    "sample_network",
    "evaluate_snapshot",
    "run_simulation",
]

# Snapshots per work unit; fixed so chunk boundaries (and thus reduction
# order) never depend on the worker count.
CHUNK_SNAPSHOTS = 64


@dataclass
class TierSnapshot:
    """All stations of one tier in one snapshot (struct-of-arrays)."""

    distances: np.ndarray  # (n,) meters from the origin
    is_los: np.ndarray  # (n,) bool
    fading: np.ndarray  # (n,) unit-mean power gains
    pathloss: np.ndarray  # (n,) unitless
    is_mpc: np.ndarray  # (n,) bool, True = caches the popular prefix
    window_start: np.ndarray  # (n,) 1-based window start for RCS stations

    def __len__(self):
        return len(self.distances)


@dataclass
class Snapshot:
    """One network realization: a TierSnapshot per tier."""

    tiers: list

    def station_count(self) -> int:
        return sum(len(t) for t in self.tiers)


@dataclass
class SnapshotEstimates:
    """Per-snapshot indicators and counts.

    ``caching_covering[i, c-1]`` counts tier-(i+1) stations that cache rank
    c and clear their threshold; ``covering[i]`` ignores caching.
    """

    hit: np.ndarray  # (F,) bool
    backhaul: np.ndarray  # (F,) bool, operational event
    caching_covering: np.ndarray  # (K, F) int
    covering: np.ndarray  # (K,) int
    any_coverage: bool  # some station of any tier covers, cache-agnostic


def snapshot_rng(master_seed: int, snapshot_index: int) -> np.random.Generator:
    """Independent per-snapshot stream from (master_seed, index)."""
    return np.random.default_rng(
        np.random.SeedSequence(entropy=master_seed, spawn_key=(snapshot_index,))
    )


def sample_network(rng: np.random.Generator, scenario: ScenarioConfig,
                   region_radius: float | None = None) -> Snapshot:
    """Draw one snapshot: Poisson counts, uniform disk distances, links, caches."""
    radius = scenario.region_radius_m() if region_radius is None else region_radius
    area = math.pi * radius * radius
    tiers = []
    for tier, lam in zip(scenario.tiers, scenario.densities_per_m2()):
        n = int(rng.poisson(lam * area)) if lam > 0 else 0
        if n == 0:  # size-0 draws consume no state: skipping them keeps the stream
            f, b = np.empty(0), np.empty(0, dtype=bool)
            tiers.append(TierSnapshot(f, b, f, f, b, np.empty(0, dtype=np.int64)))
            continue
        r = radius * np.sqrt(rng.random(n))
        rng.random(n)  # the angles: unread, drawn only to keep the stream
        is_los, fading, pathloss = sample_links(rng, r, tier.radio)
        is_mpc, window_start = sample_placement_fields(
            rng, tier.cache, scenario.content.library_size, n)
        tiers.append(TierSnapshot(r, is_los, fading, pathloss, is_mpc,
                                  window_start))
    return Snapshot(tiers)


def _received_powers(snapshot: Snapshot, scenario: ScenarioConfig):
    return [
        tier.radio.tx_power * ts.pathloss * ts.fading
        for tier, ts in zip(scenario.tiers, snapshot.tiers)
    ]


def _sir_per_tier(snapshot: Snapshot, scenario: ScenarioConfig):
    powers = _received_powers(snapshot, scenario)
    total = float(sum(p.sum() for p in powers))
    sirs = []
    with np.errstate(divide="ignore", invalid="ignore"):
        for p in powers:
            interference = total - p
            sirs.append(np.where(interference > 0.0, p / interference, np.inf))
    return sirs


def evaluate_snapshot(snapshot: Snapshot, scenario: ScenarioConfig) -> SnapshotEstimates:
    """Coverage, hit, and backhaul statistics of one snapshot."""
    F = scenario.content.library_size
    K = scenario.num_tiers
    sirs = _sir_per_tier(snapshot, scenario)

    covering = np.zeros(K, dtype=np.int64)
    caching_covering = np.zeros((K, F), dtype=np.int64)
    any_coverage = False

    for i, (tier, ts) in enumerate(zip(scenario.tiers, snapshot.tiers)):
        threshold = tier.effective_threshold()
        mask = sirs[i] >= threshold
        covering[i] = int(np.count_nonzero(mask))
        if covering[i]:
            any_coverage = True
        s = tier.cache.cache_size
        if s == 0:
            continue
        for b in np.nonzero(mask)[0]:
            lo = 0 if ts.is_mpc[b] else int(ts.window_start[b]) - 1
            caching_covering[i, lo:lo + s] += 1

    hit = caching_covering.sum(axis=0) > 0
    macro_non_caching = covering[0] - caching_covering[0]
    backhaul = ~hit & (macro_non_caching > 0)
    return SnapshotEstimates(hit, backhaul, caching_covering, covering, any_coverage)


def _chunk_stats(args):
    """Accumulate one chunk of snapshots (worker function).

    The chunk's per-snapshot indicators and counts are stacked along a
    leading snapshot axis and scored by one ``_delivery_metrics`` call.
    Integer sums are exactly order-independent; per-snapshot float metrics
    are returned as arrays in snapshot order so the final reduction is
    deterministic for any worker count. Each snapshot scores either every
    rank (``all-weighted``) or one rank drawn by popularity (``sampled``,
    drawn right after the snapshot from its own stream); the rank mask
    gates the integer counts and ``draw_counts``.
    """
    scenario, protocol, radius, start, stop = args
    F = scenario.content.library_size
    a = scenario.content.request_probabilities()
    q1 = cache_probability_vector(scenario.tiers[0].cache, F)
    sampled = protocol.content_evaluation == "sampled"

    estimates = []
    drawn = []
    for k in range(start, stop):
        rng = snapshot_rng(protocol.master_seed, k)
        estimates.append(evaluate_snapshot(sample_network(rng, scenario, radius), scenario))
        if sampled:
            drawn.append(rng.choice(F, p=a))
    hit = np.stack([est.hit for est in estimates])  # (S, F)
    backhaul = np.stack([est.backhaul for est in estimates])  # (S, F)
    caching_covering = np.stack([est.caching_covering for est in estimates])  # (S, K, F)
    covering = np.stack([est.covering for est in estimates])  # (S, K)
    if sampled:
        mask = np.arange(F) == np.array(drawn)[:, None]
        w = mask.astype(np.float64)
    else:
        mask = np.ones((len(estimates), F), dtype=bool)
        w = a[None]

    p_hit, p_bh, _, ase, cost = _delivery_metrics(
        w, hit, caching_covering, (1.0 - q1) * covering[:, :1],
        _scenario_constants([scenario]))
    metrics = np.column_stack((p_hit, p_bh, _dot(w, backhaul), ase, cost))
    return ((hit & mask).sum(axis=0), (backhaul & mask).sum(axis=0),
            (caching_covering * mask[:, None]).sum(axis=0), covering.sum(axis=0),
            (covering * covering).sum(axis=0), mask.sum(axis=0),
            sum(est.any_coverage for est in estimates), metrics)


def _stderr(values: np.ndarray) -> float:
    n = len(values)
    if n < 2:
        return 0.0
    return float(np.std(values, ddof=1) / math.sqrt(n))


def _ratio_stderr(num: np.ndarray, den: np.ndarray) -> float:
    """Delta-method standard error of mean(num)/mean(den)."""
    n = len(num)
    if n < 2:
        return 0.0
    a_bar = float(np.mean(num))
    b_bar = float(np.mean(den))
    if b_bar == 0.0:
        return 0.0
    cov = np.cov(num, den, ddof=1)
    var = (cov[0, 0] / b_bar ** 2
           + a_bar ** 2 * cov[1, 1] / b_bar ** 4
           - 2.0 * a_bar * cov[0, 1] / b_bar ** 3) / n
    return math.sqrt(max(var, 0.0))


def run_simulation(scenario: ScenarioConfig,
                   protocol: SimulationProtocol | None = None,
                   workers: int = 1) -> MetricReport:
    """Estimate every metric over ``protocol.num_snapshots`` snapshots.

    ``protocol`` defaults to the scenario's own; pass a desk-scale protocol
    to override the snapshot count, region, or seed without touching the
    scenario. ``workers`` > 1 distributes fixed-size snapshot chunks over a
    process pool; the result is bit-identical for any worker count.
    """
    proto = scenario.protocol if protocol is None else protocol
    radius = scenario.region_radius_m(proto)
    n = proto.num_snapshots
    chunks = [(scenario, proto, radius, s, min(s + CHUNK_SNAPSHOTS, n))
              for s in range(0, n, CHUNK_SNAPSHOTS)]
    if workers > 1 and len(chunks) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_chunk_stats, chunks))
    else:
        results = [_chunk_stats(c) for c in chunks]

    *count_parts, metric_blocks = zip(*results)
    (hit_counts, bh_op_counts, cachcov_sums, cov_sums, cov_sumsq, draw_counts,
     anycov_count) = (sum(parts) for parts in count_parts)
    metrics = np.concatenate(metric_blocks, axis=0)
    whit, wbh, wbh_op, ase_arr, cost_arr = metrics.T
    p_hit = float(np.mean(whit))
    p_bh = float(np.mean(wbh))
    p_bh_op = float(np.mean(wbh_op))
    ase = float(np.mean(ase_arr))
    cost = float(np.mean(cost_arr))
    efficiency = caching_efficiency(ase, cost)

    K = scenario.num_tiers
    rho_mean = cov_sums / n
    rho_se = tuple(
        math.sqrt(max(cov_sumsq[i] / n - rho_mean[i] ** 2, 0.0) / max(n - 1, 1))
        for i in range(K)
    )

    # Per-rank means over the snapshots that scored each rank; a rank never
    # drawn in sampled mode is 0/0, i.e. nan.
    with np.errstate(invalid="ignore"):
        per_hit = hit_counts / draw_counts
        cachcov_mean = cachcov_sums / draw_counts
    F = scenario.content.library_size
    q1 = cache_probability_vector(scenario.tiers[0].cache, F)
    per_bh = (1.0 - q1) * float(rho_mean[0])
    per_ase = _delivery_metrics(scenario.content.request_probabilities()[None],
                                per_hit[None], cachcov_mean[None], per_bh[None],
                                _scenario_constants([scenario]))[2][0]

    return MetricReport(
        provenance=MONTE_CARLO,
        coverage_is_bound=False,
        p_hit=p_hit,
        p_bh=p_bh,
        p_bh_operational=p_bh_op,
        coverage_all_bs=anycov_count / n,
        ase=ase,
        cost=cost,
        efficiency=efficiency,
        per_tier_coverage_density=tuple(float(x) for x in rho_mean),
        per_tier_coverage_density_stderr=rho_se,
        per_content_hit=per_hit,
        per_content_backhaul=per_bh,
        per_content_ase=per_ase,
        stderr={
            "p_hit": _stderr(whit),
            "p_bh": _stderr(wbh),
            "p_bh_operational": _stderr(wbh_op),
            "ase": _stderr(ase_arr),
            "cost": _stderr(cost_arr),
            "efficiency": _ratio_stderr(ase_arr, cost_arr),
        },
    )
