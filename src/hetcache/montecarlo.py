"""Snapshot-based Monte Carlo engine.

Each snapshot drops every tier's stations as a Poisson point process on a
disk around a typical user at the origin, keeping only their distances to
it, draws link modes, fading, and cache placements, and computes each
station's SIR against the total received power of all other stations (all
tiers interfere; no noise). A station covers when its SIR clears its tier's
bias-scaled threshold; a content rank scores a hit when some covering
station caches it, and uses the backhaul when no cache hit exists but a
non-caching macro station covers.

A snapshot's one pass keeps only its covering counts and the cache window
of each covering station; a chunk of snapshots assembles its hit, backhaul
and per-rank counts at once, from one difference array per tier; the
coverage figures come from the pooled covering counts.

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
_NO_WINDOWS = np.empty(0, dtype=np.int64)


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
    """One snapshot's pass: all that the engine keeps of a snapshot.

    ``covering[i]`` counts tier-(i+1) stations that clear their threshold;
    ``window_starts[i]`` holds the 0-based first cached rank of each of them
    that caches (0 for MPC), and is empty when the tier caches nothing. A
    chunk of passes becomes hit, backhaul and per-rank counts in
    ``_chunk_indicators``; one snapshot's are a chunk of one.
    """

    covering: np.ndarray  # (K,) int
    window_starts: list  # K int arrays


def snapshot_rng(master_seed: int, snapshot_index: int) -> np.random.Generator:
    """Independent per-snapshot stream from (master_seed, index)."""
    return np.random.default_rng(
        np.random.SeedSequence(entropy=master_seed, spawn_key=(snapshot_index,))
    )


def sample_network(rng: np.random.Generator, scenario: ScenarioConfig,
                   region_radius: float) -> Snapshot:
    """Draw one snapshot on a disk of ``region_radius`` meters: Poisson
    counts, uniform disk distances, links, caches."""
    area = math.pi * region_radius * region_radius
    tiers = []
    for tier, lam in zip(scenario.tiers, scenario.densities_per_m2()):
        n = int(rng.poisson(lam * area)) if lam > 0 else 0
        if n == 0:  # size-0 draws consume no state: skipping them keeps the stream
            f, b = np.empty(0), np.empty(0, dtype=bool)
            tiers.append(TierSnapshot(f, b, f, f, b, np.empty(0, dtype=np.int64)))
            continue
        r = region_radius * np.sqrt(rng.random(n))
        rng.random(n)  # the angles: unread, drawn only to keep the stream
        is_los, fading, pathloss = sample_links(rng, r, tier.radio)
        is_mpc, window_start = sample_placement_fields(
            rng, tier.cache, scenario.content.library_size, n)
        tiers.append(TierSnapshot(r, is_los, fading, pathloss, is_mpc,
                                  window_start))
    return Snapshot(tiers)


def _sir_per_tier(snapshot: Snapshot, scenario: ScenarioConfig):
    """Each station's SIR against every other station, per tier."""
    powers = [tier.radio.tx_power * ts.pathloss * ts.fading
              for tier, ts in zip(scenario.tiers, snapshot.tiers)]
    total = float(sum(p.sum() for p in powers if len(p)))  # an empty tier adds 0.0
    sirs = []
    for p in powers:
        interference = total - p  # 0 for a station alone in the sum: SIR inf
        sirs.append(np.divide(p, interference, out=np.full(len(p), np.inf),
                              where=interference > 0.0))
    return sirs


def evaluate_snapshot(snapshot: Snapshot, scenario: ScenarioConfig) -> SnapshotEstimates:
    """One snapshot's pass: who covers per tier, and which windows they cache."""
    covering, window_starts = [], []
    for tier, ts, sir in zip(scenario.tiers, snapshot.tiers,
                             _sir_per_tier(snapshot, scenario)):
        (covers,) = (sir >= tier.effective_threshold()).nonzero()
        covering.append(len(covers))
        window_starts.append(np.where(ts.is_mpc[covers], 0, ts.window_start[covers] - 1)
                             if tier.cache.cache_size and len(covers) else _NO_WINDOWS)
    return SnapshotEstimates(np.array(covering), window_starts)


def _chunk_indicators(estimates: list, scenario: ScenarioConfig):
    """``(hit, backhaul, caching_covering, covering)`` of S snapshots' passes.

    Shapes (S, F), (S, F), (S, K, F), (S, K). A window adds +1 at its first
    rank and -1 past its last to a tier's (snapshot, rank) difference array.
    """
    F, S = scenario.content.library_size, len(estimates)
    covering = np.array([est.covering for est in estimates])
    caching_covering = np.zeros((S, scenario.num_tiers, F), dtype=np.int64)
    for i, tier in enumerate(scenario.tiers):
        starts = [est.window_starts[i] for est in estimates]
        first = (np.repeat(np.arange(S) * (F + 1), [len(w) for w in starts])
                 + np.concatenate(starts))
        diff = np.bincount(np.concatenate((first, first + tier.cache.cache_size)),
                           weights=np.repeat((1.0, -1.0), len(first)),
                           minlength=S * (F + 1))
        caching_covering[:, i] = diff.reshape(S, F + 1)[:, :F].cumsum(axis=1)
    hit = caching_covering.sum(axis=1) > 0
    backhaul = ~hit & (covering[:, :1] > caching_covering[:, 0])
    return hit, backhaul, caching_covering, covering


def _chunk_stats(args):
    """Accumulate one chunk of snapshots (worker function).

    The chunk's indicators and counts, assembled from its snapshots'
    passes on a leading snapshot axis, are scored by one ``_delivery_metrics`` call.
    Returns its (S, K) covering counts, (S, 5) metric rows and per-rank
    integer sums (hits, caching coverage, draws). Integer sums are exactly
    order-independent; per-snapshot arrays come in snapshot order so the
    final reduction is deterministic for any worker count. Each snapshot
    scores either every rank (``all-weighted``) or one rank drawn by
    popularity (``sampled``, drawn right after the snapshot from its own
    stream); the rank mask gates the per-rank sums.
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
    hit, backhaul, caching_covering, covering = _chunk_indicators(estimates, scenario)
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
    return covering, metrics, ((hit & mask).sum(axis=0),
                               (caching_covering * mask[:, None]).sum(axis=0),
                               mask.sum(axis=0))


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

    covering_blocks, metric_blocks, rank_sums = zip(*results)
    hit_counts, cachcov_sums, draw_counts = (sum(parts) for parts in zip(*rank_sums))
    covering = np.concatenate(covering_blocks, axis=0)
    metrics = np.concatenate(metric_blocks, axis=0)
    whit, wbh, wbh_op, ase_arr, cost_arr = metrics.T
    p_hit = float(np.mean(whit))
    p_bh = float(np.mean(wbh))
    p_bh_op = float(np.mean(wbh_op))
    ase = float(np.mean(ase_arr))
    cost = float(np.mean(cost_arr))
    efficiency = caching_efficiency(ase, cost)

    rho_mean = covering.sum(axis=0) / n
    rho_se = tuple(math.sqrt(max(sumsq / n - mean ** 2, 0.0) / max(n - 1, 1))
                   for sumsq, mean in zip((covering * covering).sum(axis=0), rho_mean))

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
        coverage_all_bs=int(np.count_nonzero(covering.any(axis=1))) / n,
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
