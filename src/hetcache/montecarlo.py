"""Snapshot-based Monte Carlo engine.

Each snapshot drops every tier's stations as a Poisson point process on a
disk around a typical user at the origin, keeping only their distances to
it, and draws link modes, fading, and cache placements. Each station's SIR
is taken against the total received power of all other stations of its
snapshot (all tiers interfere; no noise). A station covers when its SIR
clears its tier's bias-scaled threshold; a content rank scores a hit when
some covering station caches it, and uses the backhaul when no cache hit
exists but a non-caching macro station covers.

A snapshot only draws. Its path loss, powers, SIR, covering counts and
cache windows are computed in one pass over a group of snapshots, laid
out per tier as one ragged struct-of-arrays; a group closes at its
chunk's end or once it holds ``GROUP_STATIONS`` stations. The pass keeps
only each snapshot's covering counts and the cache window of each
covering station; a chunk of snapshots assembles its hit, backhaul and
per-rank counts at once, from one difference array per tier; the coverage
figures come from the pooled covering counts.

Snapshots are independent work units: snapshot ``k`` draws from a stream
derived from ``(master_seed, k)`` by splittable seeding, each snapshot's
interference total is the sum of its own stations' powers alone, and
reductions use integer accumulators plus per-snapshot floats combined in
snapshot order, so results are bit-identical for a fixed seed no matter
how many workers run, how the pool schedules them or how snapshots group.
"""
from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields
from itertools import accumulate

import numpy as np

from .channel import link_path_loss, sample_links
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
# Stations at which a group of snapshots closes and is scored. Grouping
# never changes a result; it bounds the pass's arrays, so a wide-disk
# snapshot of ~12,600 stations is a group of its own.
GROUP_STATIONS = 8192
_NO_WINDOWS = np.empty(0, dtype=np.int64)


@dataclass
class TierSnapshot:
    """All stations of one tier in one snapshot, or in a group of them
    (struct-of-arrays)."""

    distances: np.ndarray  # (n,) meters from the origin
    is_los: np.ndarray  # (n,) bool
    fading: np.ndarray  # (n,) unit-mean power gains
    is_mpc: np.ndarray  # (n,) bool, True = caches the popular prefix
    window_start: np.ndarray  # (n,) 1-based window start for RCS stations

    def __len__(self):
        return len(self.distances)


_FIELDS = tuple(f.name for f in fields(TierSnapshot))
_EMPTY_TIER = TierSnapshot(np.empty(0), np.empty(0, dtype=bool), np.empty(0),
                           np.empty(0, dtype=bool), np.empty(0, dtype=np.int64))


@dataclass
class Snapshot:
    """One network realization's draws: a TierSnapshot per tier."""

    tiers: list

    def station_count(self) -> int:
        return sum(len(t) for t in self.tiers)


@dataclass
class SnapshotEstimates:
    """One group's pass: all that the engine keeps of its snapshots.

    ``covering[s, i]`` counts the tier-(i+1) stations of the group's
    snapshot ``s`` that clear their threshold. ``windows[i]`` holds one
    entry per covering caching station of tier i+1: ``s * (F + 1)`` plus
    its 0-based first cached rank (0 for MPC), i.e. its window's first cell
    in the group's (snapshot, rank) difference array; it is empty when the
    tier caches nothing. A chunk of passes becomes hit, backhaul and
    per-rank counts in ``_chunk_indicators``.
    """

    covering: np.ndarray  # (S, K) int
    windows: list  # K int arrays


def snapshot_rng(master_seed: int, snapshot_index: int) -> np.random.Generator:
    """Independent per-snapshot stream from (master_seed, index)."""
    return np.random.default_rng(
        np.random.SeedSequence(entropy=master_seed, spawn_key=(snapshot_index,))
    )


def sample_network(rng: np.random.Generator, scenario: ScenarioConfig,
                   region_radius: float) -> Snapshot:
    """Draw one snapshot on a disk of ``region_radius`` meters: Poisson
    counts, uniform disk distances, link modes and gains, caches."""
    area = math.pi * region_radius * region_radius
    tiers = []
    for tier, lam in zip(scenario.tiers, scenario.densities_per_m2()):
        n = int(rng.poisson(lam * area)) if lam > 0 else 0
        if n == 0:  # size-0 draws consume no state: skipping them keeps the stream
            tiers.append(_EMPTY_TIER)
            continue
        r = region_radius * np.sqrt(rng.random(n))
        rng.random(n)  # the angles: unread, drawn only to keep the stream
        is_los, fading = sample_links(rng, r, tier.radio)
        is_mpc, window_start = sample_placement_fields(
            rng, tier.cache, scenario.content.library_size, n)
        tiers.append(TierSnapshot(r, is_los, fading, is_mpc, window_start))
    return Snapshot(tiers)


def _stack(snapshots: list, num_tiers: int):
    """A group of snapshots as one TierSnapshot per tier, stations in
    snapshot order, and each tier's station count per snapshot."""
    tiers, counts = [], []
    for i in range(num_tiers):
        parts = [snap.tiers[i] for snap in snapshots]
        counts.append([len(t) for t in parts])
        tiers.append(parts[0] if len(parts) == 1 else TierSnapshot(
            *(np.concatenate([getattr(t, f) for t in parts]) for f in _FIELDS)))
    return tiers, counts


def _sir_per_tier(tiers: list, counts: list, scenario: ScenarioConfig):
    """Each station's SIR against every other station of its snapshot, per tier."""
    powers = [tier.radio.tx_power * link_path_loss(ts.distances, ts.is_los, tier.radio)
              * ts.fading for tier, ts in zip(scenario.tiers, tiers)]
    # A snapshot's total is the pairwise sum of each tier's slice, added in
    # tier order: the bits it has when the snapshot is scored alone.
    total = np.zeros(len(counts[0]))
    for p, n in zip(powers, counts):
        total += [np.add.reduce(p[end - m:end]) if m else 0.0
                  for end, m in zip(accumulate(n), n)]
    sirs = []
    for p, n in zip(powers, counts):
        interference = np.repeat(total, n) - p  # 0 for a station alone: SIR inf
        sirs.append(np.divide(p, interference, out=np.full(len(p), np.inf),
                              where=interference > 0.0))
    return sirs


def evaluate_snapshot(snapshots: list, scenario: ScenarioConfig) -> SnapshotEstimates:
    """One group's pass: who covers per tier and snapshot, and which windows
    they cache."""
    S, F1 = len(snapshots), scenario.content.library_size + 1
    tiers, counts = _stack(snapshots, scenario.num_tiers)
    covering = np.empty((S, scenario.num_tiers), dtype=np.int64)
    windows = []
    for i, (tier, ts, n, sir) in enumerate(zip(scenario.tiers, tiers, counts,
                                               _sir_per_tier(tiers, counts, scenario))):
        (covers,) = (sir >= tier.effective_threshold()).nonzero()
        owner = np.cumsum(n).searchsorted(covers, side="right")
        covering[:, i] = np.bincount(owner, minlength=S)
        windows.append(owner * F1 + np.where(ts.is_mpc[covers], 0, ts.window_start[covers] - 1)
                       if tier.cache.cache_size and len(covers) else _NO_WINDOWS)
    return SnapshotEstimates(covering, windows)


def _chunk_indicators(estimates: list, scenario: ScenarioConfig):
    """``(hit, backhaul, caching_covering, covering)`` of a chunk's group passes.

    Shapes (S, F), (S, F), (S, K, F), (S, K) over the chunk's S snapshots.
    A window adds +1 at its first rank and -1 past its last to a tier's
    (snapshot, rank) difference array.
    """
    F = scenario.content.library_size
    covering = np.concatenate([est.covering for est in estimates])
    S = len(covering)
    shifts = np.cumsum([0] + [len(est.covering) for est in estimates[:-1]]) * (F + 1)
    caching_covering = np.zeros((S, scenario.num_tiers, F), dtype=np.int64)
    for i, tier in enumerate(scenario.tiers):
        first = np.concatenate([est.windows[i] + shift
                                for est, shift in zip(estimates, shifts)])
        diff = np.bincount(np.concatenate((first, first + tier.cache.cache_size)),
                           weights=np.repeat((1.0, -1.0), len(first)),
                           minlength=S * (F + 1))
        caching_covering[:, i] = diff.reshape(S, F + 1)[:, :F].cumsum(axis=1)
    hit = caching_covering.sum(axis=1) > 0
    backhaul = ~hit & (covering[:, :1] > caching_covering[:, 0])
    return hit, backhaul, caching_covering, covering


def _chunk_stats(args):
    """Accumulate one chunk of snapshots (worker function).

    Snapshots are drawn one by one and scored in groups; the chunk's
    indicators and counts, assembled from its groups' passes on a leading
    snapshot axis, score every rank by popularity in one
    ``_delivery_metrics`` call. Returns the (S, K) covering counts, (S, 5)
    metric rows and per-rank integer sums (hits, caching coverage): sums
    are exactly order-independent, and per-snapshot arrays come in
    snapshot order, so the final reduction is the same for any worker count.
    """
    scenario, protocol, radius, start, stop = args
    F = scenario.content.library_size
    a = scenario.content.request_probabilities()
    q1 = cache_probability_vector(scenario.tiers[0].cache, F)

    estimates, group, stations = [], [], 0
    for k in range(start, stop):
        group.append(sample_network(snapshot_rng(protocol.master_seed, k), scenario, radius))
        stations += group[-1].station_count()
        if stations >= GROUP_STATIONS or k == stop - 1:
            # the group's arrays go as soon as it is scored
            estimates.append(evaluate_snapshot(group, scenario))
            group, stations = [], 0
    hit, backhaul, caching_covering, covering = _chunk_indicators(estimates, scenario)
    p_hit, p_bh, _, ase, cost = _delivery_metrics(
        a[None], hit, caching_covering, (1.0 - q1) * covering[:, :1],
        _scenario_constants([scenario]))
    metrics = np.column_stack((p_hit, p_bh, _dot(a[None], backhaul), ase, cost))
    return covering, metrics, (hit.sum(axis=0), caching_covering.sum(axis=0))


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
    per_hit, cachcov_mean = (sum(parts) / n for parts in zip(*rank_sums))
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
