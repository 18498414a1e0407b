"""Zipf content popularity and probabilistic per-station cache placement.

A library of equally sized files is ranked by popularity; request
probabilities follow a Zipf law. Each base station of a tier fills its
cache either with the most popular prefix (MPC) or with a contiguous
window of the ranking placed uniformly at random (RCS); the tier's
``mpc_fraction`` is the probability of picking MPC. The closed-form
per-content caching probability drives the analytic engine, the sampler
realizes placements for the Monte Carlo engine.

Content ranks are 1-based throughout.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Annotated

import numpy as np

from ._config import NonnegativeInt, PositiveInt, check_fields

__all__ = [
    "ContentModel",
    "TierCachePolicy",
    "MPC",
    "RCS",
    "cache_probability_vector",
    "sample_placement_fields",
]

MPC = "MPC"
RCS = "RCS"


@dataclass(frozen=True)
class ContentModel:
    """Zipf-popular library of ``library_size`` equal-size files."""

    library_size: PositiveInt
    popularity_exponent: Annotated[float, (0.0, math.inf, "must be nonnegative")] = 1.0

    __post_init__ = check_fields

    def request_probabilities(self) -> np.ndarray:
        """Request probability for every rank 1..F; sums to 1."""
        ranks = np.arange(1, self.library_size + 1, dtype=np.float64)
        weights = ranks ** -float(self.popularity_exponent)
        return weights / weights.sum()


@dataclass(frozen=True)
class TierCachePolicy:
    """Per-tier cache: ``cache_size`` slots, MPC picked w.p. ``mpc_fraction``."""

    cache_size: NonnegativeInt
    mpc_fraction: Annotated[float, (0.0, 1.0, "must be in [0, 1]")] = 1.0

    __post_init__ = check_fields


def cache_probability_vector(policy, library_size: int) -> np.ndarray:
    """Probability that each rank 1..F sits in one station's cache.

    MPC contributes 1 for c <= S; RCS contributes (number of length-S
    windows containing c) / (F - S + 1). A size-S cache stores the window
    {start, ..., start + S - 1}, so the probabilities sum to S over c.
    ``policy`` may be a pair (cache sizes, MPC fractions) of arrays that
    broadcast: each vector on the added last axis then has the bits of its
    own ``TierCachePolicy``'s, as the operations are elementwise.
    """
    if isinstance(policy, TierCachePolicy):
        policy = policy.cache_size, policy.mpc_fraction
    s, phi = (np.asarray(x)[..., None] for x in policy)
    if np.any(s > library_size):
        raise ValueError("cache_size exceeds library_size")
    c = np.arange(1, library_size + 1)
    n_windows = library_size - s + 1
    # windows holding c: min(c, F - s + 1) - max(1, c - s + 1) + 1, which is
    # min(c, s, F - s + 1, F - c + 1) for 0 <= s <= F
    count = np.minimum(np.minimum(c, s), np.minimum(n_windows, c[::-1]))
    return phi * (c <= s) + (1.0 - phi) * count / n_windows


def sample_placement_fields(rng: np.random.Generator, policy: TierCachePolicy,
                            library_size: int, n: int):
    """Vectorized placement draw for ``n`` stations.

    Returns ``(is_mpc, window_start)``; MPC stations cache ranks 1..S, RCS
    stations cache the window starting at ``window_start``. A start is drawn
    for every station so the stream layout does not depend on the MPC draws.
    """
    s = policy.cache_size
    if s > library_size:
        raise ValueError("cache_size exceeds library_size")
    is_mpc = rng.random(n) < policy.mpc_fraction
    if s == 0:
        return is_mpc, np.ones(n, dtype=np.int64)
    starts = rng.integers(1, library_size - s + 2, size=n)
    return is_mpc, starts
