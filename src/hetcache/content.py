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


def cache_probability_vector(policy: TierCachePolicy, library_size: int) -> np.ndarray:
    """Probability that each rank 1..F sits in one station's cache.

    MPC contributes 1 for c <= S; RCS contributes (number of length-S
    windows containing c) / (F - S + 1). A size-S cache stores the window
    {start, ..., start + S - 1}, so the probabilities sum to S over c.
    """
    s, phi = policy.cache_size, policy.mpc_fraction
    if s > library_size:
        raise ValueError("cache_size exceeds library_size")
    c = np.arange(1, library_size + 1)
    n_windows = library_size - s + 1
    # windows holding c: min(c, F - s + 1) - max(1, c - s + 1) + 1, which is
    # min(c, s, F - s + 1, F - c + 1) for 0 <= s <= F
    count = np.minimum(np.minimum(c, s), np.minimum(n_windows, c[::-1]))
    return phi * (c <= s) + (1.0 - phi) * count / n_windows


def _prefix_sums(x: np.ndarray) -> np.ndarray:
    """0, then the running sums of ``x``, within about an ulp: each cumsum
    step's rounding error is recovered exactly (TwoSum) and added back."""
    s = np.cumsum(x)
    before = np.concatenate(([0.0], s[:-1]))
    part = s - before
    lost = (before - (s - part)) + (x - part)
    return np.concatenate(([0.0], s + np.cumsum(lost)))


def popularity_mass_tables(a: np.ndarray) -> tuple:
    """``popularity_masses``' O(F) tables of request probabilities ``a``: sums
    of nonnegative terms over a, and over the folded popularity b_d = a_d +
    a_(F+1-d), as window counts read rank c only through d = min(c, F+1-c)."""
    b = a[:(len(a) + 1) // 2] + np.pad(a[::-1][:len(a) // 2], (0, len(a) % 2))  # middle once
    head, tail = _prefix_sums(b), _prefix_sums(b[::-1])[::-1]
    return (_prefix_sums(a), _prefix_sums(a[::-1])[::-1], _prefix_sums(tail),
            _prefix_sums(head), tail[0])


def popularity_masses(tables, size, fraction):
    """The mass m = sum_c a_c q(c) that caches of sizes S (integer arrays) and
    MPC fractions phi hold, and 1 - m summed on its own, so that it does not
    cancel. With n = F - S + 1 windows and T = min(S, n), m = phi A(S) +
    (1 - phi) W(S) / n, A(S) = sum_(c<=S) a_c, W(S) = sum_(d<T) d b_d +
    T sum_(d>=T) b_d, and 1 - m = phi sum_(c>S) a_c + (1 - phi) ((n - T)
    sum_d b_d + sum_(d<T) (T - d) b_d) / n. ``tables`` are ``a``'s."""
    prefix, suffix, window, rest, total = tables
    n = len(prefix) - size
    T = np.minimum(size, n)
    return (fraction * prefix[size] + (1.0 - fraction) * window[T] / n,
            fraction * suffix[size] + (1.0 - fraction) * ((n - T) * total + rest[T]) / n)


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
