"""Zipf popularity and cache-placement probabilities."""
import math

import numpy as np
import pytest

from hetcache.content import (ContentModel, TierCachePolicy, cache_probability_vector,
                              popularity_mass_tables, popularity_masses,
                              sample_placement_fields)


# Scalar oracles for ``cache_probability_vector`` and
# ``sample_placement_fields``: one rank at a time, written independently.

def cache_probability(c: int, policy: TierCachePolicy, library_size: int) -> float:
    """Probability that rank ``c`` sits in one station's cache.

    MPC contributes 1 for c <= S; RCS contributes (number of length-S
    windows containing c) / (F - S + 1). A size-S cache stores the window
    {start, ..., start + S - 1}, so the probabilities sum to S over c.
    """
    if not 1 <= c <= library_size:
        raise ValueError(f"content rank out of range [1, {library_size}]")
    s = policy.cache_size
    if s > library_size:
        raise ValueError("cache_size exceeds library_size")
    if s == 0:
        return 0.0
    n_windows = library_size - s + 1
    count = min(c, n_windows) - max(1, c - s + 1) + 1
    rcs = count / n_windows
    mpc = 1.0 if c <= s else 0.0
    return policy.mpc_fraction * mpc + (1.0 - policy.mpc_fraction) * rcs


def placement_contains(c: int, is_mpc: np.ndarray, window_start: np.ndarray,
                       cache_size: int) -> np.ndarray:
    """Whether each station described by (is_mpc, window_start) caches rank c."""
    if cache_size == 0:
        return np.zeros(is_mpc.shape, dtype=bool)
    in_mpc = is_mpc & (c <= cache_size)
    in_window = ~is_mpc & (window_start <= c) & (c < window_start + cache_size)
    return in_mpc | in_window


def cached_sets(is_mpc, window_start, cache_size, library_size):
    """Each station's cached ranks, as a frozenset per station."""
    flags = np.array([placement_contains(c, is_mpc, window_start, cache_size)
                      for c in range(1, library_size + 1)])
    return [frozenset(int(c) + 1 for c in np.nonzero(col)[0]) for col in flags.T]


def test_zipf_uniform_limit():
    model = ContentModel(library_size=100, popularity_exponent=0.0)
    probs = model.request_probabilities()
    assert np.all(probs == 0.01)
    assert probs[37 - 1] == 0.01


def test_zipf_direct_value():
    # c=1, F=2, kappa=1: 1 / (1 + 1/2) = 2/3
    model = ContentModel(library_size=2, popularity_exponent=1.0)
    assert model.request_probabilities()[0] == pytest.approx(2.0 / 3.0, abs=1e-12)


def test_zipf_steep_exponent_concentrates():
    model = ContentModel(library_size=100, popularity_exponent=10.0)
    assert model.request_probabilities()[0] > 1.0 - 1e-3


@pytest.mark.parametrize("library_size", [1, 2, 17, 100, 1000])
@pytest.mark.parametrize("kappa", [0.0, 0.5, 1.0, 1.5, 3.0])
def test_zipf_normalization(library_size, kappa):
    model = ContentModel(library_size=library_size, popularity_exponent=kappa)
    assert abs(model.request_probabilities().sum() - 1.0) < 1e-12


def test_invalid_models():
    with pytest.raises(ValueError):
        ContentModel(library_size=0)
    with pytest.raises(ValueError):
        ContentModel(library_size=10, popularity_exponent=-0.1)
    with pytest.raises(ValueError):
        TierCachePolicy(cache_size=-1)
    with pytest.raises(ValueError):
        TierCachePolicy(cache_size=3, mpc_fraction=1.5)


def test_cache_probability_pinned_branches():
    # prefix branch with full MPC weight
    assert cache_probability(10, TierCachePolicy(20, 1.0), 100) == pytest.approx(1.0)
    # flat middle branch: S / (F - S + 1) = 20/81
    assert cache_probability(50, TierCachePolicy(20, 0.0), 100) == pytest.approx(
        20.0 / 81.0, abs=1e-12)
    # tail branch: (F - c + 1) / (F - S + 1) = 1/81
    assert cache_probability(100, TierCachePolicy(20, 0.0), 100) == pytest.approx(
        1.0 / 81.0, abs=1e-12)


@pytest.mark.parametrize("phi", [0.0, 0.25, 0.5, 1.0])
@pytest.mark.parametrize("cache_size", [1, 5, 20, 100])
def test_cache_probability_mass(phi, cache_size):
    q = cache_probability_vector(TierCachePolicy(cache_size, phi), 100)
    assert abs(q.sum() - cache_size) < 1e-9
    assert np.all((q >= 0.0) & (q <= 1.0))


def test_cache_probability_mass_overlapping_windows():
    # cache larger than half the library: prefix and tail branches overlap
    for s in (4, 5, 6, 7):
        q = cache_probability_vector(TierCachePolicy(s, 0.25), 7)
        assert abs(q.sum() - s) < 1e-9
        assert np.all(q <= 1.0 + 1e-15)


def test_cache_probability_zero_slots():
    q = cache_probability_vector(TierCachePolicy(0, 0.5), 50)
    assert np.all(q == 0.0)


def test_cache_probability_monotone_in_phi():
    phis = [0.0, 0.25, 0.5, 0.75, 1.0]
    s, F = 20, 100
    for c in range(1, F + 1):
        vals = [cache_probability(c, TierCachePolicy(s, phi), F) for phi in phis]
        diffs = np.diff(vals)
        if c <= s:
            assert np.all(diffs >= -1e-15)
        else:
            assert np.all(diffs <= 1e-15)


def test_cache_probability_matches_vector():
    policy = TierCachePolicy(13, 0.4)
    q = cache_probability_vector(policy, 40)
    for c in range(1, 41):
        assert cache_probability(c, policy, 40) == pytest.approx(q[c - 1], abs=1e-15)


@pytest.mark.parametrize("library_size", [1, 7, 100])
def test_vectors_equal_scalar_oracle_at_edge_sizes(library_size):
    for size in sorted({0, 1, library_size - 1, library_size}):
        for phi in (0.0, 0.3, 1.0):
            policy = TierCachePolicy(size, phi)
            q = cache_probability_vector(policy, library_size)
            for c in range(1, library_size + 1):
                assert cache_probability(c, policy, library_size) == pytest.approx(
                    q[c - 1], abs=1e-15)


@pytest.mark.parametrize("kappa", [0.0, 1.0, 1.5])
@pytest.mark.parametrize("library_size", [1, 2, 3, 100, 1001])
def test_popularity_masses_equal_exact_sums(library_size, kappa):
    # m = sum_c a_c q(c) against math.fsum of the vector products, and 1 - m
    # against the exact complement per rank: 1 - q(c) in floats loses the
    # digits of q(c) (1e-13 relative where q(c) = 0.3 + 0.7 (n - 1) / n,
    # n = 500), so the reference takes phi [c > S] + (1 - phi) (n - k_c) / n,
    # its window counts k_c read back from the RCS vector
    F = library_size
    a = ContentModel(F, kappa).request_probabilities()
    tables = popularity_mass_tables(a)
    sizes = np.arange(F + 1)
    ranks = np.arange(1, F + 1)
    for phi in (0.0, 0.3, 1.0):
        masses, rest = popularity_masses(tables, sizes, np.full(F + 1, phi))
        for s in range(F + 1):
            n = F - s + 1
            counts = np.rint(cache_probability_vector(TierCachePolicy(s, 0.0), F) * n)
            complement = phi * (ranks > s) + (1.0 - phi) * (n - counts) / n
            q = cache_probability_vector(TierCachePolicy(s, phi), F)
            for got, want in ((masses[s], math.fsum(a * q)), (rest[s], math.fsum(a * complement))):
                assert math.isclose(got, want, rel_tol=1e-14, abs_tol=0.0), (s, phi)


def test_sample_placement_mpc_deterministic():
    rng = np.random.default_rng(0)
    is_mpc, starts = sample_placement_fields(rng, TierCachePolicy(5, 1.0), 100, 20)
    assert np.all(is_mpc)
    for cached in cached_sets(is_mpc, starts, 5, 100):
        assert cached == frozenset(range(1, 6))


def test_sample_placement_full_library_window():
    rng = np.random.default_rng(1)
    is_mpc, starts = sample_placement_fields(rng, TierCachePolicy(10, 0.0), 10, 1)
    assert cached_sets(is_mpc, starts, 10, 10) == [frozenset(range(1, 11))]
    assert not is_mpc[0]  # RCS


def test_sample_placement_empty_cache():
    rng = np.random.default_rng(2)
    is_mpc, starts = sample_placement_fields(rng, TierCachePolicy(0, 0.5), 10, 1)
    assert cached_sets(is_mpc, starts, 0, 10) == [frozenset()]


def test_sample_placement_window_shape():
    rng = np.random.default_rng(3)
    is_mpc, starts = sample_placement_fields(rng, TierCachePolicy(4, 0.0), 12, 200)
    for cached in cached_sets(is_mpc, starts, 4, 12):
        idx = sorted(cached)
        assert len(idx) == 4
        assert idx[-1] - idx[0] == 3  # contiguous
        assert 1 <= idx[0] and idx[-1] <= 12


def test_sampler_frequencies_match_probabilities():
    # empirical containment frequency vs closed form, 1e5 draws
    rng = np.random.default_rng(2024)
    policy = TierCachePolicy(20, 0.0)
    F, n = 100, 100_000
    is_mpc, starts = sample_placement_fields(rng, policy, F, n)
    hits = np.zeros(F + 1)
    np.add.at(hits, starts - 1, 1.0)
    np.add.at(hits, np.minimum(starts - 1 + policy.cache_size, F), -1.0)
    freq = np.cumsum(hits)[:F] / n
    q = cache_probability_vector(policy, F)
    assert np.max(np.abs(freq - q)) < 0.01


def test_placement_contains_consistent_with_sets():
    rng = np.random.default_rng(7)
    policy = TierCachePolicy(6, 0.5)
    is_mpc, starts = sample_placement_fields(rng, policy, 30, 500)
    for c in (1, 6, 7, 15, 30):
        flags = placement_contains(c, is_mpc, starts, policy.cache_size)
        manual = np.where(is_mpc, c <= 6, (starts <= c) & (c < starts + 6))
        assert np.array_equal(flags, manual)
