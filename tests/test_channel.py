"""LOS probability, path loss, and Nakagami fading."""
import math

import numpy as np
import pytest
from scipy.stats import expon, kstest

from hetcache.channel import (LOS, NLOS, TierRadioParams, link_path_loss,
                              los_probability, path_loss, sample_fading,
                              sample_links)


def make_params(**kw):
    defaults = dict(tx_power=4.0, pathloss_exp_los=2.4, pathloss_exp_nlos=4.0,
                    near_field_dist=80.0, far_field_dist=164.0, sir_threshold=2.0)
    defaults.update(kw)
    return TierRadioParams(**defaults)


def test_los_probability_near_field_is_one():
    assert los_probability(50.0, 80.0, 164.0) == 1.0
    r = np.linspace(0.0, 80.0, 64)
    assert np.all(los_probability(r, 80.0, 164.0) == 1.0)


def test_los_probability_pinned_value():
    expected = 0.5 * (1 - math.exp(-160.0 / 164.0)) + math.exp(-160.0 / 164.0)
    got = los_probability(160.0, 80.0, 164.0)
    assert got == pytest.approx(expected, abs=1e-12)
    assert got == pytest.approx(0.68848, abs=1e-4)


def test_los_probability_vanishes_far_away():
    assert los_probability(1e6, 80.0, 164.0) < 1e-4


def test_los_probability_continuity():
    d0, d1 = 80.0, 164.0
    r = np.concatenate([np.linspace(1e-3, 3000.0, 20000),
                        d0 + np.linspace(-1e-6, 1e-6, 101)])
    r.sort()
    p = los_probability(r, d0, d1)
    assert np.all((p >= 0.0) & (p <= 1.0))
    assert np.max(np.abs(np.diff(p))) < 1e-2  # no jumps on a fine grid


def test_los_probability_rejects_negative():
    with pytest.raises(ValueError):
        los_probability(-1.0, 80.0, 164.0)
    with pytest.raises(ValueError, match="distance"):
        los_probability(math.nan, 80.0, 164.0)


def test_los_probability_rejects_one_negative_in_an_array():
    with pytest.raises(ValueError, match="nonnegative"):
        los_probability(np.array([0.0, 50.0, -1e-9, 900.0]), 80.0, 164.0)
    with pytest.raises(ValueError, match="distance"):
        los_probability(np.array([0.0, 50.0, math.nan, 900.0]), 80.0, 164.0)


def test_path_loss_rejects_negative():
    params = make_params()
    for mode in (LOS, NLOS):
        with pytest.raises(ValueError, match="nonnegative"):
            path_loss(-1.0, mode, params)
        with pytest.raises(ValueError, match="nonnegative"):
            path_loss(np.array([0.0, 50.0, -1e-9, 900.0]), mode, params)
        with pytest.raises(ValueError, match="distance"):
            path_loss(math.nan, mode, params)
        with pytest.raises(ValueError, match="distance"):
            path_loss(np.array([0.0, math.nan]), mode, params)


def test_path_loss_at_zero_equals_intercept():
    params = make_params(intercept_los=2.5, intercept_nlos=0.7)
    assert path_loss(0.0, LOS, params) == 2.5
    assert path_loss(0.0, NLOS, params) == 0.7


def test_path_loss_pinned_value():
    params = make_params()
    assert path_loss(1.0, LOS, params) == pytest.approx(2.0 ** -2.4, abs=1e-12)
    assert 2.0 ** -2.4 == pytest.approx(0.189465, abs=1e-6)


def test_path_loss_strictly_decreasing_and_bounded():
    params = make_params()
    r = np.linspace(0.0, 5000.0, 1000)
    for mode in (LOS, NLOS):
        vals = path_loss(r, mode, params)
        assert np.all(np.diff(vals) < 0)
        assert np.all(vals > 0.0)
        assert np.all(vals <= params.intercept(mode))


def test_radio_params_validation():
    with pytest.raises(ValueError):
        make_params(pathloss_exp_los=2.0)  # must exceed 2
    with pytest.raises(ValueError):
        make_params(pathloss_exp_nlos=9.0)  # must not exceed 8
    with pytest.raises(ValueError):
        make_params(pathloss_exp_los=4.5, pathloss_exp_nlos=4.0)  # order
    with pytest.raises(ValueError):
        make_params(nakagami_los=1, nakagami_nlos=2)  # LOS shape >= NLOS shape
    with pytest.raises(ValueError):
        make_params(nakagami_los=1.5)  # integer only
    with pytest.raises(ValueError):
        make_params(sir_threshold=0.0)


def test_fading_unit_mean_exponential():
    rng = np.random.default_rng(11)
    draws = sample_fading(rng, 1, size=100_000)
    stat = kstest(draws, expon.cdf)
    assert stat.pvalue > 0.01


def test_fading_moments_shape_4():
    rng = np.random.default_rng(12)
    draws = sample_fading(rng, 4, size=100_000)
    assert abs(draws.mean() - 1.0) < 0.01
    assert abs(draws.var() - 0.25) < 0.01


@pytest.mark.parametrize("m", [1, 2, 4])
def test_fading_first_two_moments_within_3se(m):
    # k-th moment of Gamma(M, 1/M): Gamma(M+k) / (Gamma(M) M^k)
    rng = np.random.default_rng(100 + m)
    n = 100_000
    draws = sample_fading(rng, m, size=n)
    for k in (1, 2):
        target = math.gamma(m + k) / (math.gamma(m) * m ** k)
        sample = draws ** k
        se = sample.std(ddof=1) / math.sqrt(n)
        assert abs(sample.mean() - target) < 3.0 * se


def test_sample_link_near_field_always_los():
    rng = np.random.default_rng(13)
    params = make_params()
    for r in (0.0, 10.0, 80.0):
        is_los, _ = sample_links(rng, np.full(50, r), params)
        assert np.all(is_los)


def test_sample_links_mode_fraction():
    rng = np.random.default_rng(14)
    params = make_params()
    r = np.full(100_000, 160.0)
    is_los, _ = sample_links(rng, r, params)
    p = los_probability(160.0, 80.0, 164.0)
    assert abs(is_los.mean() - p) < 0.01


def test_sample_links_unit_mean_power():
    # received power / (P * expected path loss) should be 1 within 3 se
    rng = np.random.default_rng(15)
    params = make_params()
    n = 200_000
    r = np.full(n, 120.0)
    is_los, fading = sample_links(rng, r, params)
    received = params.tx_power * link_path_loss(r, is_los, params) * fading
    p = los_probability(120.0, 80.0, 164.0)
    expected = params.tx_power * (p * path_loss(120.0, LOS, params)
                                  + (1 - p) * path_loss(120.0, NLOS, params))
    ratio = received / expected
    se = ratio.std(ddof=1) / math.sqrt(n)
    assert abs(ratio.mean() - 1.0) < 3.0 * se


def test_sample_link_fields_consistent():
    rng = np.random.default_rng(16)
    params = make_params()
    r = np.array([200.0])
    is_los, fading = sample_links(rng, r, params)
    assert is_los.dtype == bool  # one of the two modes per link
    mode = LOS if is_los[0] else NLOS
    assert fading[0] >= 0.0
    assert link_path_loss(r, is_los, params)[0] == path_loss(200.0, mode, params)


def old_los_probability(r, d0, d1):
    """The closed form as once written, evaluating both branches everywhere."""
    r = np.asarray(r, dtype=np.float64)
    decay = np.exp(-r / d1)
    clamped = np.minimum(d0 / np.where(r > 0, r, 1.0), 1.0)
    return np.where(r <= d0, 1.0, clamped * (1.0 - decay) + decay)


@pytest.mark.parametrize("d0, d1", [(80.0, 164.0), (16.0, 36.0), (200.0, 50.0)])
def test_los_probability_bits_match_closed_form(d0, d1):
    # the default radios' critical distances, and d0 > d1; NaN is rejected
    # (test_los_probability_rejects_one_negative_in_an_array)
    r = np.array([0.0, d0, np.nextafter(d0, np.inf), 1.5 * d0, 720.0 * d1,
                  745.5 * d1, 1e6, np.inf])
    assert np.array_equal(los_probability(r, d0, d1), old_los_probability(r, d0, d1))
    grid = np.linspace(0.0, 60.0 * d1, 600).reshape(20, 30)
    p = los_probability(grid, d0, d1)
    assert p.shape == (20, 30)
    assert np.array_equal(p, old_los_probability(grid, d0, d1))


def test_los_probability_scalar_and_empty():
    got = los_probability(160.0, 80.0, 164.0)
    assert type(got) is float
    assert got == float(old_los_probability(160.0, 80.0, 164.0))
    empty = los_probability(np.empty(0), 80.0, 164.0)
    assert isinstance(empty, np.ndarray) and empty.shape == (0,)


def test_sample_links_bits_match_closed_form():
    params = make_params()
    r = np.random.default_rng(17).uniform(0.0, 2000.0, 5000)
    is_los, fading = sample_links(np.random.default_rng(18), r, params)
    pathloss = link_path_loss(r, is_los, params)
    # the same draws and both modes' path loss over every station, as once written
    rng = np.random.default_rng(18)
    want_los = rng.random(len(r)) < old_los_probability(r, 80.0, 164.0)
    want_fading = np.empty(len(r))
    want_fading[want_los] = rng.gamma(2, 0.5, int(want_los.sum()))
    want_fading[~want_los] = rng.gamma(1, 1.0, int((~want_los).sum()))
    want_pathloss = np.where(want_los, 1.0 * (1.0 + r) ** -2.4,
                             1.0 * (1.0 + r) ** -4.0)
    assert np.array_equal(is_los, want_los)
    assert np.array_equal(fading, want_fading)
    assert np.array_equal(pathloss, want_pathloss)


def test_sample_links_on_no_stations():
    rng = np.random.default_rng(19)
    state = rng.bit_generator.state
    is_los, fading = sample_links(rng, np.empty(0), make_params())
    pathloss = link_path_loss(np.empty(0), is_los, make_params())
    assert is_los.shape == fading.shape == pathloss.shape == (0,)
    assert is_los.dtype == bool
    assert rng.bit_generator.state == state  # size-0 draws consume no state
