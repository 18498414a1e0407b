"""Two-mode (LOS/NLOS) path loss and normalized Nakagami fading.

A link is line-of-sight with a distance-dependent probability of the
urban-micro form ``min(D0/r, 1)(1 - e^{-r/D1}) + e^{-r/D1}``; each mode has
its own bounded power-law attenuation ``intercept / (1 + r)^alpha`` and its
own integer Nakagami parameter. Fading power gains are Gamma(M, 1/M), i.e.
normalized to unit mean. Distances are meters; gains are unitless.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Annotated

import numpy as np

from ._config import ConfigError, Positive, PositiveInt, check_fields

__all__ = [
    "LOS",
    "NLOS",
    "TierRadioParams",
    "los_probability",
    "link_path_loss",
    "path_loss",
    "sample_fading",
    "sample_links",
]

LOS = "LOS"
NLOS = "NLOS"


@dataclass(frozen=True)
class TierRadioParams:
    """Radio constants of one tier's base stations."""

    tx_power: Positive
    # The exponents' other ends are their ordering in ``__post_init__``.
    pathloss_exp_los: Annotated[float, (math.nextafter(2.0, 3.0), math.inf, "must be above 2")]
    pathloss_exp_nlos: Annotated[float, (-math.inf, 8.0, "must be at most 8")]
    near_field_dist: Positive
    far_field_dist: Positive
    sir_threshold: Positive
    intercept_los: Positive = 1.0
    intercept_nlos: Positive = 1.0
    nakagami_los: int = 2  # at least nakagami_nlos, by the ordering below
    nakagami_nlos: PositiveInt = 1

    def __post_init__(self):
        check_fields(self)
        # The two cross-field checks name the record, not a field: either
        # field may be the one a file or a sweep set. Their reasons name both.
        if not self.pathloss_exp_los < self.pathloss_exp_nlos:
            raise ConfigError("", "must be ordered pathloss_exp_los < pathloss_exp_nlos")
        if self.nakagami_los < self.nakagami_nlos:
            raise ConfigError("", "must be ordered nakagami_los >= nakagami_nlos")

    def pathloss_exponent(self, mode: str) -> float:
        return self.pathloss_exp_los if mode == LOS else self.pathloss_exp_nlos

    def intercept(self, mode: str) -> float:
        return self.intercept_los if mode == LOS else self.intercept_nlos

    def nakagami(self, mode: str) -> int:
        return self.nakagami_los if mode == LOS else self.nakagami_nlos


def _los_probability(r: np.ndarray, d0: float, d1: float) -> np.ndarray:
    with np.errstate(divide="ignore", invalid="ignore"):  # r = 0 lies within D0
        decay = np.exp(-r / d1)
        return np.where(r <= d0, 1.0, d0 / r * (1.0 - decay) + decay)


def _path_loss(r: np.ndarray, mode: str, params: TierRadioParams) -> np.ndarray:
    return params.intercept(mode) * (1.0 + r) ** -params.pathloss_exponent(mode)


def _checked(formula, r, *args):
    """``formula`` at distances ``r``, which must be nonnegative; a float for a scalar."""
    r_arr = np.asarray(r, dtype=np.float64)
    if not (r_arr >= 0).all():
        raise ValueError("distance must be nonnegative")
    val = formula(r_arr, *args)
    return float(val) if np.isscalar(r) else val


def los_probability(r, near_field_dist: float, far_field_dist: float):
    """Probability that a link of length ``r`` is line-of-sight.

    Equals 1 for r <= near_field_dist and decays to 0 past far_field_dist.
    The two distances may also be arrays shaped like ``r``, a pair per entry.
    """
    return _checked(_los_probability, r, near_field_dist, far_field_dist)


def path_loss(r, mode: str, params: TierRadioParams):
    """Attenuation ``intercept / (1 + r)^alpha`` for the given mode; finite at r=0."""
    return _checked(_path_loss, r, mode, params)


def link_path_loss(distances: np.ndarray, is_los: np.ndarray,
                   params: TierRadioParams) -> np.ndarray:
    """Each link's path loss in its own mode; distances taken as nonnegative."""
    pathloss = np.empty(len(distances))
    for mode, mask in ((LOS, is_los), (NLOS, ~is_los)):
        pathloss[mask] = _path_loss(distances[mask], mode, params)
    return pathloss


def sample_fading(rng: np.random.Generator, nakagami: int, size=None):
    """Unit-mean Nakagami power gain: Gamma(M, 1/M).

    Gamma(1, 1) is drawn as ``standard_exponential``, the draw numpy's
    ``gamma`` makes at shape 1, so values and stream are the same.
    """
    if isinstance(nakagami, bool) or not isinstance(nakagami, (int, np.integer)) or nakagami < 1:
        raise ValueError("nakagami must be a positive integer")
    if nakagami == 1:
        return rng.standard_exponential(size)
    return rng.gamma(nakagami, 1.0 / nakagami, size=size)


def sample_links(rng: np.random.Generator, distances: np.ndarray,
                 params: TierRadioParams):
    """Vectorized link draw: ``(is_los, fading)`` arrays.

    Draw order is fixed (modes, then LOS gains, then NLOS gains) so the
    stream consumption is reproducible for a given ``rng`` state. The
    distances, a float array, are taken as nonnegative without a check;
    ``link_path_loss`` gives the path loss of the drawn modes.
    """
    n = len(distances)
    p_los = _los_probability(distances, params.near_field_dist, params.far_field_dist)
    is_los = rng.random(n) < p_los
    fading = np.empty(n)
    for mode, mask in ((LOS, is_los), (NLOS, ~is_los)):
        fading[mask] = sample_fading(rng, params.nakagami(mode), np.count_nonzero(mask))
    return is_los, fading
