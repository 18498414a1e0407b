"""Coverage analysis by quadrature over a tabulated interference exponent.

For every tier the engine computes the expected number of that tier's base
stations whose SIR at a typical user at the origin clears the tier's
(possibly bias-scaled) threshold. The SIR tail is bounded through the
exponential-mixture bound for unit-mean Gamma fading (exact for shape 1),
which turns the probability into an alternating binomial sum of
interference Laplace transforms; each tier's Laplace exponent is itself an
integral over the interfering Poisson field under the two-mode path loss.

That exponent is E_j(t) = 2*pi*lambda_j * e_j(t), where e_j depends only on
tier j's radio. ``ExponentTable`` tabulates log e_j as a piecewise Chebyshev
interpolant in log t: a piece is built the first time a t inside it is
needed, by one batched adaptive quadrature at its nodes, and every later
lookup, for any density, interpolates. The coverage integral then needs a
single adaptive quadrature per tier. The table's relative error bound
propagates into the reported error estimate.

Weighting the per-tier values by caching probabilities and request
popularity (``p_hit`` of ``metrics.analytic_report``) yields the
content-aware coverage: an upper bound on the true coverage probability
that is tight for thresholds >= 1 and exact when all fading shapes are 1.
The per-tier values are independent of the requested content because
interference does not depend on cache state.

Both integrals run in the log-distance variable s = log(1 + r), so sparse
scenarios (support out to ~100 km) and dense ones (support of a few
hundred meters) are resolved alike; the LOS kink at the near-field
distance is an explicit breakpoint. Evaluation is deterministic: a value
depends only on its scenario, never on which tables were built before, so
repeated runs produce bit-identical values.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import LOS, NLOS, TierRadioParams, los_probability
from .quadrature import QuadratureError, integrate_adaptive
from .scenario import _EXPONENT_FIELDS, AUTO, IntegrationSettings, ScenarioConfig, _stage_key

__all__ = [
    "CoverageTable",
    "ExponentTable",
    "alzer_coefficient",
    "interference_laplace_exponent",
    "tier_coverage_density",
    "build_coverage_table",
]


def alzer_coefficient(M: int) -> float:
    """Exponential-bound rate ``M * (M!)^(-1/M)`` for a unit-mean Gamma(M, 1/M).

    ``1 - (1 - e^(-v x))^M`` with this v upper-bounds the Gamma CCDF for all
    x >= 0 and integer M >= 1, with equality throughout at M = 1. Uses the
    log-gamma function so large M cannot overflow the factorial.
    """
    if isinstance(M, bool) or not isinstance(M, (int, np.integer)) or M < 1:
        raise ValueError("Nakagami parameter must be a positive integer")
    return float(M) * math.exp(-math.lgamma(M + 1.0) / M)


def _inner_truncation(tp: float, phi: float, alpha: float, d0: float, d1: float,
                      mode: str, budget: float) -> float:
    """Radius beyond which the Laplace-exponent integrand tail is < budget.

    Uses the envelope 1 - (1 + u)^(-M) <= M u, i.e. integrand <=
    y * p_mode(y) * t P phi (1+y)^(-alpha); for the LOS mode the extra
    p_los(y) <= D0/y + e^(-y/D1) suppression is exploited.
    """
    y = max(4.0 * d1, 2.0 * d0, 1.0)
    for _ in range(200):
        if mode == NLOS:
            tail = tp * phi * (1.0 + y) ** (2.0 - alpha) / (alpha - 2.0)
        else:
            tail = tp * phi * (
                d0 * (1.0 + y) ** (1.0 - alpha) / (alpha - 1.0)
                + d1 * (y + d1) * math.exp(-y / d1) * (1.0 + y) ** -alpha
            )
        if tail <= budget:
            return y
        y *= 2.0
    raise QuadratureError("no finite truncation radius for the interference integral")


def _inner_mode_integral(t_flat: np.ndarray, radio: TierRadioParams, mode: str,
                         settings: IntegrationSettings, budget: float):
    """``integral over y of y * p_mode(y) * (1 - (1 + t P L(y)/M)^(-M))`` per t."""
    alpha = radio.pathloss_exponent(mode)
    phi = radio.intercept(mode)
    m_shape = radio.nakagami(mode)
    d0, d1 = radio.near_field_dist, radio.far_field_dist
    t_max = float(np.max(t_flat))
    if settings.inner_truncation_radius == AUTO:
        y_max = _inner_truncation(t_max * radio.tx_power, phi, alpha, d0, d1,
                                  mode, budget)
    else:
        y_max = float(settings.inner_truncation_radius)
    coef = radio.tx_power * phi / m_shape
    t_col = t_flat[:, None]

    def integrand(s):
        es = np.exp(s)
        y = es - 1.0
        p_los = los_probability(y, d0, d1)
        p_mode = p_los if mode == LOS else 1.0 - p_los
        u = coef * np.exp(-alpha * s) * t_col
        g = -np.expm1(-m_shape * np.log1p(u))
        return (y * p_mode * es) * g

    return integrate_adaptive(
        integrand, 0.0, math.log1p(y_max),
        rel_tol=0.25 * settings.rel_tol, abs_tol=budget,
        breakpoints=(math.log1p(d0),),
    )


def interference_laplace_exponent(t, radio: TierRadioParams, density_per_m2: float,
                                  settings: IntegrationSettings | None = None):
    """Exponent E(t) such that E[e^(-t I)] = e^(-E(t)) for one tier's field.

    ``I`` is the total power this tier's Poisson field (spatial density
    ``density_per_m2``) delivers to the origin. E is nonnegative,
    nondecreasing, and concave in t, and vanishes at t = 0 or zero density.
    Accepts scalar or array ``t``.
    """
    if settings is None:
        settings = IntegrationSettings()
    if not density_per_m2 >= 0:
        raise ValueError("density must be nonnegative")
    t_arr = np.atleast_1d(np.asarray(t, dtype=np.float64))
    if not np.all(t_arr >= 0):
        raise ValueError("t must be nonnegative")
    out = np.zeros(t_arr.shape, dtype=np.float64)
    if density_per_m2 > 0 and t_arr.size and np.any(t_arr > 0):
        two_pi_lambda = 2.0 * math.pi * density_per_m2
        budget = settings.abs_tol / two_pi_lambda / 4.0
        flat = t_arr.reshape(-1)
        total = np.zeros(flat.shape)
        for mode in (LOS, NLOS):
            vals, _ = _inner_mode_integral(flat, radio, mode, settings, budget)
            total += vals
        out = (two_pi_lambda * total).reshape(t_arr.shape)
    return float(out[0]) if np.isscalar(t) else out


# Exponent tables. A piece spans _PIECE_DECADES decades of t with edges at
# multiples of it in log10 t, so a piece's content depends only on its
# radio, its settings and its index, never on the order of requests. log e
# is smooth in log t (slope 1 for small t, 2/alpha for large t); on both
# default radios over t in [1e-3, 1e31], 16 first-kind Chebyshev nodes per
# 2-decade piece leave the last two Chebyshev coefficients below 2e-9 and
# the interpolant within 7e-10 of direct evaluation, the accuracy of the
# node values themselves. Wider pieces need more nodes per decade (4
# decades: 24 nodes for 7e-9), narrower ones build more pieces.
_PIECE_DECADES = 2.0
_PIECE_NODES = 16
# Node values are computed to this fraction of the coverage rel_tol; with
# the Lebesgue constant below (2.8 at 16 nodes) the table's error bound is
# then about 0.18 rel_tol, under the rel_tol |rho| already reported.
_NODE_TOL_FRACTION = 1.0 / 16.0
_UNIT_DENSITY = 0.5 / math.pi  # 2*pi*lambda = 1: the call returns e_j itself
_CHEB_X = np.cos(math.pi * (np.arange(_PIECE_NODES) + 0.5) / _PIECE_NODES)
# Node values -> Chebyshev coefficients (discrete cosine transform).
_CHEB_FIT = (2.0 / _PIECE_NODES) * np.cos(
    np.outer(np.arange(_PIECE_NODES), math.pi * (np.arange(_PIECE_NODES) + 0.5)
             / _PIECE_NODES))
_CHEB_FIT[0] *= 0.5
# Lebesgue-constant bound of first-kind Chebyshev interpolation: how much
# node-value errors can grow between the nodes.
_LEBESGUE = 2.0 / math.pi * math.log(_PIECE_NODES + 1.0) + 1.0


def _exponent_lower_bound(t: float, radio: TierRadioParams, y_max: float) -> float:
    """Closed-form lower bound on e(t), from the LOS near field alone.

    On y <= D0 every link is LOS and 1 - (1 + u)^(-M) >= u / (1 + u), which
    decreases with y, so e(t) >= r^2 / 2 * u(r) / (1 + u(r)), r = min(D0, y_max).
    """
    r = min(radio.near_field_dist, y_max)
    u = (t * radio.tx_power * radio.intercept_los / radio.nakagami_los
         * (1.0 + r) ** -radio.pathloss_exp_los)
    return 0.5 * r * r * u / (1.0 + u)


class ExponentTable:
    """Density-free interference exponent e(t) = E(t) / (2 pi lambda) of one radio.

    A piecewise Chebyshev interpolant of log e in log10 t. Each piece is
    built on first use by one batched ``interference_laplace_exponent`` call
    at its nodes; t outside the built pieces builds the missing ones, never
    extrapolates. Calling the table returns e(t) and a bound on its relative
    error: the node tolerance times the Lebesgue constant plus the size of
    the last two Chebyshev coefficients.
    """

    def __init__(self, radio: TierRadioParams, settings: IntegrationSettings):
        self.radio = radio
        # Coverage tolerances past 1% gain nothing from a looser table (a
        # piece costs milliseconds) and would void the log-error bound.
        self.node_tol = _NODE_TOL_FRACTION * min(settings.rel_tol, 1e-2)
        self.inner_truncation_radius = settings.inner_truncation_radius
        # Built pieces in ascending index order: their indices, and one
        # column per piece holding its Chebyshev coefficients then its
        # relative error bound. A last key of +inf, past every piece index,
        # keeps each searchsorted position inside the arrays.
        self._keys = np.array([math.inf])
        self._columns = np.full((_PIECE_NODES + 1, 1), math.nan)

    def _build(self, index: int):
        t = 10.0 ** (_PIECE_DECADES * (index + 0.5 * (1.0 + _CHEB_X)))
        y_max = (math.inf if self.inner_truncation_radius == AUTO
                 else float(self.inner_truncation_radius))
        # At 2*pi*lambda = 1 the call's error is at most rel_tol/4 * e plus
        # abs_tol (truncation and quadrature budgets of both modes). Each
        # of the two is held to node_tol/2 of e, so every node value is
        # within node_tol relative.
        settings = IntegrationSettings(
            rel_tol=2.0 * self.node_tol,
            abs_tol=0.5 * self.node_tol * _exponent_lower_bound(
                float(t.min()), self.radio, y_max),
            inner_truncation_radius=self.inner_truncation_radius,
        )
        e = interference_laplace_exponent(t, self.radio, _UNIT_DENSITY, settings)
        if not np.all((e > 0.0) & np.isfinite(e)):
            raise QuadratureError("interference exponent not positive and finite")
        coeffs = _CHEB_FIT @ np.log(e)
        tail = abs(coeffs[-1]) + abs(coeffs[-2])
        bound = math.expm1(_LEBESGUE * -math.log1p(-self.node_tol) + tail)
        return np.append(coeffs, bound)

    def _positions(self, index: np.ndarray) -> np.ndarray:
        """Column of each entry's piece, building the pieces not yet built."""
        pos = np.searchsorted(self._keys, index)
        built = self._keys[pos] == index
        if built.all():
            return pos
        # Not np.unique: without return_inverse it imports numpy.ma, about
        # 0.6 MB of resident memory, on first use.
        new = sorted(set(index[~built].tolist()))
        columns = np.column_stack([self._build(int(key)) for key in new])
        at = np.searchsorted(self._keys, new)
        self._keys = np.insert(self._keys, at, new)
        self._columns = np.insert(self._columns, at, columns, axis=1)
        return np.searchsorted(self._keys, index)

    def __call__(self, t: np.ndarray):
        """``(e, rel_err)`` at every entry of ``t`` (positive and finite)."""
        flat = np.asarray(t, dtype=np.float64).reshape(-1)
        if not np.all((flat > 0.0) & np.isfinite(flat)):
            raise QuadratureError("exponent table needs positive, finite t")
        u = np.log10(flat) / _PIECE_DECADES
        index = np.floor(u)
        pos = self._positions(index)  # may build pieces, replacing _columns
        gathered = self._columns[:, pos]
        coeffs, bounds = gathered[:-1], gathered[-1]
        x = 2.0 * (u - index) - 1.0
        two_x = 2.0 * x
        # Clenshaw recurrence, elementwise so a value never depends on the
        # other entries of the batch.
        b1 = b2 = 0.0
        for c in coeffs[:0:-1]:
            b1, b2 = c + two_x * b1 - b2, b1
        log_e = coeffs[0] + x * b1 - b2
        shape = np.shape(t)
        return np.exp(log_e).reshape(shape), bounds.reshape(shape)


def _exponent_table(exponents: dict, scenario: ScenarioConfig, tier: int) -> ExponentTable:
    """The table of tier ``tier`` (1-based), from ``exponents`` or new."""
    key = _stage_key(scenario, _EXPONENT_FIELDS, tier)
    table = exponents.get(key)
    if table is None:
        table = exponents[key] = ExponentTable(scenario.tiers[tier - 1].radio,
                                               scenario.integration)
    return table


def _coverage_terms(radio: TierRadioParams, beta_eff: float):
    """Alternating-sum terms: (mode, binomial coefficient, t(x) prefactor, alpha).

    Term k contributes coeff_k * integral of x p_mode(x) e^(-sum_j E_j(t_k(x)))
    with t_k(x) = prefactor_k * (1 + x)^alpha_mode.
    """
    terms = []
    for mode in (LOS, NLOS):
        m_shape = radio.nakagami(mode)
        v = alzer_coefficient(m_shape)
        alpha = radio.pathloss_exponent(mode)
        for m in range(1, m_shape + 1):
            coeff = math.comb(m_shape, m) * (-1.0) ** (m + 1)
            prefactor = beta_eff * m * v / (radio.tx_power * radio.intercept(mode))
            terms.append((mode, coeff, prefactor, alpha))
    return terms


def _total_exponent(t: np.ndarray, interferers):
    """Sum of every interfering tier's Laplace exponent at each t entry.

    ``interferers`` lists ``(exponent table, 2*pi*lambda)``. Returns the
    exponent and a bound on its absolute error.
    """
    total = np.zeros(t.shape)
    slack = np.zeros(t.shape)
    for table, two_pi_lambda in interferers:
        e, rel_err = table(t)
        exponent = two_pi_lambda * e
        total += exponent
        slack += exponent * rel_err
    return total, slack


def _outer_truncation(terms, interferers, radio_i: TierRadioParams,
                      settings: IntegrationSettings) -> float:
    """Radius beyond which every term's integrand is negligibly small.

    The slowest-decaying term per mode is m = 1; the probe doubles x until
    x^2 * p_mode(x) * e^(-sum E) drops below a small fraction of abs_tol,
    then doubles once more for margin. The exponent keeps growing with x, so
    the discarded tail is dominated by the value at the truncation point.
    """
    log_thresh = math.log(settings.abs_tol) + math.log(1e-2)
    d0, d1 = radio_i.near_field_dist, radio_i.far_field_dist
    probes = {}
    for mode, _, prefactor, alpha in terms:
        if mode not in probes or prefactor < probes[mode][0]:
            probes[mode] = (prefactor, alpha)
    x = max(d0, d1, 1.0)
    for _ in range(70):
        done = True
        for mode, (prefactor, alpha) in probes.items():
            t = prefactor * (1.0 + x) ** alpha
            exponent = float(_total_exponent(np.array([t]), interferers)[0][0])
            if mode == LOS:
                log_p = math.log(min(1.0, d0 / x + math.exp(-x / d1)))
            else:
                log_p = 0.0
            if 2.0 * math.log1p(x) + log_p - exponent > log_thresh:
                done = False
                break
        if done:
            return 2.0 * x
        x *= 2.0
    raise QuadratureError("no finite truncation radius for the coverage integral")


def tier_coverage_density(scenario: ScenarioConfig, tier_index: int,
                          exponents: dict | None = None):
    """Expected number of covering tier-``tier_index`` stations, with error.

    Returns ``(value, error_estimate)``. The value folds the full angular
    2*pi*lambda factor, is zero for a zero-density tier, and does not depend
    on any tier's cache configuration. ``tier_index`` is 0-based. The
    quadrature settings are ``scenario.integration``. ``exponents`` caches
    exponent tables across calls (keyed by ``scenario._EXPONENT_FIELDS``);
    the value does not depend on what it already holds.
    """
    settings = scenario.integration
    if exponents is None:
        exponents = {}
    densities = scenario.densities_per_m2()
    lam_i = float(densities[tier_index])
    if lam_i == 0.0:
        return 0.0, 0.0
    tier = scenario.tiers[tier_index]
    radio_i = tier.radio
    terms = _coverage_terms(radio_i, tier.effective_threshold())
    interferers = [
        (_exponent_table(exponents, scenario, j + 1), 2.0 * math.pi * float(densities[j]))
        for j in range(scenario.num_tiers) if densities[j] > 0]

    if settings.outer_truncation_radius == AUTO:
        x_max = _outer_truncation(terms, interferers, radio_i, settings)
    else:
        x_max = float(settings.outer_truncation_radius)

    d0, d1 = radio_i.near_field_dist, radio_i.far_field_dist
    alphas = np.array([t[3] for t in terms])[:, None]
    prefactors = np.array([t[2] for t in terms])[:, None]
    is_los_term = np.array([t[0] == LOS for t in terms])[:, None]

    def integrand(s):
        es = np.exp(s)
        x = es - 1.0
        p_los = los_probability(x, d0, d1)
        p_mode = np.where(is_los_term, p_los, 1.0 - p_los)
        t_matrix = prefactors * np.exp(alphas * s)
        exponent, slack = _total_exponent(t_matrix, interferers)
        value = (x * es) * p_mode * np.exp(-exponent)
        # The exact exponent lies within +-slack of the tabulated one, so
        # e^(-E) is off by at most e^(-E) * expm1(slack): integrate that too.
        # Where e^(-E) underflows to 0, so does e^(-E + slack) (slack << E),
        # and expm1(slack) may overflow: there the bound is left at 0.
        bound = value * np.expm1(slack, out=np.zeros(slack.shape), where=value > 0.0)
        return np.concatenate((value, bound))

    two_pi_lambda = 2.0 * math.pi * lam_i
    coeff_scale = sum(abs(t[1]) for t in terms)
    values, errors = integrate_adaptive(
        integrand, 0.0, math.log1p(x_max),
        rel_tol=settings.rel_tol,
        abs_tol=settings.abs_tol / (two_pi_lambda * coeff_scale),
        breakpoints=(math.log1p(d0),),
    )
    n_terms = len(terms)
    coeffs = [t[1] for t in terms]
    rho = two_pi_lambda * math.fsum(c * v for c, v in zip(coeffs, values[:n_terms]))
    # Quadrature error of the alternating sum plus the (rel_tol-scaled)
    # influence of the exponent's tolerance on the outer integrand, plus
    # the propagated error bound of the exponent table.
    err = two_pi_lambda * math.fsum(abs(c) * e for c, e in zip(coeffs, errors[:n_terms]))
    err += settings.rel_tol * abs(rho) + settings.abs_tol
    err += two_pi_lambda * math.fsum(
        abs(c) * (v + e)
        for c, v, e in zip(coeffs, values[n_terms:], errors[n_terms:]))
    if rho < 0.0:
        # the alternating sum over fading terms must stay nonnegative
        if -rho > err:
            raise QuadratureError(
                "alternating fading sum lost significance", error_estimate=err)
        rho = 0.0
    return rho, err


@dataclass(frozen=True, eq=False)
class CoverageTable:
    """Per-tier covering-station expectations and their error bounds.

    ``per_tier_density`` folds the 2*pi*lambda factor and is shared by every
    content rank; it depends only on the fields ``scenario._COVERAGE_FIELDS``
    declares, so one table serves every cache, content and cost setting.
    """

    per_tier_density: tuple
    error_estimates: tuple


def build_coverage_table(scenario: ScenarioConfig,
                         exponents: dict | None = None) -> CoverageTable:
    """Evaluate every tier's coverage density for this scenario.

    ``exponents`` is passed to ``tier_coverage_density``; without it the
    tiers still share one set of exponent tables for this call.
    """
    if exponents is None:
        exponents = {}
    values = []
    errors = []
    for i in range(scenario.num_tiers):
        rho, err = tier_coverage_density(scenario, i, exponents)
        values.append(rho)
        errors.append(err)
    return CoverageTable(per_tier_density=tuple(values), error_estimates=tuple(errors))
