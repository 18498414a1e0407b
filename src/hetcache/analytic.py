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
interpolant in log t, a column per two decades: a piece is built the first
time a t inside it is needed, by adaptive quadrature of e_j at its nodes, and
every later lookup, for any density, interpolates. The pieces one lookup
misses, in every table it reads, are built together: each (piece, mode) pair
is one row of one lockstep quadrature. The coverage integrals then need one
adaptive quadrature per block and term count: every (scenario, tier) pair of a
block is one row of one lockstep probe that sizes its domain, then one row of
the lockstep quadrature of the pairs with its number of fading-sum terms. The
table's relative error bound propagates into the reported error estimate.

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
depends only on its scenario, never on which tables were built before or
which scenarios share its block, so repeated runs produce bit-identical
values.
"""
from __future__ import annotations

import contextlib
import math
import sys
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .channel import LOS, NLOS, TierRadioParams, los_probability
from .quadrature import QuadratureError, _ROW_ERRORS, _lockstep, _unwrapped, integrate_adaptive
from .scenario import (_COVERAGE_FIELDS, _EXPONENT_FIELDS, AUTO, IntegrationSettings,
                       ScenarioConfig, _stage_key)

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
    if not math.isfinite(tp * phi):  # nor, then, is any tail bound
        raise QuadratureError("interference exponent t past the float range")
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


def interference_laplace_exponent(t, radio: TierRadioParams, density_per_m2: float,
                                  settings: IntegrationSettings | None = None):
    """Exponent E(t) such that E[e^(-t I)] = e^(-E(t)) for one tier's field.

    ``I`` is the total power this tier's Poisson field (spatial density
    ``density_per_m2``) delivers to the origin. E is nonnegative,
    nondecreasing, and concave in t, and vanishes at t = 0 or zero density.
    Accepts scalar or array ``t``. 2*pi*lambda times the e of a
    ``_laplace_exponents`` block of one at abs_tol / (2*pi*lambda).
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
        abs_tol = settings.abs_tol / two_pi_lambda
        [e] = _laplace_exponents([(t_arr.reshape(-1), radio, settings.rel_tol, abs_tol,
                                   settings.inner_truncation_radius)])
        out = (two_pi_lambda * _unwrapped(e)).reshape(t_arr.shape)
    return float(out[0]) if np.isscalar(t) else out


def _laplace_exponents(pieces):
    """e(t) = E(t) / (2 pi lambda) at t of each ``(t, radio, rel_tol, abs_tol,
    inner_truncation_radius)`` piece (t 1-D, as long as the others'), within
    rel_tol/4 * e + abs_tol. A piece's two modes are two rows of one lockstep
    quadrature, so its e or error is bit for bit its own alone."""
    results = [None] * len(pieces)
    rows = []  # (piece, radio, mode, end of its s domain)
    for n, (t, radio, _, abs_tol, inner_truncation_radius) in enumerate(pieces):
        try:
            rows += [(n, radio, mode, math.log1p(
                _inner_truncation(float(np.max(t)) * radio.tx_power, radio.intercept(mode),
                                  radio.pathloss_exponent(mode), radio.near_field_dist,
                                  radio.far_field_dist, mode, abs_tol / 4.0)
                if inner_truncation_radius == AUTO
                else float(inner_truncation_radius))) for mode in (LOS, NLOS)]
        except QuadratureError as exc:
            results[n] = exc
    if not rows:
        return results
    # per row: integral over y of y * p_mode(y) * (1 - (1 + t P L(y)/M)^(-M)), at each t
    alpha, coef, m_shape, d0, d1, los = (np.array(column) for column in zip(*(
        (radio.pathloss_exponent(mode), radio.tx_power * radio.intercept(mode) / radio.nakagami(mode),
         float(radio.nakagami(mode)), radio.near_field_dist, radio.far_field_dist, mode == LOS)
        for _, radio, mode, _ in rows)))
    t_columns = np.column_stack([pieces[n][0] for n, *_ in rows])

    def integrand(call):
        row, s = call
        es = np.exp(s)
        y = es - 1.0
        p_los = los_probability(y, d0[row], d1[row])
        p_mode = np.where(los[row], p_los, 1.0 - p_los)
        # np.take keeps the values C-ordered, as the stacked rule sums need
        with np.errstate(over="ignore"):  # where u overflows to inf, g is 1 all the same
            u = coef[row] * np.exp(-alpha[row] * s) * np.take(t_columns, row, axis=1)
        g = -np.expm1(-m_shape[row] * np.log1p(u))
        return (y * p_mode * es) * g

    integrals = integrate_adaptive(
        integrand, [0.0] * len(rows), [row[3] for row in rows],
        rel_tol=[0.25 * pieces[n][2] for n, *_ in rows],
        abs_tol=[pieces[n][3] / 4.0 for n, *_ in rows],
        breakpoints=[(math.log1p(radio.near_field_dist),) for _, radio, *_ in rows])
    for k in range(0, len(rows), 2):
        n, modes = rows[k][0], integrals[k:k + 2]
        failed = [result for result in modes if not isinstance(result, tuple)]
        results[n] = failed[0] if failed else modes[0][0] + modes[1][0]
    return results


# Exponent tables. A piece spans _PIECE_DECADES decades of t with edges at
# multiples of it in log10 t, so a piece's content depends only on its
# radio, its tolerances and its index, never on the order of requests. log e
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
# A coverage value whose error estimate exceeds this fraction of it (or 10
# rel_tol, the padding its row asked for) plus its abs_tol floor is an error:
# its fading sum lost significance. Reference outputs stay below 1.6e-5.
_SIGNIFICANCE = 1e-2
# Every positive finite t is in one of the pieces -162 ... 154, a column each.
_FIRST_PIECE = math.floor(math.log10(math.ulp(0.0)) / _PIECE_DECADES)
_PIECES = math.floor(math.log10(sys.float_info.max) / _PIECE_DECADES) - _FIRST_PIECE + 1
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

    A piecewise Chebyshev interpolant of log e in log10 t. Piece k, t in
    [10^(2k), 10^(2k + 2)), is column k - ``_FIRST_PIECE``: its Chebyshev
    coefficients then its relative error bound, built when a lookup first
    needs it (never extrapolated). The pieces one lookup misses, in every
    table it reads, are built together, each bit for bit as if built alone
    (``_build_pieces``); a failed piece keeps its error, and a lookup that
    needs it raises the error of its lowest failed piece. Calling the table
    returns e(t) and a bound on its relative error: the node tolerance times
    the Lebesgue constant plus the last two coefficients.
    """

    def __init__(self, radio: TierRadioParams, settings: IntegrationSettings):
        self.radio = radio
        # Coverage tolerances past 1% gain nothing from a looser table (a
        # piece costs milliseconds) and would void the log-error bound.
        self.node_tol = _NODE_TOL_FRACTION * min(settings.rel_tol, 1e-2)
        self.inner_truncation_radius = settings.inner_truncation_radius
        self._columns = {}  # column index -> the column, or the error its build raised

    def _piece(self, pos: int):
        """The ``_laplace_exponents`` piece that builds column ``pos``."""
        with np.errstate(over="ignore"):  # the last piece's top nodes are inf
            t = 10.0 ** (_PIECE_DECADES * (pos + _FIRST_PIECE + 0.5 * (1.0 + _CHEB_X)))
        if not np.all(np.isfinite(t)):
            raise QuadratureError("interference exponent t past the float range")
        y_max = (math.inf if self.inner_truncation_radius == AUTO
                 else float(self.inner_truncation_radius))
        # The block's error terms, rel_tol/4 * e and abs_tol, are each held to
        # node_tol/2 of e, so every node value is within node_tol relative.
        abs_tol = 0.5 * self.node_tol * _exponent_lower_bound(float(t.min()), self.radio, y_max)
        if not 0.0 < abs_tol < math.inf:
            raise QuadratureError("interference exponent lower bound out of float range")
        return t, self.radio, 2.0 * self.node_tol, abs_tol, self.inner_truncation_radius

    def _column(self, e: np.ndarray) -> np.ndarray:
        """A piece's column, from e at its nodes."""
        if not np.all((e > 0.0) & np.isfinite(e)):
            raise QuadratureError("interference exponent not positive and finite")
        coeffs = _CHEB_FIT @ np.log(e)
        tail = abs(coeffs[-1]) + abs(coeffs[-2])
        bound = math.expm1(_LEBESGUE * -math.log1p(-self.node_tol) + tail)
        return np.append(coeffs, bound)

    def __call__(self, t: np.ndarray):
        """``(e, rel_err)`` at every entry of ``t`` (positive and finite)."""
        flat = np.asarray(t, dtype=np.float64).reshape(-1)
        if not np.all((flat > 0.0) & np.isfinite(flat)):
            raise QuadratureError("exponent table needs positive, finite t")
        u = np.log10(flat) / _PIECE_DECADES
        index = np.floor(u)
        pos = index.astype(np.intp) - _FIRST_PIECE
        reached = _reached(pos)
        _build_pieces([(self, column) for column in reached if column not in self._columns])
        built = [self._columns[column] for column in reached]
        failed = [column for column in built if isinstance(column, Exception)]
        if failed:  # raise the lowest failed piece's first error again
            raise failed[0].with_traceback(None)
        columns = np.zeros((_PIECE_NODES + 1, _PIECES))  # the reached columns, in place
        columns[:, reached] = np.transpose(built)
        x = 2.0 * (u - index) - 1.0
        two_x = 2.0 * x
        # Clenshaw recurrence, elementwise so a value never depends on the
        # other entries of the batch; each coefficient is gathered as it is
        # used, so a large batch holds no copy of every entry's column.
        b1 = b2 = 0.0
        for coeff in columns[-2:0:-1]:
            b1, b2 = coeff[pos] + two_x * b1 - b2, b1
        log_e = columns[0, pos] + x * b1 - b2
        shape = np.shape(t)
        return np.exp(log_e).reshape(shape), columns[-1, pos].reshape(shape)


def _reached(pos: np.ndarray) -> list:
    """The columns ``pos`` holds, ascending (np.unique imports numpy.ma: 0.6 MB)."""
    return np.flatnonzero(np.bincount(pos.reshape(-1), minlength=_PIECES)).tolist()


def _build_pieces(wanted):
    """Build the ``(table, column)`` pairs of ``wanted``, each once, in one
    block: each piece is built or fails on its own, so its table keeps its
    column or its error, as if built alone. Tiers of one radio share a
    table, so a pair may be wanted twice."""
    pieces = []
    for table, pos in dict.fromkeys(wanted):
        try:
            pieces.append((table, pos, table._piece(pos)))
        except _ROW_ERRORS as exc:
            table._columns[pos] = exc
    for (table, pos, _), e in zip(pieces, _laplace_exponents([p for *_, p in pieces])):
        try:
            table._columns[pos] = table._column(_unwrapped(e))
        except _ROW_ERRORS as exc:
            table._columns[pos] = exc


def _exponent_table(cache: dict, scenario: ScenarioConfig, tier: int) -> ExponentTable:
    """The table of tier ``tier`` (1-based), from ``cache`` or new."""
    key = _stage_key(scenario, _EXPONENT_FIELDS, tier)
    table = cache.get(key)
    if table is None:
        table = cache[key] = ExponentTable(scenario.tiers[tier - 1].radio,
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


def _total_exponent(t: np.ndarray, rows: np.ndarray, interferers):
    """Sum of every interfering tier's Laplace exponent at each t entry.

    ``rows`` gives the row of each entry along t's last axis, and
    ``interferers`` lists ``(exponent table, each row's 2*pi*lambda)`` in tier
    order; a row reads a table only where its 2*pi*lambda is positive.
    Returns the exponent and a bound on its absolute error. The pieces the
    lookups would build one table after another are built together first.
    """
    lookups = [(table, two_pi_lambda[rows]) for table, two_pi_lambda in interferers]
    if np.all((t > 0.0) & np.isfinite(t)):  # else the first table to read a bad t raises
        pos = np.floor(np.log10(t) / _PIECE_DECADES).astype(np.intp) - _FIRST_PIECE
        _build_pieces([(table, column) for table, weight in lookups for column in _reached(
            pos[..., weight > 0.0]) if column not in table._columns])
    total = np.zeros(t.shape)
    slack = np.zeros(t.shape)
    for table, weight in lookups:
        reads = weight > 0.0
        e, rel_err = table(t[..., reads])
        exponent = weight[reads] * e
        total[..., reads] += exponent
        slack[..., reads] += exponent * rel_err
    return total, slack


def _outer_truncation(terms, radio_i: TierRadioParams, settings: IntegrationSettings):
    """Radius beyond which every term's integrand is negligibly small (the
    fixed radius, if set): a generator that yields each t whose total
    interference exponent it needs and is sent that exponent.

    The slowest-decaying term per mode is m = 1; the probe doubles x until
    x^2 * p_mode(x) * e^(-sum E) drops below a small fraction of abs_tol,
    then doubles once more for margin. The exponent keeps growing with x, so
    the discarded tail is dominated by the value at the truncation point.
    """
    if settings.outer_truncation_radius != AUTO:
        return float(settings.outer_truncation_radius)
    log_thresh = math.log(settings.abs_tol) + math.log(1e-2)
    d0, d1 = radio_i.near_field_dist, radio_i.far_field_dist
    probes = {}
    for mode, _, prefactor, alpha in terms:
        if mode not in probes or prefactor < probes[mode][0]:
            probes[mode] = (prefactor, alpha)
    x = max(d0, d1, 1.0)
    with contextlib.suppress(OverflowError):  # past the largest float t, no radius is finite
        for _ in range(70):
            done = True
            for mode, (prefactor, alpha) in probes.items():
                exponent = yield prefactor * (1.0 + x) ** alpha
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


def _coverage_sum(row, values, errors):
    """A row's coverage density and error estimate from its term integrals."""
    n_terms = len(row.terms)
    coeffs = [t[1] for t in row.terms]
    rho = row.two_pi_lambda * math.fsum(c * v for c, v in zip(coeffs, values[:n_terms]))
    # Quadrature error of the alternating sum plus the (rel_tol-scaled)
    # influence of the exponent's tolerance on the outer integrand, plus
    # the propagated error bound of the exponent table.
    err = row.two_pi_lambda * math.fsum(abs(c) * e for c, e in zip(coeffs, errors[:n_terms]))
    err += row.settings.rel_tol * abs(rho) + row.settings.abs_tol
    err += row.two_pi_lambda * math.fsum(
        abs(c) * (v + e)
        for c, v, e in zip(coeffs, values[n_terms:], errors[n_terms:]))
    floor = 2.0 * row.settings.abs_tol  # its own and its quadrature's
    limit = max(_SIGNIFICANCE, 10.0 * row.settings.rel_tol) * abs(rho) + floor
    if err > limit or rho < -floor:  # a density is nonnegative: clamp only within the floor
        return QuadratureError(f"fading sum lost significance: value {rho:.3g}, error "
                               f"{err:.3g}, limit {limit:.3g}", error_estimate=err)
    return max(rho, 0.0), err


# One (scenario, tier) pair of a coverage block, at positive density.
_Row = namedtuple("_Row", "pair settings radio terms two_pi_lambda")


def _coverage_block(pairs, cache: dict) -> list:
    """``(value, error_estimate)`` of each ``(scenario, tier index)`` pair, or
    the error the pair raises alone.

    The pairs at positive density are the rows of one lockstep truncation
    probe, then of one lockstep quadrature per term count, so each row's
    value is bit for bit its value alone and a row that fails fails alone.
    The rows' exponent tables come from ``cache``, which keeps the ones
    built here.
    """
    results = [(0.0, 0.0)] * len(pairs)
    rows, columns = [], {}
    for n, (scenario, i) in enumerate(pairs):
        densities = scenario.densities_per_m2()
        if densities[i] == 0.0:
            continue
        tier = scenario.tiers[i]
        try:
            terms = _coverage_terms(tier.radio, tier.effective_threshold())
            if math.isinf(sum(abs(t[1]) for t in terms)):  # the quadrature's abs_tol scale
                raise OverflowError
        except OverflowError:  # a binomial coefficient, or their sum, past the largest float
            results[n] = QuadratureError("fading sum coefficients overflow the float range")
            continue
        for j in np.flatnonzero(densities).tolist():  # the rows' interferers, by tier
            table = _exponent_table(cache, scenario, j + 1)
            weights = columns.setdefault((j, id(table)), (table, {}))[1]
            weights[len(rows)] = 2.0 * math.pi * float(densities[j])
        rows.append(_Row(n, scenario.integration, tier.radio, terms,
                         2.0 * math.pi * float(densities[i])))
    interferers = [(table, np.array([weights.get(r, 0.0) for r in range(len(rows))]))
                   for _, (table, weights) in sorted(columns.items(), key=lambda c: c[0][0])]
    radii = _lockstep(
        [_outer_truncation(row.terms, row.radio, row.settings) for row in rows],
        lambda requests: _total_exponent(np.array([t for _, t in requests]), np.array(
            [r for r, _ in requests]), interferers)[0].tolist())
    for row, radius in zip(rows, radii):
        results[row.pair] = radius  # an error stays; a radius is replaced below
    by_count = {}  # the rows the probe sized, by term count
    for r, radius in enumerate(radii):
        if not isinstance(radius, Exception):
            by_count.setdefault(len(rows[r].terms), []).append(r)
    for group in by_count.values():
        integrals = _coverage_integrals([rows[r] for r in group], [radii[r] for r in group],
                                        np.array(group), interferers)
        for r, integral in zip(group, integrals):
            results[rows[r].pair] = (integral if isinstance(integral, Exception)
                                     else _coverage_sum(rows[r], *integral))
    return results


def _coverage_integrals(rows, radii, block_row, interferers) -> list:
    """One lockstep quadrature of ``rows``, all of one term count, out to
    ``radii``: each row's term integrals then their exponent-error bounds,
    or the error the row raises alone. ``block_row`` gives each row's index
    into ``interferers``' weights."""
    modes, _, prefactors, alphas = (
        np.array([[t[k] for t in row.terms] for row in rows]).T for k in range(4))
    d0 = np.array([row.radio.near_field_dist for row in rows])
    d1 = np.array([row.radio.far_field_dist for row in rows])

    def integrand(call):
        k, s = call
        es = np.exp(s)
        x = es - 1.0
        p_los = los_probability(x, d0[k], d1[k])
        p_mode = np.where(modes[:, k] == LOS, p_los, 1.0 - p_los)
        t_matrix = prefactors[:, k] * np.exp(alphas[:, k] * s)
        exponent, slack = _total_exponent(t_matrix, block_row[k], interferers)
        value = (x * es) * p_mode * np.exp(-exponent)
        # The exact exponent lies within +-slack of the tabulated one, so
        # e^(-E) is off by at most e^(-E) * expm1(slack): integrate that too.
        # Where e^(-E) underflows to 0, so does e^(-E + slack) (slack << E),
        # and expm1(slack) may overflow: there the bound is left at 0.
        bound = value * np.expm1(slack, out=np.zeros(slack.shape), where=value > 0.0)
        return np.concatenate((value, bound))

    return integrate_adaptive(
        integrand, [0.0] * len(rows), [math.log1p(radius) for radius in radii],
        rel_tol=[row.settings.rel_tol for row in rows],
        abs_tol=[row.settings.abs_tol / (row.two_pi_lambda * sum(abs(t[1]) for t in row.terms))
                 for row in rows],
        breakpoints=[(math.log1p(row.radio.near_field_dist),) for row in rows])


def tier_coverage_density(scenario: ScenarioConfig, tier_index: int,
                          cache: dict | None = None):
    """Expected number of covering tier-``tier_index`` stations, with error.

    Returns ``(value, error_estimate)``. The value folds the full angular
    2*pi*lambda factor, is zero for a zero-density tier, and does not depend
    on any tier's cache configuration. ``tier_index`` is 0-based. The
    quadrature settings are ``scenario.integration``. ``cache`` is a store
    of ``build_coverage_table``'s: the exponent tables it holds serve this
    call, and it keeps those built here; the value does not depend on what
    it already holds. This is a coverage block of one row.
    """
    return _unwrapped(_coverage_block([(scenario, tier_index)],
                                      {} if cache is None else cache)[0])


@dataclass(frozen=True, eq=False)
class CoverageTable:
    """Per-tier covering-station expectations and their error bounds.

    ``per_tier_density`` folds the 2*pi*lambda factor and is shared by every
    content rank; it depends only on the fields ``scenario._COVERAGE_FIELDS``
    declares, so one table serves every cache, content and cost setting.
    """

    per_tier_density: tuple
    error_estimates: tuple


def build_coverage_table(scenarios, cache: dict | None = None) -> list:
    """Evaluate every tier's coverage density of each scenario of a block.

    ``scenarios`` is an iterable of ScenarioConfig, read once. A list of one
    CoverageTable per scenario is returned, or in its place the
    QuadratureError or ValueError its own table raises alone (that of its
    first failing tier). ``cache`` is one sweep's store of tables under
    their stage keys: each scenario's coverage table under its
    ``scenario._COVERAGE_FIELDS`` key, a failed key under its error, and
    the exponent tables they share. Every tier of every key it lacks, in
    order of first appearance, is one row of one coverage block; each table
    is bit for bit the one built alone, so a key is built once per store.
    Without ``cache`` the call has its own.
    """
    cache = {} if cache is None else cache
    keyed = [(_stage_key(s, _COVERAGE_FIELDS), s) for s in scenarios]
    missing = {}
    for key, scenario in keyed:
        if key not in cache:
            missing.setdefault(key, scenario)
    results = iter(_coverage_block(
        [(s, i) for s in missing.values() for i in range(s.num_tiers)], cache))
    for key, scenario in missing.items():
        tiers = [next(results) for _ in range(scenario.num_tiers)]
        failed = [result for result in tiers if isinstance(result, Exception)]
        cache[key] = failed[0] if failed else CoverageTable(*map(tuple, zip(*tiers)))
    return [cache[key] for key, _ in keyed]
