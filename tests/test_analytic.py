"""Analytic coverage engine: Alzer constant, Laplace exponent, tier densities."""
import dataclasses
import math
import traceback
import warnings

import numpy as np
import pytest

from hetcache import analytic, quadrature
from hetcache.analytic import (ExponentTable, alzer_coefficient,
                               build_coverage_table,
                               interference_laplace_exponent,
                               tier_coverage_density)
from hetcache.channel import TierRadioParams
from hetcache.content import TierCachePolicy
from hetcache.experiments import grid_search, set_parameter
from hetcache.metrics import analytic_report
from hetcache.quadrature import QuadratureError
from hetcache.scenario import IntegrationSettings, default_scenario

TIER2_RADIO_M1 = TierRadioParams(
    tx_power=4.0, pathloss_exp_los=2.4, pathloss_exp_nlos=4.0,
    near_field_dist=16.0, far_field_dist=36.0, sir_threshold=4.0,
    nakagami_los=1, nakagami_nlos=1)


def unit_shape_scenario(scenario=None):
    s = scenario or default_scenario()
    tiers = tuple(
        dataclasses.replace(t, radio=dataclasses.replace(
            t.radio, nakagami_los=1, nakagami_nlos=1))
        for t in s.tiers)
    return dataclasses.replace(s, tiers=tiers)


def test_alzer_values():
    assert alzer_coefficient(1) == pytest.approx(1.0, abs=1e-15)
    assert alzer_coefficient(2) == pytest.approx(math.sqrt(2.0), abs=1e-12)
    assert alzer_coefficient(3) == pytest.approx(3.0 * 6.0 ** (-1.0 / 3.0), abs=1e-12)
    assert alzer_coefficient(3) == pytest.approx(1.650964, abs=1e-6)


def test_alzer_large_shape_no_overflow():
    v = alzer_coefficient(400)
    assert np.isfinite(v) and v > 1.0


def test_alzer_rejects_bad_shapes():
    for bad in (0, -1, 1.5, True):
        with pytest.raises(ValueError):
            alzer_coefficient(bad)


def test_laplace_exponent_trivial_zero():
    assert interference_laplace_exponent(0.0, TIER2_RADIO_M1, 1e-6) == 0.0
    assert np.all(interference_laplace_exponent(
        np.array([0.0, 1.0, 10.0]), TIER2_RADIO_M1, 0.0) == 0.0)


def test_laplace_exponent_matches_trapezoid_oracle():
    """Independent oracle: fixed-grid trapezoid, 1e6 nodes, 1e5 m truncation.

    The 1e6 nodes are split over two fixed uniform segments (dense on
    [0, 1e3] where the integrand lives) because a single uniform grid at
    this budget carries ~1.5e-4 discretization error of its own.
    """
    seg1 = np.linspace(0.0, 1e3, 900_000)
    seg2 = np.linspace(1e3, 1e5, 100_001)[1:]
    y = np.concatenate([seg1, seg2])
    p_los = np.where(y <= 16.0, 1.0,
                     (16.0 / np.maximum(y, 1e-12)) * (1 - np.exp(-y / 36.0))
                     + np.exp(-y / 36.0))
    total = 0.0
    for p_mode, alpha in ((p_los, 2.4), (1.0 - p_los, 4.0)):
        integrand = y * p_mode * (1.0 - 1.0 / (1.0 + 4.0 * (1.0 + y) ** -alpha))
        total += np.trapezoid(integrand, y)
    oracle = 2.0 * math.pi * 1e-6 * total
    assert oracle == pytest.approx(2.7135271616864796e-05, rel=1e-9)  # frozen

    engine = interference_laplace_exponent(1.0, TIER2_RADIO_M1, 1e-6)
    assert engine == pytest.approx(oracle, rel=1e-5)


def test_laplace_exponent_shape_properties():
    # nonnegative, nondecreasing, concave over a broad t-grid
    t = np.logspace(-4, 14, 40)
    e = interference_laplace_exponent(t, TIER2_RADIO_M1, 1e-6)
    assert np.all(e >= 0.0)
    assert np.all(np.diff(e) >= -1e-12)
    # concavity in t via second differences on a linear sub-grid
    t_lin = np.linspace(1e5, 1e7, 30)
    e_lin = interference_laplace_exponent(t_lin, TIER2_RADIO_M1, 1e-6)
    second = np.diff(e_lin, 2)
    assert np.all(second <= 1e-9)


def test_laplace_exponent_rejects_bad_input():
    with pytest.raises(ValueError):
        interference_laplace_exponent(-1.0, TIER2_RADIO_M1, 1e-6)
    with pytest.raises(ValueError):
        interference_laplace_exponent(1.0, TIER2_RADIO_M1, -1e-6)
    # NaN is not a number to evaluate at, nor an empty tier
    with pytest.raises(ValueError, match="^t "):
        interference_laplace_exponent(math.nan, TIER2_RADIO_M1, 1e-5)
    with pytest.raises(ValueError, match="^t "):
        interference_laplace_exponent(np.array([0.5, math.nan]), TIER2_RADIO_M1, 1e-5)
    with pytest.raises(ValueError, match="density"):
        interference_laplace_exponent(1.0, TIER2_RADIO_M1, math.nan)


def test_zero_density_tier_has_zero_coverage():
    s = set_parameter(default_scenario(), "tiers[2].density", 0.0)
    rho, err = tier_coverage_density(s, 1)
    assert rho == 0.0 and err == 0.0


def test_coverage_strictly_decreasing_in_threshold():
    values = []
    for beta in (0.5, 1.0, 2.0, 4.0, 8.0):
        s = set_parameter(default_scenario(), "tiers[2].radio.sir_threshold", beta)
        rho, _ = tier_coverage_density(s, 1)
        values.append(rho)
    assert np.all(np.diff(values) < 0.0)


def test_coverage_independent_of_cache_configuration():
    base = default_scenario()
    other = set_parameter(
        set_parameter(base, "tiers[2].cache.cache_size", 77),
        "tiers[1].cache.mpc_fraction", 0.0)
    [t_base] = build_coverage_table([base])
    [t_other] = build_coverage_table([other])
    assert t_base.per_tier_density == t_other.per_tier_density


def test_quadrature_stability_on_default_scenario():
    s = default_scenario()
    rho, err = tier_coverage_density(s, 1)
    tight = IntegrationSettings(rel_tol=s.integration.rel_tol / 2.0,
                                abs_tol=s.integration.abs_tol)
    rho_tight, _ = tier_coverage_density(dataclasses.replace(s, integration=tight), 1)
    assert abs(rho - rho_tight) < err


def test_explicit_truncation_matches_auto():
    s = unit_shape_scenario()
    auto_rho, _ = tier_coverage_density(s, 1)
    explicit = IntegrationSettings(outer_truncation_radius=5e5,
                                   inner_truncation_radius=1e7)
    exp_rho, _ = tier_coverage_density(dataclasses.replace(s, integration=explicit), 1)
    assert exp_rho == pytest.approx(auto_rho, rel=1e-4)


def test_coverage_probability_weight_collapse():
    s = default_scenario()
    [table] = build_coverage_table([s])
    full = set_parameter(s, "tiers[*].cache", TierCachePolicy(100, 1.0))
    total = analytic_report(full, table=table).p_hit
    assert total == pytest.approx(sum(table.per_tier_density), rel=1e-12)
    none = set_parameter(s, "tiers[*].cache", TierCachePolicy(0, 1.0))
    assert analytic_report(none, table=table).p_hit == 0.0


def test_report_per_rank_hit_split():
    s = default_scenario()
    [table] = build_coverage_table([s])
    hit = analytic_report(s, table=table).per_content_hit
    rho1, rho2 = table.per_tier_density
    assert hit.shape == (100,)
    # full MPC: tier 2 caches the top 5 and the macro tier the top 20, so
    # tier 2's weight is rho_2 on rank 1 and 0 from rank 6 on
    assert hit[0] == pytest.approx(rho1 + rho2)
    assert hit[10] == rho1
    assert hit[20] == 0.0


def test_bias_raises_effective_threshold_and_lowers_coverage():
    base = default_scenario()
    biased = set_parameter(base, "tiers[2].rho", 0.5)
    rho_base, _ = tier_coverage_density(base, 1)
    rho_biased, _ = tier_coverage_density(biased, 1)
    assert rho_biased < rho_base


def test_full_pipeline_against_independent_scipy_quadrature():
    """Whole coverage pipeline vs a from-scratch scipy.quad implementation.

    Independent code path (scipy QUADPACK in the log-distance variable, no
    shared helpers) at the default Nakagami shapes; the two agree to ~1e-9
    in dev runs, asserted at 1e-6 here for headroom.
    """
    import warnings
    from scipy.integrate import quad, IntegrationWarning

    s = default_scenario()
    lam = s.densities_per_m2()

    def p_los(y, d0, d1):
        if y <= d0:
            return 1.0
        return (d0 / y) * (1.0 - math.exp(-y / d1)) + math.exp(-y / d1)

    def exponent(t, radio, lam_j):
        if t <= 0 or lam_j <= 0:
            return 0.0
        total = 0.0
        for mode in ("L", "N"):
            alpha = (radio.pathloss_exp_los if mode == "L"
                     else radio.pathloss_exp_nlos)
            shape = radio.nakagami_los if mode == "L" else radio.nakagami_nlos
            s_max = max(math.log(1e7),
                        (math.log(t * radio.tx_power + 2.0) + 14.0) / (alpha - 2.0))

            def g(sv):
                y = math.expm1(sv)
                p = p_los(y, radio.near_field_dist, radio.far_field_dist)
                p = p if mode == "L" else 1.0 - p
                u = t * radio.tx_power * math.exp(-alpha * sv) / shape
                return y * p * (1.0 - (1.0 + u) ** -shape) * (1.0 + y)

            s_break = math.log1p(radio.near_field_dist)
            v1, _ = quad(g, 0.0, s_break, epsabs=1e-14, epsrel=1e-9, limit=500)
            v2, _ = quad(g, s_break, s_max, epsabs=1e-14, epsrel=1e-9, limit=500)
            total += v1 + v2
        return 2.0 * math.pi * lam_j * total

    def rho_reference(tier_index):
        tier = s.tiers[tier_index]
        radio = tier.radio
        beta = radio.sir_threshold / tier.rho
        out = 0.0
        for mode in ("L", "N"):
            alpha = (radio.pathloss_exp_los if mode == "L"
                     else radio.pathloss_exp_nlos)
            shape = radio.nakagami_los if mode == "L" else radio.nakagami_nlos
            v = shape * math.factorial(shape) ** (-1.0 / shape)
            for m in range(1, shape + 1):
                coeff = math.comb(shape, m) * (-1.0) ** (m + 1)

                def outer(sx):
                    x = math.expm1(sx)
                    p = p_los(x, radio.near_field_dist, radio.far_field_dist)
                    p = p if mode == "L" else 1.0 - p
                    t = beta * m * v * math.exp(alpha * sx) / radio.tx_power
                    e = sum(exponent(t, s.tiers[j].radio, lam[j])
                            for j in range(s.num_tiers))
                    return x * p * math.exp(-e) * (1.0 + x)

                s_break = math.log1p(radio.near_field_dist)
                v1, _ = quad(outer, 0.0, s_break, epsabs=1e-14, epsrel=1e-6,
                             limit=200)
                v2, _ = quad(outer, s_break, math.log1p(3e5), epsabs=1e-14,
                             epsrel=1e-6, limit=200)
                out += coeff * (v1 + v2)
        return 2.0 * math.pi * lam[tier_index] * out

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        for i in range(2):
            reference = rho_reference(i)
            engine, _ = tier_coverage_density(s, i)
            assert engine == pytest.approx(reference, rel=1e-6)


# --- tabulated interference exponent ------------------------------------------

class _DirectExponent:
    """The direct nested path: every lookup integrates e(t) afresh, exactly
    what an ``ExponentTable`` tabulates, with no interpolation error.

    Its inner quadrature shares one subdivision across the t values of a
    call, so a value depends on its batch: each call integrates one panel's
    node block (``len(quadrature._NODES)`` columns of ``t``), whatever
    batch of panels the outer quadrature evaluates at once.
    """

    def __init__(self, radio, settings):
        self.radio = radio
        self.settings = settings

    def _direct(self, t):
        e = interference_laplace_exponent(
            t.reshape(-1), self.radio, 0.5 / math.pi, self.settings)
        return e.reshape(t.shape)

    def _unbuilt(self, index):
        return []  # nothing is tabulated, so nothing is built ahead

    def __call__(self, t):
        n = len(quadrature._NODES)
        blocks = np.split(t, range(n, t.shape[-1], n), axis=-1)
        return np.concatenate([self._direct(b) for b in blocks], axis=-1), np.zeros(t.shape)


def test_exponent_table_matches_direct_evaluation():
    settings = default_scenario().integration
    edges = 10.0 ** np.arange(-2.0, 32.0, 2.0)
    rng = np.random.default_rng(11)
    fill = 10.0 ** rng.uniform(-3.0, 31.0, 200 - len(edges) - 2)
    t = np.sort(np.concatenate(([1e-3, 1e31], edges, fill)))
    tight = IntegrationSettings(rel_tol=1e-12, abs_tol=1e-16)
    for tier in default_scenario().tiers:
        table = ExponentTable(tier.radio, settings)
        e, bound = table(t)
        direct = np.array([interference_laplace_exponent(
            x, tier.radio, 0.5 / math.pi, tight) for x in t])
        assert np.all(np.abs(e / direct - 1.0) <= bound)
        assert np.all(bound < settings.rel_tol)


def test_exponent_table_batch_lookup_equals_single_lookups():
    radio = default_scenario().tiers[1].radio
    settings = default_scenario().integration
    t = 10.0 ** np.random.default_rng(5).uniform(-3.0, 31.0, 66)
    batch, batch_bound = ExponentTable(radio, settings)(t.reshape(6, 11))
    table = ExponentTable(radio, settings)
    single = [table(np.array([x])) for x in t]
    assert np.array_equal(batch.reshape(-1), [e[0] for e, _ in single])
    assert np.array_equal(batch_bound.reshape(-1), [b[0] for _, b in single])


def _counting_pieces(monkeypatch):
    """Each exponent piece a block builds or fails, as ``(radio, min t,
    max t)``: one per piece's t range, wherever pieces are built together."""
    built = []
    block = analytic._laplace_exponents

    def counting(pieces):
        built.extend((radio, float(np.min(t)), float(np.max(t))) for t, radio, _, _ in pieces)
        return block(pieces)

    monkeypatch.setattr(analytic, "_laplace_exponents", counting)
    return built


def _piece_index(t_min):
    return math.floor(math.log10(t_min) / 2.0)


def test_exponent_table_builds_only_requested_pieces(monkeypatch):
    built = _counting_pieces(monkeypatch)
    s = default_scenario()
    ExponentTable(s.tiers[1].radio, s.integration)(np.array([1e-2, 1e10]))
    assert [_piece_index(t_min) for _, t_min, _ in built] == [-1, 5]


def test_failed_exponent_piece_is_built_once_per_table(monkeypatch):
    # at this tolerance no piece can be built; a failed piece keeps its
    # error, so neither the block's rows nor a later lookup build it again
    pieces = _counting_pieces(monkeypatch)
    s = set_parameter(default_scenario(), "integration.rel_tol", 1e-15)
    block = [set_parameter(s, "tiers[2].radio.sir_threshold", v) for v in (2.0, 4.0, 8.0)]
    exponents = {}
    failures = build_coverage_table(block, exponents)
    built = [(radio, _piece_index(t_min)) for radio, t_min, _ in pieces]
    assert all(isinstance(f, QuadratureError) for f in failures)
    assert built and len(set(built)) == len(built)
    tables = {table.radio: table for table in exponents.values()
              if isinstance(table, ExponentTable)}
    for radio, piece in set(built):
        with pytest.raises(QuadratureError, match=str(failures[0])):
            tables[radio](np.array([10.0 ** (2.0 * piece + 1.0)]))
    assert len(pieces) == len(built)


def test_tiers_of_one_radio_build_each_piece_once(monkeypatch):
    # tiers 2 and 3 share one radio, so their lookups share one table
    pieces = _counting_pieces(monkeypatch)
    s = default_scenario()
    s = dataclasses.replace(s, tiers=(*s.tiers, s.tiers[1]))
    exponents = {}
    [table] = build_coverage_table([s], exponents)
    assert table.per_tier_density[1] == table.per_tier_density[2]
    assert pieces and len(set(pieces)) == len(pieces)
    for shared in exponents.values():
        if isinstance(shared, ExponentTable):
            assert len(set(shared._keys.tolist())) == len(shared._keys)


def test_exponent_pieces_built_together_equal_each_built_alone():
    # pieces of both default radios and of a table no piece of which can be
    # built, in one block: each built piece has the bits of the one-radio
    # call alone, and each failed piece the error of its own call alone
    s = default_scenario()
    tables = [ExponentTable(tier.radio, s.integration) for tier in s.tiers]
    tight = ExponentTable(s.tiers[1].radio, IntegrationSettings(rel_tol=1e-15))
    keys = [-2.0, 0.0, 3.0, 9.0]
    analytic._build_pieces([(table, key) for table in tables for key in keys]
                           + [(tight, 1.0), (tight, 2.0)])
    for table in tables:
        assert table._keys[:-1].tolist() == keys
        for n, key in enumerate(keys):
            alone = table._column(interference_laplace_exponent(*table._piece(key)))
            assert table._columns[:, n].tobytes() == alone.tobytes()
    assert sorted(tight._failed) == [1.0, 2.0] and tight._keys.tolist() == [math.inf]
    for key in (1.0, 2.0):
        with pytest.raises(QuadratureError) as alone:
            interference_laplace_exponent(*tight._piece(key))
        failed = tight._failed[key]
        assert str(failed) == str(alone.value) == "no convergence within 4000 panels"
        assert failed.error_estimate.tobytes() == alone.value.error_estimate.tobytes()


def test_exponent_piece_whose_settings_raise_fails_alone():
    # a near field of 1e200 m puts the piece's lower bound on e(t) past the
    # float range, so the piece has no tolerance: it keeps that error, and
    # the macro piece of the same block is built as if alone
    s = default_scenario()
    radio = set_parameter(s, "tiers[2].radio.near_field_dist", 1e200).tiers[1].radio
    bad, macro = (ExponentTable(r, s.integration) for r in (radio, s.tiers[0].radio))
    analytic._build_pieces([(bad, 0.0), (macro, 0.0)])
    assert list(bad._failed) == [0.0] and bad._keys.tolist() == [math.inf]
    assert str(bad._failed[0.0]) == "interference exponent lower bound out of float range"
    with pytest.raises(QuadratureError, match="lower bound out of float range"):
        bad(np.array([10.0]))
    alone = macro._column(interference_laplace_exponent(*macro._piece(0.0)))
    assert macro._keys[:-1].tolist() == [0.0] and macro._columns[:, 0].tobytes() == alone.tobytes()


def test_table_rho_bit_identical_mid_sweep():
    # the macro bias comes first, so the sweep's first exponent lookups
    # differ from the fresh table's
    base = default_scenario()
    result = grid_search(base, {"tiers[1].rho": (0.5, 1.0),
                                "tiers[2].density": (1e-3, 1.0, 100.0)})
    middle = result.surface[4]
    assert (middle["tiers[1].rho"], middle["tiers[2].density"]) == (1.0, 1.0)
    [fresh] = build_coverage_table([set_parameter(base, "tiers[2].density", 1.0)])
    assert (middle["rho_1"], middle["rho_2"]) == fresh.per_tier_density


def test_each_exponent_piece_built_once_per_sweep(monkeypatch):
    builds = _counting_pieces(monkeypatch)
    variables = {"content.popularity_exponent": (0.5, 1.0),
                 "tiers[2].density": (1e-3, 1.0, 100.0)}
    grid_search(default_scenario(), variables)
    first = list(builds)
    assert first and len(set(first)) == len(first)
    # no exponent table outlives the call: the next search tabulates anew
    builds.clear()
    grid_search(default_scenario(), variables)
    assert builds == first


@pytest.mark.parametrize("density", [1e-4, 10.0, 100.0])
def test_reported_error_covers_direct_reference(monkeypatch, density):
    s = set_parameter(default_scenario(), "tiers[2].density", density)
    reported = [tier_coverage_density(s, i) for i in range(s.num_tiers)]
    monkeypatch.setattr(analytic, "ExponentTable", _DirectExponent)
    reference = IntegrationSettings(rel_tol=1e-10, abs_tol=1e-12)
    for i, (rho, err) in enumerate(reported):
        rho_ref, _ = tier_coverage_density(dataclasses.replace(s, integration=reference), i)
        assert err >= abs(rho - rho_ref)


def test_mixed_block_tables_equal_each_built_alone():
    # one block of density, bias and threshold rows, other fading shapes
    # (four terms, not three), a fixed outer radius beside automatic ones, a
    # zero-density tier, and a tolerance no quadrature meets
    s = default_scenario()
    block = [s, *(set_parameter(s, path, value) for path, value in (
        ("tiers[2].density", 1e-3), ("tiers[2].density", 100.0), ("tiers[1].rho", 0.4),
        ("tiers[2].radio.sir_threshold", 0.5), ("tiers[2].radio.nakagami_los", 3),
        ("integration.outer_truncation_radius", 2000.0), ("tiers[1].density", 0.0),
        ("integration.rel_tol", 1e-15), ("tiers[2].radio.sir_threshold", 3.0)))]
    tables = build_coverage_table(block, {})
    _assert_each_built_alone(block, tables)
    assert [isinstance(t, QuadratureError) for t in tables] == [False] * 8 + [True, False]
    assert str(tables[8]) == "no convergence within 4000 panels"
    assert tables[7].per_tier_density[0] == 0.0


def _assert_each_built_alone(block, tables):
    """Each of ``tables`` has the bytes, or the error, of its scenario's
    table built alone."""
    assert len(tables) == len(block)
    for scenario, table in zip(block, tables):
        [alone] = build_coverage_table([scenario])
        assert type(table) is type(alone)
        if isinstance(alone, QuadratureError):
            assert str(table) == str(alone)
            assert (np.asarray(table.error_estimate).tobytes()
                    == np.asarray(alone.error_estimate).tobytes())
        else:
            assert np.array(table.per_tier_density + table.error_estimates).tobytes() == (
                np.array(alone.per_tier_density + alone.error_estimates).tobytes())


def test_block_of_mixed_term_counts_is_one_quadrature_per_count(monkeypatch):
    # tier 1 has 3 fading-sum terms (shapes 2 and 1), tier 2 2, 3, 4 and 101:
    # its 3-term row joins the four tier-1 rows, and each other count is a
    # quadrature of its own rows, in order of first appearance
    s = default_scenario()
    block = [set_parameter(s, "tiers[2].radio.nakagami_los", m) for m in (1, 2, 3, 100)]
    exponents = {}
    build_coverage_table(block, exponents)  # every exponent piece is built
    quadratures = []
    integrate = analytic.integrate_adaptive

    def counting_integrate(f, a, *args, **kwargs):
        widths = set()
        quadratures.append((len(a), widths))

        def integrand(call):
            values = f(call)
            widths.add(len(values))
            return values
        return integrate(integrand, a, *args, **kwargs)

    monkeypatch.setattr(analytic, "integrate_adaptive", counting_integrate)
    tables = build_coverage_table(block, {k: v for k, v in exponents.items()
                                          if isinstance(v, ExponentTable)})
    assert quadratures == [(5, {6}), (1, {4}), (1, {8}), (1, {202})]
    monkeypatch.undo()
    _assert_each_built_alone(block, tables)
    assert [isinstance(t, QuadratureError) for t in tables] == [False] * 3 + [True]
    assert str(tables[3]).startswith("fading sum lost significance")


def test_store_serves_each_table_again_without_quadrature(monkeypatch):
    # a second call on the same store builds nothing: it returns the very
    # table of each key it holds, and the very error of a failed key
    s = default_scenario()
    failing = set_parameter(s, "integration.rel_tol", 1e-15)
    block = [s, set_parameter(s, "tiers[2].density", 100.0), failing, s]
    cache = {}
    first = build_coverage_table(block, cache)
    assert isinstance(first[2], QuadratureError) and first[3] is first[0]
    quadratures = []
    integrate = analytic.integrate_adaptive
    monkeypatch.setattr(analytic, "integrate_adaptive", lambda *args, **kwargs: (
        quadratures.append(args) or integrate(*args, **kwargs)))
    again = build_coverage_table(block[::-1], cache)
    [alone] = build_coverage_table([failing], cache)
    assert quadratures == []
    assert all(x is y for x, y in zip(again, first[::-1]))
    assert alone is first[2]


def test_stored_error_keeps_its_traceback_length():
    # each lookup of a failed piece raises the piece's one stored error
    # again; its traceback must not gather the frames of every earlier raise
    s = set_parameter(default_scenario(), "integration.rel_tol", 1e-15)
    table = ExponentTable(s.tiers[1].radio, s.integration)
    lengths = []
    for _ in range(3):
        with pytest.raises(QuadratureError) as raised:
            table(np.array([10.0]))
        lengths.append(len(traceback.extract_tb(raised.value.__traceback__)))
    assert lengths[0] == lengths[1] == lengths[2]


def test_coverage_block_is_one_probe_and_one_quadrature(monkeypatch):
    # seven densities, 14 rows: each probe step looks up every unfinished
    # row at once, so the block makes as many lookups as its slowest row
    # makes alone, and one quadrature integrates every row
    s = default_scenario()
    block = [set_parameter(s, "tiers[2].density", d) for d in np.logspace(-4, 2, 7)]
    exponents = {}
    build_coverage_table(block, exponents)  # every exponent piece is built
    lookups, quadratures = [], []
    lockstep, integrate = analytic._lockstep, analytic.integrate_adaptive

    def counting_lockstep(steps, evaluate):
        return lockstep(steps, lambda requests: lookups.append(len(requests))
                        or evaluate(requests))

    def counting_integrate(f, a, *args, **kwargs):
        quadratures.append(np.size(a))
        return integrate(f, a, *args, **kwargs)

    monkeypatch.setattr(analytic, "_lockstep", counting_lockstep)
    monkeypatch.setattr(analytic, "integrate_adaptive", counting_integrate)
    # a store of the warmed exponent tables alone, so every table is built
    build_coverage_table(block, {k: v for k, v in exponents.items()
                                 if isinstance(v, ExponentTable)})
    in_block = list(lookups)
    alone = []
    for scenario in block:
        for i in range(scenario.num_tiers):
            lookups.clear()
            tier_coverage_density(scenario, i, exponents)
            alone.append(len(lookups))
    assert quadratures == [14] + [1] * 14
    assert in_block[0] == 14
    assert len(in_block) == max(alone) < sum(alone) / 4


def test_far_truncation_keeps_a_finite_error_bound():
    # Out at 1e7 m the interference exponent E is so large that e^(-E)
    # underflows to 0 while its slack overflows expm1: the bound there is
    # 0, not 0 * inf, and the value still agrees with the automatic radius.
    s = default_scenario()
    far = set_parameter(s, "integration.outer_truncation_radius", 1e7)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for i in range(s.num_tiers):
            auto_rho, _ = tier_coverage_density(s, i)
            rho, err = tier_coverage_density(far, i)
            assert abs(rho - auto_rho) <= err
