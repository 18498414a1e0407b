"""Scenario defaults, validation, YAML round trips."""
import dataclasses
import math
import typing
import warnings
from typing import Annotated

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hetcache import cli
from hetcache.channel import TierRadioParams
from hetcache.content import ContentModel, TierCachePolicy
from hetcache.metrics import UndefinedEfficiencyError, analytic_report
from hetcache.quadrature import QuadratureError
from hetcache.scenario import (AUTO, PER_M2, ConfigError, CostModel,
                               IntegrationSettings, ScenarioConfig,
                               SimulationProtocol, TierConfig, _names,
                               _value, auto_region_radius, default_scenario,
                               desk_scale_protocol, load_config, save_config,
                               scenario_from_mapping, scenario_to_mapping,
                               serialize_config, set_parameter)


def test_default_scenario_values():
    s = default_scenario()
    assert s.num_tiers == 2
    assert [t.radio.tx_power for t in s.tiers] == [40.0, 4.0]
    assert [t.radio.sir_threshold for t in s.tiers] == [2.0, 4.0]
    assert [t.radio.near_field_dist for t in s.tiers] == [80.0, 16.0]
    assert [t.radio.far_field_dist for t in s.tiers] == [164.0, 36.0]
    assert [t.radio.pathloss_exp_los for t in s.tiers] == [2.4, 2.4]
    assert [t.radio.pathloss_exp_nlos for t in s.tiers] == [4.0, 4.0]
    assert [t.radio.intercept_los for t in s.tiers] == [1.0, 1.0]
    assert [t.cache.cache_size for t in s.tiers] == [20, 5]
    assert s.tiers[0].density == 1e-3
    assert s.content.library_size == 100
    assert s.protocol.num_snapshots == 40000
    assert s.protocol.region_radius == 10000.0


def test_empty_file_gives_defaults(tmp_path):
    path = tmp_path / "empty.yaml"
    path.write_text("")
    assert load_config(path) == default_scenario()


def test_round_trip(tmp_path):
    s = default_scenario()
    s = dataclasses.replace(
        s,
        protocol=SimulationProtocol(num_snapshots=123, region_radius=AUTO,
                                    master_seed=99),
        integration=IntegrationSettings(rel_tol=1e-7,
                                        outer_truncation_radius=5e4),
    )
    path = tmp_path / "cfg.yaml"
    save_config(s, path)
    assert load_config(path) == s
    assert scenario_from_mapping(None) == default_scenario()
    assert load_config(path).fingerprint() == s.fingerprint()


def test_partial_config_merges_onto_defaults(tmp_path):
    path = tmp_path / "cfg.yaml"
    path.write_text("tiers:\n  - density: 0.5\n  - {}\ncontent: {popularity_exponent: 1.5}\n")
    s = load_config(path)
    assert s.tiers[0].density == 0.5
    assert s.tiers[0].radio.tx_power == 40.0  # inherited
    assert s.tiers[1].density == 10.0
    assert s.content.popularity_exponent == 1.5
    assert s.content.library_size == 100


def test_three_tier_config(tmp_path):
    # extra tiers inherit from the last default tier (the small cell)
    path = tmp_path / "cfg.yaml"
    path.write_text(
        "tiers:\n  - {}\n  - {}\n  - density: 50.0\n"
        "    radio: {tx_power: 1.0}\n    cache: {cache_size: 2}\n")
    s = load_config(path)
    assert s.num_tiers == 3
    assert s.tiers[2].density == 50.0
    assert s.tiers[2].radio.tx_power == 1.0
    assert s.tiers[2].radio.near_field_dist == 16.0  # small-cell template
    assert s.tiers[2].cache.cache_size == 2
    assert load_config(path) == s


def test_single_tier_config(tmp_path):
    path = tmp_path / "cfg.yaml"
    path.write_text("tiers:\n  - density: 5.0\n")
    s = load_config(path)
    assert s.num_tiers == 1
    assert s.tiers[0].radio.tx_power == 40.0


@pytest.mark.parametrize("text, message", [
    ("- 1\n", "<config>: expected a mapping, got list"),
    ("42\n", "<config>: expected a mapping, got int"),
    ("turbo: true\n", "turbo: unknown key"),
    ("rate_log_base: 1.0\n", "rate_log_base: must be finite and exceed 1"),
    ("rate_log_base: null\n", "rate_log_base: expected a number"),
    ("density_unit: per-acre\n", "density_unit: must be 'per-km2' or 'per-m2'"),
    ("tiers: []\n", "tiers: expected a non-empty list of tier mappings"),
    ("tiers: null\n", "tiers: expected a non-empty list of tier mappings"),
    ("tiers: {density: 1.0}\n", "tiers: expected a non-empty list of tier mappings"),
    ("content: 5\n", "content: expected a mapping, got int"),
    ("costs: [1]\n", "costs: expected a mapping, got list"),
    ("costs: {backhaul_unit_cost: 1.0, coffee: 3}\n", "costs.coffee: unknown key"),
    ("costs: {cache_unit_cost: -0.5}\n",
     "costs.cache_unit_cost: must be finite and nonnegative"),
    ("content: {library_size: 0}\n", "content.library_size: must be a positive integer"),
    ("content: {popularity_exponent: -1}\n", "content.popularity_exponent: must be nonnegative"),
    ("protocol: {num_snapshots: 0}\n", "protocol.num_snapshots: must be a positive integer"),
    ("protocol: {num_snapshots: 2.5}\n", "protocol.num_snapshots: expected an integer value"),
    ("protocol: {region_radius: '10'}\n",
     "protocol.region_radius: expected a number or 'auto'"),
    ("protocol: {content_evaluation: sampled}\n",
     "protocol.content_evaluation: must be 'all-weighted'"),
    ("integration: {abs_tol: 0}\n", "integration.abs_tol: must be finite and positive"),
    ("integration: {inner_truncation_radius: -1}\n",
     "integration.inner_truncation_radius: must be finite and positive, or 'auto'"),
    ("integration: {rel_tol: {a: 1}}\n", "integration.rel_tol: expected a number"),
    ("tiers: [5]\n", "tiers[1]: expected a mapping, got int"),
    ("tiers: [{}, {}, {foo: 1}]\n", "tiers[3].foo: unknown key"),
    ("tiers: [{radio: 1}]\n", "tiers[1].radio: expected a mapping, got int"),
    ("tiers: [{}, {cache: {size: 3}}]\n", "tiers[2].cache.size: unknown key"),
    ("tiers: [{density: -1}]\n", "tiers[1].density: must be finite and nonnegative"),
    ("tiers: [{rho: 0}]\n", "tiers[1].rho: must be in (0, 1]"),
    ("tiers: [{radio: {tx_power: -1}}]\n",
     "tiers[1].radio.tx_power: must be finite and positive"),
    ("tiers:\n  - radio: {pathloss_exp_los: 9.0, pathloss_exp_nlos: 9.5}\n",
     "tiers[1].radio.pathloss_exp_nlos: must be at most 8"),
    ("tiers: [{radio: {pathloss_exp_los: 5.0}}]\n",
     "tiers[1].radio: must be ordered pathloss_exp_los < pathloss_exp_nlos"),
    ("tiers: [{radio: {pathloss_exp_los: 2.0}}]\n",
     "tiers[1].radio.pathloss_exp_los: must be above 2"),
    ("tiers: [{}, {radio: {nakagami_los: 1, nakagami_nlos: 2}}]\n",
     "tiers[2].radio: must be ordered nakagami_los >= nakagami_nlos"),
    ("tiers: [{radio: {nakagami_nlos: 0}}]\n",
     "tiers[1].radio.nakagami_nlos: must be a positive integer"),
    ("tiers: [{cache: {mpc_fraction: 1.5}}]\n", "tiers[1].cache.mpc_fraction: must be in [0, 1]"),
    ("tiers: [{cache: {cache_size: true}}]\n",
     "tiers[1].cache.cache_size: expected an integer value"),
    ("tiers:\n  - {}\n  - cache: {cache_size: 150}\n",
     "must be ordered tiers[2].cache.cache_size <= content.library_size (150 > 100)"),
    ("content: {library_size: 10}\n",
     "must be ordered tiers[1].cache.cache_size <= content.library_size (20 > 10)"),
    ("tiers: [{}, {}, {cache: {cache_size: 200}}]\n",
     "must be ordered tiers[3].cache.cache_size <= content.library_size (200 > 100)"),
    # of several errors, the first in document order
    ("tiers: [{radio: {tx_power: -1}}]\ncosts: {coffee: 1}\n",
     "tiers[1].radio.tx_power: must be finite and positive"),
    # a field's range reports before the record's orderings
    ("tiers: [{radio: {pathloss_exp_nlos: .nan}}]\n",
     "tiers[1].radio.pathloss_exp_nlos: must be at most 8"),
    # within one record, the first declared field reports
    ("tiers: [{radio: {near_field_dist: -1, pathloss_exp_los: 2.0}}]\n",
     "tiers[1].radio.pathloss_exp_los: must be above 2"),
])
def test_rejected_yaml_names_its_path(tmp_path, text, message):
    path = tmp_path / "bad.yaml"
    path.write_text(text)
    with pytest.raises(ConfigError) as exc:
        load_config(path)
    assert str(exc.value) == message


def test_null_keeps_a_record(tmp_path):
    path = tmp_path / "cfg.yaml"
    path.write_text("content: null\ntiers:\n  - null\n  - {radio: null, density: 5.0}\n")
    s = load_config(path)
    assert s == set_parameter(default_scenario(), "tiers[2].density", 5.0)


def test_parse_error_reported(tmp_path):
    path = tmp_path / "broken.yaml"
    path.write_text("tiers: [unbalanced\n")
    with pytest.raises(ConfigError):
        load_config(path)


def test_density_unit_conversion():
    s = default_scenario()
    per_m2 = s.densities_per_m2()
    assert per_m2[0] == pytest.approx(1e-9)
    assert per_m2[1] == pytest.approx(1e-5)
    raw = dataclasses.replace(s, density_unit=PER_M2)
    assert raw.densities_per_m2()[0] == pytest.approx(1e-3)


def test_auto_region_radius_rule():
    s = default_scenario()
    total = float(np.sum(s.densities_per_m2()))
    expected = max(math.sqrt(200.0 / (math.pi * total)), 10.0 * 164.0)
    assert auto_region_radius(s) == pytest.approx(expected)
    proto = desk_scale_protocol(master_seed=3)
    assert s.region_radius_m(proto) == pytest.approx(expected)
    # explicit radius wins
    assert s.region_radius_m() == 10000.0


def test_fingerprint_tracks_changes():
    s = default_scenario()
    other = dataclasses.replace(s, rate_log_base=math.e)
    assert s.fingerprint() != other.fingerprint()
    assert s.fingerprint() == default_scenario().fingerprint()


def test_protocol_validation():
    with pytest.raises(ValueError):
        SimulationProtocol(num_snapshots=0)
    with pytest.raises(ValueError):
        SimulationProtocol(region_radius=-5.0)
    with pytest.raises(ValueError):
        SimulationProtocol(region_radius="sometimes")
    with pytest.raises(ValueError):
        SimulationProtocol(content_evaluation="each")


def test_serialized_form_is_plain_yaml(tmp_path):
    text = serialize_config(default_scenario())
    assert "tiers:" in text and "radio:" in text
    assert "!!" not in text  # no python-specific tags


def test_records_check_field_types():
    policy = TierCachePolicy(cache_size=5.0, mpc_fraction=1)
    assert type(policy.cache_size) is int and type(policy.mpc_fraction) is float
    assert type(CostModel(cache_unit_cost=np.float64(0.5)).cache_unit_cost) is float
    s = default_scenario()
    assert dataclasses.replace(s, tiers=list(s.tiers)).tiers == s.tiers
    for make in (lambda: TierCachePolicy(cache_size=True),
                 lambda: TierCachePolicy(cache_size=5, mpc_fraction="1"),
                 lambda: CostModel(backhaul_unit_cost=False),
                 lambda: SimulationProtocol(region_radius="10"),
                 lambda: SimulationProtocol(content_evaluation=1),
                 lambda: dataclasses.replace(s, tiers=(s.tiers[0], "tier")),
                 lambda: dataclasses.replace(s, costs=None)):
        with pytest.raises(ConfigError):
            make()


def _leaf_paths(node, prefix=""):
    """Dotted paths, with 1-based ``tiers[k]``, of every leaf of a mapping."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _leaf_paths(value, f"{prefix}.{key}" if prefix else key)
    elif isinstance(node, list):
        for k, entry in enumerate(node, start=1):
            yield from _leaf_paths(entry, f"{prefix}[{k}]")
    else:
        yield prefix


def _with_leaf(mapping, path, value):
    *parents, leaf = path.split(".")
    node = mapping
    for part in parents:
        name, _, index = part.partition("[")
        node = node[name][int(index[:-1]) - 1] if index else node[name]
    node[leaf] = value
    return mapping


LEAF_PATHS = sorted(_leaf_paths(scenario_to_mapping(default_scenario())))
VALUES = st.one_of(
    st.integers(), st.integers(-5, 200).map(float), st.floats(),
    st.sampled_from([math.nan, math.inf, -math.inf, True, False, AUTO, "10",
                     PER_M2, "sampled", None]),
)


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(path=st.sampled_from(LEAF_PATHS), value=VALUES)
def test_set_parameter_and_yaml_agree(path, value):
    """Every YAML leaf is a sweep path that accepts and rejects the same
    values, and an accepted value reads back the same along its path."""
    base = default_scenario()
    outcomes, reads = [], []
    for build in (lambda: set_parameter(base, path, value),
                  lambda: scenario_from_mapping(
                      _with_leaf(scenario_to_mapping(base), path, value))):
        try:
            scenario = build()
        except ValueError:
            outcomes.append(ValueError)
        else:
            outcomes.append(serialize_config(scenario))
            reads.append(_value(scenario, _names(path), "*"))
    assert outcomes[0] == outcomes[1]
    if outcomes[0] is not ValueError:
        assert reads[0] == reads[1]


def _declared(cls, name):
    """``(kind, (lo, hi, reason))`` of field ``name`` of ``cls`` as its
    annotation declares it; ``(kind, None)`` for a field without a range."""
    hint = typing.get_type_hints(cls, include_extras=True)[name]
    return typing.get_args(hint) if typing.get_origin(hint) is Annotated else (hint, None)


def _declared_at(path):
    """``_declared`` of the field at a leaf ``path`` of the default scenario."""
    *parents, name = _names(path)
    return _declared(type(_value(default_scenario(), tuple(parents), "*")), name)


RANGED_PATHS = [(path, *_declared_at(path)) for path in LEAF_PATHS if _declared_at(path)[1]]


def _loaded(path, value):
    """The default scenario with ``value`` at ``path``, from a YAML mapping
    and from ``set_parameter``: each the scenario or the ConfigError it raised."""
    outcomes = []
    for build in (lambda: scenario_from_mapping(
                      _with_leaf(scenario_to_mapping(default_scenario()), path, value)),
                  lambda: set_parameter(default_scenario(), path, value)):
        try:
            outcomes.append(build())
        except ConfigError as exc:
            outcomes.append(exc)
    return outcomes


@pytest.mark.parametrize("path, kind, limits", RANGED_PATHS, ids=[p for p, *_ in RANGED_PATHS])
@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_declared_ranges_are_enforced_everywhere(path, kind, limits, data):
    """Inside a field's declared range only an ordering across fields may
    reject a value; its ends and past them, the range's reason does."""
    lo, hi, reason = limits
    if kind is int:
        inside = st.integers(lo, None if hi == math.inf else hi)
        outside = [lo - 1, float(lo - 1)]
    else:
        inside = st.floats(lo, hi) | st.just(AUTO) if kind == float | str else st.floats(lo, hi)
        outside = [v for v in (math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf),
                               math.nan, math.inf, -math.inf) if not lo <= v <= hi]
    yaml_built, swept = _loaded(path, data.draw(inside))
    if isinstance(yaml_built, ConfigError):
        assert yaml_built.reason.startswith("must be ordered ")
        assert isinstance(swept, ConfigError) and swept.reason == yaml_built.reason
    else:
        assert swept == yaml_built
    for value in outside:
        assert [str(exc) for exc in _loaded(path, value)] == [f"{path}: {reason}"] * 2


# --- scenarios drawn from the declared ranges --------------------------------

# A drawn float lies in its declared range and in this box of physical
# magnitudes, far from underflow and overflow; a drawn integer is at most
# INT_MAX, which bounds Nakagami shapes and cache and library sizes.
FLOAT_BOX = (1e-6, 1e6)
INT_MAX = 64


def _inside(cls, name, lo=-math.inf, hi=math.inf):
    """Values of the field inside its declared range, the box and [lo, hi]."""
    kind, (range_lo, range_hi, _) = _declared(cls, name)
    lo, hi = max(lo, range_lo), min(hi, range_hi)
    if kind is int:
        return st.integers(lo, min(hi, INT_MAX))
    floats = st.floats(max(lo, FLOAT_BOX[0]), min(hi, FLOAT_BOX[1]))
    return floats | st.just(AUTO) if kind == float | str else floats


def _mapping(cls, **fields):
    """The YAML mapping of a ``cls`` record: the strategies ``fields`` give,
    each other field with a range drawn ``_inside`` it, the rest defaults."""
    return st.fixed_dictionaries({
        f.name: fields[f.name] if f.name in fields else
        _inside(cls, f.name) if _declared(cls, f.name)[1] else st.just(f.default)
        for f in dataclasses.fields(cls)})


@st.composite
def _radios(draw):
    """Radio mappings, their exponents and Nakagami shapes ordered by construction."""
    r = TierRadioParams
    los = draw(_inside(r, "pathloss_exp_los",
                       hi=math.nextafter(_declared(r, "pathloss_exp_nlos")[1][1], 0.0)))
    nakagami_nlos = draw(_inside(r, "nakagami_nlos"))
    return draw(_mapping(
        r, pathloss_exp_los=st.just(los),
        pathloss_exp_nlos=_inside(r, "pathloss_exp_nlos", lo=math.nextafter(los, math.inf)),
        nakagami_los=st.integers(nakagami_nlos, INT_MAX), nakagami_nlos=st.just(nakagami_nlos)))


@st.composite
def scenario_mappings(draw):
    """YAML mappings of whole scenarios of one to three tiers, every cache
    at most the library by construction."""
    tiers = draw(st.lists(_mapping(TierConfig, radio=_radios(), cache=_mapping(TierCachePolicy)),
                          min_size=1, max_size=3))
    largest_cache = max(tier["cache"]["cache_size"] for tier in tiers)
    return draw(_mapping(
        ScenarioConfig, tiers=st.just(tiers),
        content=_mapping(ContentModel, library_size=_inside(ContentModel, "library_size",
                                                            lo=largest_cache)),
        costs=_mapping(CostModel), protocol=_mapping(SimulationProtocol),
        integration=_mapping(IntegrationSettings)))


@pytest.fixture(scope="module")
def yaml_path(tmp_path_factory):
    return tmp_path_factory.mktemp("drawn") / "scenario.yaml"


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(mapping=scenario_mappings())
def test_drawn_scenarios_are_accepted_and_round_trip(yaml_path, mapping):
    scenario = scenario_from_mapping(mapping)
    assert scenario_to_mapping(scenario) == mapping
    yaml_path.write_text(serialize_config(scenario))
    assert load_config(yaml_path) == scenario


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(mapping=scenario_mappings())
def test_drawn_scenarios_run_through_the_cli_without_a_warning(yaml_path, mapping):
    # exit 0, 1 (bad input) or 2 (a row failed), and no traceback: a
    # numerical warning would escape ``main`` as an exception here
    yaml_path.write_text(serialize_config(scenario_from_mapping(mapping)))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = cli.main(["run", "--config", str(yaml_path),
                         "--out", str(yaml_path.with_suffix(".csv"))])
    assert code in (0, 1, 2)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(mapping=scenario_mappings())
def test_drawn_scenarios_have_an_analytic_report_or_a_clean_failure(mapping):
    try:
        analytic_report(scenario_from_mapping(mapping))
    except (QuadratureError, UndefinedEfficiencyError):
        pass
