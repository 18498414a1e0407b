"""Scenario defaults, validation, YAML round trips."""
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hetcache.content import TierCachePolicy
from hetcache.scenario import (AUTO, PER_M2, ConfigError, CostModel,
                               IntegrationSettings, SimulationProtocol, _names,
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


def test_rejects_pathloss_exponent_out_of_range(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text(
        "tiers:\n  - radio: {pathloss_exp_los: 9.0, pathloss_exp_nlos: 9.5}\n")
    with pytest.raises(ConfigError) as exc:
        load_config(path)
    assert "tiers[1].radio" in str(exc.value)
    assert "8" in str(exc.value)


def test_rejects_cache_larger_than_library(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text("tiers:\n  - {}\n  - cache: {cache_size: 150}\n")
    with pytest.raises(ConfigError) as exc:
        load_config(path)
    assert "cache_size" in str(exc.value)


def test_rejects_unknown_keys(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text("costs: {backhaul_unit_cost: 1.0, coffee: 3}\n")
    with pytest.raises(ConfigError) as exc:
        load_config(path)
    assert "costs.coffee" in str(exc.value)
    with pytest.raises(ConfigError):
        scenario_from_mapping({"turbo": True})


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
