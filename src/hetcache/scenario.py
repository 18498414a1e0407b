"""Scenario description, defaults, and YAML config ingestion.

A scenario is an ordered list of tiers (tier 1 is the macro tier that
carries the backhaul), a content model, a cost model, the Monte Carlo
protocol, and quadrature settings. Densities are stated in the configured
unit (per square kilometer by default) and converted to per-m^2 internally.

Config files are YAML whose structure mirrors the dataclasses; any section
or key left out falls back to the two-tier default scenario below, and
unknown keys are rejected with their full path. ``region_radius`` and the
truncation radii accept the string ``"auto"``.

Every record checks its own fields in ``__post_init__``: first their types,
by annotation (``hetcache._config.check_fields``), then their ranges.

A parameter is addressed by a dotted path into the scenario, with 1-based
tier indices matching the usual tier numbering; ``tiers[*]`` is every tier:

    tiers[2].density            tiers[1].cache.cache_size
    tiers[2].radio.sir_threshold tiers[*].rho
    content.popularity_exponent  costs.cache_unit_cost

Only this module knows the grammar: ``_names`` parses a path into the name
sequence that ``_value`` reads, ``_replaced`` writes and ``_reaches``
compares. ``set_parameter`` rebuilds each record on the path as YAML loading
builds it, so every YAML field is a path, checked the same way, and a
rejection names the path.

The default scenario: a sparse 40 W macro tier (density 1e-3 per km^2,
threshold 2, 20-slot caches) over a denser 4 W small-cell tier (density 10
per km^2, threshold 4, 5-slot caches), a 100-file library with Zipf
exponent 1, cache slots costing 1% of a backhaul unit, 40000 snapshots on
a 10 km disk. NOTE: with these literal values the 10 km disk holds only
~0.31 macro stations on average -- the stated density and region are kept
as-is for fidelity, and the desk-scale protocol sizes the region
automatically instead (see ``auto_region_radius``).
"""
from __future__ import annotations

import dataclasses
import functools
import hashlib
import math
import re
from dataclasses import dataclass

import numpy as np
import yaml

from ._config import AUTO, ConfigError, check_fields
from .channel import TierRadioParams
from .content import ContentModel, TierCachePolicy

__all__ = [
    "AUTO",
    "PER_KM2",
    "PER_M2",
    "ConfigError",
    "CostModel",
    "SimulationProtocol",
    "IntegrationSettings",
    "TierConfig",
    "ScenarioConfig",
    "default_scenario",
    "desk_scale_protocol",
    "auto_region_radius",
    "load_config",
    "save_config",
    "serialize_config",
    "set_parameter",
    "scenario_from_mapping",
    "scenario_to_mapping",
]

PER_KM2 = "per-km2"
PER_M2 = "per-m2"


@dataclass(frozen=True)
class CostModel:
    """Unit costs: one backhaul transfer vs one cache slot."""

    backhaul_unit_cost: float = 1.0
    cache_unit_cost: float = 0.01

    def __post_init__(self):
        check_fields(self)
        if not 0 < self.backhaul_unit_cost < math.inf:
            raise ConfigError("backhaul_unit_cost", "must be finite and positive")
        if not 0 <= self.cache_unit_cost < math.inf:
            raise ConfigError("cache_unit_cost", "must be finite and nonnegative")


@dataclass(frozen=True)
class SimulationProtocol:
    """Monte Carlo protocol: snapshot count, disk radius, seeding."""

    num_snapshots: int = 40000
    region_radius: float | str = 10000.0
    master_seed: int = 0
    # kept only while perfbench/reference.json pins it; goes in the next benchmark change
    content_evaluation: str = "all-weighted"

    def __post_init__(self):
        check_fields(self)
        if self.num_snapshots < 1:
            raise ConfigError("num_snapshots", "must be a positive integer")
        if self.region_radius != AUTO and not 0 < self.region_radius < math.inf:
            raise ConfigError("region_radius", "must be finite and positive, or 'auto'")
        if self.master_seed < 0:
            raise ConfigError("master_seed", "must be a nonnegative integer")
        if self.content_evaluation != "all-weighted":
            raise ConfigError("content_evaluation", "must be 'all-weighted'")


@dataclass(frozen=True)
class IntegrationSettings:
    """Adaptive-quadrature tolerances and truncation radii (meters or 'auto')."""

    rel_tol: float = 1e-6
    abs_tol: float = 1e-10
    outer_truncation_radius: float | str = AUTO
    inner_truncation_radius: float | str = AUTO

    def __post_init__(self):
        check_fields(self)
        for name in ("rel_tol", "abs_tol"):
            if not 0 < getattr(self, name) < math.inf:
                raise ConfigError(name, "must be finite and positive")
        for name in ("outer_truncation_radius", "inner_truncation_radius"):
            value = getattr(self, name)
            if value != AUTO and not 0 < value < math.inf:
                raise ConfigError(name, "must be finite and positive, or 'auto'")


@dataclass(frozen=True)
class TierConfig:
    """One tier: spatial density, radio constants, cache policy, bias factor.

    ``rho`` rescales the tier's association threshold to sir_threshold/rho
    (range expansion); 1 leaves the tier unbiased.
    """

    density: float
    radio: TierRadioParams
    cache: TierCachePolicy
    rho: float = 1.0

    def __post_init__(self):
        check_fields(self)
        if not 0 <= self.density < math.inf:
            raise ConfigError("density", "must be finite and nonnegative")
        if not 0.0 < self.rho <= 1.0:
            raise ConfigError("rho", "must be in (0, 1]")

    def effective_threshold(self) -> float:
        return self.radio.sir_threshold / self.rho


@dataclass(frozen=True)
class ScenarioConfig:
    """Complete description of one network scenario."""

    tiers: tuple[TierConfig, ...]
    content: ContentModel
    costs: CostModel
    protocol: SimulationProtocol
    integration: IntegrationSettings
    density_unit: str = PER_KM2
    rate_log_base: float = 2.0

    def __post_init__(self):
        check_fields(self)
        if len(self.tiers) < 1:
            raise ConfigError("tiers", "must hold at least one tier")
        if self.density_unit not in (PER_KM2, PER_M2):
            raise ConfigError("density_unit", f"must be '{PER_KM2}' or '{PER_M2}'")
        if not 1 < self.rate_log_base < math.inf:
            raise ConfigError("rate_log_base", "must be finite and exceed 1")
        # Across records: either field may be the one a file or a sweep set,
        # so the error names the scenario; its reason names both paths.
        for k, tier in enumerate(self.tiers):
            if tier.cache.cache_size > self.content.library_size:
                path = f"tiers[{k + 1}].cache.cache_size"
                raise ConfigError("", f"must be ordered {path} <= content.library_size "
                                  f"({tier.cache.cache_size} > {self.content.library_size})")

    @property
    def num_tiers(self) -> int:
        return len(self.tiers)

    @property
    def density_scale(self) -> float:
        """Density per m^2 of one configured density unit."""
        return 1e-6 if self.density_unit == PER_KM2 else 1.0

    def densities_per_m2(self) -> np.ndarray:
        return np.array([t.density * self.density_scale for t in self.tiers])

    def region_radius_m(self, protocol: SimulationProtocol | None = None) -> float:
        proto = protocol if protocol is not None else self.protocol
        if proto.region_radius == AUTO:
            return auto_region_radius(self)
        return float(proto.region_radius)

    def fingerprint(self) -> str:
        """Stable hash of the full scenario (canonical YAML form)."""
        return hashlib.sha256(serialize_config(self).encode()).hexdigest()


# --- parameter paths ---------------------------------------------------------

_TIER_RE = re.compile(r"tiers\[(\d+|\*)\]")


@functools.lru_cache(maxsize=256)
def _names(path: str) -> tuple:
    """The name sequence of dotted ``path``: ``tiers[2].cache.cache_size``
    is ``("tiers", 2, "cache", "cache_size")``, and ``tiers[*]`` gives
    ``"*"`` in place of the tier."""
    head, *names = path.split(".")
    m = _TIER_RE.fullmatch(head)
    if m is None:
        return (head, *names)
    return ("tiers", "*" if m.group(1) == "*" else int(m.group(1)), *names)


def set_parameter(scenario: ScenarioConfig, path: str, value) -> ScenarioConfig:
    """Return a copy of ``scenario`` with the addressed parameter replaced.

    A ``ConfigError`` names ``path``, not the field of the record that
    rejected the value.
    """
    try:
        return _replaced(scenario, _names(path), value)
    except ConfigError as exc:
        raise ConfigError(path, exc.reason) from exc


def _replaced(node, names, value):
    """``node`` with ``value`` at ``names``. Each record on the way is
    copied, not rebuilt from arguments, and its ``__post_init__`` checks it
    as YAML loading would. Tiers take a 1-based index or ``"*"``."""
    name, rest = names[0], names[1:]
    if name in getattr(node, "__dataclass_fields__", ()):
        new = object.__new__(type(node))
        fields = new.__dict__
        fields.update(node.__dict__)
        fields[name] = _replaced(fields[name], rest, value) if rest else value
        new.__post_init__()
        return new
    if not isinstance(node, tuple) or not (name == "*" or isinstance(name, int)):
        raise ConfigError("", "parameter path does not resolve")
    if name != "*" and not 1 <= name <= len(node):
        raise ConfigError("", f"tier index out of range 1..{len(node)}")
    positions = range(len(node)) if name == "*" else (name - 1,)
    items = list(node)
    for k in positions:
        items[k] = _replaced(items[k], rest, value) if rest else value
    return tuple(items)


def _value(node, names, tier):
    """The value at ``names`` in ``node``; ``tier``, 1-based, stands for
    ``"*"``, which otherwise takes a tuple over every tier."""
    for i, name in enumerate(names):
        if name == "*":
            if tier == "*":
                return tuple(_value(item, names[i + 1:], tier) for item in node)
            name = tier
        node = node[name - 1] if isinstance(name, int) else getattr(node, name)
    return node


def _reaches(reach, field) -> bool:
    """Whether setting the name sequences ``reach`` can change ``field``.

    A field and a set path are name sequences, a tier's fields under
    ``("tiers", k)`` with k 1-based. A path reaches a field when one
    sequence is a prefix of the other and the tier matches; ``"*"`` matches
    every tier. ``reach`` None stands for an unknown axis and reaches every
    field.
    """
    if reach is None:
        return True
    for path in reach:
        for a, b in zip(path, field):
            if a != b and a != "*" and b != "*":
                break
        else:
            return True
    return False


# What each tabulated analytic stage reads, as name sequences for
# ``_reaches``: scenarios with one ``_stage_key`` share the stage's table.
# The coverage table; cache, content and costs only reweight its densities.
_COVERAGE_FIELDS = (("density_unit",), ("tiers", "*", "density"), ("tiers", "*", "rho"),
                    ("tiers", "*", "radio"), ("integration",))
# The exponent table e_j(t) of tier j, the "*": not its density or threshold.
_EXPONENT_FIELDS = (*(("tiers", "*", "radio", name) for name in (
    "tx_power", "pathloss_exp_los", "pathloss_exp_nlos", "intercept_los", "intercept_nlos",
    "nakagami_los", "nakagami_nlos", "near_field_dist", "far_field_dist")),
    ("integration", "rel_tol"), ("integration", "inner_truncation_radius"))


def _stage_key(scenario: ScenarioConfig, fields, tier="*") -> tuple:
    """The values of ``scenario`` at ``fields``, in order, read by ``_value``."""
    return tuple(_value(scenario, field, tier) for field in fields)


# Expected base-station count that drives automatic region sizing.
AUTO_REGION_TARGET_COUNT = 200.0
# Keep the disk several far-field distances wide even in dense scenarios.
AUTO_REGION_MIN_FAR_FIELD_MULTIPLE = 10.0


def auto_region_radius(scenario: ScenarioConfig) -> float:
    """Disk radius holding ~AUTO_REGION_TARGET_COUNT stations in expectation."""
    total = float(np.sum(scenario.densities_per_m2()))
    floor = AUTO_REGION_MIN_FAR_FIELD_MULTIPLE * max(
        t.radio.far_field_dist for t in scenario.tiers
    )
    if total <= 0:
        return floor
    return max(math.sqrt(AUTO_REGION_TARGET_COUNT / (math.pi * total)), floor)


def default_scenario() -> ScenarioConfig:
    """The two-tier macro + small-cell default described in the module docstring."""
    macro = TierConfig(
        density=1e-3,
        radio=TierRadioParams(
            tx_power=40.0,
            pathloss_exp_los=2.4,
            pathloss_exp_nlos=4.0,
            near_field_dist=80.0,
            far_field_dist=164.0,
            sir_threshold=2.0,
        ),
        cache=TierCachePolicy(cache_size=20, mpc_fraction=1.0),
    )
    small = TierConfig(
        density=10.0,
        radio=TierRadioParams(
            tx_power=4.0,
            pathloss_exp_los=2.4,
            pathloss_exp_nlos=4.0,
            near_field_dist=16.0,
            far_field_dist=36.0,
            sir_threshold=4.0,
        ),
        cache=TierCachePolicy(cache_size=5, mpc_fraction=1.0),
    )
    return ScenarioConfig(
        tiers=(macro, small),
        content=ContentModel(library_size=100, popularity_exponent=1.0),
        costs=CostModel(),
        protocol=SimulationProtocol(),
        integration=IntegrationSettings(),
    )


def desk_scale_protocol(master_seed: int = 0, num_snapshots: int = 2000) -> SimulationProtocol:
    """CI-friendly protocol: fewer snapshots, automatically sized region."""
    return SimulationProtocol(
        num_snapshots=num_snapshots,
        region_radius=AUTO,
        master_seed=master_seed,
    )


# --- YAML mapping <-> dataclasses -------------------------------------------

def scenario_to_mapping(config: ScenarioConfig) -> dict:
    """Plain-dict form of a scenario (the YAML document structure)."""
    return {**dataclasses.asdict(config),
            "tiers": [dataclasses.asdict(t) for t in config.tiers]}


def _require_mapping(node, path):
    if not isinstance(node, dict):
        raise ConfigError(path, f"expected a mapping, got {type(node).__name__}")


def _merge(defaults, override, path):
    """Deep merge ``override`` onto ``defaults``, rejecting unknown keys."""
    if override is None:
        return defaults
    _require_mapping(override, path or "<config>")
    merged = dict(defaults)
    for key, value in override.items():
        key_path = f"{path}.{key}" if path else str(key)
        if key not in defaults:
            raise ConfigError(key_path, "unknown key")
        if isinstance(defaults[key], dict):
            merged[key] = _merge(defaults[key], value, key_path)
        else:
            merged[key] = value
    return merged


def _build(cls, fields, path):
    """``cls(**fields)``, with any rejection located under ``path``."""
    try:
        return cls(**fields)
    except ConfigError as exc:
        raise ConfigError(".".join(filter(None, (path, exc.path))), exc.reason) from exc


def scenario_from_mapping(mapping: dict | None) -> ScenarioConfig:
    """Build a scenario from a (possibly partial) YAML mapping.

    Missing sections and keys fall back to the default scenario. Tier
    entries merge positionally onto the default tiers; entries past the
    default count inherit from the last default tier. Each record checks
    its own fields.
    """
    defaults = scenario_to_mapping(default_scenario())
    merged = _merge(defaults, {} if mapping is None else mapping, "")
    if not isinstance(merged["tiers"], list) or not merged["tiers"]:
        raise ConfigError("tiers", "expected a non-empty list of tier mappings")
    tiers = []
    for k, entry in enumerate(merged["tiers"]):
        path = f"tiers[{k + 1}]"
        tier = _merge(defaults["tiers"][min(k, len(defaults["tiers"]) - 1)], entry, path)
        tiers.append(_build(TierConfig, {
            **tier,
            "radio": _build(TierRadioParams, tier["radio"], f"{path}.radio"),
            "cache": _build(TierCachePolicy, tier["cache"], f"{path}.cache"),
        }, path))
    sections = {name: _build(cls, merged[name], name) for name, cls in (
        ("content", ContentModel), ("costs", CostModel),
        ("protocol", SimulationProtocol), ("integration", IntegrationSettings))}
    return _build(ScenarioConfig, {**merged, **sections, "tiers": tiers}, "")


def serialize_config(config: ScenarioConfig) -> str:
    """Canonical YAML text; ``load`` of this text reproduces ``config``."""
    return yaml.safe_dump(scenario_to_mapping(config), sort_keys=True)


def load_config(path) -> ScenarioConfig:
    """Load and validate a YAML scenario file (empty file = full defaults)."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        mapping = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError("<config>", f"YAML parse error: {exc}") from exc
    return scenario_from_mapping(mapping)


def save_config(config: ScenarioConfig, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_config(config))
