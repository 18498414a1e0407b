"""Scenario description, defaults, and YAML config ingestion.

A scenario is an ordered list of tiers (tier 1 is the macro tier that
carries the backhaul), a content model, a cost model, the Monte Carlo
protocol, and quadrature settings. Densities are stated in the configured
unit (per square kilometer by default) and converted to per-m^2 internally.

Config files are YAML whose structure mirrors the dataclasses; any section
or key left out, or given as ``null``, falls back to the two-tier default
scenario below, and unknown keys are rejected with their full path; of
several errors, the first in document order is reported. ``region_radius``
and the truncation radii accept the string ``"auto"``.

Every record checks its own fields in ``__post_init__``: each field's type
and range, declared once in its annotation, by ``_config.check_fields`` in
declaration order, then the record's orderings across fields. So within one
record the first declared field's type or range reports first.

A parameter is addressed by a dotted path into the scenario, with 1-based
tier indices matching the usual tier numbering; ``tiers[*]`` is every tier:

    tiers[2].density            tiers[1].cache.cache_size
    tiers[2].radio.sir_threshold tiers[*].rho
    content.popularity_exponent  costs.cache_unit_cost

Only this module knows the grammar: ``_names`` parses a path into the name
sequence that ``_value`` reads, ``_replaced`` writes and ``_reaches``
compares. ``set_parameter`` copies the records on one path (``_replaced``)
and YAML loading merges a file onto the default scenario's records
(``_merged``); in both walks each record's ``__post_init__`` checks it, so
every YAML field is a path, checked the same way, and a rejection names it.
A grid block (``Block``) checks a column of values at a number leaf by
``check_fields``' own check (``_column``) and builds a point only where a
stage reads it (``Block.scenarios``): a cost or cache column builds none, a
density, bias, integration or popularity-exponent column each, for coverage
tables or content models. Any other block sets its points at once.

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
from typing import Annotated

import numpy as np
import yaml

from ._config import (AUTO, ConfigError, Nonnegative, NonnegativeInt, Positive, PositiveInt,
                      PositiveOrAuto, _checked, _field_table, check_fields)
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

    backhaul_unit_cost: Positive = 1.0
    cache_unit_cost: Nonnegative = 0.01

    __post_init__ = check_fields


@dataclass(frozen=True)
class SimulationProtocol:
    """Monte Carlo protocol: snapshot count, disk radius, seeding."""

    num_snapshots: PositiveInt = 40000
    region_radius: PositiveOrAuto = 10000.0
    master_seed: NonnegativeInt = 0
    # kept only while perfbench/reference.json pins it; goes in the next benchmark change
    content_evaluation: str = "all-weighted"

    def __post_init__(self):
        check_fields(self)
        if self.content_evaluation != "all-weighted":
            raise ConfigError("content_evaluation", "must be 'all-weighted'")


@dataclass(frozen=True)
class IntegrationSettings:
    """Adaptive-quadrature tolerances and truncation radii (meters or 'auto')."""

    rel_tol: Positive = 1e-6
    abs_tol: Positive = 1e-10
    outer_truncation_radius: PositiveOrAuto = AUTO
    inner_truncation_radius: PositiveOrAuto = AUTO

    __post_init__ = check_fields


@dataclass(frozen=True)
class TierConfig:
    """One tier: spatial density, radio constants, cache policy, bias factor.

    ``rho`` rescales the tier's association threshold to sir_threshold/rho
    (range expansion); 1 leaves the tier unbiased.
    """

    density: Nonnegative
    radio: TierRadioParams
    cache: TierCachePolicy
    rho: Annotated[float, (math.nextafter(0.0, 1.0), 1.0, "must be in (0, 1]")] = 1.0

    __post_init__ = check_fields

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
    rate_log_base: Annotated[float, (math.nextafter(1.0, 2.0), math.nextafter(math.inf, 0.0),
                                     "must be finite and exceed 1")] = 2.0

    def __post_init__(self):
        check_fields(self)
        if len(self.tiers) < 1:
            raise ConfigError("tiers", "must hold at least one tier")
        if self.density_unit not in (PER_KM2, PER_M2):
            raise ConfigError("density_unit", f"must be '{PER_KM2}' or '{PER_M2}'")
        _check_caches([tier.cache.cache_size for tier in self.tiers], self.content.library_size)

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


def _check_caches(sizes, library_size) -> None:
    """Across records, tier k's cache size ``sizes[k - 1]`` is at most
    ``library_size``. Either may be the one set, so the error names the
    scenario and its reason names both paths."""
    for k, size in enumerate(sizes, 1):
        if size > library_size:
            raise ConfigError("", f"must be ordered tiers[{k}].cache.cache_size <= "
                              f"content.library_size ({size} > {library_size})")


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
    every tier. So the empty sequence, the whole scenario, reaches every
    field.
    """
    for path in reach:
        for a, b in zip(path, field):
            if a != b and a != "*" and b != "*":
                break
        else:
            return True
    return False


def _column(base: ScenarioConfig, names: tuple, values) -> list | None:
    """``values`` at the leaf ``names`` of ``base``, as ``set_parameter``
    stores them (``2.0`` in an integer field as ``2``), or None. Each value at
    a number leaf of a record that ``check_fields`` alone checks, other than
    ``content.library_size``, gets that field's check (``_config._checked``),
    and a cache size also ``_check_caches`` on the base's library size, which
    no checked block sets. Any other path, or a value that fails, gives None."""
    *heads, leaf = names
    if 0 in heads or leaf == "library_size":  # no tier 0, though ``_value`` would read the last
        return None
    try:  # the leaf's record; for ``tiers[*]`` tier 1's, as every tier's has its type
        cls = type(_value(base, heads, 1))
    except (AttributeError, IndexError, TypeError):
        return None
    entry = [e for e in _field_table(cls) if e[0] == leaf and e[1] in (float, int)
             ] if getattr(cls, "__post_init__", None) is check_fields else ()
    if not entry:
        return None
    ((_, exact, check, limits),) = entry
    try:
        column = [_checked(leaf, value, exact, check, limits) for value in values]
        if leaf == "cache_size":
            _check_caches([max(column)], base.content.library_size)
    except ConfigError:
        return None
    return column


class Block:
    """The points of one grid block: ``base`` with ``paths`` (``reach``: their
    name sequences) set to each entry of ``grid``; ``len`` counts them. If
    ``_column`` checks every path's column, ``grid`` holds the values as
    stored, and the point scenarios, ``points``, are built by ``build`` when
    first read; ``scenarios`` tells a stage whether it reads them. Any other
    block builds its points at once, so a bad value raises ``set_parameter``'s
    own error, and the first point is the base. ``Block(scenario)``, the block
    of no paths, is the one point ``scenario``."""

    def __init__(self, base: ScenarioConfig, paths: tuple = (), grid=((),), build=None):
        self.base, self.paths, self._build = base, paths, build
        self.reach = tuple(map(_names, paths))
        columns = [_column(base, names, column) for names, column in zip(self.reach, zip(*grid))]
        self.checked = None not in columns
        self.grid = list(zip(*columns)) if columns and self.checked else grid
        if not self.checked:  # build every point now: a bad value raises here
            self.base = self.points[0]

    @functools.cached_property
    def points(self) -> list:
        return [self._build(self.base, self.paths, values) for values in self.grid]

    def __len__(self):
        return len(self.grid)

    def scenarios(self, fields) -> list:
        """Every point if a path reaches one of ``fields``, else the base alone."""
        return self.points if any(_reaches(self.reach, f) for f in fields) else [self.base]

    def column(self, field) -> list:
        """The values of the leaf ``field`` (a name sequence with its tier),
        one per point: the base's, repeated, where no path reaches it."""
        if not _reaches(self.reach, field):
            return [_value(self.base, field, None)] * len(self)
        if self.checked:  # checked paths are leaves: the last that reaches it set it
            j = max(j for j, names in enumerate(self.reach) if _reaches((names,), field))
            return [values[j] for values in self.grid]
        return [_value(point, field, None) for point in self.points]


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


def _build(cls, fields, path):
    """``cls(**fields)``, with any rejection located under ``path``."""
    try:
        return cls(**fields)
    except ConfigError as exc:
        raise ConfigError(".".join(filter(None, (path, exc.path))), exc.reason) from exc


def _merged(node, value, path):
    """``node`` with the YAML ``value`` at ``path`` merged onto it.

    A mapping merges onto a record field by field, and ``null`` keeps the
    record; a list merges onto the tiers entry by entry, entries past the
    default count onto the last default tier; any other value replaces the
    field. Each record is rebuilt by ``_build``, so it checks itself.
    """
    if isinstance(node, tuple):
        if not isinstance(value, list) or not value:
            raise ConfigError(path, "expected a non-empty list of tier mappings")
        return tuple(_merged(node[min(k, len(node) - 1)], entry, f"{path}[{k + 1}]")
                     for k, entry in enumerate(value))
    if not hasattr(node, "__dataclass_fields__"):
        return value
    if value is None:
        return node
    if not isinstance(value, dict):
        raise ConfigError(path or "<config>",
                          f"expected a mapping, got {type(value).__name__}")
    fields = dict(node.__dict__)
    for key, item in value.items():
        key_path = f"{path}.{key}" if path else str(key)
        if key not in fields:
            raise ConfigError(key_path, "unknown key")
        fields[key] = _merged(fields[key], item, key_path)
    return _build(type(node), fields, path)


def scenario_from_mapping(mapping: dict | None) -> ScenarioConfig:
    """The default scenario with a (possibly partial) YAML mapping merged on."""
    return _merged(default_scenario(), mapping, "")


def serialize_config(config: ScenarioConfig) -> str:
    """Canonical YAML text; ``load`` of this text reproduces ``config``."""
    return yaml.safe_dump(scenario_to_mapping(config), sort_keys=True)


def load_config(path) -> ScenarioConfig:
    """Load and validate a YAML scenario file (empty file = full defaults)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(str(path), exc.strerror) from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(str(path), f"not UTF-8 text: {exc}") from exc
    try:
        mapping = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError("<config>", f"YAML parse error: {exc}") from exc
    return scenario_from_mapping(mapping)


def save_config(config: ScenarioConfig, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_config(config))
