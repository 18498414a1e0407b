"""The benchmark's workloads: seeded inputs, one timed round, checks.

A workload builds its inputs from the seed in ``__init__`` (that is part
of set-up) and runs the same operations once per round in ``run_round``
(the timed body). ``keep`` stores, untimed, what the checks need from a
round, and ``check`` compares it with the references in ``oracles`` after
the last round. Rounds of one run repeat identical analytic work; Monte
Carlo rounds draw from distinct master seeds so that pooled rounds give a
tighter statistical check.
"""
from __future__ import annotations

import csv
import dataclasses
import hashlib
import json
import math
import os

import numpy as np

from hetcache import default_scenario, experiments, montecarlo, set_parameter
from hetcache.quadrature import QuadratureError
from hetcache.scenario import SimulationProtocol, scenario_to_mapping

import oracles

FIG2_DENSITIES = np.logspace(-4, 2, 13)  # small-cell densities of preset fig2, per km^2
FIG2_EXPONENTS = (0.5, 1.0, 1.5)
# Small-cell densities from this one on count as the dense decades, where
# densification must lower p_bh and raise ASE and cost.
DENSE_FROM_PER_KM2 = 0.1
METRICS = ("p_hit", "p_bh", "ase", "cost", "efficiency")


def _jitter(rng, values, decades):
    """Scale each value by 10^U(-decades, decades): new inputs, same cost."""
    return values * 10.0 ** rng.uniform(-decades, decades, len(values))


def _close(value, reference, tol):
    return abs(value - reference) <= tol


class _Analytic:
    """Shared parts of the two analytic workloads (one op = one grid row)."""

    def __init__(self, seed, out_dir):
        self.seed = seed
        self.rng = np.random.default_rng(seed)
        self.digests = set()
        self.last = None
        self.failed_rounds = 0

    def _search(self):
        try:
            result = experiments.grid_search(self.config, self.variables)
        except QuadratureError:
            return None, self.rows_per_round
        return result, 0

    def keep(self, result):
        """Remember what the checks need from one round (untimed)."""
        if result is None:
            self.failed_rounds += 1
            return
        digest = hashlib.sha256()
        for row in result.surface:
            digest.update(repr(sorted(row.items())).encode())
        self.digests.add(digest.hexdigest())
        self.last = result

    def _check_repeats(self):
        if self.failed_rounds:
            return ["a grid row failed in some round"]
        if len(self.digests) != 1:
            return ["repeated rounds of identical inputs gave different rows"]
        return []

    def _check_rows(self, rows, picks):
        """Recompute every metric of the picked rows from their own rho."""
        failures = []
        for k in picks:
            row = rows[k]
            scenario = self.config
            for path in self.variables:
                scenario = set_parameter(scenario, path, row[path])
            rho = [row[f"rho_{i + 1}"] for i in range(scenario.num_tiers)]
            expected = oracles.analytic_metrics(scenario, rho)
            for name in METRICS:
                tol = oracles.analytic_tolerance(scenario, expected[name])
                if not _close(row[name], expected[name], tol):
                    failures.append(f"row {k} {name}={row[name]!r}, numpy recomputation "
                                    f"{expected[name]!r}, tolerance {tol:.3g}")
        return failures

    def _check_rho(self, scenario, row):
        """Per-tier coverage density of one row against scipy quadrature."""
        failures = []
        for i in range(scenario.num_tiers):
            reference = oracles.coverage_density(scenario, i)
            tol = oracles.analytic_tolerance(scenario, reference)
            if not _close(row[f"rho_{i + 1}"], reference, tol):
                point = {path: row[path] for path in self.variables}
                failures.append(f"rho_{i + 1}={row[f'rho_{i + 1}']!r} at {point}, "
                                f"scipy {reference!r}, tolerance {tol:.3g}")
        return failures


class DensitySweep(_Analytic):
    """Preset fig2's densification study on a one-per-decade sub-grid.

    Each density needs its own coverage table; the popularity exponent
    only re-weights a table, so 2 of every 3 rows reuse one. The rows are
    written as CSV with its metadata sidecar, as the CLI does.
    """

    name = "analytic-density-sweep"

    def __init__(self, seed, out_dir):
        super().__init__(seed, out_dir)
        self.config = default_scenario()
        densities = _jitter(self.rng, FIG2_DENSITIES[::2], 0.05)
        self.variables = {"content.popularity_exponent": FIG2_EXPONENTS,
                          "tiers[2].density": tuple(float(d) for d in densities)}
        self.rows_per_round = len(FIG2_EXPONENTS) * len(densities)
        # one density per run is checked against scipy, which takes seconds
        self.oracle_density = int(self.rng.integers(len(densities)))
        self.metric_rows = sorted(self.rng.choice(self.rows_per_round, 4, replace=False))
        self.out_path = os.path.join(out_dir, f"{self.name}.csv")

    def warm_up(self):
        experiments.grid_search(self.config, {"tiers[2].density": (1.0,)})

    def run_round(self, index):
        result, failed = self._search()
        if result is not None:
            experiments.write_csv(result.surface, self.out_path, self.config)
        return result, self.rows_per_round, failed

    def check(self):
        failures = self._check_repeats()
        if self.last is None:
            return failures
        rows = self.last.surface
        failures += self._check_csv(rows)
        failures += self._check_rows(rows, self.metric_rows)
        n_dens = len(self.variables["tiers[2].density"])
        row = rows[self.oracle_density]  # first exponent block: row d is density d
        scenario = set_parameter(self.config, "tiers[2].density", row["tiers[2].density"])
        failures += self._check_rho(scenario, row)
        for b, kappa in enumerate(FIG2_EXPONENTS):
            block = rows[b * n_dens:(b + 1) * n_dens]
            dense = [r for r in block if r["tiers[2].density"] >= DENSE_FROM_PER_KM2]
            for name, sign in (("p_bh", -1), ("ase", 1), ("cost", 1)):
                steps = np.diff([r[name] for r in dense]) * sign
                if not np.all(steps > 0):
                    failures.append(f"{name} is not {'falling' if sign < 0 else 'rising'} "
                                    f"over the dense decades at exponent {kappa}")
        return failures

    def _check_csv(self, rows):
        """The written CSV holds exactly the rows, and the sidecar the config hash."""
        failures = []
        with open(self.out_path, newline="", encoding="utf-8") as fh:
            written = list(csv.DictReader(fh))
        if len(written) != len(rows):
            return [f"CSV has {len(written)} rows, expected {len(rows)}"]
        for k, (line, row) in enumerate(zip(written, rows)):
            for name in METRICS + ("rho_1", "rho_2"):
                if float(line[name]) != row[name]:
                    failures.append(f"CSV row {k} {name}={line[name]} differs from {row[name]!r}")
        with open(self.out_path + ".meta.json", encoding="utf-8") as fh:
            meta = json.load(fh)
        if meta.get("config_hash") != self.config.fingerprint():
            failures.append("CSV sidecar does not record the config hash")
        return failures


class CacheSearch(_Analytic):
    """Efficiency grid search over cache sizes and MPC fractions, dense network.

    One coverage table serves every row, so per-row work (parameter
    edits, cache probabilities, report assembly) dominates.
    """

    name = "analytic-cache-search"

    def __init__(self, seed, out_dir):
        super().__init__(seed, out_dir)
        density = float(_jitter(self.rng, np.array([100.0]), 0.05)[0])
        kappa = float(self.rng.uniform(0.8, 1.2))
        config = set_parameter(default_scenario(), "tiers[2].density", density)
        self.config = set_parameter(config, "content.popularity_exponent", kappa)
        library = self.config.content.library_size
        macro = np.sort(self.rng.choice(np.arange(5, library + 1, 5), 8, replace=False))
        phi = np.concatenate(([0.0, 1.0], self.rng.uniform(0.0, 1.0, 9)))
        self.variables = {
            "tiers[1].cache.cache_size": tuple(int(s) for s in macro),
            "tiers[2].cache.mpc_fraction": tuple(float(p) for p in np.sort(phi)),
            "tiers[2].cache.cache_size": tuple(range(1, library + 1)),
        }
        self.rows_per_round = math.prod(len(g) for g in self.variables.values())
        self.metric_rows = sorted(self.rng.choice(self.rows_per_round, 20, replace=False))

    def warm_up(self):
        experiments.grid_search(self.config, {"tiers[2].cache.cache_size": (1, 2)})

    def run_round(self, index):
        result, failed = self._search()
        return result, self.rows_per_round, failed

    def check(self):
        failures = self._check_repeats()
        if self.last is None:
            return failures
        result = self.last
        rows = result.surface
        failures += self._check_rows(rows, self.metric_rows)
        failures += self._check_rho(self.config, rows[0])
        best = max(rows, key=lambda r: r["efficiency"])
        if result.best_efficiency != best["efficiency"]:
            failures.append("best_efficiency is not the largest efficiency on the surface")
        s2 = result.best_point["tiers[2].cache.cache_size"]
        if s2 > 0.1 * self.config.content.library_size:
            failures.append(f"efficiency peaks at a small-cell cache of {s2} files, "
                            f"more than 10% of the library")
        return failures


class WideDisk:
    """``run_simulation`` on a fixed 20 km disk (one op = one call), unit shapes.

    About 12,600 stations per snapshot, so station sampling dominates. At
    unit fading shapes and thresholds >= 1 the expected Monte Carlo
    estimates equal the analytic values with both integrals cut at the
    disk radius, which ``oracles.py`` stores in reference.json.
    """

    name = "mc-wide-disk"
    radius_m = 20000.0
    snapshots = 256

    def __init__(self, seed, out_dir):
        self.seed = seed
        self.scenario = unit_shape_scenario()
        self.reference = load_reference(self.name)
        self.reports = []

    def protocol(self, index):
        # distinct master seeds per (seed, round); run_simulation hashes them
        return SimulationProtocol(num_snapshots=self.snapshots,
                                  region_radius=self.radius_m,
                                  master_seed=self.seed * 1_000_003 + index)

    def warm_up(self):
        montecarlo.run_simulation(
            self.scenario, protocol=dataclasses.replace(self.protocol(0), num_snapshots=8))

    def run_round(self, index):
        try:
            report = montecarlo.run_simulation(
                self.scenario, protocol=self.protocol(index), workers=1)
        except (QuadratureError, ValueError):
            return None, 1, 1
        return report, 1, 0

    def keep(self, report):
        self.reports.append(report)

    def check(self):
        results = self.reports
        if any(r is None for r in results):
            return ["run_simulation failed in some round"]
        if self.reference["scenario"] != _plain(scenario_to_mapping(self.scenario)):
            return ["reference.json was made for another scenario; "
                    "regenerate it with python3 perfbench/oracles.py"]
        rho = self.reference["rho"]
        n = len(results) * self.snapshots
        expected = oracles.analytic_metrics(self.scenario, rho)
        expected.update({f"rho_{i + 1}": r for i, r in enumerate(rho)})
        floors = oracles.poisson_floors(self.scenario, rho, n)
        failures = []
        for name, floor in floors.items():
            means, ses = zip(*(_estimate(r, name) for r in results))
            # rounds have equal snapshot counts: pool as a plain mean
            mean = float(np.mean(means))
            se = math.sqrt(sum(s * s for s in ses)) / len(results)
            tol = oracles.mc_tolerance(se, floor)
            if not _close(mean, expected[name], tol):
                failures.append(f"{name}={mean!r} over {n} snapshots, finite-disk "
                                f"reference {expected[name]!r}, tolerance {tol:.3g}")
        return failures


class SmallDisk(WideDisk):
    """``run_simulation`` on a fixed 2.5 km disk (one op = one call), unit shapes.

    About 200 stations per snapshot, so per-snapshot fixed costs dominate:
    the ``SeedSequence`` stream, the Python loop over covering stations in
    ``evaluate_snapshot`` and the per-snapshot metric rows. The radius is a
    fixed number, not ``auto``, so a fix to ``auto`` sizing leaves the
    load unchanged; the reference is cut at the same radius.
    """

    name = "mc-small-disk"
    radius_m = 2500.0
    snapshots = 1024


def _estimate(report, name):
    """(value, standard error) of one metric of a Monte Carlo report."""
    if name.startswith("rho_"):
        i = int(name[4:]) - 1
        return (report.per_tier_coverage_density[i],
                report.per_tier_coverage_density_stderr[i])
    return getattr(report, name), report.stderr[name]


WORKLOADS = {w.name: w for w in (DensitySweep, CacheSearch, WideDisk, SmallDisk)}


def unit_shape_scenario():
    """The default scenario with every Nakagami shape set to 1."""
    scenario = default_scenario()
    for field in ("nakagami_los", "nakagami_nlos"):
        scenario = set_parameter(scenario, f"tiers[*].radio.{field}", 1)
    return scenario


def _plain(mapping):
    """JSON round trip, so stored and fresh mappings compare alike."""
    return json.loads(json.dumps(mapping))


def load_reference(name):
    with open(oracles.REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)[name]
