"""Tests of the benchmark itself: its checks reject results outside their
tolerances, and traced runs count the same work every time.

    python3 -m pytest perfbench -q
"""
from __future__ import annotations

import copy
import json
import os
import subprocess
import sys
from types import SimpleNamespace

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import oracles  # noqa: E402
import workloads  # noqa: E402
from hetcache import default_scenario, experiments, set_parameter  # noqa: E402


def _row_scenario(workload, row):
    scenario = workload.config
    for path in workload.variables:
        scenario = set_parameter(scenario, path, row[path])
    return scenario


@pytest.fixture(scope="module")
def sweep(tmp_path_factory):
    """One density-sweep round on a 3-density sub-grid (dense decades only)."""
    w = workloads.DensitySweep(0, str(tmp_path_factory.mktemp("out")))
    w.variables = {"content.popularity_exponent": workloads.FIG2_EXPONENTS,
                   "tiers[2].density": (1.0, 10.0, 100.0)}
    w.rows_per_round = 9
    w.metric_rows = [0, 4, 8]
    w.oracle_density = 2
    result, ops, failed = w.run_round(0)
    assert (ops, failed) == (9, 0)
    return w, result


@pytest.fixture(scope="module")
def search(tmp_path_factory):
    """One cache-search round on a reduced grid."""
    w = workloads.CacheSearch(0, str(tmp_path_factory.mktemp("out")))
    w.variables = {"tiers[1].cache.cache_size": (20,),
                   "tiers[2].cache.mpc_fraction": (0.0, 1.0),
                   "tiers[2].cache.cache_size": tuple(range(1, 21))}
    w.rows_per_round = 40
    w.metric_rows = [0, 13, 39]
    result, _, _ = w.run_round(0)
    return w, result


def _perturbed(result, k, name, delta):
    out = copy.deepcopy(result)
    out.surface[k][name] += delta
    return out


def _checked(w, *results):
    """Run a workload's checks on the given round results."""
    w = copy.copy(w)
    w.digests, w.last, w.failed_rounds = set(), None, 0
    for result in results:
        w.keep(result)
    return w.check()


def test_sweep_passes_unperturbed(sweep):
    w, result = sweep
    assert _checked(w, result, result) == []


def test_metric_recomputation_tolerance(search):
    w, result = search
    assert _checked(w, result) == []
    k = w.metric_rows[1]
    for name in workloads.METRICS:
        value = result.surface[k][name]
        tol = oracles.analytic_tolerance(_row_scenario(w, result.surface[k]), value)
        assert w._check_rows(_perturbed(result, k, name, 0.5 * tol).surface, [k]) == []
        assert w._check_rows(_perturbed(result, k, name, 2.0 * tol).surface, [k]) != []


def test_scipy_coverage_tolerance(search):
    w, result = search
    row = dict(result.surface[0])
    for i in (1, 2):
        tol = oracles.analytic_tolerance(w.config, row[f"rho_{i}"])
        assert w._check_rho(w.config, dict(row, **{f"rho_{i}": row[f"rho_{i}"] + 0.5 * tol})) == []
        assert w._check_rho(w.config, dict(row, **{f"rho_{i}": row[f"rho_{i}"] + 2.0 * tol})) != []


def test_repeated_rounds_must_agree(search):
    w, result = search
    assert _checked(w, result, result) == []
    changed = _perturbed(result, 0, "p_hit", 1e-17)
    assert "different rows" in _checked(w, result, changed)[0]


def test_sweep_trend_property(sweep):
    w, result = sweep
    # raise p_bh at the densest point of the first block above its neighbour
    rows = result.surface
    bump = rows[1]["p_bh"] - rows[2]["p_bh"] + 1e-12
    broken = _perturbed(result, 2, "p_bh", bump)
    assert any("p_bh is not falling" in f for f in _checked(w, broken))


def test_sweep_csv_must_match_rows(sweep):
    w, result = sweep
    broken = _perturbed(result, 0, "ase", 1e-20)
    assert any("CSV row 0 ase" in f for f in w._check_csv(broken.surface))


def test_cache_argmax_property(search):
    w, result = search
    assert _checked(w, result) == []
    wide = copy.deepcopy(result)
    wide.best_point["tiers[2].cache.cache_size"] = 11
    assert any("more than 10% of the library" in f for f in _checked(w, wide))


def _mc_check(w, reports):
    w.reports = list(reports)
    return w.check()


def _mc_results(w, shift=None, rounds=4):
    """Fake reports at the finite-disk reference with a small standard error."""
    rho = w.reference["rho"]
    expected = oracles.analytic_metrics(w.scenario, rho)
    out = []
    for _ in range(rounds):
        r = SimpleNamespace(per_tier_coverage_density=list(rho),
                            per_tier_coverage_density_stderr=[1e-4 * x for x in rho],
                            stderr={}, **{k: expected[k] for k in expected})
        for name in ("p_hit", "p_bh", "ase", "cost"):
            r.stderr[name] = 1e-3 * expected[name]
        out.append(r)
    if shift is not None:
        name, delta = shift
        for r in out:
            if name.startswith("rho_"):
                r.per_tier_coverage_density[int(name[4:]) - 1] += delta
            else:
                setattr(r, name, getattr(r, name) + delta)
    return out


def test_monte_carlo_tolerance():
    w = workloads.WideDisk(0, None)
    rounds = 4
    n = rounds * w.snapshots
    assert _mc_check(w, _mc_results(w, rounds=rounds)) == []
    floors = oracles.poisson_floors(w.scenario, w.reference["rho"], n)
    for name, floor in floors.items():
        fake = _mc_results(w, rounds=rounds)
        se = (fake[0].stderr[name] if not name.startswith("rho_") else
              fake[0].per_tier_coverage_density_stderr[int(name[4:]) - 1]) / rounds ** 0.5
        tol = oracles.mc_tolerance(se, floor)
        assert _mc_check(w, _mc_results(w, (name, 0.5 * tol), rounds)) == [], name
        assert _mc_check(w, _mc_results(w, (name, 2.0 * tol), rounds)) != [], name


def test_monte_carlo_reference_matches_scenario():
    w = workloads.WideDisk(0, None)
    stale = copy.deepcopy(w.reference)
    stale["scenario"]["content"]["library_size"] = 99
    w.reference = stale
    assert "regenerate" in _mc_check(w, _mc_results(w))[0]


def _traced(workload, seed):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    return {name: m["value"] for name, m in result["metrics"].items()
            if not name.endswith(("_s", ".s"))}


@pytest.mark.parametrize("workload", ["mc-wide-disk", "analytic-cache-search"])
def test_traced_counts_repeat(workload):
    first = _traced(workload, 5)
    assert first == _traced(workload, 5)
    assert any(v > 0 for v in first.values())


def test_tracer_restores_library():
    from tracing import SPAN_SITES, Tracer

    before = [getattr(module, attr) for module, attr, _ in SPAN_SITES]
    with Tracer() as tracer:
        experiments.grid_search(default_scenario(), {"tiers[2].cache.cache_size": (1, 2)})
    assert [getattr(module, attr) for module, attr, _ in SPAN_SITES] == before
    assert tracer.counts["analytic.table"] == 1
    assert tracer.counts["metrics.report"] == 2


def test_host_probe_samples_inside_block():
    import signal
    import time

    from hostspeed import REF_PROBE_S, HostProbe

    before = signal.getsignal(signal.SIGALRM)
    with HostProbe(period_s=0.01) as probe:
        start = time.perf_counter()
        while time.perf_counter() - start < 0.2:
            pass
        wall = time.perf_counter() - start
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(probe.samples) >= 5
    assert 0 < probe.inside_s < wall
    expected = (wall - sum(probe.samples)) * REF_PROBE_S / (sum(probe.samples) / len(probe.samples))
    assert probe.normalise(wall) == pytest.approx(expected)


def test_host_probe_short_block_samples_after():
    from hostspeed import HostProbe

    with HostProbe(period_s=10.0) as probe:
        pass
    assert len(probe.samples) == 1 and probe.inside_s == 0.0
    assert probe.normalise(0.5) > 0
