"""Independent references for the benchmark's correctness checks.

Nothing here calls hetcache's engines: coverage densities come from
``scipy.integrate.quad`` and the network metrics from plain numpy, so a
check compares two separately written computations of the same quantity.

Run ``python3 perfbench/oracles.py`` from the repository root to
regenerate ``perfbench/reference.json``, the finite-disk reference of
the Monte Carlo workload.
"""
from __future__ import annotations

import json
import math
import os
import sys
import warnings

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")

# Tolerances. Analytic values must agree to a small multiple of the
# scenario's declared quadrature tolerance; Monte Carlo estimates to a
# number of standard errors, never below the Poisson standard error of a
# count with the reference mean, so that a correct engine drawing from a
# different random stream still passes.
ANALYTIC_REL_MULTIPLE = 10.0
MC_Z = 5.0

# QUADPACK settings: far tighter than any tolerance checked against.
EPSREL = 1e-10
LIMIT = 200


def _los(r, d0, d1):
    if r <= d0:
        return 1.0
    decay = math.exp(-r / d1)
    return (d0 / r) * (1.0 - decay) + decay


def _alzer(m):
    return m * math.exp(-math.lgamma(m + 1.0) / m)


def _modes(radio):
    """(is_los, alpha, intercept, Nakagami shape) per propagation mode."""
    return ((True, radio.pathloss_exp_los, radio.intercept_los, radio.nakagami_los),
            (False, radio.pathloss_exp_nlos, radio.intercept_nlos, radio.nakagami_nlos))


def _log_quad(f, kinks, radius, epsabs=0.0):
    """Integral of f(r) dr over [0, radius] in the variable s = log(1 + r).

    Every distance in ``kinks`` is an interval end, so no QUADPACK panel
    straddles the LOS kink; ``radius`` may be infinite.
    """
    from scipy.integrate import quad

    def g(s):
        if s > 700.0:  # e^s would overflow; every integrand here has decayed
            return 0.0
        es = math.exp(s)
        return f(es - 1.0) * es

    top = math.log1p(radius) if math.isfinite(radius) else math.inf
    ends = sorted({0.0, top, *(math.log1p(k) for k in kinks if k < radius)})
    return math.fsum(quad(g, lo, hi, epsabs=epsabs, epsrel=EPSREL, limit=LIMIT)[0]
                     for lo, hi in zip(ends[:-1], ends[1:]))


def laplace_exponent(t, interferers, radius=math.inf):
    """Sum over tiers of E_j(t), the Laplace exponent of tier j's field.

    ``interferers`` lists ``(radio, density_per_m2)``; with ``radius``
    finite the field is confined to that disk.
    """
    terms = []
    for radio, lam in interferers:
        for is_los, alpha, phi, m in _modes(radio):
            terms.append((2.0 * math.pi * lam, radio.near_field_dist,
                          radio.far_field_dist, is_los,
                          t * radio.tx_power * phi / m, alpha, m))

    def f(y):
        total = 0.0
        for weight, d0, d1, is_los, c, alpha, m in terms:
            p = _los(y, d0, d1)
            u = c * (1.0 + y) ** -alpha
            total += weight * y * (p if is_los else 1.0 - p) * -math.expm1(-m * math.log1p(u))
        return total

    if t == 0.0 or not terms:
        return 0.0
    # E enters the coverage integrand as e^(-E): an absolute error of 1e-13
    # is a relative error of 1e-13 there.
    return _log_quad(f, [r.near_field_dist for r, _ in interferers], radius,
                     epsabs=1e-13)


def coverage_density(scenario, tier_index, radius=math.inf):
    """Expected number of covering stations of one tier (0-based index).

    Uses the exponential-mixture fading bound: each fading term m of a
    mode with shape M contributes ``(-1)^(m+1) C(M, m)`` times the
    integral of ``x p_mode(x) exp(-sum_j E_j(m v beta (1+x)^alpha / (P phi)))``
    with ``v = M (M!)^(-1/M)``. With ``radius`` finite, stations and
    interferers both lie on the disk, as in the Monte Carlo engine.

    QUADPACK may warn that it cannot certify its 1e-10 target on some
    piece; that is far below every tolerance checked, so the warning is
    silenced here.
    """
    from scipy.integrate import IntegrationWarning

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        return _coverage_density(scenario, tier_index, radius)


def _coverage_density(scenario, tier_index, radius):
    scale = 1e-6 if scenario.density_unit == "per-km2" else 1.0
    dens = [t.density * scale for t in scenario.tiers]
    lam = dens[tier_index]
    if lam == 0.0:
        return 0.0
    tier = scenario.tiers[tier_index]
    radio = tier.radio
    beta = radio.sir_threshold / tier.rho
    interferers = [(t.radio, d) for t, d in zip(scenario.tiers, dens) if d > 0]
    d0, d1 = radio.near_field_dist, radio.far_field_dist
    terms = []
    for is_los, alpha, phi, big_m in _modes(radio):
        v = _alzer(big_m)
        for m in range(1, big_m + 1):
            terms.append((is_los, math.comb(big_m, m) * (-1.0) ** (m + 1),
                          beta * m * v / (radio.tx_power * phi), alpha))

    def f(x):
        p = _los(x, d0, d1)
        total = 0.0
        for is_los, coeff, pref, alpha in terms:
            if alpha * math.log1p(x) > 700.0:  # e^(-E) underflows long before
                continue
            e = laplace_exponent(pref * (1.0 + x) ** alpha, interferers, radius)
            total += coeff * (p if is_los else 1.0 - p) * math.exp(-e)
        return x * total

    return 2.0 * math.pi * lam * _log_quad(f, [d0], radius)


def cache_probabilities(cache_size, mpc_fraction, library_size):
    """Per-rank caching probability by enumerating every RCS window."""
    f, s = library_size, cache_size
    ranks = np.arange(1, f + 1)
    if s == 0:
        return np.zeros(f)
    starts = np.arange(1, f - s + 2)[:, None]
    windows = (ranks >= starts) & (ranks < starts + s)
    return mpc_fraction * (ranks <= s) + (1.0 - mpc_fraction) * windows.mean(axis=0)


def _network(scenario, rho):
    """Zipf weights a, caching probabilities q, per-m^2 densities, tier rates."""
    f = scenario.content.library_size
    a = np.arange(1, f + 1, dtype=float) ** -scenario.content.popularity_exponent
    a /= a.sum()
    q = np.array([cache_probabilities(t.cache.cache_size, t.cache.mpc_fraction, f)
                  for t in scenario.tiers])
    scale = 1e-6 if scenario.density_unit == "per-km2" else 1.0
    lam = np.array([t.density * scale for t in scenario.tiers])
    rate = np.array([math.log(1.0 + t.radio.sir_threshold) / math.log(scenario.rate_log_base)
                     for t in scenario.tiers])
    return a, q, lam, rate, np.asarray(rho, dtype=float)


def analytic_metrics(scenario, rho):
    """p_hit, p_bh, ase, cost and efficiency from per-tier densities ``rho``.

    ``rho[i]`` is the expected number of covering tier-(i+1) stations; a
    request for rank c hits when a covering station caches c, and uses
    the macro backhaul through a covering macro station that does not.
    """
    a, q, lam, rate, rho = _network(scenario, rho)
    f = scenario.content.library_size
    hit = a @ (q.T @ rho)
    backhaul = a @ ((1.0 - q[0]) * rho[0])
    ase = a @ ((lam * rate) @ (q * rho[:, None])) + lam[0] * rate[0] * backhaul
    storage = scenario.costs.cache_unit_cost * float(
        lam @ [t.cache.cache_size for t in scenario.tiers])
    cost = (lam[0] * (f - scenario.tiers[0].cache.cache_size)
            * scenario.costs.backhaul_unit_cost * backhaul + storage)
    return {"p_hit": float(hit), "p_bh": float(backhaul), "ase": float(ase),
            "cost": float(cost), "efficiency": float(ase / cost)}


def poisson_floors(scenario, rho, snapshots):
    """Standard error of each per-snapshot Monte Carlo mean if covering
    stations were Poisson counts with means ``rho``.

    Each statistic is bounded by a weighted sum of per-tier covering
    counts; its variance is then at most sum_i w_i^2 rho_i. The floor
    keeps a tolerance from collapsing when few stations covered.
    """
    a, q, lam, rate, rho = _network(scenario, rho)
    f = scenario.content.library_size
    w1 = float(a @ (1.0 - q[0]))
    bh_scale = (lam[0] * (f - scenario.tiers[0].cache.cache_size)
                * scenario.costs.backhaul_unit_cost)
    ase_w = lam * rate
    ase_w[0] += lam[0] * rate[0] * w1
    floors = {
        "p_hit": float(np.sum(rho)),
        "p_bh": w1 ** 2 * rho[0],
        "ase": float(ase_w ** 2 @ rho),
        "cost": (bh_scale * w1) ** 2 * rho[0],
    }
    floors.update({f"rho_{i + 1}": float(r) for i, r in enumerate(rho)})
    return {k: math.sqrt(v / snapshots) for k, v in floors.items()}


def analytic_tolerance(scenario, reference):
    """Allowed |engine - reference| for an analytic quantity."""
    rel, absolute = scenario.integration.rel_tol, scenario.integration.abs_tol
    return ANALYTIC_REL_MULTIPLE * (rel * abs(reference) + absolute)


def mc_tolerance(stderr, floor):
    """Allowed |estimate - reference| for a Monte Carlo mean."""
    return MC_Z * max(stderr, floor)


def main():
    """Regenerate reference.json: finite-disk densities of the Monte Carlo workloads."""
    import workloads

    scenario = workloads.unit_shape_scenario()
    reference = {"command": "python3 perfbench/oracles.py"}
    for cls in (workloads.WideDisk, workloads.SmallDisk):
        rho = [coverage_density(scenario, i, cls.radius_m)
               for i in range(scenario.num_tiers)]
        reference[cls.name] = {
            "radius_m": cls.radius_m,
            "rho": rho,
            "scenario": workloads._plain(workloads.scenario_to_mapping(scenario)),
        }
        print(cls.name, rho, file=sys.stderr)
    with open(REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    main()
