"""The quadrature engine, piece by piece.

Evaluates the interference Laplace exponent of one tier's Poisson field,
then the per-tier expected covering-station counts, and assembles the
popularity- and cache-weighted coverage. Also shows that coverage reacts to
the SIR threshold but not to cache contents.
"""
import numpy as np

from hetcache import (alzer_coefficient, analytic_report, build_coverage_table,
                      default_scenario, interference_laplace_exponent)
from hetcache.content import TierCachePolicy
from hetcache.experiments import set_parameter

scenario = default_scenario()
lam = scenario.densities_per_m2()

print("=== Exponential-bound coefficients for Gamma fading shapes ===")
for m in (1, 2, 3, 4):
    print(f"M={m}: v = {alzer_coefficient(m):.6f}")

print()
print("=== Interference Laplace exponent E(t) of the small-cell tier ===")
print("E[e^(-t I)] = e^(-E(t)); E grows with t, concave:")
for t in (1e2, 1e4, 1e6, 1e8):
    e = interference_laplace_exponent(t, scenario.tiers[1].radio, lam[1])
    print(f"t={t:.0e}: E={e:.5f}  ->  E[e^(-tI)]={np.exp(-e):.5f}")

print()
print("=== Per-tier covering-station expectations ===")
[table] = build_coverage_table([scenario])
for i, (rho, err) in enumerate(zip(table.per_tier_density, table.error_estimates), 1):
    print(f"tier {i}: rho = {rho:.6f}  (error estimate {err:.1e})")

print()
print("=== Weighted coverage (p_hit) for different cache configurations ===")
print("(one coverage table serves all three: caches only reweight it)")


def p_hit(policy=None):
    s = scenario if policy is None else set_parameter(scenario, "tiers[*].cache", policy)
    return analytic_report(s, table=table).p_hit


print(f"scenario policies      : {p_hit():.5f}")
print(f"everything cached      : {p_hit(TierCachePolicy(100, 1.0)):.5f}  (= rho_1 + rho_2)")
print(f"nothing cached         : {p_hit(TierCachePolicy(0, 1.0)):.5f}")

print()
print("=== Threshold dependence (cache-independence of rho) ===")
for beta2 in (1.0, 2.0, 4.0, 8.0):
    s = set_parameter(scenario, "tiers[2].radio.sir_threshold", beta2)
    [t] = build_coverage_table([s])
    print(f"beta_2={beta2}: rho_2 = {t.per_tier_density[1]:.5f}")
