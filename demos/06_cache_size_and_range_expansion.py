"""Optimizing cache size, placement mix, and association bias.

Three grid searches with the quadrature engine. Coverage densities are
cache-independent, so cache-side searches reuse a single quadrature pass.
"""
import numpy as np

from hetcache import analytic_report, default_scenario
from hetcache.experiments import grid_search, set_parameter

base = default_scenario()

print("=== Placement mix: popular prefix vs random window ===")
res = grid_search(base, {"tiers[1].cache.mpc_fraction": (0.0, 0.5, 1.0),
                         "tiers[2].cache.mpc_fraction": (0.0, 0.5, 1.0)})
print(f"best mix: {res.best_point}  efficiency {res.best_efficiency:.3f}")
print("(pure most-popular placement wins on every grid we have tried)")

print()
print("=== Small-cell cache size in a dense deployment (100 per km^2) ===")
dense = set_parameter(base, "tiers[2].density", 100.0)
res = grid_search(dense, {"tiers[2].cache.cache_size": tuple(range(1, 101))})
s2 = res.best_point["tiers[2].cache.cache_size"]
print(f"optimal cache size: {s2} of 100 files "
      f"({s2}% of the library), efficiency {res.best_efficiency:.3f}")
sample = {s: row["efficiency"] for s in (1, 3, 10, 30, 100)
          for row in res.surface if row["tiers[2].cache.cache_size"] == s}
print("efficiency by cache size:", {k: round(float(v), 3) for k, v in sample.items()})

print()
print("=== Association bias (thresholds beta_i / rho_i) ===")
cheap = set_parameter(base, "costs.cache_unit_cost", 0.001)
for lam2, label in ((0.1, "moderate (0.1 per km^2)"), (100.0, "dense (100 per km^2)")):
    s = set_parameter(cheap, "tiers[2].density", lam2)
    eta0 = analytic_report(s).efficiency
    ratios = {}
    for rho2 in np.arange(0.1, 1.0, 0.1):
        biased = set_parameter(set_parameter(s, "tiers[1].rho", 1.0 - rho2),
                               "tiers[2].rho", rho2)
        ratios[round(float(rho2), 1)] = float(
            analytic_report(biased).efficiency / eta0)
    best = max(ratios, key=ratios.get)
    print(f"{label}: best efficiency ratio {ratios[best]:.3f} at rho_2={best}")
    print("  ratios:", {k: round(v, 3) for k, v in ratios.items()})
print("(biasing helps only when the macro tier's backhaul dominates the cost)")
