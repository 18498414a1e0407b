"""Densifying the small-cell tier: what improves and what does not.

Sweeps the small-cell density over the dense decades with the quadrature
engine and prints the headline trade-off: backhaul usage falls and area
spectral efficiency climbs, but cost climbs too and the hit ratio and
caching efficiency peak at a finite density.
"""
import numpy as np

from hetcache import default_scenario, run_experiment

grid = tuple(np.logspace(0, 2, 9))
rows = run_experiment(default_scenario(), {"tiers[2].density": grid})

print(f"{'lam2 [/km^2]':>12} {'p_bh':>10} {'p_hit':>8} {'ASE':>11} "
      f"{'cost':>11} {'eta':>8}")
for row in rows:
    print(f"{row['tiers[2].density']:>12.3f} {row['p_bh']:>10.2e} "
          f"{row['p_hit']:>8.4f} {row['ase']:>11.3e} {row['cost']:>11.3e} "
          f"{row['efficiency']:>8.3f}")

etas = [row["efficiency"] for row in rows]
hits = [row["p_hit"] for row in rows]
best = int(np.argmax(etas))
print(f"\ncaching efficiency peaks at lam2 = {grid[best]:.1f} per km^2")
print(f"hit ratio peaks at lam2 = {grid[int(np.argmax(hits))]:.1f} per km^2, "
      f"then LOS interference wins")
