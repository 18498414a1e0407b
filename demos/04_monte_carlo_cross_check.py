"""Monte Carlo engine and its agreement with the quadrature engine.

With unit fading shapes the analytic per-tier value is the exact expected
covering-station count, so the two engines must agree within Monte Carlo
noise. The region radius matters: the LOS probability decays only like
D0/r, so stations kilometers away still matter; 20 km keeps the truncation
bias negligible at this density.

Runs ~20 s single-process (pass a smaller snapshot count to go faster).
"""
import dataclasses
import sys
import time

from hetcache import build_coverage_table, default_scenario, run_simulation
from hetcache.scenario import SimulationProtocol

snapshots = int(sys.argv[1]) if len(sys.argv) > 1 else 1500

scenario = default_scenario()
unit_tiers = tuple(
    dataclasses.replace(t, radio=dataclasses.replace(
        t.radio, nakagami_los=1, nakagami_nlos=1))
    for t in scenario.tiers)
scenario = dataclasses.replace(scenario, tiers=unit_tiers)

[table] = build_coverage_table([scenario])
print("analytic per-tier covering expectations:",
      [f"{v:.5f}" for v in table.per_tier_density])

proto = SimulationProtocol(num_snapshots=snapshots, region_radius=20000.0,
                           master_seed=99)
t0 = time.time()
report = run_simulation(scenario, protocol=proto, workers=2)
print(f"\nMonte Carlo, {snapshots} snapshots, 20 km disk "
      f"({time.time() - t0:.1f}s):")
for i in range(2):
    est = report.per_tier_coverage_density[i]
    se = report.per_tier_coverage_density_stderr[i]
    ana = table.per_tier_density[i]
    z = f"z = {(ana - est) / se:+.2f}" if se else "(tier too sparse for a z-score)"
    print(f"  tier {i + 1}: MC {est:.5f} +- {se:.5f}   analytic {ana:.5f}   {z}")

print(f"\ncontent-aware coverage: MC {report.p_hit:.4f} +- "
      f"{report.stderr['p_hit']:.4f}")
print(f"hit {report.p_hit:.4f}, aligned backhaul {report.p_bh:.5f}, "
      f"operational backhaul {report.p_bh_operational:.5f}")
print(f"cache-agnostic coverage (some station clears its threshold): "
      f"{report.coverage_all_bs:.4f}")
print(f"ASE {report.ase:.3e} bit/s/Hz/m^2, cost {report.cost:.3e} per m^2, "
      f"efficiency {report.efficiency:.3f}")
