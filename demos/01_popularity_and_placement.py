"""Content popularity and cache placement.

Walks through the Zipf request law, the closed-form per-content caching
probability of the MPC/RCS mixture, and a sampling check that placements
drawn station by station reproduce that closed form.
"""
import numpy as np

from hetcache import ContentModel, TierCachePolicy, cache_probability_vector
from hetcache.content import sample_placement_fields

F = 100

print("=== Zipf request probabilities ===")
for kappa in (0.0, 0.5, 1.0, 2.0):
    model = ContentModel(library_size=F, popularity_exponent=kappa)
    a = model.request_probabilities()
    print(f"kappa={kappa}: a_1={a[0]:.4f}  a_10={a[9]:.4f}  "
          f"top-10 mass={a[:10].sum():.3f}  (sum={a.sum():.12f})")
print(f"single rank lookup: request_probabilities()[3 - 1] at kappa=1 = "
      f"{ContentModel(F, 1.0).request_probabilities()[3 - 1]:.5f}")

print()
print("=== Caching probability: MPC weight vs RCS window ===")
for phi in (1.0, 0.5, 0.0):
    q = cache_probability_vector(TierCachePolicy(cache_size=20, mpc_fraction=phi), F)
    print(f"phi={phi}: q[1]={q[0]:.4f}  q[20]={q[19]:.4f}  q[50]={q[49]:.4f}  "
          f"q[100]={q[99]:.4f}  sum={q.sum():.6f} (= cache size)")

print()
print("=== Sampler realizes the closed form ===")
rng = np.random.default_rng(1)
policy = TierCachePolicy(cache_size=20, mpc_fraction=0.3)
n = 200_000
is_mpc, starts = sample_placement_fields(rng, policy, F, n)
edges = np.zeros(F + 1)
np.add.at(edges, starts[~is_mpc] - 1, 1.0)
np.add.at(edges, np.minimum(starts[~is_mpc] - 1 + 20, F), -1.0)
freq = np.cumsum(edges)[:F]
freq[:20] += np.count_nonzero(is_mpc)
freq /= n
q = cache_probability_vector(policy, F)
print(f"{n} stations, phi=0.3, S=20: max |empirical - closed form| = "
      f"{np.max(np.abs(freq - q)):.5f}")
