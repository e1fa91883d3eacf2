"""Learning topology and weights together.

The reconstructor splits leaves into components where all correlation is
below the noise floor, rebuilds each component by quartet tests, contracts
internal edges indistinguishable from weight 1, and hands each component to
the known-topology fitter.
"""

import numpy as np

from latent_ising import (
    TreeTopology,
    WeightedTree,
    correlations,
    exact_tv,
    learn_unknown,
    learn_unknown_from_correlations,
    normalize,
    reconstruct_forest,
    sample,
    topologies_equal,
)

# A 6-leaf caterpillar with mid-range weights.
edges = [(1, 7), (2, 7), (7, 8), (3, 8), (8, 9), (4, 9), (9, 10), (5, 10), (6, 10)]
topo = TreeTopology(range(1, 7), edges)
rng = np.random.Generator(np.random.Philox(key=19))
truth = WeightedTree(topo, {e: float(rng.uniform(0.3, 0.7)) for e in topo.edges})

print("exact correlations in, model out:")
forest = learn_unknown_from_correlations(correlations(truth), eta=1e-9)
print(f"  components: {[c.topology.leaves for c in forest.components]}")
print(f"  topology recovered: {topologies_equal(normalize(forest.components[0]).topology, topo)}")
print(f"  exact TV to truth: {exact_tv(truth, forest):.2e}")

print("\nhalf a million samples in, model out:")
draws = sample(truth, 500_000, seed=3)
forest = learn_unknown(draws, delta_conf=0.05)
print(f"  components: {[c.topology.leaves for c in forest.components]}")
print(f"  exact TV to truth: {exact_tv(truth, forest):.4f}")

print("\na weak bridge splits the forest:")
star_edges = [(1, 7), (2, 7), (3, 7), (7, 8), (4, 8), (5, 8), (6, 8)]
two_stars = TreeTopology(range(1, 7), star_edges)
theta = {e: 0.6 for e in star_edges}
theta[(7, 8)] = 0.01
bridged = WeightedTree(two_stars, theta)
rec = reconstruct_forest(correlations(bridged), xi=0.08, eta=0.02)
print(f"  components: {[sorted(s) for s in rec.leaf_sets()]}")

print("\na near-unit internal edge is contracted rather than guessed:")
theta = {e: float(rng.uniform(0.4, 0.6)) for e in topo.edges}
theta[(8, 9)] = 0.999
tied = WeightedTree(topo, theta)
rec = reconstruct_forest(correlations(tied), xi=0.05, eta=1e-6)
component = rec.components[0]
print(f"  component is binary: {component.is_binary()} "
      f"(a degree-4 junction marks the unresolved tie)")
