"""Interpolating between topologies and testing identity from samples.

The interpolation rewrites one tree into another cherry by cherry, moving
the weaker side of each future cherry along its path.  Per move it records
the quartets whose split flips, as four leaf blocks whose product they are;
between models with close correlations, only near-tie quartets ever flip,
which is what localizes total variation.
"""

import numpy as np

from latent_ising import (
    TreeTopology,
    WeightedTree,
    correlations,
    exact_tv,
    interpolate,
    random_topology,
    random_weighted_tree,
    sample,
    test_identity,
    trace_to_json,
)

rng = np.random.Generator(np.random.Philox(key=29))
source = random_topology(8, rng)
target = random_weighted_tree(8, rng, 0.25, 0.85)
alpha = correlations(WeightedTree(source, {e: 0.5 for e in source.edges}))

trace = interpolate(source, target, alpha)
print(f"interpolating an 8-leaf pair: {trace.epochs} epochs over {trace.rounds} rounds")
for move in trace.moves:
    print(
        f"  round {move.round} epoch {move.epoch}: block {sorted(move.block)} moved, "
        f"{move.quartet_count} quartets changed, max gap {move.max_gap:.4f}"
    )
print("summary:", trace_to_json(trace)["total_changed_quartets"], "quartet changes in total")

print("\nidentity testing:")
star = TreeTopology([1, 2, 3], [(1, 4), (2, 4), (3, 4)])
uniform = WeightedTree(star, {e: 0.0 for e in star.edges})
chain = WeightedTree(star, {e: 1.0 for e in star.edges})
print(f"TV(chain, uniform) = {exact_tv(chain, uniform)} (all spins equal vs coin flips)")

draws = sample(chain, 10_000, seed=1)
verdict = test_identity(draws, uniform, eps=0.5, delta=0.05)
print(
    f"chain samples against the uniform reference -> {verdict.decision} "
    f"(statistic {verdict.statistic:.4f} vs threshold {verdict.threshold:.4f})"
)

draws = sample(uniform, 10_000, seed=2)
verdict = test_identity(draws, uniform, eps=0.5, delta=0.05)
print(
    f"uniform samples against the uniform reference -> {verdict.decision} "
    f"(statistic {verdict.statistic:.4f} vs threshold {verdict.threshold:.4f})"
)
