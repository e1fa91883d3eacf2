"""Forests of weighted trees with disjoint leaf sets.

A forest models independent tree Ising models side by side; it is the
output shape of the unknown-topology learner and the reference shape for
identity testing.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Tuple

import numpy as np

from .errors import BadParameter, LeafSetMismatch
from .trees import CorrelationVector, WeightedTree, _pair_index, _path_products, diameter


class WeightedForest:
    """Disjoint weighted trees; component leaf sets partition the label set."""

    __slots__ = ("components",)

    def __init__(self, components: Iterable[WeightedTree]):
        comps = sorted(components, key=lambda t: t.topology.leaves[0])
        seen: set = set()
        for comp in comps:
            overlap = seen.intersection(comp.topology.leaves)
            if overlap:
                raise LeafSetMismatch(f"leaves {sorted(overlap)} appear in two components")
            seen.update(comp.topology.leaves)
        if not comps:
            raise LeafSetMismatch("a forest needs at least one component")
        self.components: Tuple[WeightedTree, ...] = tuple(comps)

    @property
    def leaves(self) -> Tuple[int, ...]:
        return tuple(sorted(itertools.chain.from_iterable(c.topology.leaves for c in self.components)))

    @property
    def n(self) -> int:
        return len(self.leaves)

    def __repr__(self) -> str:  # pragma: no cover
        return f"WeightedForest({list(self.components)!r})"


def as_forest(model) -> WeightedForest:
    """Wrap a single weighted tree as a one-component forest."""
    if isinstance(model, WeightedForest):
        return model
    if isinstance(model, WeightedTree):
        return WeightedForest([model])
    raise BadParameter(f"cannot interpret {type(model).__name__} as a forest")


def forest_correlations(forest: WeightedForest) -> CorrelationVector:
    """Pairwise correlations of the forest; pairs across components are 0."""
    labels = forest.leaves
    dense = np.zeros((len(labels), len(labels)))
    for comp in forest.components:
        at = np.searchsorted(labels, comp.leaves)
        dense[np.ix_(at, at)] = _path_products(comp)[1][comp.topology._walk[4]].T
    return CorrelationVector(labels, dense[_pair_index(len(labels))])  # [a, b]: a to b


def forest_diameter(forest: WeightedForest) -> int:
    """Largest component diameter in edges (0 when all components are single leaves)."""
    return max(diameter(c.topology) for c in forest.components)

