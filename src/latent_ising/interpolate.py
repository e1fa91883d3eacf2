"""Stepwise interpolation between two tree topologies.

The procedure rewrites a source topology into a target by a sequence of
cut-and-paste moves, organized in rounds and epochs: each epoch slides one
node (with its already-finished block) along the path to its partner until
the two become a cherry; each round sweeps the current working set of
blocks.  Per move it records the set of quartets whose induced split
changes, which is exactly the combinatorial quantity the total-variation
localization arguments charge against.  That set is the product of four
disjoint leaf blocks, each read from the working tree's edge-split table.

The weaker of the two candidate nodes moves: the side whose strongest
correlation to the future common neighbor is smaller.  That choice is what
keeps every changed quartet close to a tie when the two models have close
correlation vectors.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, FrozenSet, Iterator, List, Optional, Tuple, Union

import numpy as np

from .errors import (
    AlreadyCherry,
    DimensionMismatch,
    LeafSetMismatch,
    MalformedTree,
    UnknownPair,
)
from .trees import (
    CorrelationVector,
    Edge,
    TreeTopology,
    WeightedTree,
    _Cut,
    _SPLIT_ORDER,
    _attach,
    _detach,
    _edge_splits,
    _postorder,
    _side,
    path_nodes,
)

Quartet = Tuple[int, int, int, int]
Paste = Tuple[_Cut, Edge]  # a step not yet built: ``_attach(*paste)``


@dataclass(frozen=True)
class Move:
    """One topology-changing paste step."""

    epoch: int
    round: int
    moved: int  # target-tree node whose block slides
    block: FrozenSet[int]  # leaves carried by the moved block
    anchor: FrozenSet[int]  # leaves of the stationary partner block
    blocks: Tuple[Tuple[int, ...], ...]  # four sorted leaf blocks; see _epoch_moves
    max_gap: float  # largest product gap among the changed quartets

    @property
    def changed_quartets(self) -> FrozenSet[Quartet]:
        """The changed quartets as ascending tuples, enumerated on demand."""
        return frozenset(tuple(sorted(q)) for q in itertools.product(*self.blocks))

    @property
    def quartet_count(self) -> int:
        return math.prod(len(b) for b in self.blocks)


@dataclass(frozen=True, eq=False)  # the cuts hold dicts: compare and hash by identity
class InterpolationTrace:
    """The moves of an interpolation and the trees between them.

    ``steps`` holds the source and then one entry per move.  The tree that
    ends each epoch is built; every other step is a paste record
    ``(cut, target_edge)`` that shares its epoch's cut, which no paste
    mutates.  ``topologies`` pastes, renumbers and validates those records
    on first read and caches the tuple.
    """

    steps: Tuple[Union[TreeTopology, Paste], ...]
    moves: Tuple[Move, ...]
    epochs: int
    rounds: int

    @cached_property
    def topologies(self) -> Tuple[TreeTopology, ...]:
        return tuple(
            step if isinstance(step, TreeTopology) else _attach(*step) for step in self.steps
        )

    @property
    def final(self) -> TreeTopology:
        return self.steps[-1]  # the source, or the tree that ends the last epoch


def is_cherry(topology: TreeTopology, i: int, j: int) -> bool:
    """True when the two nodes share a common neighbor."""
    if i == j:
        raise UnknownPair(f"cherry query with identical nodes {i}")
    return _common_neighbor(topology, i, j) is not None  # neighbors raises UnknownLeaf


def _common_neighbor(topology: TreeTopology, i: int, j: int) -> Optional[int]:
    shared = set(topology.neighbors(i)).intersection(topology.neighbors(j))
    return min(shared) if shared else None


def sequence(topology: TreeTopology, i: int, j: int) -> List[TreeTopology]:
    """Successive topologies pasting ``i`` at each path edge toward ``j``.

    The first element re-pastes ``i`` next to its current position and so
    equals the input up to isomorphism; the last has i and j as a cherry.
    ``i`` is cut from the path once; every path edge beyond it lies on the
    far side of that cut, so each step is one paste.
    """
    nodes = path_nodes(topology, i, j)
    if len(nodes) - 1 < 3:
        raise AlreadyCherry(f"nodes {i} and {j} are already adjacent or a cherry")
    cut = _detach(topology, i, nodes[1])
    return [_attach(cut, (nodes[r], nodes[r + 1])) for r in range(1, len(nodes) - 1)]


def interpolate(
    source: TreeTopology, target: WeightedTree, alpha: CorrelationVector
) -> InterpolationTrace:
    """Transform ``source`` into the target topology move by move.

    The target's weights supply the correlation signal used to pick which
    side of each future cherry moves; ``alpha`` is only consulted to record
    the product gap of each changed quartet for diagnostics.
    """
    target_topology = target.topology
    if source.leaves != target_topology.leaves:
        raise LeafSetMismatch(
            f"leaf sets differ: {source.leaves} vs {target_topology.leaves}"
        )
    if not source.is_binary() or not target_topology.is_binary():
        raise MalformedTree("interpolation needs normalized (degree-3) trees")
    if tuple(sorted(alpha.labels)) != source.leaves:
        raise DimensionMismatch("correlation vector covers a different leaf set")

    steps: List[Union[TreeTopology, Paste]] = [source]
    moves: List[Move] = []
    current = source
    epochs = 0
    rounds = 0
    n = source.leaf_count
    if n >= 4:
        magnitudes = np.zeros((n, n))  # |alpha| by sorted leaf position
        a, b = np.triu_indices(n, 1)
        magnitudes[a, b] = magnitudes[b, a] = np.abs(alpha.values)
        splits = _edge_splits(current)
        working = set(source.leaves)
        block: Dict[int, FrozenSet[int]] = {leaf: frozenset([leaf]) for leaf in source.leaves}
        while len(working) >= 4:
            rounds += 1
            snapshot = sorted(working)
            for i, j in itertools.combinations(snapshot, 2):
                if i not in working or j not in working:
                    continue
                p = _common_neighbor(target_topology, i, j)
                if p is None:
                    continue
                roots = dict(zip((i, j), _block_roots(current, splits, block[i], block[j])))
                if _common_neighbor(current, roots[i], roots[j]) is None:
                    mover, anchor = _pick_weaker(target, block, i, j, p)
                    epochs += 1
                    for blocks, max_gap, paste in _epoch_moves(
                        current, splits, roots[mover], roots[anchor], magnitudes
                    ):
                        moves.append(
                            Move(epochs, rounds, mover, block[mover], block[anchor], blocks, max_gap)
                        )
                        steps.append(paste)
                    current = steps[-1] = _attach(*steps[-1])
                    splits = _edge_splits(current)
                working.discard(i)
                working.discard(j)
                working.add(p)
                block[p] = block[i] | block[j]
    return InterpolationTrace(
        steps=tuple(steps),
        moves=tuple(moves),
        epochs=epochs,
        rounds=rounds,
    )


def _signal(target: WeightedTree, parent: Dict[int, Optional[int]], u: int) -> float:
    """|product of target weights| along the path from u to the root of the
    parent pointers ``parent``, multiplied in that order."""
    out = 1.0
    while parent[u] is not None:
        out *= abs(target.weight(u, parent[u]))
        u = parent[u]
    return out


def _pick_weaker(
    target: WeightedTree, block: Dict[int, FrozenSet[int]], i: int, j: int, p: int
) -> Tuple[int, int]:
    """Return (mover, anchor): the side with the weaker peak signal to p moves.

    Ties do not switch, so the lexicographically first candidate moves.
    """
    parent = _postorder(target.topology, p)[1]
    peak_i = max(_signal(target, parent, u) for u in sorted(block[i]))
    peak_j = max(_signal(target, parent, u) for u in sorted(block[j]))
    if peak_i > peak_j:
        return j, i
    return i, j


def _block_roots(topology: TreeTopology, splits: np.ndarray, *blocks: FrozenSet[int]) -> List[int]:
    """For each block, the node whose detached component holds exactly its
    leaves, found in the topology's edge-split table ``splits``."""
    roots = []
    for leaves in blocks:
        if len(leaves) == 1:
            roots.append(next(iter(leaves)))
            continue
        block = np.array([leaf in leaves for leaf in topology.leaves])
        same = (splits == block).all(axis=1)
        hits = np.flatnonzero(same | (splits != block).all(axis=1))
        if hits.size == 0:
            raise MalformedTree(f"no edge detaches exactly the block {sorted(leaves)}")
        u, v = topology.edges[hits[0]]
        roots.append(v if same[hits[0]] else u)
    return roots


def _epoch_moves(
    current: TreeTopology, splits: np.ndarray, ra: int, rb: int, magnitudes: np.ndarray
) -> Iterator[Tuple[Tuple[Tuple[int, ...], ...], float, Paste]]:
    """(blocks, max_gap, paste record) of each paste of ``ra`` along its path
    to ``rb``.

    Paste k changes exactly the quartets with one leaf in each block: ra's
    side, the subtrees hanging off path nodes 1..k, the one off node k+1,
    and everything beyond.  ``splits`` is the edge-split table of ``current``
    and ``magnitudes`` the dense |alpha| matrix over its sorted leaves.  ra
    is cut once; every target is a path edge beyond nodes[1], on the far
    side of the cut, so each paste is the shared cut and its target edge,
    built only by :func:`_attach`.
    """
    nodes = path_nodes(current, ra, rb)
    length = len(nodes) - 1  # >= 3: blocks are not adjacent and not a cherry
    # toward[q]: the leaves beyond path edge q, seen from ra; the sets shrink
    toward = [_side(current, splits, a, b) for a, b in zip(nodes, nodes[1:])]
    labels = np.array(current.leaves)
    cut = _detach(current, ra, nodes[1])
    for k in range(1, length - 1):
        masks = (~toward[0], toward[0] & ~toward[k], toward[k] & ~toward[k + 1], toward[k + 1])
        grid = np.ix_(*(np.flatnonzero(m) for m in masks))
        first, second, third = (
            (magnitudes[grid[ia], grid[ib]], magnitudes[grid[ic], grid[id_]])
            for ia, ib, ic, id_ in _SPLIT_ORDER
        )
        # the largest minus the smallest of the three products; max and min
        # are exact, so this is np.ptp over them, without stacking
        low = np.multiply(*first)
        other = np.multiply(*second)
        high = np.maximum(low, other)
        np.minimum(low, other, out=low)
        np.multiply(*third, out=other)
        np.maximum(high, other, out=high)
        np.minimum(low, other, out=low)
        high -= low
        yield (
            tuple(tuple(labels[m].tolist()) for m in masks),
            float(high.max(initial=0.0)),
            (cut, (nodes[k + 1], nodes[k + 2])),
        )


def trace_to_json(trace: InterpolationTrace) -> dict:
    """JSON-friendly summary: per-move changed-quartet sizes and bounds."""
    return {
        "epochs": trace.epochs,
        "rounds": trace.rounds,
        "moves": [
            {
                "epoch": m.epoch,
                "round": m.round,
                "moved": m.moved,
                "block": sorted(m.block),
                "changed_quartets": m.quartet_count,
                "max_gap": m.max_gap,
            }
            for m in trace.moves
        ],
        "total_changed_quartets": sum(m.quartet_count for m in trace.moves),
    }
