"""Stepwise interpolation between two tree topologies.

The procedure rewrites a source topology into a target by a sequence of
cut-and-paste moves, organized in rounds and epochs: each epoch slides one
node (with its already-finished block) along the path to its partner until
the two become a cherry; each round sweeps the current working set of
blocks.  Per move it records the set of quartets whose induced split
changes, which is exactly the combinatorial quantity the total-variation
localization arguments charge against.  That set is the product of four
disjoint leaf blocks, read off the working tree's kept walk by
``trees.path_nodes`` and ``trees._beyond``.

The weaker of the two candidate nodes moves: the side whose strongest
correlation to the future common neighbor, read from the target's path
products (``trees._path_products``), is smaller.  That choice keeps every
changed quartet close to a tie when the two models have close correlations.

Nothing is derived twice: the target's cherries are read once from its
adjacency, and each working block carries its leaves' sorted positions and
its root, the working-tree node that, cut from the rest, keeps exactly the
block's leaves.  Each epoch's last paste returns the renumbering that carries
the roots on; the merged block's root is the pasted node, or the common
neighbour when the pair was already a cherry.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import FrozenSet, Iterator, List, Optional, Tuple, Union

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
    _attach,
    _beyond,
    _detach,
    _pair_index,
    _path_products,
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
    anchor: FrozenSet[int]  # leaves of the stationary partner block
    blocks: Tuple[Tuple[int, ...], ...]  # four sorted leaf blocks; see _epoch_moves
    max_gap: float  # largest product gap among the changed quartets

    @property
    def block(self) -> FrozenSet[int]:
        """The leaves carried by the moved block, the first of ``blocks``."""
        return frozenset(self.blocks[0])

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
            step if isinstance(step, TreeTopology) else _attach(*step)[0] for step in self.steps
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
    return [_attach(cut, (nodes[r], nodes[r + 1]))[0] for r in range(1, len(nodes) - 1)]


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
    if alpha.labels != source.leaves:
        raise DimensionMismatch("correlation vector covers a different leaf set")

    steps: List[Union[TreeTopology, Paste]] = [source]
    moves: List[Move] = []
    current = source
    epochs = 0
    rounds = 0
    n = source.leaf_count
    magnitudes = np.zeros((n, n))  # |alpha| by sorted leaf position
    a, b = _pair_index(n)
    magnitudes[a, b] = magnitudes[b, a] = np.abs(alpha.values)
    row = target_topology._walk[1]  # a target node's position in its walk
    signal = np.abs(_path_products(target))
    # every target cherry (i, j, p), i < j around p, in the order of the pairs (i, j)
    cherries = sorted(
        (i, j, p)
        for p in target_topology.nodes
        for i, j in itertools.combinations(target_topology.neighbors(p), 2)
    )
    # each working block, keyed by its target node: the node of ``current``
    # that roots it, and its leaves' sorted positions
    root = {leaf: leaf for leaf in source.leaves}
    members = {leaf: [k] for k, leaf in enumerate(source.leaves)}
    while len(root) >= 4:
        rounds += 1
        live = set(root)  # blocks merged in this round wait for the next
        for i, j, p in cherries:
            if i not in live or j not in live:
                continue
            live -= {i, j}
            ends = {i: root.pop(i), j: root.pop(j)}
            joined = _common_neighbor(current, ends[i], ends[j])
            if joined is None:
                # the side with the weaker peak |signal| to p moves; on a tie, i
                peak = signal[row[p]]
                stronger = peak[members[i]].max() > peak[members[j]].max()
                mover, anchor = (j, i) if stronger else (i, j)
                anchored = frozenset(source.leaves[k] for k in members[anchor])
                epochs += 1
                for blocks, max_gap, paste in _epoch_moves(
                    current, ends[mover], ends[anchor], magnitudes
                ):
                    moves.append(Move(epochs, rounds, mover, anchored, blocks, max_gap))
                    steps.append(paste)
                current, renumber = _attach(*paste)
                steps[-1] = current
                root = {w: renumber[r] for w, r in root.items()}
                joined = renumber[paste[0].t]  # the cut's t joins the new cherry
            root[p] = joined
            members[p] = members.pop(i) + members.pop(j)
    return InterpolationTrace(tuple(steps), tuple(moves), epochs, rounds)


def _epoch_moves(
    current: TreeTopology, ra: int, rb: int, magnitudes: np.ndarray
) -> Iterator[Tuple[Tuple[Tuple[int, ...], ...], float, Paste]]:
    """(blocks, max_gap, paste record) of each paste of ``ra`` along its path
    to ``rb``, the roots of the moving and the anchored block that
    :func:`interpolate` carries, so each is one end of its block's edge.

    The path, and the leaves beyond each of its edges, are read off
    ``current``'s walk (:func:`path_nodes`, :func:`_beyond`).  A leaf's
    position counts the path edges it lies beyond, seen from ra; paste k
    changes exactly the quartets with one leaf at each of positions 0 (ra's
    side), 1..k, k+1 and above k+1.  The leaves are sorted by position once
    and ``magnitudes``, the dense |alpha| matrix over ``current``'s sorted
    leaves, is gathered in that order, so every block is a slice.  ra is cut
    once; each target is a path edge beyond nodes[1], on the far side of the
    cut, so a paste is the shared cut and its target edge, built only by
    :func:`_attach`.
    """
    nodes = path_nodes(current, ra, rb)
    length = len(nodes) - 1  # >= 3: blocks are not adjacent and not a cherry
    rows = [current._walk[1][v] for v in nodes]
    # row q: the leaves beyond path edge q, seen from ra
    toward = _beyond(current, np.array([rows[:-1], rows[1:]]).T)
    position = toward.sum(axis=0)
    order = np.argsort(position)
    labels = np.array(current.leaves)[order].tolist()
    mag = magnitudes[order[:, None], order]
    ends = np.cumsum(np.bincount(position, minlength=length + 1)).tolist()
    cut = _detach(current, ra, nodes[1])
    a = slice(0, ends[0])
    block_a = tuple(sorted(labels[a]))
    for k in range(1, length - 1):
        b, c, d = slice(ends[0], ends[k]), slice(ends[k], ends[k + 1]), slice(ends[k + 1], None)
        # the pairings ab|cd, ac|bd, ad|bc broadcast over (a, b, c, d); the gap is
        # their max minus min, both exact, so np.ptp without stacking
        low = mag[a, b][:, :, None, None] * mag[c, d]
        other = mag[a, c][:, None, :, None] * mag[b, d][:, None, :]
        high = np.maximum(low, other)
        np.minimum(low, other, out=low)
        np.multiply(mag[a, d][:, None, None, :], mag[b, c][:, :, None], out=other)
        np.maximum(high, other, out=high)
        np.minimum(low, other, out=low)
        high -= low
        yield (
            (block_a, *(tuple(sorted(labels[s])) for s in (b, c, d))),
            float(high.max(initial=0.0)),
            (cut, (nodes[k + 1], nodes[k + 2])),
        )


def trace_to_json(trace: InterpolationTrace) -> dict:
    """JSON-friendly summary: per-move changed-quartet sizes and bounds."""
    moves = [
        {
            "epoch": m.epoch,
            "round": m.round,
            "moved": m.moved,
            "block": list(m.blocks[0]),
            "changed_quartets": m.quartet_count,
            "max_gap": m.max_gap,
        }
        for m in trace.moves
    ]
    return {
        "epochs": trace.epochs,
        "rounds": trace.rounds,
        "moves": moves,
        "total_changed_quartets": sum(m["changed_quartets"] for m in moves),
    }
