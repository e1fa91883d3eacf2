"""Exact leaf-distribution evaluation, sampling, and total variation.

Two independent routes to the leaf distribution are kept side by side:

* a closed form that sums, over even leaf subsets, the product of
  correlations along the subset's unique edge-disjoint pair matching
  (a multilinear function of the correlation vector, defined even when the
  vector is not realizable on the tree), and
* direct marginalization of the internal spins by message passing.

The closed form powers the exact total-variation oracle; marginalization is
the cross-check.  Both routes run batched over configurations and share
nothing but the topology's walk and the leaf axes, ``_leaf_axes``.  Every dense
table passes ``_check_enumerable``, the one place that enforces the
``MAX_EXACT_LEAVES`` cap.  Both read one boolean per leaf (is the ``k``-th
smallest leaf +1?); enumerated, leaf k varies along axis ``n - 1 - k`` of a
C-ordered ``(2,) * n`` table, so the flat index of every table is the bitmask.

The exact table of a tree is that of the one-component forest: the product
of its components' closed-form tables, each broadcast over its own leaves.  A
tree or forest keeps its table once built (``_model_table``), as it keeps its
correlations; ``closed_form_distribution`` and ``marginal_distribution`` keep
nothing and return a fresh array, and marginalization reads no kept value.
"""

from __future__ import annotations

import contextlib
import functools
import io
import os
import re
import stat
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import (
    BadParameter,
    BadSpinValue,
    DimensionMismatch,
    EmptySample,
    MalformedTree,
    TooLarge,
    UnknownLeaf,
    UnknownPair,
)
from .estimation import _BLOCK_ROWS, _all_spins, require_sample_size
from .trees import (
    CorrelationVector,
    TreeTopology,
    WeightedForest,
    WeightedTree,
    _dense,
    _matching_pairs,
    _pair_index,
    _path_incidence,
    _set,
    as_forest,
    binary,
    correlations,
    normalize,
)

#: the one cap on dense enumeration: closed form, marginalization and TV
MAX_EXACT_LEAVES = 20

Model = Union[WeightedTree, WeightedForest, Tuple[TreeTopology, CorrelationVector]]


# ---------------------------------------------------------------------------
# configurations


def config_index(topology_or_labels, x: Sequence[int]) -> int:
    """Bitmask of a spin configuration (bit k set when leaf k is +1)."""
    labels = (
        topology_or_labels.leaves
        if isinstance(topology_or_labels, TreeTopology)
        else tuple(topology_or_labels)
    )
    bits = _check_config(len(labels), x)
    return sum(1 << k for k, bit in enumerate(bits) if bit)


def _check_config(n: int, x: Sequence[int]) -> np.ndarray:
    """The configuration as one boolean row: entry k is leaf k's spin being +1."""
    arr = np.asarray(x)
    if arr.shape != (n,):
        raise DimensionMismatch(f"configuration has length {arr.shape}, tree has {n} leaves")
    if not _all_spins(arr):
        raise DimensionMismatch("spins must be -1 or +1")
    return arr > 0


def _check_enumerable(n: int) -> None:
    if n > MAX_EXACT_LEAVES:
        raise TooLarge(f"{n} leaves is beyond dense enumeration")


def _leaf_axes(n: int) -> List[np.ndarray]:
    """Every configuration over ``n`` leaves, within the enumeration cap: leaf
    k is ``[False, True]`` along axis ``n - 1 - k`` of the ``(2,) * n`` table."""
    _check_enumerable(n)
    return [np.array([False, True]).reshape((2,) + (1,) * k) for k in range(n)]


# ---------------------------------------------------------------------------
# even-subset coefficients and the closed form


def even_subset_coefficients(topology: TreeTopology, alpha: CorrelationVector) -> np.ndarray:
    """Full-length (2^n) coefficient vector: matching products on even subsets.

    ``value[i, j]`` is the correlation of leaves ``i`` and ``j``, read from the
    vector's kept matrix (``_dense``), and 1.0 on row and column ``n``;
    ``take`` at each meeting's flat index multiplies in its closing pair's
    correlation, or 1.0 where none closes.
    """
    if alpha.labels != topology.leaves:
        raise DimensionMismatch("correlation vector covers a different leaf set")
    n = topology.leaf_count
    spins = _leaf_axes(n)
    value = np.ones((n + 1, n + 1))
    value[:n, :n] = _dense(alpha)
    coef = 1.0
    for index in _matching_pairs(topology, spins):
        coef = coef * value.take(index)
    return np.where(functools.reduce(np.logical_xor, spins), 0.0, coef).reshape(-1)


def _fwht(vec: np.ndarray) -> np.ndarray:
    """In-place-free fast Walsh-Hadamard transform (even-subset character sums).

    Self-sorting (Stockham) radix-2 passes: pass ``j`` writes the span-``2**j``
    sums and differences of the pairs ``a[0::2]``, ``a[1::2]`` into the two
    halves of the other buffer, so the bits end in order and the sums and
    their order are the radix-2 ones.
    """
    a, b = vec.copy(), np.empty_like(vec)
    half = a.size // 2
    for _ in range(half.bit_length()):
        np.add(a[0::2], a[1::2], out=b[:half])
        np.subtract(a[0::2], a[1::2], out=b[half:])
        a, b = b, a
    return a


def closed_form_distribution(topology: TreeTopology, alpha: CorrelationVector) -> np.ndarray:
    """Evaluate the multilinear leaf form at every configuration.

    For an induced correlation vector this is the leaf distribution; for an
    arbitrary vector it is its multilinear extension and entries may be
    negative.
    """
    topology = _as_binary(topology)
    coef = even_subset_coefficients(topology, alpha)
    return _fwht(coef) / (2 ** topology.leaf_count)


def closed_form_prob(topology: TreeTopology, alpha: CorrelationVector, x: Sequence[int]) -> float:
    """The multilinear leaf form at one configuration."""
    index = config_index(topology, x)
    return float(closed_form_distribution(topology, alpha)[index])


def _as_binary(topology: TreeTopology) -> TreeTopology:
    if topology.is_binary():
        return topology
    contracted = binary(topology)
    if not contracted.is_binary():
        raise MalformedTree("topology has internal degree above 3")
    return contracted


# ---------------------------------------------------------------------------
# marginalization oracle


def _marginalize(tree: WeightedTree, spins: Sequence[np.ndarray]) -> np.ndarray:
    """Leaf probability at every configuration the per-leaf ``spins`` broadcast to.

    Internal spins are summed out by message passing towards the smallest
    leaf; each message is a pair of arrays over the leaves below, the
    subtree's contribution as a function of its top spin being +1 or -1, kept
    by walk position.  A leaf's starts as its spin's indicator and any other as
    1, and the walk folds each node's into its parent's, children ascending.
    """
    order, _, up, _, leaf_rows = tree.topology._walk
    message: List[Optional[Tuple[np.ndarray, np.ndarray]]] = [(1.0, 1.0)] * len(order)
    for spin, r in zip(spins, leaf_rows):
        message[r] = (spin.astype(float), (~spin).astype(float))
    for k, p in enumerate(up):
        th = tree.weight(order[k], order[p])
        (cp, cm), message[k] = message[k], None  # folded into its parent's
        plus, minus = message[p]
        message[p] = (plus * (0.5 * ((1.0 + th) * cp + (1.0 - th) * cm)),
                      minus * (0.5 * ((1.0 - th) * cp + (1.0 + th) * cm)))
    return 0.5 * np.where(spins[0], *message[-1])  # the root, last: its spin picks a side


def marginalize_prob(tree: WeightedTree, x: Sequence[int]) -> float:
    """Exact leaf probability by summing out internal spins along the tree.

    Works on any valid weighted tree (no degree restrictions) and any leaf
    count; serves as the independent cross-check of the closed form.
    """
    return float(_marginalize(tree, _check_config(tree.topology.leaf_count, x)))


def marginal_distribution(tree: WeightedTree) -> np.ndarray:
    """Full leaf distribution via marginalization of every configuration."""
    return _marginalize(tree, _leaf_axes(tree.topology.leaf_count)).reshape(-1)


# ---------------------------------------------------------------------------
# sampling


def _generator(seed: int) -> np.random.Generator:
    """The counter-based generator keyed by ``seed``, one of 0 .. 2**128 - 1.

    ``gen`` draws weights from the ``Generator`` and ``sample`` reads raw words
    from its ``bit_generator``: one Philox key for both.
    """
    seed = int(seed)
    if seed < 0:
        raise BadParameter("seed must be non-negative")
    if seed >= 2 ** 128:
        raise BadParameter(f"seed must be below 2**128, got {seed}")
    return np.random.Generator(np.random.Philox(key=seed))


def sample(model: Union[WeightedTree, WeightedForest], m: int, seed: int) -> np.ndarray:
    """Draw ``m`` i.i.d. leaf configurations as an (m, n) matrix of +-1 spins.

    The root spin is uniform and each spin copies its neighbor with
    probability (1 + theta)/2.  Randomness comes from a counter-based
    generator keyed by ``seed``.  Components consume the stream one after
    another, each for all ``m`` rows; within a component the stream is read
    row-major, one raw 64-bit word per node per row in root-first order (the
    topology's walk reversed), so output is reproducible and independent of
    the block size.  Each word is compared with an integer threshold, not a float:
    ``Generator.random`` would make ``u = (w >> 11) * 2**-53`` of word ``w``,
    and for ``t`` in [0, 1], ``u >= t`` exactly when ``w >> 11 >= ceil(t * 2**53)``.
    Rows are drawn ``_BLOCK_ROWS`` at a time (the block size of every pass
    over a sample matrix, defined in ``estimation``), each block's words freed
    before the next, so working memory is O(block x nodes) beside the ``int8``
    output; an output numpy cannot shape raises ``TooLarge``.
    """
    if m < 1:
        raise EmptySample(f"need at least one sample, got {m}")
    words = _generator(seed).bit_generator
    forest = as_forest(model)
    labels = forest.leaves
    require_sample_size(m, len(labels))
    out = np.empty((m, len(labels)), dtype=np.int8)
    for tree in forest.components:
        order, _, up, _, leaf_rows = tree.topology._walk
        # a node flips against its parent (the root, last, against +1) when u >= t
        t = np.array([(1.0 + tree.weight(order[p], v)) / 2.0 for v, p in zip(order, up)] + [0.5])
        threshold = np.ceil(t * 2.0 ** 53).astype(np.uint64)[:, None]
        leaf_cols = np.searchsorted(labels, tree.leaves)
        flips = np.empty((len(order), min(m, _BLOCK_ROWS)), dtype=bool)  # by walk position
        for start in range(0, m, _BLOCK_ROWS):
            rows = min(_BLOCK_ROWS, m - start)
            u = words.random_raw(rows * len(order)).reshape(rows, len(order))
            u >>= 11
            flip = np.greater_equal(u.T[::-1], threshold, out=flips[:, :rows])  # words root first
            del u  # free the words before the next block draws its own
            for k in reversed(range(len(up))):  # each parent before its children
                flip[k] ^= flip[up[k]]
            out[start:start + rows, leaf_cols] = (1 - 2 * flip[leaf_rows].view(np.int8)).T
    return out


# ---------------------------------------------------------------------------
# sample files: optional "# n=<n> m=<m>" header, then one row of +-1 per line

_HEADER = re.compile(r"#\s*n=(?P<n>\d+)\s+m=(?P<m>\d+)")

#: the header ``write_samples`` emits, the only one the block decoder takes
_GRID_HEADER = re.compile(rb"# n=(\d+) m=(\d+)\n")

#: the longest first line read as a candidate header: two 20-digit counts fit
_GRID_HEADER_BYTES = 64


@contextlib.contextmanager
def _overwrite(path):
    """Open ``path`` for writing as a binary file, overwriting it in place.

    The file is created if missing and opened without ``O_TRUNC``; when the
    block exits, by an exception too, a regular file is cut to exactly the
    bytes written.  A symlink is written through, and a FIFO or a device is
    never truncated.  Truncating a non-empty file to zero on open would make
    ext4 (``auto_da_alloc``) start writeback at close.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0), 0o666)
    with open(fd, "wb") as fh:
        try:
            yield fh
        finally:
            try:
                fh.flush()
            finally:
                if stat.S_ISREG(os.fstat(fd).st_mode):
                    os.ftruncate(fd, os.lseek(fd, 0, os.SEEK_CUR))


def write_samples(path, samples: np.ndarray) -> None:
    """Write an (m, n) matrix of -1/+1 spins as a sample file.

    The layout is the header ``# n=<n> m=<m>`` and then ``m`` rows of ``n``
    three-byte cells, ``+1 `` or ``-1 ``, where the last space of each row is
    the newline.  ``read_samples`` decodes exactly this layout block by
    block.  Raises ``EmptySample`` unless ``samples`` is 2-D with ``m, n >= 1``
    and ``BadSpinValue`` unless every entry is -1 or +1.

    An existing file is overwritten in place: a symlink is written through,
    and a FIFO or a device is not truncated.
    """
    samples = np.asarray(samples)
    if samples.ndim != 2 or min(samples.shape) < 1:
        raise EmptySample(f"sample matrix must be (m, n) with m, n >= 1, got {samples.shape}")
    if not _all_spins(samples):
        raise BadSpinValue("sample entries must be -1 or +1")
    m, n = samples.shape
    buffer = np.full((min(m, _BLOCK_ROWS), 3 * n), ord(" "), dtype=np.uint8)
    buffer[:, 1::3] = ord("1")
    buffer[:, -1] = ord("\n")
    with _overwrite(path) as fh:
        fh.write(f"# n={n} m={m}\n".encode())
        for start in range(0, m, _BLOCK_ROWS):
            block = samples[start:start + _BLOCK_ROWS]
            if block.dtype.kind not in "biuf":  # complex, object: signed as block > 0 says
                block = np.where(block > 0, 1, -1)
            rows = buffer[:len(block)]
            np.subtract(44, block, out=rows[:, 0::3], casting="unsafe")  # '+' 43, '-' 45
            fh.write(rows)


def read_samples(path) -> np.ndarray:
    """Read a sample file as a C-contiguous (m, n) ``int8`` matrix of -1/+1.

    Grammar: one row of whitespace-separated integer tokens per draw.  Blank
    lines are skipped and a line that starts with ``#`` is a comment; the
    first comment of the form ``# n=<n> m=<m>`` is the header.  Rows of
    unequal length, a header that disagrees with the rows and entries other
    than -1 and +1 are rejected.

    A regular file in the exact layout ``write_samples`` emits is read once,
    block by block, into the output.  Any other file is read whole and goes
    through the token reader: other spacing, CRLF, comments, ``+01``, no
    header, every malformed file, and any file from a pipe.  A written-layout
    file with a bad cell is read twice, the second time by the token reader.
    The block decoder takes only files on which the token reader returns the
    same array, so results and errors do not depend on which reader ran.
    """
    with open(path, "rb") as fh:
        head = fh.readline(_GRID_HEADER_BYTES)
        samples = _decode_grid(fh, head)
        if samples is not None:
            return samples
        if fh.seekable():
            fh.seek(0)
            raw = fh.read()
        else:  # a pipe: the head is already read
            raw = head + fh.read()
    return _read_tokens(path, raw)


def _decode_grid(fh, head: bytes) -> Optional[np.ndarray]:
    """The matrix of a file in ``write_samples``' exact layout; None otherwise.

    ``head`` is the first line of ``fh``, which is read just past it.  Only a
    regular file qualifies: a pipe's size is not its length, and a pipe could
    not be read again after a bad block.  Each block of rows is read into one
    buffer, its signs are decoded, and then with every sign byte set to ``+``
    the block must equal the all ``+1`` rows.
    """
    header = _GRID_HEADER.fullmatch(head)
    if header is None:
        return None
    n, m = int(header[1]), int(header[2])
    status, size = os.fstat(fh.fileno()), len(head) + 3 * n * m
    if min(n, m) < 1 or not stat.S_ISREG(status.st_mode) or status.st_size != size:
        return None
    row = np.frombuffer(b"+1 " * (n - 1) + b"+1\n", dtype=np.uint8)
    template = np.tile(row, (min(m, _BLOCK_ROWS), 1))
    buffer = np.empty_like(template)
    out = np.empty((m, n), dtype=np.int8)
    for start in range(0, m, _BLOCK_ROWS):
        rows = buffer[:min(_BLOCK_ROWS, m - start)]
        if fh.readinto(rows) != rows.nbytes:
            return None
        block = out[start:start + len(rows)]
        np.subtract(44, rows[:, 0::3], out=block, casting="unsafe")  # '+' 1, '-' -1
        rows[:, 0::3] = ord("+")
        if not (np.array_equal(rows, template[:len(rows)]) and np.all(np.abs(block) == 1)):
            return None
    return out


def _read_tokens(path, raw: bytes) -> np.ndarray:
    """Parse ``raw`` token by token: any layout the grammar allows."""
    try:  # decoded as open(path) would: locale encoding, universal newlines
        text = io.TextIOWrapper(io.BytesIO(raw)).read()
    except ValueError as exc:
        raise BadSpinValue(f"sample file {path} has a non-integer entry: {exc}") from None
    rows, header = [], None
    for line in text.split("\n"):
        line = line.strip()
        if not line or line.startswith("#"):
            header = header or _HEADER.fullmatch(line)
        else:
            rows.append(line)
    if not rows:
        raise EmptySample(f"no sample rows in {path}")
    try:  # numpy >= 2 only: 1.x read "1.5" or "257" through a float, with a warning
        samples = np.loadtxt(rows, dtype=np.int8, comments=None, ndmin=2)
    except ValueError:
        # a non-integer token outranks ragged rows, which outrank out-of-range integers
        try:
            np.loadtxt([" ".join(rows)], dtype=np.int64, comments=None)
        except ValueError:
            raise BadSpinValue(f"sample file {path} has a non-integer entry") from None
        if len({len(row.split()) for row in rows}) > 1:
            raise DimensionMismatch(f"sample rows in {path} differ in length") from None
        raise BadSpinValue("sample file contains entries outside {-1, +1}") from None
    if not _all_spins(samples):
        raise BadSpinValue("sample file contains entries outside {-1, +1}")
    if header and (int(header["n"]), int(header["m"])) != (samples.shape[1], samples.shape[0]):
        raise DimensionMismatch(
            f"header of {path} says n={header['n']} m={header['m']}, "
            f"data has n={samples.shape[1]} m={samples.shape[0]}"
        )
    return samples


# ---------------------------------------------------------------------------
# exact total variation


def _model_table(model: Model) -> np.ndarray:
    """Dense table over the sorted leaves; a tree is the one-component forest.

    Axis ``a`` of the C-ordered ``(2,) * n`` table is bit ``n - 1 - a``, so a
    component's table, reshaped with a 2 on its leaves' axes, keeps its bit
    order; the product starts from the first component's.  A tree's or a
    forest's table is built on first read and kept on ``model`` itself as
    ``_table``, read-only: 2^n float64, at most 8 MB at the cap, for as long as
    the model lives.  A (topology, vector) pair's is built on every call.
    """
    if isinstance(model, tuple):
        topology, alpha = model
        return closed_form_distribution(topology, alpha)
    forest = as_forest(model)
    labels = forest.leaves
    if model._table is not None:
        return model._table
    n = len(labels)
    _check_enumerable(n)
    parts = []
    for tree in forest.components:
        if tree.topology.leaf_count == 1:  # measured faster: 0.4 vs 71 us, 3.9 a verify-n12 trial
            closed = np.array([0.5, 0.5])
        else:
            # normalize only renumbers a binary tree; skipping it: verify-n12 59.4 vs 56.2 trials/s
            norm = tree if tree.topology.is_binary() else normalize(tree)
            closed = closed_form_distribution(norm.topology, correlations(norm))
        shape = np.ones(n, dtype=int)
        shape[n - 1 - np.searchsorted(labels, tree.leaves)] = 2
        parts.append(closed.reshape(shape))
    table = functools.reduce(np.multiply, parts).reshape(-1)
    table.flags.writeable = False
    _set(model, "_table", table)
    return table


def exact_tv(a: Model, b: Model) -> float:
    """Total variation between two leaf models by direct enumeration.

    Accepts weighted trees, forests, or (topology, correlation-vector)
    pairs; the latter need not be realizable, in which case the multilinear
    extension is compared.  Limited to ``MAX_EXACT_LEAVES`` (20) leaves.  A
    tree or forest is enumerated once and keeps its table (see
    ``_model_table``), so comparing one truth with many fits builds its table
    once; a pair is enumerated on every call.
    """
    labels_a, labels_b = (
        m[0].leaves if isinstance(m, tuple) else as_forest(m).leaves for m in (a, b)
    )
    if labels_a != labels_b:
        raise DimensionMismatch(f"leaf sets differ: {labels_a} vs {labels_b}")
    return float(0.5 * np.abs(_model_table(a) - _model_table(b)).sum())


# ---------------------------------------------------------------------------
# path removal


def path_removed(
    alpha: CorrelationVector, topology: TreeTopology, removal: Sequence[int]
) -> CorrelationVector:
    """Zero every pair whose path shares an edge with the removal paths.

    ``removal`` is a leaf pair or a quartet; its removal paths are all
    pairwise paths among the removal leaves.
    """
    members = tuple(removal)
    if len(set(members)) != len(members) or len(members) not in (2, 4):
        raise UnknownPair(f"removal must be 2 or 4 distinct leaves, got {members}")
    for v in members:
        if not topology.is_leaf(v):
            raise UnknownLeaf(f"{v} is not a leaf of the tree")
    if alpha.labels != topology.leaves:
        raise DimensionMismatch("correlation vector covers a different leaf set")
    incidence = _path_incidence(topology)
    removal = np.isin(topology.leaves, members)
    a, b = _pair_index(topology.leaf_count)
    removed_edges = incidence[removal[a] & removal[b]].any(axis=0)
    hit = incidence[:, removed_edges].any(axis=1)
    return CorrelationVector(alpha.labels, np.where(hit, 0.0, alpha.values))
