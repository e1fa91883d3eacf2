"""Empirical pairwise correlations with Hoeffding confidence radii."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import BadParameter, BadSpinValue, DimensionMismatch, EmptySample, TooLarge
from .trees import CorrelationVector, _pair_index


@dataclass(frozen=True)
class EstimationReport:
    """Estimated correlations plus the radius they are trusted to."""

    alpha_hat: CorrelationVector
    m: int
    delta: float
    eta: float


def confidence_radius(n: int, delta: float, m: int) -> float:
    """Hoeffding radius: with probability 1 - delta every pairwise estimate
    from m samples is within sqrt(2 log(n^2/delta) / m) of the truth."""
    if not 0.0 < delta < 1.0:
        raise BadParameter(f"delta must be in (0, 1), got {delta}")
    if m < 1:
        raise EmptySample(f"need at least one sample, got {m}")
    if n < 2:
        raise BadParameter(f"need at least two leaves, got {n}")
    square = 2.0 * math.log(n * n / delta)
    try:
        return math.sqrt(square / m)
    except OverflowError:  # float(m) overflows; math.log takes any int
        return math.exp(0.5 * (math.log(square) - math.log(m)))


def require_sample_size(m: int, n: int) -> None:
    """Reject m draws of n leaves whose matrix numpy would refuse to shape."""
    if int(m) * n > np.iinfo(np.intp).max:
        raise TooLarge(f"{m} samples of {n} leaves are more than one array can hold")


#: rows per block for every pass over a sample matrix, the sample-file writer and reader's too
_BLOCK_ROWS = 4096


def _all_spins(x: np.ndarray) -> bool:
    """True when every entry of ``x`` is -1 or +1, as ``np.isin(x, (-1, 1))`` says.

    Checks ``_BLOCK_ROWS`` rows at a time (a 1-D input is one row) and stops
    at the first block that fails.
    """
    if x.ndim < 2:
        x = x.reshape(1, -1)
    for start in range(0, len(x), _BLOCK_ROWS):
        block = x[start:start + _BLOCK_ROWS]
        if block.dtype.kind in "biuf":  # real numbers; abs(int8 -128) wraps to -128 and fails
            ok = np.all(np.abs(block) == 1)
        else:  # complex (|1j| is 1), object, text
            ok = np.all(np.isin(block, (-1, 1)))
        if not ok:
            return False
    return True


def empirical_correlations(samples: np.ndarray, delta: float) -> EstimationReport:
    """Mean-of-products estimate for every leaf pair.

    ``samples`` is an (m, n) matrix with entries in {-1, +1}, one row per
    independent draw.  The Gram matrix is summed over ``_BLOCK_ROWS``-row
    blocks, so working memory is O(block x n + n^2) beside the input.
    """
    samples = np.asarray(samples)
    if samples.ndim != 2 or samples.shape[0] < 1:
        raise EmptySample(f"sample matrix must be (m, n) with m >= 1, got {samples.shape}")
    if not _all_spins(samples):
        raise BadSpinValue("sample entries must be -1 or +1")
    m, n = samples.shape
    eta = confidence_radius(n, delta, m)
    # Exact, so alpha_hat is bit-identical to the float64 x.T @ x / m: a block's
    # Gram entries are integers of magnitude <= _BLOCK_ROWS < 2**24, which float32
    # holds exactly whatever order BLAS adds in, and the float64 running sums are
    # integers of magnitude <= m < 2**53.
    gram = np.zeros((n, n))
    for start in range(0, m, _BLOCK_ROWS):
        block = samples[start:start + _BLOCK_ROWS].astype(np.float32)
        gram += block.T @ block
    gram /= m  # integers of magnitude <= m over m: within [-1, 1] exactly
    alpha_hat = CorrelationVector(range(1, n + 1), gram[_pair_index(n)])
    return EstimationReport(alpha_hat=alpha_hat, m=m, delta=delta, eta=eta)


def require_unit_labels(leaves, what: str) -> None:
    """Reject leaf labels other than 1..n, the column labels used above."""
    if tuple(leaves) != tuple(range(1, len(leaves) + 1)):
        raise DimensionMismatch(f"{what} leaves must be labeled 1..n")


def require_sample_columns(samples: np.ndarray, leaves, what: str) -> None:
    """Reject a sample matrix that is not 2-D, as :func:`empirical_correlations`
    does, or whose column count is not the number of ``leaves``; then leaves
    other than 1..n, naming the model ``what``."""
    shape = np.shape(samples)
    if len(shape) != 2:
        raise EmptySample(f"sample matrix must be (m, n) with m >= 1, got {shape}")
    if shape[1] != len(leaves):
        raise DimensionMismatch(
            f"samples have {shape[1]} columns, topology has {len(leaves)} leaves"
        )
    require_unit_labels(leaves, what)


def samples_for_radius(n: int, delta: float, eta: float) -> int:
    """Smallest m whose confidence radius is at most ``eta``."""
    if not eta > 0.0:  # NaN fails the test too
        raise BadParameter(f"radius must be positive, got {eta}")
    if not 0.0 < delta < 1.0:
        raise BadParameter(f"delta must be in (0, 1), got {delta}")
    if n < 2:
        raise BadParameter(f"need at least two leaves, got {n}")
    try:  # eta * eta may be 0, or the count beyond float range
        guess = max(1, math.ceil(2.0 * math.log(n * n / delta) / (eta * eta)))
        lo, hi = guess // 2, 2 * guess  # radius above eta at lo, within it at hi
        while hi - lo > 1:  # bisect, since past 2**53 floats skip integers
            mid = (lo + hi) // 2
            lo, hi = (lo, mid) if confidence_radius(n, delta, mid) <= eta else (mid, hi)
    except (ZeroDivisionError, OverflowError):
        raise BadParameter(f"the sample count for radius {eta} is beyond float range") from None
    return hi


def report_to_json(report: EstimationReport) -> str:
    payload = {
        "n": report.alpha_hat.n,
        "m": report.m,
        "delta": report.delta,
        "eta": report.eta,
        "alpha": [[i, j, v] for i, j, v in report.alpha_hat.pairs()],
    }
    return json.dumps(payload, sort_keys=True)


def report_from_json(text: str) -> EstimationReport:
    payload = json.loads(text)
    labels = range(1, payload["n"] + 1)
    pairs = {(i, j): v for i, j, v in payload["alpha"]}
    alpha = CorrelationVector.from_pairs(labels, pairs)
    return EstimationReport(
        alpha_hat=alpha, m=payload["m"], delta=payload["delta"], eta=payload["eta"]
    )
