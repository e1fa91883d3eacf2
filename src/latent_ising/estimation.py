"""Empirical pairwise correlations with Hoeffding confidence radii."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import BadParameter, BadSpinValue, DimensionMismatch, EmptySample
from .trees import CorrelationVector


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
    return math.sqrt(2.0 * math.log(n * n / delta) / m)


def _all_spins(x: np.ndarray) -> bool:
    """True when every entry of ``x`` is -1 or +1, as ``np.isin(x, (-1, 1))`` says."""
    if x.dtype.kind in "biuf":  # real numbers; abs(int8 -128) wraps to -128 and fails
        return bool(np.all(np.abs(x) == 1))
    return bool(np.all(np.isin(x, (-1, 1))))  # complex (|1j| is 1), object, text


def empirical_correlations(samples: np.ndarray, delta: float) -> EstimationReport:
    """Mean-of-products estimate for every leaf pair.

    ``samples`` is an (m, n) matrix with entries in {-1, +1}, one row per
    independent draw.
    """
    samples = np.asarray(samples)
    if samples.ndim != 2 or samples.shape[0] < 1:
        raise EmptySample(f"sample matrix must be (m, n) with m >= 1, got {samples.shape}")
    if not _all_spins(samples):
        raise BadSpinValue("sample entries must be -1 or +1")
    m, n = samples.shape
    eta = confidence_radius(n, delta, m)
    x = samples.astype(np.float64)
    gram = x.T @ x / m
    values = gram[np.triu_indices(n, k=1)]
    alpha_hat = CorrelationVector(range(1, n + 1), np.clip(values, -1.0, 1.0))
    return EstimationReport(alpha_hat=alpha_hat, m=m, delta=delta, eta=eta)


def require_unit_labels(leaves, what: str) -> None:
    """Reject leaf labels other than 1..n, the column labels used above."""
    if tuple(leaves) != tuple(range(1, len(leaves) + 1)):
        raise DimensionMismatch(f"{what} leaves must be labeled 1..n")


def samples_for_radius(n: int, delta: float, eta: float) -> int:
    """Smallest m whose confidence radius is at most ``eta``."""
    if not eta > 0.0:  # NaN fails the test too
        raise BadParameter(f"radius must be positive, got {eta}")
    if not 0.0 < delta < 1.0:
        raise BadParameter(f"delta must be in (0, 1), got {delta}")
    if n < 2:
        raise BadParameter(f"need at least two leaves, got {n}")
    m = max(1, math.ceil(2.0 * math.log(n * n / delta) / (eta * eta)))
    while m > 1 and confidence_radius(n, delta, m - 1) <= eta:
        m -= 1
    while confidence_radius(n, delta, m) > eta:
        m += 1
    return m


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
