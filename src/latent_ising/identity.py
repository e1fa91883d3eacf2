"""Identity testing: are samples drawn from a given reference model?

The statistic is the largest deviation between empirical pairwise
correlations and the reference's correlations; the decision threshold adds
the estimation radius to the slack that total-variation localization
affords, eps / (C * n^5 * D).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BadParameter
from .estimation import empirical_correlations, require_sample_columns
from .trees import as_forest, correlations, diameter

#: constant from the different-topology total-variation bound
DEFAULT_TV_CONSTANT = 42.0


@dataclass(frozen=True)
class TestVerdict:
    decision: str  # "accept" or "reject"
    statistic: float
    threshold: float

    @property
    def accepted(self) -> bool:
        return self.decision == "accept"


def required_samples(n: int, diameter: int, eps: float, delta: float) -> int:
    """Sample count sufficient to separate equal from eps-far models.

    Evaluates ceil(n^10 * D^2 * log(n/delta) / eps^2); astronomically
    large for realistic sizes, which is the honest reading of the rate.
    """
    if n < 2 or diameter < 1:
        raise BadParameter("need n >= 2 and diameter >= 1")
    if not 0.0 < eps <= 1.0:
        raise BadParameter(f"eps must be in (0, 1], got {eps}")
    if not 0.0 < delta < 1.0:
        raise BadParameter(f"delta must be in (0, 1), got {delta}")
    try:  # eps ** 2 may be 0, or the count beyond float range
        return math.ceil(n ** 10 * diameter ** 2 * math.log(n / delta) / eps ** 2)
    except (ZeroDivisionError, OverflowError):
        raise BadParameter(f"the sample count at n={n}, eps={eps} is beyond float range") from None


def test_identity(
    samples: np.ndarray,
    reference,
    eps: float,
    delta: float,
) -> TestVerdict:
    """Accept when every pairwise deviation stays under the threshold.

    If the samples come from the reference, all deviations are within the
    Hoeffding radius with probability 1 - delta, so the verdict is accept;
    a model eps-far in total variation must disagree on some pair by more
    than eps / (C * n^5 * D), which the threshold leaves room to detect.
    """
    if not 0.0 < eps <= 1.0:
        raise BadParameter(f"eps must be in (0, 1], got {eps}")
    ref = as_forest(reference)
    require_sample_columns(samples, ref.leaves, "reference")
    report = empirical_correlations(samples, delta)
    statistic = report.alpha_hat.max_abs_difference(correlations(reference))
    d = max(1, *(diameter(c.topology) for c in ref.components))
    threshold = report.eta + eps / (DEFAULT_TV_CONSTANT * ref.n ** 5 * d)
    decision = "reject" if statistic > threshold else "accept"
    return TestVerdict(decision=decision, statistic=statistic, threshold=threshold)
