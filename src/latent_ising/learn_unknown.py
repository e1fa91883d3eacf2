"""Unknown-topology learning: reconstruct a forest, then fit each component.

Reconstruction runs on |correlations| (the ferromagnetic view); the sign
structure is restored per component by the known-topology fitter's parity
stage.  Parameters follow the radius-splitting recipe delta = eta^{2/3}
n^{2/3}, xi = eta^{1/3} n^{-2/3}.  Reconstruction splits components at
2*eta and does not take delta; the ratio delta = eta / xi only decides
whether the working radius is clamped.

Each component is fitted at the smallest feasible radius from eta up: at
eta itself when that fit exists, otherwise at the upper end of a geometric
bisection between eta and 1 that stops once its bracket is within a factor
``RADIUS_BRACKET``.  A larger radius loosens every interval and keeps a
subset of the sign equations, so feasibility only grows with the radius,
and radius 1 is always feasible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BadParameter, NoConsistentModel
from .estimation import empirical_correlations
from .learn_known import fit_known
from .reconstruct import reconstruct_forest
from .trees import CorrelationVector, TreeTopology, WeightedForest, WeightedTree

#: smallest fitting radius used when correlations are exact
MIN_FIT_RADIUS = 1e-9

#: the regime eta <= C1^3 / n in which xi is not clamped, and xi <= C1 / n when it is
C1 = 1.0

#: the fallback search stops once its radius bracket is within this factor
RADIUS_BRACKET = 1.05


@dataclass(frozen=True)
class UnknownLearnConfig:
    """Radii and split parameters for one unknown-topology run.

    ``eta`` is the working radius: reconstruction splits components at
    2 * eta, and each component is fitted at the smallest feasible radius
    from eta up.  ``clamped`` flags inputs outside the eta <= O(1/n) regime;
    the stored eta is then lowered to at most 0.9 * xi when eta / xi >= 1.
    """

    eta: float
    xi: float
    clamped: bool


def choose_params(eta: float, n: int) -> UnknownLearnConfig:
    """Split a correlation radius eta into reconstruction parameters."""
    if not (math.isfinite(eta) and eta > 0.0):
        raise BadParameter(f"eta must be finite and positive, got {eta}")
    if n < 2:
        raise BadParameter(f"need at least two leaves, got {n}")
    xi = eta ** (1.0 / 3.0) * n ** (-2.0 / 3.0)
    clamped = False
    if eta > min(1.0, C1 ** 3 / n):
        clamped = True
        xi = min(xi, C1 / n, 0.9)
    delta = eta / xi  # equals eta^{2/3} n^{2/3} in the nominal regime
    if delta >= 1.0:
        clamped = True
        delta = 0.9
    eta_eff = min(eta, xi * delta)
    return UnknownLearnConfig(eta=eta_eff, xi=xi, clamped=clamped)


def _fit_component(
    topology: TreeTopology, alpha_hat: CorrelationVector, eta: float
) -> WeightedTree:
    # When the component topology matches the truth the targets are
    # realizable within eta; otherwise bisect for the smallest feasible radius.
    low = max(eta, MIN_FIT_RADIUS)
    try:
        return fit_known(topology, alpha_hat, low).tree
    except NoConsistentModel:
        pass
    high, fit = 1.0, None
    while high > low * RADIUS_BRACKET:
        mid = math.sqrt(low * high)
        try:
            fit, high = fit_known(topology, alpha_hat, mid), mid
        except NoConsistentModel:
            low = mid
    return (fit or fit_known(topology, alpha_hat, high)).tree


def learn_unknown_from_correlations(alpha_hat: CorrelationVector, eta: float) -> WeightedForest:
    """Reconstruct and fit a weighted forest from estimated correlations."""
    cfg = choose_params(eta, alpha_hat.n)
    rec = reconstruct_forest(alpha_hat, xi=cfg.xi, eta=cfg.eta)
    components = [_fit_component(t, alpha_hat, cfg.eta) for t in rec.components]
    return WeightedForest(components)


def learn_unknown(samples: np.ndarray, delta_conf: float) -> WeightedForest:
    """Full pipeline: estimate correlations, reconstruct, fit per component."""
    report = empirical_correlations(samples, delta_conf)
    return learn_unknown_from_correlations(report.alpha_hat, report.eta)
