"""Surrogate ascent direction from reward differentials, no backpropagation.

The estimate is a reward-weighted sum of the unit tangent perturbations:

    g = Σ_i [(R(m_i) − R(z)) / D] · ŵ_i,   D = Σ_i R(m_i) + R(z).

The denominator only normalizes scale, so the magnitude |D| is used, floored
at 1e-8 against blow-up. A signed denominator would flip g into a descent
direction whenever rewards are uniformly negative (e.g. quadratic distance
rewards), breaking the estimator's alignment with the true ascent direction;
with the magnitude, scaling all rewards by c > 0 still leaves g unchanged.
``estimate_gradient`` returns g itself, a ``(d,)`` array.
"""

from __future__ import annotations

import numpy as np

from .core import DimensionError, Latent, NonFiniteError, PreconditionError
from .sphere import NeighborSet

_DENOMINATOR_FLOOR = 1e-8


def estimate_gradient(base_reward: float, neighbors: NeighborSet) -> Latent:
    """Estimate the ascent direction ``g`` from a scored NeighborSet.

    The result lies in the span of the perturbations, hence tangent to the
    base direction. Requires ``neighbors.rewards`` to be populated, one per
    perturbation row; other rewards raise ``DimensionError``.
    """
    if neighbors.rewards is None:
        raise PreconditionError("neighbors must carry rewards; score the candidates first")
    rewards = np.asarray(neighbors.rewards, dtype=np.float64)
    if rewards.shape != (len(neighbors.perturbations),):
        raise DimensionError(f"rewards of shape {rewards.shape} for {len(neighbors.perturbations)} perturbations")
    if not np.isfinite(base_reward) or not np.all(np.isfinite(rewards)):
        raise NonFiniteError("rewards must be finite")
    denominator = float(np.sum(rewards) + base_reward)
    scale = max(abs(denominator), _DENOMINATOR_FLOOR)
    coefficients = (rewards - base_reward) / scale
    g = coefficients @ neighbors.perturbations
    if not np.all(np.isfinite(g)):
        raise NonFiniteError("surrogate gradient is non-finite")
    return g
