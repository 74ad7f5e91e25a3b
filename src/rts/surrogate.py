"""Surrogate ascent direction from reward differentials, no backpropagation.

The estimate is a reward-weighted sum of the unit tangent perturbations:

    g = Σ_i [(R(m_i) − R(z)) / D] · ŵ_i,   D = Σ_i R(m_i) + R(z).

The denominator only normalizes scale, so the magnitude |D| is used, floored
at 1e-8 against blow-up. A signed denominator would flip g into a descent
direction whenever rewards are uniformly negative (e.g. quadratic distance
rewards), breaking the estimator's alignment with the true ascent direction;
with the magnitude, scaling all rewards by c > 0 still leaves g unchanged.
``estimate_gradient`` returns g itself, a ``(d,)`` array, or ``(S, d)`` for
a block of S scored neighborhoods, each row bit for bit its own estimate.
"""

from __future__ import annotations

import numpy as np

from .core import DimensionError, Latent, NonFiniteError, PreconditionError
from .sphere import NeighborSet

_DENOMINATOR_FLOOR = 1e-8


def estimate_gradient(base_reward, neighbors: NeighborSet) -> Latent:
    """Estimate the ascent direction ``g`` from a scored NeighborSet.

    The result lies in the span of the perturbations, hence tangent to the
    base direction. Requires ``neighbors.rewards`` to be populated, one per
    perturbation row (and ``base_reward`` one per base); other rewards raise
    ``DimensionError``.
    """
    if neighbors.rewards is None:
        raise PreconditionError("neighbors must carry rewards; score the candidates first")
    rewards = np.asarray(neighbors.rewards, dtype=np.float64)
    base_reward = np.asarray(base_reward, dtype=np.float64)
    if rewards.shape != neighbors.perturbations.shape[:-1] or base_reward.shape != rewards.shape[:-1]:
        raise DimensionError(f"rewards of shape {rewards.shape} for {neighbors.perturbations.shape[-2]} "
                             f"perturbations per base reward of shape {base_reward.shape}")
    if not (np.isfinite(base_reward).all() and np.isfinite(rewards).all()):
        raise NonFiniteError("rewards must be finite")
    scale = np.maximum(np.abs(rewards.sum(axis=-1) + base_reward), _DENOMINATOR_FLOOR)
    coefficients = (rewards - base_reward[..., None]) / scale[..., None]
    # each row as the 1-D coefficients @ perturbations sums it
    g = (coefficients[..., None, :] @ neighbors.perturbations)[..., 0, :]
    if not np.isfinite(g).all():
        raise NonFiniteError("surrogate gradient is non-finite")
    return g
