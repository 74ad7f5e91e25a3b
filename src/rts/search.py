"""Coarse-to-fine alternating search over latents on the reward landscape.

Rounds are 1-indexed. Odd rounds are coarse: move the base by the greedy
relocation rule (adopt the previous round's best candidate only when it
strictly beats the previous base reward, otherwise resample), then draw
random spherical neighbors and estimate a surrogate gradient from their
rewards. Even rounds are fine: keep the base and re-form the neighborhood by
blending the stored perturbations with the gradient direction. The gradient
used by a fine round always comes from the immediately preceding coarse
round and is never carried across cycle boundaries.

Each round hands its candidates to the evaluator as one ``(n, d)`` batch:
a coarse round scores ``[base; neighbors]`` in one call, a fine round its
neighbors in one call.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .core import (
    DegenerateGradientError,
    DimensionError,
    Latent,
    NonFiniteError,
    PreconditionError,
    RngStream,
    as_integer,
    as_latent,
    sample_gaussian,
)
from .sphere import NeighborSet, guided_spherical_sample, random_spherical_sample
from .surrogate import estimate_gradient

logger = logging.getLogger(__name__)

# An evaluator maps an (n, d) batch of latents, one per row, to their n
# rewards. Calls may consume NFEs through a denoiser; each reward must be a
# deterministic function of its row alone, so that scoring is independent of
# order and batching.
Evaluator = Callable[[np.ndarray], np.ndarray]

# Most neighbours a round may sample (and most best-of-N candidates), far
# above the handful a search uses; an absurd count is refused up front
# instead of failing to allocate a round.
MAX_NEIGHBORS = 10_000

_STREAM_RESAMPLE = 0
_STREAM_NEIGHBORS = 1


@dataclass(frozen=True)
class SearchConfig:
    """Knobs of the alternating search.

    ``rounds = 0`` is allowed so that pipelines can disable a phase outright;
    ``run_search`` itself requires at least one round. With
    ``track_global_best`` the search returns the best latent seen anywhere,
    otherwise it returns the argmax over the final round's candidates only.
    """

    n_neighbors: int = 3
    rounds: int = 4
    tau: float = 0.9
    alpha: float = 0.7
    track_global_best: bool = True

    def __post_init__(self) -> None:
        as_integer(self.n_neighbors, "n_neighbors", 1, MAX_NEIGHBORS)
        as_integer(self.rounds, "rounds", 0)
        if not (0.0 <= self.tau <= 1.0):
            raise PreconditionError(f"tau must lie in [0, 1], got {self.tau}")
        if not (0.0 <= self.alpha <= 1.0):
            raise PreconditionError(f"alpha must lie in [0, 1], got {self.alpha}")


@dataclass(frozen=True)
class RoundSummary:
    round: int
    kind: str
    base_reward: float
    best_candidate_reward: float
    best_so_far: float
    guided_fallback: bool = False


@dataclass(frozen=True)
class SearchState:
    """Bookkeeping between rounds: base, gradient, last candidates, best yet.

    ``round`` is the 1-indexed number of the next round to execute.
    ``seed_base`` preempts the fresh Gaussian in round 1; ``resample_base``
    replaces the fresh Gaussian in every later no-relocation branch. Both
    default to None, meaning standard normal resampling.
    """

    dim: int
    round: int = 1
    base: Latent | None = None
    base_reward: float = float("-inf")
    last_gradient: Latent | None = None
    last_perturbations: np.ndarray | None = None
    last_candidates: np.ndarray | None = None
    last_rewards: np.ndarray | None = None
    global_best: Latent | None = None
    global_best_reward: float = float("-inf")
    seed_base: Latent | None = None
    resample_base: Latent | None = None
    history: tuple[RoundSummary, ...] = field(default_factory=tuple)


def _score(evaluate: Evaluator, batch: np.ndarray) -> np.ndarray:
    rewards = np.asarray(evaluate(batch), dtype=np.float64)
    if rewards.shape != (batch.shape[0],):
        raise DimensionError(f"evaluator must return {batch.shape[0]} rewards, got shape {rewards.shape}")
    if not np.all(np.isfinite(rewards)):
        raise NonFiniteError(f"evaluator returned a non-finite reward for row {int(np.argmin(np.isfinite(rewards)))}")
    return rewards


def _fold_best(state_best: Latent | None, state_reward: float, latents, rewards) -> tuple[Latent | None, float]:
    """Adopt the first best row only when it strictly beats the state, so earlier ties win."""
    i = int(np.argmax(rewards))
    if rewards[i] > state_reward:
        return latents[i], float(rewards[i])
    return state_best, state_reward


def _end_round(state: SearchState, kind: str, rows, scores, neighbors: NeighborSet, rewards,
               fallback: bool = False, **changes) -> SearchState:
    """Fold the scored ``rows`` into the best so far, summarize the round and advance the state.

    ``rewards`` are the neighbors' scores; ``changes`` sets what only one kind of round changes.
    """
    best, best_reward = _fold_best(state.global_best, state.global_best_reward, rows, scores)
    summary = RoundSummary(state.round, kind, changes.get("base_reward", state.base_reward),
                           float(np.max(rewards)), best_reward, fallback)
    return replace(
        state,
        round=state.round + 1,
        last_perturbations=neighbors.perturbations,
        last_candidates=neighbors.candidates,
        last_rewards=rewards,
        global_best=best,
        global_best_reward=best_reward,
        history=state.history + (summary,),
        **changes,
    )


def coarse_round(state: SearchState, cfg: SearchConfig, evaluate: Evaluator, stream: RngStream) -> SearchState:
    """Relocate or resample the base, then explore random spherical neighbors."""
    if state.round % 2 != 1:
        raise PreconditionError(f"coarse rounds run at odd round numbers, got {state.round}")
    if state.last_rewards is not None and float(np.max(state.last_rewards)) > state.base_reward:
        best_idx = int(np.argmax(state.last_rewards))
        base = state.last_candidates[best_idx]
    elif state.round == 1 and state.seed_base is not None:
        base = state.seed_base
    elif state.round > 1 and state.resample_base is not None:
        base = state.resample_base
    else:
        base = sample_gaussian(stream.child(_STREAM_RESAMPLE), state.dim)

    neighbors = random_spherical_sample(base, cfg.n_neighbors, cfg.tau, stream.child(_STREAM_NEIGHBORS))
    batch = np.vstack([base, neighbors.candidates])
    scores = _score(evaluate, batch)
    base_reward, rewards = float(scores[0]), scores[1:]
    gradient = estimate_gradient(base_reward, neighbors.with_rewards(rewards))
    return _end_round(state, "coarse", batch, scores, neighbors, rewards,
                      base=base, base_reward=base_reward, last_gradient=gradient)


def fine_round(state: SearchState, cfg: SearchConfig, evaluate: Evaluator, stream: RngStream) -> SearchState:
    """Exploit the stored gradient around the unchanged base."""
    if state.round % 2 != 0:
        raise PreconditionError(f"fine rounds run at even round numbers, got {state.round}")
    if state.last_gradient is None or state.last_perturbations is None:
        raise PreconditionError("fine round requires the preceding coarse round's gradient")

    fallback = False
    try:
        neighbors = guided_spherical_sample(
            state.base,
            cfg.n_neighbors,
            cfg.tau,
            cfg.alpha,
            state.last_gradient,
            state.last_perturbations,
            stream.child(_STREAM_NEIGHBORS),
        )
    except DegenerateGradientError:
        logger.info("round %d: degenerate gradient, falling back to random sampling", state.round)
        fallback = True
        neighbors = random_spherical_sample(state.base, cfg.n_neighbors, cfg.tau, stream.child(_STREAM_NEIGHBORS))
    rewards = _score(evaluate, neighbors.candidates)
    return _end_round(state, "fine", neighbors.candidates, rewards, neighbors, rewards, fallback, last_gradient=None)


def run_search(
    z0: Latent,
    cfg: SearchConfig,
    evaluate: Evaluator,
    stream: RngStream,
    *,
    start_from_z0: bool = False,
    resample_to_z0: bool = False,
) -> tuple[Latent, float, tuple[RoundSummary, ...]]:
    """Alternate coarse and fine rounds for ``cfg.rounds`` rounds.

    ``z0`` fixes the dimension. By default round 1 samples a fresh Gaussian
    base; ``start_from_z0`` adopts ``z0`` as the round-1 base instead, and
    ``resample_to_z0`` pins later no-relocation branches to ``z0`` rather
    than fresh noise (both used by the intermediate-noise phase).

    Exactly ``rounds * n_neighbors`` candidate evaluations plus one base
    evaluation per coarse round are performed.
    """
    if cfg.rounds < 1:
        raise PreconditionError(f"run_search needs at least one round, got {cfg.rounds}")
    z0 = as_latent(z0)
    state = SearchState(
        dim=z0.shape[0],
        seed_base=z0 if start_from_z0 else None,
        resample_base=z0 if resample_to_z0 else None,
    )
    for t in range(1, cfg.rounds + 1):
        step = coarse_round if t % 2 == 1 else fine_round
        state = step(state, cfg, evaluate, stream.child(t))

    if cfg.track_global_best:
        return state.global_best, state.global_best_reward, state.history
    final_idx = int(np.argmax(state.last_rewards))
    return state.last_candidates[final_idx], float(state.last_rewards[final_idx]), state.history
