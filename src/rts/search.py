"""Coarse-to-fine alternating search over latents on the reward landscape.

Rounds are 1-indexed. Odd rounds are coarse: move the base by the greedy
relocation rule (adopt the previous round's best candidate only when it
strictly beats the previous base reward, otherwise resample), then draw
random spherical neighbors and estimate a surrogate gradient from their
rewards. Even rounds are fine: keep the base and re-form the neighborhood by
blending the stored perturbations with the gradient direction, or sample at
random where the gradient has no tangential part. The gradient used by a
fine round always comes from the immediately preceding coarse round and is
never carried across cycle boundaries.

Each round hands its candidates to the evaluator as one ``(n, d)`` batch:
a coarse round scores ``[base; neighbors]`` in one call, a fine round its
neighbors in one call.

A search runs one seed, with a ``(d,)`` start and an ``RngStream``, or a
lockstep block of S seeds, with an ``(S, d)`` start and a ``StreamBlock``:
then every state field and every ``RoundSummary`` reward gets a leading seed
axis, each round hands the evaluator one ``(S, n, d)`` batch, and each seed
follows, bit for bit, the search it would run alone.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .core import (
    DimensionError,
    Latent,
    NonFiniteError,
    PreconditionError,
    RngStream,
    StreamBlock,
    as_integer,
    as_latent,
    check_scalar,
    sample_gaussian,
)
from .sphere import NeighborSet, guided_spherical_sample, random_spherical_sample
from .surrogate import estimate_gradient

logger = logging.getLogger(__name__)

# An evaluator maps an (n, d) batch of latents, one per row, to their n
# rewards, and a block's (S, n, d) batch to (S, n). Calls may consume NFEs
# through a denoiser; each reward must be a deterministic function of its row
# alone, so that scoring is independent of order and batching.
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
        check_scalar(self.tau, "tau", 0, 1)
        check_scalar(self.alpha, "alpha", 0, 1)
        check_scalar(self.track_global_best, "track_global_best", kind=bool)


@dataclass(frozen=True)
class RoundSummary:
    """One round's rewards: floats for one seed, ``(S,)`` arrays for a block.

    ``guided_fallback`` counts the seeds whose fine round fell back to random
    sampling (0 or 1 for one seed).
    """

    round: int
    kind: str
    base_reward: float
    best_candidate_reward: float
    best_so_far: float
    guided_fallback: int = 0


@dataclass(frozen=True)
class SearchState:
    """Bookkeeping between rounds: base, gradient, last candidates, best yet.

    ``round`` is the 1-indexed number of the next round to execute.
    ``seed_base`` preempts the fresh Gaussian in round 1; ``resample_base``
    replaces the fresh Gaussian in every later no-relocation branch. Both
    default to None, meaning standard normal resampling. The fields of a
    lockstep block carry a leading seed axis.
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


def _scalar(value):
    """One seed's reward as a float; a block's stays an array."""
    return float(value) if np.ndim(value) == 0 else value


def _score(evaluate: Evaluator, batch: np.ndarray) -> np.ndarray:
    rewards = np.asarray(evaluate(batch), dtype=np.float64)
    if rewards.shape != batch.shape[:-1]:
        raise DimensionError(f"evaluator must return rewards of shape {batch.shape[:-1]}, got shape {rewards.shape}")
    if not np.isfinite(rewards).all():
        raise NonFiniteError(f"evaluator returned a non-finite reward for row {int(np.argmin(np.isfinite(rewards)))}")
    return rewards


def _best_rows(latents: np.ndarray, rewards: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each seed's first best row ``(..., d)`` and its reward, for one seed or a block."""
    i = rewards.argmax(axis=-1)
    index = (np.arange(i.shape[0]), i) if i.ndim else i
    return latents[index], rewards[index]


def _fold_best(state_best: Latent | None, state_reward, latents, rewards):
    """Adopt the first best row only when it strictly beats the state, so earlier ties win."""
    row, top = _best_rows(latents, rewards)
    adopt = top > state_reward
    if adopt.all():
        return row, _scalar(top)
    if state_best is None:
        state_best = row
    return np.where(adopt[..., None], row, state_best), _scalar(np.where(adopt, top, state_reward))


def _end_round(state: SearchState, kind: str, rows, scores, neighbors: NeighborSet, rewards,
               fallback: int = 0, **changes) -> SearchState:
    """Fold the scored ``rows`` into the best so far, summarize the round and advance the state.

    ``rewards`` are the neighbors' scores; ``changes`` sets what only one kind of round changes.
    """
    best, best_reward = _fold_best(state.global_best, state.global_best_reward, rows, scores)
    summary = RoundSummary(state.round, kind, changes.get("base_reward", state.base_reward),
                           _scalar(np.maximum.reduce(rewards, axis=-1)), best_reward, fallback)
    # what dataclasses.replace makes, without its per-field scan: a SearchState checks nothing on creation
    advanced = object.__new__(SearchState)
    advanced.__dict__.update(
        vars(state),
        round=state.round + 1,
        last_perturbations=neighbors.perturbations,
        last_candidates=neighbors.candidates,
        last_rewards=rewards,
        global_best=best,
        global_best_reward=best_reward,
        history=state.history + (summary,),
        **changes,
    )
    return advanced


def _next_base(state: SearchState, stream: StreamBlock) -> Latent:
    """Each seed's base: its previous round's best candidate if that strictly beat its base, else the fallback."""
    relocate = None  # which seeds relocate, None for none
    if state.last_rewards is not None:
        best, top = _best_rows(state.last_candidates, state.last_rewards)
        relocate = top > state.base_reward
        if relocate.all():
            return best
        if not relocate.any():
            relocate = None
    if state.round == 1 and state.seed_base is not None:
        other = state.seed_base
    elif state.round > 1 and state.resample_base is not None:
        other = state.resample_base
    elif relocate is None:
        return sample_gaussian(stream.child(_STREAM_RESAMPLE), state.dim)
    else:
        other = np.empty(stream.shape + (state.dim,))
        other[~relocate] = sample_gaussian(stream[~relocate].child(_STREAM_RESAMPLE), state.dim)
    return other if relocate is None else np.where(relocate[..., None], best, other)


def coarse_round(state: SearchState, cfg: SearchConfig, evaluate: Evaluator,
                 stream: RngStream | StreamBlock) -> SearchState:
    """Relocate or resample the base, then explore random spherical neighbors."""
    if state.round % 2 != 1:
        raise PreconditionError(f"coarse rounds run at odd round numbers, got {state.round}")
    stream = StreamBlock.of(stream)
    base = _next_base(state, stream)
    neighbors = random_spherical_sample(base, cfg.n_neighbors, cfg.tau, stream.child(_STREAM_NEIGHBORS))
    batch = np.concatenate([base[..., None, :], neighbors.candidates], axis=-2)
    scores = _score(evaluate, batch)
    base_reward, rewards = _scalar(scores[..., 0]), scores[..., 1:]
    gradient = estimate_gradient(base_reward, neighbors.with_rewards(rewards))
    return _end_round(state, "coarse", batch, scores, neighbors, rewards,
                      base=base, base_reward=base_reward, last_gradient=gradient)


def fine_round(state: SearchState, cfg: SearchConfig, evaluate: Evaluator,
               stream: RngStream | StreamBlock) -> SearchState:
    """Exploit the stored gradient around the unchanged base; a seed whose gradient is degenerate samples at random."""
    if state.round % 2 != 0:
        raise PreconditionError(f"fine rounds run at even round numbers, got {state.round}")
    if state.last_gradient is None or state.last_perturbations is None:
        raise PreconditionError("fine round requires the preceding coarse round's gradient")

    neighbors = guided_spherical_sample(state.base, cfg.n_neighbors, cfg.tau, cfg.alpha, state.last_gradient,
                                        state.last_perturbations, StreamBlock.of(stream).child(_STREAM_NEIGHBORS))
    fallback = int(np.count_nonzero(neighbors.fallback))
    if fallback:
        logger.info("round %d: degenerate gradient, falling back to random sampling", state.round)
    rewards = _score(evaluate, neighbors.candidates)
    return _end_round(state, "fine", neighbors.candidates, rewards, neighbors, rewards, fallback, last_gradient=None)


def run_search(
    z0: Latent,
    cfg: SearchConfig,
    evaluate: Evaluator,
    stream: RngStream | StreamBlock,
    *,
    start_from_z0: bool = False,
    resample_to_z0: bool = False,
) -> tuple[Latent, float, tuple[RoundSummary, ...]]:
    """Alternate coarse and fine rounds for ``cfg.rounds`` rounds.

    ``z0`` fixes the dimension: one ``(d,)`` start with an ``RngStream``, or
    ``(S, d)`` with a ``StreamBlock`` of S streams. By default round 1
    samples a fresh Gaussian base; ``start_from_z0`` adopts ``z0`` as the
    round-1 base instead, and ``resample_to_z0`` pins later no-relocation
    branches to ``z0`` rather than fresh noise (both used by the
    intermediate-noise phase).

    Exactly ``rounds * n_neighbors`` candidate evaluations plus one base
    evaluation per coarse round are performed, per seed.
    """
    if cfg.rounds < 1:
        raise PreconditionError(f"run_search needs at least one round, got {cfg.rounds}")
    z0 = as_latent(z0, batch=True)
    stream = StreamBlock.of(stream)
    if stream.shape != z0.shape[:-1]:
        raise PreconditionError(f"a start of shape {z0.shape} needs streams of shape {z0.shape[:-1]}, "
                                f"got {stream.shape}")
    state = SearchState(
        dim=z0.shape[-1],
        seed_base=z0 if start_from_z0 else None,
        resample_base=z0 if resample_to_z0 else None,
    )
    for t in range(1, cfg.rounds + 1):
        step = coarse_round if t % 2 == 1 else fine_round
        state = step(state, cfg, evaluate, stream.child(t))

    if cfg.track_global_best:
        return state.global_best, state.global_best_reward, state.history
    latent, reward = _best_rows(state.last_candidates, state.last_rewards)
    return latent, _scalar(reward), state.history
