"""Coarse-to-fine alternating search over latents on the reward landscape.

Rounds are 1-indexed. Odd rounds are coarse: move the base by the greedy
relocation rule, then score random spherical neighbors. Even rounds are
fine: keep the base, estimate a surrogate gradient from the preceding
coarse round's scored neighbors and re-form the neighborhood by blending
their perturbations with the gradient direction, or sample at random where
the gradient has no tangential part, which the round's
``RoundSummary.guided_fallback`` counts. The state keeps only the last
round's scored ``NeighborSet``, so a fine round's gradient always comes from
the immediately preceding coarse round and is never carried across cycles.

One improvement rule, ``_fold_best``, keeps the best so far and relocates:
a row replaces what is held only when it strictly beats it, the first of
tied rows winning. Relocation folds the last round's candidates into a
fallback base (the seed base in round 1, else a fresh Gaussian) held at
the last base reward.

Each round hands its candidates to the evaluator as one ``(n, d)`` batch:
a coarse round scores ``[base; neighbors]`` in one call, a fine round its
neighbors in one call. ``row_count`` states this layout.

A search runs one seed, with a ``(d,)`` start and an ``RngStream``, or a
lockstep block of S seeds, with an ``(S, d)`` start and a ``StreamBlock``:
then every state field and every ``RoundSummary`` reward gets a leading seed
axis, each round hands the evaluator one ``(S, n, d)`` batch, and each seed
follows, bit for bit, the search it would run alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .core import (
    Latent,
    RngStream,
    StreamBlock,
    as_integer,
    as_latent,
    check_scalar,
    sample_gaussian,
)
from .errors import DimensionError, NonFiniteError, PreconditionError
from .sphere import NeighborSet, guided_spherical_sample, random_spherical_sample
from .surrogate import estimate_gradient

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
    ``run_search`` itself requires at least one round.
    """

    n_neighbors: int = 3
    rounds: int = 4
    tau: float = 0.9
    alpha: float = 0.7

    def __post_init__(self) -> None:
        as_integer(self.n_neighbors, "n_neighbors", 1, MAX_NEIGHBORS)
        as_integer(self.rounds, "rounds", 0)
        check_scalar(self.tau, "tau", 0, 1)
        check_scalar(self.alpha, "alpha", 0, 1)


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


class SearchState(NamedTuple):
    """Bookkeeping between rounds: base, the last round's scored neighbors, best yet.

    A value: each round returns the state ``_replace``d with what it changed.
    ``round`` is the 1-indexed number of the next round to execute. ``last``
    is the last round's ``NeighborSet`` with its rewards, None before round 1.
    ``seed_base`` preempts the fresh Gaussian in round 1; None means standard
    normal resampling there too. The fields of a lockstep block carry a
    leading seed axis.
    """

    dim: int
    round: int = 1
    base: Latent | None = None
    base_reward: float = float("-inf")
    last: NeighborSet | None = None
    global_best: Latent | None = None
    global_best_reward: float = float("-inf")
    seed_base: Latent | None = None
    history: tuple[RoundSummary, ...] = ()


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


def _fold_best(held: Latent | None, held_reward, latents, rewards):
    """Fold the rows ``latents`` scored ``rewards`` into ``held``: each seed adopts its first best row only when it
    strictly beats ``held_reward``, so earlier ties win. Returns the rows held after and their rewards.

    ``held`` is None only against a reward of -inf, which every row beats: ``_score`` refuses non-finite rewards.
    """
    i = rewards.argmax(axis=-1)
    index = (np.arange(i.shape[0]), i) if i.ndim else i
    row, top = latents[index], rewards[index]
    adopt = top > held_reward
    if adopt.all():
        return row, _scalar(top)
    return np.where(adopt[..., None], row, held), _scalar(np.where(adopt, top, held_reward))


def _end_round(state: SearchState, kind: str, rows, scores, last: NeighborSet, **changes) -> SearchState:
    """Fold the scored ``rows`` into the best so far, summarize the round and advance the state.

    ``last`` is the round's scored neighbors; ``changes`` sets what only a coarse round changes.
    """
    best, best_reward = _fold_best(state.global_best, state.global_best_reward, rows, scores)
    summary = RoundSummary(state.round, kind, changes.get("base_reward", state.base_reward),
                           _scalar(np.maximum.reduce(last.rewards, axis=-1)), best_reward,
                           int(np.count_nonzero(last.fallback)))
    return state._replace(round=state.round + 1, last=last, global_best=best, global_best_reward=best_reward,
                          history=state.history + (summary,), **changes)


def _next_base(state: SearchState, stream: StreamBlock) -> Latent:
    """Each seed's base: its last round's candidates folded into its fallback held at its base reward, so the best
    candidate relocates the base only when it strictly beats that reward. The fallback is the seed base in round 1,
    else a fresh Gaussian drawn for every seed; a stream is a value, so a seed that relocates moves no other draw.
    """
    if state.round == 1 and state.seed_base is not None:
        fallback = state.seed_base
    else:
        fallback = sample_gaussian(stream.child(_STREAM_RESAMPLE), state.dim)
    if state.last is None:
        return fallback
    return _fold_best(fallback, state.base_reward, state.last.candidates, state.last.rewards)[0]


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
    return _end_round(state, "coarse", batch, scores, neighbors.with_rewards(scores[..., 1:]),
                      base=base, base_reward=_scalar(scores[..., 0]))


def fine_round(state: SearchState, cfg: SearchConfig, evaluate: Evaluator,
               stream: RngStream | StreamBlock) -> SearchState:
    """Guide neighbors by the gradient of the preceding coarse round's scores, or sample at random where it is 0."""
    if state.round % 2 != 0:
        raise PreconditionError(f"fine rounds run at even round numbers, got {state.round}")
    if state.last is None:
        raise PreconditionError("fine round requires the preceding coarse round's scored neighbors")

    gradient = estimate_gradient(state.base_reward, state.last)
    neighbors = guided_spherical_sample(state.base, cfg.n_neighbors, cfg.tau, cfg.alpha, gradient,
                                        state.last.perturbations, StreamBlock.of(stream).child(_STREAM_NEIGHBORS))
    rewards = _score(evaluate, neighbors.candidates)
    return _end_round(state, "fine", neighbors.candidates, rewards, neighbors.with_rewards(rewards))


def row_count(cfg: SearchConfig, rounds: int | None = None) -> int:
    """Rows a search scores in its first ``rounds`` rounds, all of them by default: ``n_neighbors`` a round plus one
    base per coarse round. Scored in order, round t's rows follow those of the first t − 1 rounds."""
    rounds = cfg.rounds if rounds is None else rounds
    return rounds * cfg.n_neighbors + (rounds + 1) // 2


def run_search(
    z0: Latent,
    cfg: SearchConfig,
    evaluate: Evaluator,
    stream: RngStream | StreamBlock,
    *,
    start_from_z0: bool = False,
) -> tuple[Latent, float, tuple[RoundSummary, ...]]:
    """Alternate coarse and fine rounds for ``cfg.rounds`` rounds.

    ``z0`` fixes the dimension: one ``(d,)`` start with an ``RngStream``, or
    ``(S, d)`` with S streams, checked by ``StreamBlock.of``. By default round 1
    samples a fresh Gaussian base; ``start_from_z0`` adopts ``z0`` as the
    round-1 base instead (the intermediate-noise phase does). A later coarse
    round that does not relocate always resamples a fresh Gaussian.

    Returns each seed's first best-scored row of all rounds, its reward and
    the round summaries. Each seed has exactly ``row_count(cfg)`` rows scored.
    """
    if cfg.rounds < 1:
        raise PreconditionError(f"run_search needs at least one round, got {cfg.rounds}")
    z0 = as_latent(z0, batch=True)
    stream = StreamBlock.of(stream, z0.shape[:-1])
    state = SearchState(dim=z0.shape[-1], seed_base=z0 if start_from_z0 else None)
    for t in range(1, cfg.rounds + 1):
        step = coarse_round if t % 2 == 1 else fine_round
        state = step(state, cfg, evaluate, stream.child(t))
    return state.global_best, state.global_best_reward, state.history
