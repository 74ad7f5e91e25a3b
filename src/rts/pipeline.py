"""End-to-end reward-guided trajectory search, baselines, and NFE accounting.

The full pipeline runs in five stages: (1) a multi-round coarse-to-fine
search over initial noises, each round's candidates scored as one batch by
a full denoise plus reward; (2) recording of the winning trajectory; (3)
key-step selection by projected curvature; (4) for each key step in
descending time order, one short coarse-to-fine search over the injected
noise at that step, scored by the one-step clean estimate, with the
trajectory re-simulated forward between key steps; (5) for each seed that
committed a key step, a final full denoise with every chosen noise fixed,
which is exactly the replay of (z_init, injected). A trajectory is the pair
of arrays ``denoise`` returns: its ``(L+1, d)`` states and its ``(L−1, d)``
injected noises.

Stage (2) runs only if (1) is off or scores with a shorter solver; stages
(3)-(5) need SDE mode, ``steps >= 3`` (the projection needs four latents),
``k_keysteps >= 1`` and ``search_inter.rounds >= 1``. ``_plan`` decides this.

Every velocity or clean-estimate call on one latent is one NFE. One ledger
per seed counts them and charges each to the phase that spends it, which
gives ``nfe_breakdown`` and its sum ``nfe_used``. A search phase may spend
the budget less what later phases are owed: the record denoise during the
initial search, the final denoise during the key-step search. Every charge
goes through ``_Seed.spend``, which charges the prefix of a batch of
operations that fits and cuts the seed if not all of it fits, so
``nfe_used`` never exceeds the budget and matches one-at-a-time scoring
exactly. A cut seed spends nothing more and keeps the best result so far
and every search round it completed, with ``truncated`` set. A cut happens
at one of three sites: a search round, entering the key-step phase (the
final denoise does not fit) and a step of the walk. ``expected_rts_nfe``
reproduces the ledger arithmetic independently, so the ledger can be
audited exactly.

Each method is one lockstep implementation over a block of S seeds
(``run_rts_block``, ``run_bon_block``, ``run_zo_block``, ``run_free_block``):
the search state carries a leading seed axis, one evaluator call scores a
round for every seed, and the block's streams are derived at once. In rts
each seed keeps one record, ``_Seed``: its ledger, round history, key steps
and cut. A seed the budget cuts short drops out while the others go on; its
rows are no longer scored. The key-step phase walks the solver one Heun+churn
step at a time, and the seeds whose key ends a step search together there.
``run_rts`` and its siblings run the block of one stream, and a block gives
every seed, bit for bit, the result of its one-seed call.
"""

from __future__ import annotations

import hashlib
import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .core import (
    Latent,
    RngStream,
    StreamBlock,
    as_integer,
    check_scalar,
    sample_gaussian,
)
from .errors import BudgetError, PreconditionError
from .keysteps import KeyStepSet, project_trajectory, select_key_steps
from .search import MAX_NEIGHBORS, SearchConfig, run_search
from .sphere import random_spherical_sample
from .sim import (
    ODE,
    SDE,
    MixtureModel,
    RewardModel,
    SolverSpec,
    _advance,
    _churn_noises,
    _heun_churn,
    denoise,
    evaluate_reward,
    one_step_clean_estimate,
)

RTS = "rts"
BON = "bon"
ZO = "zo"
FREE = "free"
METHODS = (RTS, BON, ZO, FREE)

# Stream derivation labels; fixed so every draw site is addressable.
_S_FRESH_INIT = 0
_S_INIT_SEARCH = 1
_S_RECORD = 2
_S_INTER = 3
_S_EVAL_NOISE = 4


@dataclass
class _Seed:
    """One seed of an rts run: its NFE ledger, round history, key steps, and whether it committed one or was cut.

    ``by_phase`` is the run's ``nfe_breakdown``, and its sum ``nfe_used``.
    ``spend`` charges a search's NFEs to ``phase`` and keeps the budget: the
    current phase may spend ``limit`` less the NFEs ``owed`` to later phases,
    the record and final denoises, which are charged where they run. A seed
    with ``cut`` set spends nothing more and is not searched further; it keeps
    the rounds it completed. ``committed`` is set where a key search's noise
    is adopted, and marks the seeds the final denoise replays.
    """

    limit: int | None = None
    owed: int = 0
    phase: str = "init_search"
    by_phase: dict = field(default_factory=lambda: dict.fromkeys(("init_search", "record", "inter_search", "final"), 0))
    history: dict = field(default_factory=lambda: {"init": [], "inter": []})
    keys: KeyStepSet | None = None
    committed: bool = False
    cut: bool = False

    def left(self) -> float:
        """NFEs the current phase may still spend, negative when the owed ones no longer fit; inf without a limit."""
        return math.inf if self.limit is None else self.limit - self.owed - sum(self.by_phase.values())

    def spend(self, n: int, cost: int) -> int:
        """Charge the first of ``n`` operations of ``cost`` (>= 1) NFEs each that fit, cut the seed unless all of
        them fit, and return how many were charged: none once the seed is cut."""
        fit = 0 if self.cut else min(n, max(0, self.left()) // cost)
        self.by_phase[self.phase] += fit * cost
        self.cut = fit < n
        return fit


@dataclass
class RtsConfig:
    """Hyperparameters of the two search phases and the budget.

    ``search_init.rounds = 0`` disables the initial phase (the base
    trajectory then comes from one fresh denoise); ``k_keysteps = 0``
    disables the intermediate phase. ``eval_steps_init`` sets the solver
    length used to score initial-noise candidates (None means the full
    length); a key-step candidate is always scored by one clean-estimate
    call. The intermediate phase's search starts from the recorded noise at
    the key step, and a later round that does not relocate draws fresh
    noise.

    The intermediate phase also needs SDE mode and ``steps >= 3``.
    ``budget_nfe`` caps the run: the initial search may spend it less the
    record denoise, the key-step search less the final denoise.
    """

    search_init: SearchConfig = SearchConfig()
    search_inter: SearchConfig = SearchConfig(rounds=2)
    k_keysteps: int = 6
    eval_steps_init: int | None = None
    budget_nfe: int | None = None

    def __post_init__(self) -> None:
        for name in ("search_init", "search_inter"):
            if not isinstance(value := getattr(self, name), SearchConfig):
                raise PreconditionError(f"{name} must be a SearchConfig, got {type(value).__name__}")
        as_integer(self.k_keysteps, "k_keysteps", 0)
        if self.eval_steps_init is not None:
            as_integer(self.eval_steps_init, "eval_steps_init", 1)
        if self.budget_nfe is not None:
            as_integer(self.budget_nfe, "budget_nfe", 1)


@dataclass
class RunResult:
    """Outcome of one run: sample, reward, audit trail."""

    method: str
    final_sample: Latent
    final_reward: float
    nfe_used: int
    seed: int
    key_steps: KeyStepSet | None = None
    round_history: dict = field(default_factory=dict)
    truncated: bool = False
    nfe_breakdown: dict = field(default_factory=dict)


def _seed_block(streams) -> StreamBlock:
    """``StreamBlock.of`` a sequence of ``RngStream``s, one per seed, whose ``root_seed`` each result takes."""
    if not isinstance(streams, Sequence):
        raise PreconditionError(f"expected a sequence of RngStreams, got {type(streams).__name__}")
    return StreamBlock.of(streams)


def _latent_label(z: np.ndarray) -> int:
    """Stable 64-bit hash of a latent's exact float64 contents, which keys its stream as two one-word labels."""
    digest = hashlib.blake2b(np.ascontiguousarray(z).tobytes(), digest_size=8).digest()
    return int.from_bytes(digest, "little")


def _search_evaluations(cfg: SearchConfig) -> int:
    """Evaluator calls per search: N per round plus one base per coarse round."""
    return cfg.rounds * cfg.n_neighbors + (cfg.rounds + 1) // 2


@dataclass(frozen=True)
class _Plan:
    """The stages of ``run_rts`` for one config; ``record`` is 0 or the record denoise's NFEs."""

    eval_steps: int  # solver length that scores one initial-noise candidate
    init_search: bool
    record: int
    inter_search: bool


def _plan(cfg: RtsConfig, spec: SolverSpec) -> _Plan:
    eval_steps = cfg.eval_steps_init if cfg.eval_steps_init is not None else spec.steps
    init_search = cfg.search_init.rounds >= 1
    # the winner of a full-length initial search keeps its scored trajectory
    record = 2 * spec.steps if (not init_search or eval_steps != spec.steps) else 0
    # key-step selection projects the trajectory, which needs four latents
    inter = spec.mode == SDE and cfg.k_keysteps >= 1 and cfg.search_inter.rounds >= 1 and spec.steps >= 3
    return _Plan(eval_steps, init_search, record, inter)


def expected_rts_nfe(cfg: RtsConfig, spec: SolverSpec, key_positions=()) -> dict:
    """Exact NFE ledger of an untruncated run with the given key positions.

    Returns per-phase integers plus their total, mirroring
    ``RunResult.nfe_breakdown``. The key-step term, 2·(p_last − p_first +
    1) + evaluations per search · k, is the walk's 2 NFEs a step and one
    clean estimate per candidate. Raises ``PreconditionError`` for a
    position that repeats or lies outside the interior steps [1, steps − 1].
    """
    plan = _plan(cfg, spec)
    init = _search_evaluations(cfg.search_init) * 2 * plan.eval_steps if plan.init_search else 0
    inter = final = 0
    positions = sorted(as_integer(position, "key position", 1, spec.steps - 1) for position in key_positions)
    if len(set(positions)) < len(positions):
        raise PreconditionError(f"key positions must be distinct, got {positions}")
    if plan.inter_search and positions:
        inter = 2 * (positions[-1] - positions[0] + 1) + _search_evaluations(cfg.search_inter) * len(positions)
        final = 2 * spec.steps
    total = init + plan.record + inter + final
    return {"init_search": init, "record": plan.record, "inter_search": inter, "final": final, "total": total}


def check_budget(method: str, spec: SolverSpec, cfg: RtsConfig, budget_nfe: int | None) -> None:
    """Refuse a budget ``method`` cannot run on, before any draw; ``cfg`` is read for rts only.

    ``BudgetError``: below rts's one scored candidate plus the record denoise it owes, or below the denoises that
    ``denoise_count`` needs. ``PreconditionError``: bon or zo without a budget, or past ``denoise_count``'s bound.
    """
    if method == RTS:
        plan = _plan(cfg, spec)
        minimum = (2 * plan.eval_steps if plan.init_search else 0) + plan.record
        if budget_nfe is not None and budget_nfe < minimum:
            raise BudgetError(f"budget {budget_nfe} cannot cover one scored candidate ({minimum} NFEs)")
    elif budget_nfe is not None:
        denoise_count(method, spec, budget_nfe)
    elif method != FREE:
        raise PreconditionError(f"required for method '{method}'")


def run_rts(
    model: MixtureModel,
    spec: SolverSpec,
    reward: RewardModel,
    cfg: RtsConfig,
    stream: RngStream,
) -> RunResult:
    """Full two-phase search of one seed: ``run_rts_block`` over the block of this one stream."""
    return run_rts_block(model, spec, reward, cfg, [stream])[0]


def _budgeted_search(z0, cfg: SearchConfig, stream: StreamBlock, seeds: list[_Seed], cost: int, score,
                     *, start_from_z0: bool = False):
    """``run_search`` for a group of seeds, none of them cut, each charged ``cost`` NFEs a row to its ledger.

    Each seed ``spend``s on the prefix of a round's rows that fits, which
    spends exactly what scoring them one at a time would have spent, and
    ``score(rows, seeds)`` scores the taken rows given the seed of each; a row
    left out scores 0. A seed whose rows did not all fit is cut, and its rows
    are not scored from then on, so a round of cut seeds makes no call to
    ``score``. Returns ``run_search``'s best latents, of no use for a cut seed
    whose left-out rows scored 0, and for each seed the best reward of every
    round it completed (one round is one evaluator call).
    """
    size, completed = len(seeds), [0] * len(seeds)

    def evaluate(batch: np.ndarray) -> np.ndarray:
        n = batch.shape[1]
        fit = [seed.spend(n, cost) for seed in seeds]
        completed[:] = [rounds + (count == n) for rounds, count in zip(completed, fit)]
        rows = batch.reshape(size * n, -1)
        if fit.count(n) == size:
            return score(rows, np.arange(size).repeat(n)).reshape(size, n)
        index = np.flatnonzero(np.arange(n) < np.array(fit)[:, None])
        scores = np.zeros(size * n)
        if index.size:
            scores[index] = score(rows[index], index // n)
        return scores.reshape(size, n)

    best, _, history = run_search(z0, cfg, evaluate, stream, start_from_z0=start_from_z0)
    return best, [[float(h.best_candidate_reward[s]) for h in history[:completed[s]]] for s in range(size)]


def run_rts_block(
    model: MixtureModel,
    spec: SolverSpec,
    reward: RewardModel,
    cfg: RtsConfig,
    streams: list[RngStream],
) -> list[RunResult]:
    """Full two-phase search of a block of S seeds in lockstep; see the module docstring for the stages.

    Each result is bit for bit the one-seed run of its stream. ``k_keysteps``
    is clamped to the number of interior steps. Raises ``BudgetError`` as
    ``check_budget`` does.
    """
    check_budget(RTS, spec, cfg, cfg.budget_nfe)
    block = _seed_block(streams)
    if not streams:
        return []
    dim, steps = model.dim, spec.steps
    plan = _plan(cfg, spec)
    seeds = [_Seed(limit=cfg.budget_nfe, owed=plan.record) for _ in streams]

    if plan.init_search:
        # Short-rollout scoring must be deterministic: re-rolled churn would
        # otherwise dominate the ranking and the winner's score would not
        # survive the full-length record run. Full-length scoring keeps the
        # run's own mode because the winner keeps its scored trajectory.
        eval_spec = spec if plan.eval_steps == steps else SolverSpec(ODE, plan.eval_steps)
        noise_stream = block.child(_S_EVAL_NOISE)
        # per seed, the score, path and noises of the first of its best-scored rows, the row run_search returns
        # for a seed the budget does not cut; a strict running maximum keeps the first of tied rows
        best = [(float("-inf"), None, None)] * len(streams)

        def score_latents(rows: np.ndarray, row_seeds: np.ndarray) -> np.ndarray:
            # A candidate's churn noises derive from a hash of the candidate, so
            # its reward is a pure function of the latent (independent of order
            # and parallelism) and a relocated base re-scores to its stored reward.
            # A label is one word, so the 64-bit hash enters as two labels: its
            # low word, then its high word (the golden digests pin this order).
            stream = None
            if eval_spec.mode == SDE:
                labels = np.array([_latent_label(z) for z in rows], dtype=np.uint64)
                stream = noise_stream[row_seeds].child(labels & 0xFFFF_FFFF).child(labels >> 32)
            paths, noises = denoise(model, eval_spec, rows, stream=stream)
            values = evaluate_reward(reward, paths[:, -1])
            for s, score, path, injected in zip(row_seeds.tolist(), values.tolist(), paths, noises):
                if score > best[s][0]:  # copied: a view would keep the whole batch alive
                    best[s] = (score, path.copy(), injected.copy())
            return values

        _, rewards = _budgeted_search(np.zeros((len(seeds), dim)), cfg.search_init, block.child(_S_INIT_SEARCH),
                                      seeds, 2 * plan.eval_steps, score_latents)
        for seed, rounds in zip(seeds, rewards):
            seed.history["init"] = rounds
        paths = np.stack([path for _, path, _ in best])
        noises = np.stack([injected for _, _, injected in best])
        z_init = paths[:, 0]
    else:
        z_init = sample_gaussian(block.child(_S_FRESH_INIT), dim)

    if plan.record:
        paths, noises = denoise(model, spec, z_init, stream=block.child(_S_RECORD))
        for seed in seeds:
            seed.by_phase["record"] += 2 * steps

    final_samples = paths[:, -1].copy()
    if plan.inter_search:
        for seed in seeds:
            # a seed whose final denoise does not fit searches no key step
            seed.phase, seed.owed = "inter_search", 2 * steps
            seed.cut = seed.cut or seed.left() < 0
        searching = [s for s, seed in enumerate(seeds) if not seed.cut]
        if searching:
            noises = _key_step_search(model, spec, reward, cfg, block, searching, seeds, paths, noises)
        # the final denoise replays every seed that committed a key step from (z_init, injected)
        replay = [s for s, seed in enumerate(seeds) if seed.committed]
        if replay:
            final_samples[replay] = denoise(model, spec, z_init[replay], injected=noises[replay])[0][:, -1]
            for s in replay:
                seeds[s].by_phase["final"] += 2 * steps

    final_rewards = evaluate_reward(reward, final_samples).tolist()
    return [
        RunResult(
            method=RTS,
            final_sample=final_samples[s],
            final_reward=final_rewards[s],
            nfe_used=sum(seed.by_phase.values()),
            seed=streams[s].root_seed,
            key_steps=seed.keys,
            round_history=seed.history,
            truncated=seed.cut,
            nfe_breakdown=seed.by_phase,
        )
        for s, seed in enumerate(seeds)
    ]


def _key_step_search(model, spec, reward, cfg, block, searching, seeds, paths, noises) -> np.ndarray:
    """Stages (3) and (4) for the ``searching`` seeds of the block, one Heun+churn step of the solver at a time.

    Each of these seeds gets its key steps, and walks the steps from its first
    key's through its last key's, 2 NFEs a step; the seeds walking a step take
    it as one batch. Those whose key ends the step search its noise together
    from the pre-churn state, scoring each candidate by its one-step clean
    estimate, 1 NFE; then each walking seed adds its churn, at a key the
    chosen noise. A seed the budget cuts short stops, and keeps the rounds it
    completed of the key search that cut it. Mutates only the ``searching``
    seeds' records, and returns the block's injected noises with the chosen
    noise at each key a seed committed.
    """
    steps, grid = spec.steps, spec.time_grid.tolist()
    sets = select_key_steps(np.stack([project_trajectory(paths[s]) for s in searching]),
                            min(cfg.k_keysteps, steps - 1))
    for s, key_set in zip(searching, sets):
        seeds[s].keys = key_set
    latents, injected = paths.copy(), noises.copy()
    inter_stream = block.child(_S_INTER)
    for slot in range(steps - 1):
        position = slot + 1
        walking = [s for s in searching
                   if min(seeds[s].keys.indices) <= position <= max(seeds[s].keys.indices) and seeds[s].spend(1, 2)]
        if not walking:
            continue
        pre_churn, scale = _heun_churn(model, spec, latents[walking, slot], grid, slot)
        at_key = [g for g, s in enumerate(walking) if position in seeds[s].keys.indices]
        if at_key:
            here, pre = np.array(walking)[at_key], pre_churn[at_key]

            # A candidate replaces the injected noise right after the fixed
            # pre-churn state and is scored by its clean estimate, 1 NFE.
            def score_noises(rows: np.ndarray, row_seeds: np.ndarray) -> np.ndarray:
                return evaluate_reward(reward, one_step_clean_estimate(model, pre[row_seeds] + scale * rows,
                                                                       grid[position]))

            best_noise, rewards = _budgeted_search(injected[here, slot], cfg.search_inter,
                                                   inter_stream[here].child(position), [seeds[s] for s in here],
                                                   1, score_noises, start_from_z0=True)
            for g, s in enumerate(here.tolist()):
                seeds[s].history["inter"].append(rewards[g])
                if not seeds[s].cut:
                    seeds[s].committed = True
                    injected[s, slot] = best_noise[g]
        latents[walking, position] = pre_churn + scale * injected[walking, slot]
    return injected


def denoise_count(method: str, spec: SolverSpec, budget_nfe: int) -> int:
    """How many full denoises ``run_bon`` or ``run_zo`` makes within ``budget_nfe``.

    Raises ``BudgetError`` below one denoise (two for zo: the base and one
    step) and, but for free, which makes one denoise whatever its budget,
    ``PreconditionError`` above ``MAX_NEIGHBORS``, before any draw.
    """
    cost = 2 * spec.steps
    count = as_integer(budget_nfe, "budget_nfe") // cost
    least = 2 if method == ZO else 1
    if count < least:
        raise BudgetError(f"{method} budget {budget_nfe} is below {least} denoise(s) of {cost} NFEs")
    if count > MAX_NEIGHBORS and method != FREE:
        raise PreconditionError(
            f"{method} budget {budget_nfe} asks for {count} denoises of {cost} NFEs, more than {MAX_NEIGHBORS}"
        )
    return count


def run_bon(
    model: MixtureModel,
    spec: SolverSpec,
    reward: RewardModel,
    budget_nfe: int,
    stream: RngStream,
) -> RunResult:
    """Best-of-N of one seed: ``run_bon_block`` over the block of this one stream."""
    return run_bon_block(model, spec, reward, budget_nfe, [stream])[0]


def run_bon_block(
    model: MixtureModel,
    spec: SolverSpec,
    reward: RewardModel,
    budget_nfe: int,
    streams: list[RngStream],
) -> list[RunResult]:
    """Best-of-N for a block of seeds: as many independent full denoises as the budget allows, per seed."""
    n_candidates = denoise_count(BON, spec, budget_nfe)
    block = _seed_block(streams)
    candidates = np.arange(n_candidates)
    zs = sample_gaussian(block.child(0)[:, None].child(candidates), model.dim)
    finals = _samples(model, spec, zs, block.child(1)[:, None].child(candidates))
    rewards = evaluate_reward(reward, finals.reshape(-1, model.dim)).reshape(zs.shape[:2])
    best = (np.arange(len(streams)), rewards.argmax(axis=1))  # the first of tied maxima, as a strict running max
    return _results(BON, streams, finals[best], rewards[best], n_candidates * 2 * spec.steps,
                    [{"candidates": scores} for scores in rewards.tolist()])


def run_zo(
    model: MixtureModel,
    spec: SolverSpec,
    reward: RewardModel,
    budget_nfe: int,
    step_tau: float,
    stream: RngStream,
) -> RunResult:
    """Hill climbing of one seed: ``run_zo_block`` over the block of this one stream."""
    return run_zo_block(model, spec, reward, budget_nfe, step_tau, [stream])[0]


def run_zo_block(
    model: MixtureModel,
    spec: SolverSpec,
    reward: RewardModel,
    budget_nfe: int,
    step_tau: float,
    streams: list[RngStream],
) -> list[RunResult]:
    """Hill climbing on the initial noise with spherical steps at fixed tau, every seed of a block in lockstep."""
    total = denoise_count(ZO, spec, budget_nfe)
    check_scalar(step_tau, "step_tau", 0, 1)
    block = _seed_block(streams)
    noise, steps = block.child(1), block.child(2)
    base = sample_gaussian(block.child(0), model.dim)
    best_sample = _samples(model, spec, base, noise.child(0))
    best_reward = evaluate_reward(reward, best_sample)
    rewards = [best_reward]
    for step in range(1, total):
        neighbor = random_spherical_sample(base, 1, step_tau, steps.child(step)).candidates[:, 0]
        sample = _samples(model, spec, neighbor, noise.child(step))
        score = evaluate_reward(reward, sample)
        rewards.append(score)
        better = score > best_reward
        base = np.where(better[:, None], neighbor, base)
        best_sample = np.where(better[:, None], sample, best_sample)
        best_reward = np.where(better, score, best_reward)
    return _results(ZO, streams, best_sample, best_reward, total * 2 * spec.steps,
                    [{"evaluations": history} for history in np.stack(rewards, axis=1).tolist()])


def run_free(
    model: MixtureModel,
    spec: SolverSpec,
    reward: RewardModel,
    stream: RngStream,
) -> RunResult:
    """A single unsearched denoise of one seed: ``run_free_block`` over the block of this one stream."""
    return run_free_block(model, spec, reward, [stream])[0]


def run_free_block(
    model: MixtureModel,
    spec: SolverSpec,
    reward: RewardModel,
    streams: list[RngStream],
) -> list[RunResult]:
    """A single unsearched denoise per seed, the no-extra-compute reference."""
    block = _seed_block(streams)
    samples = _samples(model, spec, sample_gaussian(block.child(0), model.dim), block.child(1))
    return _results(FREE, streams, samples, evaluate_reward(reward, samples), 2 * spec.steps,
                    [{} for _ in streams])


def _samples(model: MixtureModel, spec: SolverSpec, z: np.ndarray, stream: StreamBlock) -> np.ndarray:
    """``denoise``'s samples at t = 0 from the latents ``z``, one per stream, without the trajectories."""
    churn = _churn_noises(spec, model.dim, stream) if spec.mode == SDE else None
    return _advance(model, spec, z, churn)


def _results(method: str, streams, samples: np.ndarray, rewards: np.ndarray, nfe: int,
             histories: list[dict]) -> list[RunResult]:
    """The ``RunResult`` of each seed of a baseline block, one sample, reward and round history per stream."""
    return [
        RunResult(method=method, final_sample=sample, final_reward=score, nfe_used=nfe, seed=stream.root_seed,
                  round_history=history, nfe_breakdown={"denoise": nfe})
        for stream, sample, score, history in zip(streams, samples, rewards.tolist(), histories)
    ]
