"""End-to-end reward-guided trajectory search, baselines, and NFE accounting.

The full pipeline runs in five stages: (1) a multi-round coarse-to-fine
search over initial noises, each round's candidates scored as one batch by
a full denoise plus reward; (2) recording of the winning trajectory; (3)
key-step selection by projected curvature; (4) for each key step in
descending time order, one short coarse-to-fine search over the injected
noise at that step, scored by the one-step clean estimate, with the
trajectory re-simulated forward between key steps; (5) a final full denoise
with every chosen noise fixed, which is exactly the replay of (z_init,
injected). A trajectory is the pair of arrays ``denoise`` returns: its
``(L+1, d)`` states and its ``(L−1, d)`` injected noises.

Stage (2) runs only if (1) is off or scores with a shorter solver; stages
(3)-(5) need SDE mode, ``steps >= 3`` (the projection needs four latents),
``k_keysteps >= 1`` and ``search_inter.rounds >= 1``. ``_plan`` decides this.

Every velocity or clean-estimate call on one latent is one NFE. One ledger
per run counts them and charges each to the phase that spends it, which
gives ``nfe_breakdown``. A search phase may spend the budget less what later
phases are owed: the record denoise during the initial search, the final
denoise during the key-step search. Each atomic operation is pre-checked
against that, and a batch is cut to the rows that fit, so ``nfe_used`` never
exceeds the budget and matches one-at-a-time scoring exactly; when the
budget runs out mid-phase the run returns the best result so far with
``truncated`` set. ``expected_rts_nfe`` reproduces the ledger arithmetic
independently, so the ledger can be audited exactly.

Each method is one lockstep implementation over a block of S seeds
(``run_rts_block``, ``run_bon_block``, ``run_zo_block``, ``run_free_block``):
the search state carries a leading seed axis, one evaluator call scores a
round for every seed, the block's streams are derived at once, and each seed
keeps its own ledger. A seed the budget cuts short drops out while the others
go on; its rows are no longer scored. The key-step phase walks the solver one
Heun+churn step at a time, and the seeds whose key ends a step search together
there. ``run_rts`` and its siblings run the block of one stream, and a block
gives every seed, bit for bit, the result of its one-seed call.
"""

from __future__ import annotations

import hashlib
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .core import (
    BudgetError,
    Latent,
    PreconditionError,
    RngStream,
    StreamBlock,
    as_integer,
    check_scalar,
    sample_gaussian,
)
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


class _PhaseTruncated(Exception):
    """Internal signal: the next operation does not fit in the budget."""


@dataclass
class _Ledger:
    """The NFE count of one seed of an rts run: charges each NFE to ``phase`` and keeps the budget.

    The current phase may spend ``limit`` less the NFEs ``owed`` to later
    phases; ``by_phase`` is the run's ``nfe_breakdown``.
    """

    limit: int | None = None
    owed: int = 0
    phase: str = "init_search"
    count: int = 0
    by_phase: dict = field(default_factory=lambda: dict.fromkeys(("init_search", "record", "inter_search", "final"), 0))

    def add(self, n: int) -> None:
        self.count += n
        self.by_phase[self.phase] += n

    def affordable(self, n: int, cost: int) -> int:
        """How many of ``n`` operations of ``cost`` (>= 1) NFEs each fit, taken in order."""
        if self.limit is None:
            return n
        return min(n, max(0, self.limit - self.owed - self.count) // cost)


@dataclass
class RtsConfig:
    """Hyperparameters of the two search phases and the budget.

    ``search_init.rounds = 0`` disables the initial phase (the base
    trajectory then comes from one fresh denoise); ``k_keysteps = 0``
    disables the intermediate phase. ``eval_steps_init`` sets the solver
    length used to score initial-noise candidates (None means the full
    length); ``eval_steps_inter`` is the scoring lookahead at a key step,
    1 meaning a single clean-estimate call. With ``resample_inter_fresh``
    the intermediate phase's no-relocation branch draws fresh noise;
    otherwise it falls back to the recorded noise at that step.

    The intermediate phase also needs SDE mode and ``steps >= 3``.
    ``budget_nfe`` caps the run: the initial search may spend it less the
    record denoise, the key-step search less the final denoise.
    """

    search_init: SearchConfig = SearchConfig()
    search_inter: SearchConfig = SearchConfig(rounds=2)
    k_keysteps: int = 6
    eval_steps_init: int | None = None
    eval_steps_inter: int = 1
    budget_nfe: int | None = None
    resample_inter_fresh: bool = True

    def __post_init__(self) -> None:
        as_integer(self.k_keysteps, "k_keysteps", 0)
        as_integer(self.eval_steps_inter, "eval_steps_inter", 1)
        if self.eval_steps_init is not None:
            as_integer(self.eval_steps_init, "eval_steps_init", 1)
        if self.budget_nfe is not None:
            as_integer(self.budget_nfe, "budget_nfe", 1)
        check_scalar(self.resample_inter_fresh, "resample_inter_fresh", kind=bool)


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
    """The block of a sequence of ``RngStream``s, one per seed; anything else raises ``PreconditionError``."""
    kind = type(streams).__name__
    if isinstance(streams, Sequence):
        odd = sorted({type(stream).__name__ for stream in streams if not isinstance(stream, RngStream)})
        if not odd:
            return StreamBlock.of(streams)
        kind += " holding " + ", ".join(odd)
    raise PreconditionError(f"expected a sequence of RngStreams, got {kind}")


def _latent_label(z: np.ndarray) -> int:
    """Stable 64-bit stream label for a latent's exact float64 contents."""
    digest = hashlib.blake2b(np.ascontiguousarray(z).tobytes(), digest_size=8).digest()
    return int.from_bytes(digest, "little")


def _preview(spec: SolverSpec, position: int, lookahead: int) -> tuple[int, int]:
    """The step a key-step preview from ``position`` stops at, and its NFEs per candidate."""
    stop = min(position + lookahead - 1, spec.steps)
    return stop, 2 * (stop - position) + (stop < spec.steps)


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
    ``RunResult.nfe_breakdown``. Raises ``PreconditionError`` for a position
    that repeats or lies outside the interior steps [1, steps − 1].
    """
    plan = _plan(cfg, spec)
    init = _search_evaluations(cfg.search_init) * 2 * plan.eval_steps if plan.init_search else 0
    inter = final = 0
    positions = sorted(as_integer(position, "key position", 1, spec.steps - 1) for position in key_positions)
    if len(set(positions)) < len(positions):
        raise PreconditionError(f"key positions must be distinct, got {positions}")
    if plan.inter_search and positions:
        # one Heun+churn step per solver step from the first key's step through the last's, then each key's search
        per_search = _search_evaluations(cfg.search_inter)
        inter = 2 * (positions[-1] - positions[0] + 1)
        inter += per_search * sum(_preview(spec, position, cfg.eval_steps_inter)[1] for position in positions)
        final = 2 * spec.steps
    total = init + plan.record + inter + final
    return {"init_search": init, "record": plan.record, "inter_search": inter, "final": final, "total": total}


def check_rts_budget(cfg: RtsConfig, spec: SolverSpec) -> None:
    """Raise ``BudgetError`` when the budget cannot cover one scored candidate plus the record denoise it owes."""
    plan = _plan(cfg, spec)
    minimum = (2 * plan.eval_steps if plan.init_search else 0) + plan.record
    if cfg.budget_nfe is not None and cfg.budget_nfe < minimum:
        raise BudgetError(f"budget {cfg.budget_nfe} cannot cover one scored candidate ({minimum} NFEs)")


def run_rts(
    model: MixtureModel,
    spec: SolverSpec,
    reward: RewardModel,
    cfg: RtsConfig,
    stream: RngStream,
) -> RunResult:
    """Full two-phase search of one seed: ``run_rts_block`` over the block of this one stream."""
    return run_rts_block(model, spec, reward, cfg, [stream])[0]


def _fitting_rows(ledgers: list[_Ledger], live: np.ndarray, batch: np.ndarray, cost: int):
    """Charge and pick the rows of an ``(S, n, d)`` batch that each live seed's budget affords at ``cost`` NFEs each.

    Each seed takes the prefix of its rows that fits, which spends exactly
    what scoring them one at a time would have spent before the budget check
    failed; a seed whose rows did not all fit leaves ``live``. Returns the
    picked rows, the seed of each, and their flat indices into the ``(S, n)``
    scores, None when every row was picked.
    """
    seeds, n = batch.shape[:2]
    fit = [ledger.affordable(n, cost) if ok else 0 for ledger, ok in zip(ledgers, live.tolist())]
    for ledger, count in zip(ledgers, fit):
        ledger.add(count * cost)
    if fit.count(n) == seeds:
        return batch.reshape(seeds * n, -1), np.arange(seeds).repeat(n), None
    live &= np.array(fit) == n
    index = np.flatnonzero(np.arange(n) < np.array(fit)[:, None])
    return batch.reshape(seeds * n, -1)[index], index // n, index


def _scores(values: np.ndarray, index, shape: tuple[int, int]) -> np.ndarray:
    """The ``(S, n)`` scores of a batch from the ``values`` of its picked rows; a row left out scores 0."""
    if index is None:
        return values.reshape(shape)
    scores = np.zeros(shape[0] * shape[1])
    scores[index] = values
    return scores.reshape(shape)


def _keep_best(entries: dict) -> None:
    """Keep only the first best-scored ``(score, path, noises)`` entry, as a strict running maximum keeps it.

    The kept arrays are copied: as views they would keep the whole batch of
    the round that scored them alive.
    """
    if entries:
        key, (score, path, injected) = max(entries.items(), key=lambda item: item[1][0])
        entries.clear()
        entries[key] = (score, path.copy(), injected.copy())


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
    ``check_rts_budget`` does.
    """
    check_rts_budget(cfg, spec)
    block = _seed_block(streams)
    if not streams:
        return []
    seeds, dim, steps = len(streams), model.dim, spec.steps
    plan = _plan(cfg, spec)
    ledgers = [_Ledger(limit=cfg.budget_nfe, owed=plan.record) for _ in range(seeds)]
    truncated = np.zeros(seeds, dtype=bool)
    histories = [{"init": [], "inter": []} for _ in range(seeds)]

    if plan.init_search:
        # Short-rollout scoring must be deterministic: re-rolled churn would
        # otherwise dominate the ranking and the winner's score would not
        # survive the full-length record run. Full-length scoring keeps the
        # run's own mode because the winner keeps its scored trajectory.
        eval_spec = spec if plan.eval_steps == steps else SolverSpec(ODE, plan.eval_steps)
        noise_stream = block.child(_S_EVAL_NOISE)
        # per seed, by latent: score, path and noises of the best row so far, copied out of its round's batch,
        # and of the latest round's rows, the only rows the search can return
        scored: list[dict[bytes, tuple]] = [{} for _ in range(seeds)]
        live = np.ones(seeds, dtype=bool)

        def score_latents(zs: np.ndarray) -> np.ndarray:
            # A candidate's churn noises derive from a hash of the candidate, so
            # its reward is a pure function of the latent (independent of order
            # and parallelism) and a relocated base re-scores to its stored reward.
            for entries in scored:
                _keep_best(entries)
            rows, row_seeds, index = _fitting_rows(ledgers, live, zs, 2 * plan.eval_steps)
            stream = None
            if eval_spec.mode == SDE:
                stream = noise_stream[row_seeds].child(np.array([_latent_label(z) for z in rows], dtype=np.uint64))
            paths, noises = denoise(model, eval_spec, rows, stream=stream)
            values = evaluate_reward(reward, paths[:, -1])
            for s, z, score, path, injected in zip(row_seeds.tolist(), rows, values.tolist(), paths, noises):
                scored[s][z.tobytes()] = (score, path, injected)
            if not live.any():
                raise _PhaseTruncated()
            return _scores(values, index, zs.shape[:2])

        try:
            best_z, _, history = run_search(np.zeros((seeds, dim)), cfg.search_init, score_latents,
                                            block.child(_S_INIT_SEARCH))
        except _PhaseTruncated:
            pass
        picked = []
        for s in range(seeds):
            if live[s]:
                histories[s]["init"] = [float(h.best_candidate_reward[s]) for h in history]
                picked.append(scored[s][best_z[s].tobytes()])
            else:
                # the first best-scored latent, as a strict running maximum keeps it
                picked.append(max(scored[s].values(), key=lambda entry: entry[0]))
        truncated = ~live
        paths = np.stack([path for _, path, _ in picked])
        noises = np.stack([injected for _, _, injected in picked])
        z_init = paths[:, 0]
    else:
        z_init = sample_gaussian(block.child(_S_FRESH_INIT), dim)

    if plan.record:
        paths, noises = denoise(model, spec, z_init, stream=block.child(_S_RECORD))
        for ledger in ledgers:
            ledger.phase = "record"
            ledger.add(2 * steps)

    keys: list[KeyStepSet | None] = [None] * seeds
    final_samples = paths[:, -1].copy()
    if plan.inter_search:
        searching = []
        for s in np.flatnonzero(~truncated).tolist():
            ledger = ledgers[s]
            ledger.phase, ledger.owed = "inter_search", 0
            if ledger.affordable(1, 2 * steps):  # the final denoise fits
                ledger.owed = 2 * steps
                searching.append(s)
            else:
                truncated[s] = True
        if searching:
            _key_step_search(model, spec, reward, cfg, block, searching, paths, noises, z_init,
                             ledgers, truncated, histories, keys, final_samples)

    final_rewards = evaluate_reward(reward, final_samples).tolist()
    return [
        RunResult(
            method=RTS,
            final_sample=final_samples[s],
            final_reward=final_rewards[s],
            nfe_used=ledgers[s].count,
            seed=streams[s].root_seed,
            key_steps=keys[s],
            round_history=histories[s],
            truncated=bool(truncated[s]),
            nfe_breakdown=ledgers[s].by_phase,
        )
        for s in range(seeds)
    ]


def _key_step_search(model, spec, reward, cfg, block, searching, paths, noises, z_init,
                     ledgers, truncated, histories, keys, final_samples) -> None:
    """Stages (3)-(5) for the ``searching`` seeds, one Heun+churn step of the solver at a time.

    A seed walks the steps from its first key's through its last key's, 2 NFEs
    a step, and the seeds walking a step take it as one batch. Those whose key
    ends the step search its noise together from the pre-churn state; then each
    walking seed adds its churn, at a key the chosen noise. A seed the budget
    cuts short stops and is marked in ``truncated``; every seed that committed
    a key step is replayed.
    """
    steps, grid = spec.steps, spec.time_grid.tolist()
    owners = np.array(searching)
    sets = select_key_steps(np.stack([project_trajectory(paths[s]) for s in searching]),
                            min(cfg.k_keysteps, steps - 1))
    for s, key_set in zip(searching, sets):
        keys[s] = key_set
    # per seed, in plain lists: the key positions still to search, in ascending order, the first of them,
    # and whether the budget still lets it go on
    todo = [sorted(key_set.indices) for key_set in sets]
    first = [positions[0] for positions in todo]
    active = [True] * len(searching)
    latents, injected = paths[owners].copy(), noises[owners].copy()
    inter_stream = block.child(_S_INTER)
    for slot in range(steps - 1):
        position = slot + 1
        walking = [i for i in range(len(searching)) if active[i] and todo[i] and first[i] <= position]
        for i in walking:
            active[i] = ledgers[owners[i]].affordable(1, 2) > 0
            if active[i]:
                ledgers[owners[i]].add(2)
        walking = [i for i in walking if active[i]]
        if not walking:
            continue
        pre_churn, scale = _heun_churn(model, spec, latents[walking, slot], grid, slot)
        at_key = [g for g, i in enumerate(walking) if todo[i][0] == position]
        if at_key:
            here, pre = np.array(walking)[at_key], pre_churn[at_key]
            stop, cost = _preview(spec, position, cfg.eval_steps_inter)
            group = [ledgers[i] for i in owners[here].tolist()]
            live = np.ones(here.size, dtype=bool)

            # A candidate replaces the injected noise right after the fixed
            # pre-churn state; the preview integrates to ``stop`` with the chosen
            # noises, then takes a clean estimate unless it reached t = 0.
            def score_noises(candidates: np.ndarray) -> np.ndarray:
                rows, row_seeds, index = _fitting_rows(group, live, candidates, cost)
                churn = injected[here[row_seeds], :stop] if stop > position else None  # the preview's noises
                x = _advance(model, spec, pre[row_seeds] + scale * rows, position, stop, churn)
                if stop < steps:
                    x = one_step_clean_estimate(model, x, grid[stop])
                values = evaluate_reward(reward, x)
                if not live.any():
                    raise _PhaseTruncated()
                return _scores(values, index, candidates.shape[:2])

            try:
                best_noise, _, history = run_search(
                    injected[here, slot],
                    cfg.search_inter,
                    score_noises,
                    inter_stream[owners[here]].child(position),
                    start_from_z0=True,
                    resample_to_z0=not cfg.resample_inter_fresh,
                )
            except _PhaseTruncated:
                pass
            for g, i in enumerate(here.tolist()):
                todo[i].pop(0)
                active[i] = bool(live[g])
                if active[i]:
                    histories[owners[i]]["inter"].append([float(h.best_candidate_reward[g]) for h in history])
                    injected[i, slot] = best_noise[g]
        latents[walking, position] = pre_churn + scale * injected[walking, slot]
    truncated[owners[np.logical_not(active)]] = True
    committed = np.array([bool(histories[s]["inter"]) for s in searching])
    if committed.any():
        replay = owners[committed]
        final_samples[replay] = denoise(model, spec, z_init[replay], injected=injected[committed])[0][:, -1]
        for s in replay.tolist():
            ledgers[s].phase = "final"
            ledgers[s].add(2 * steps)


def denoise_count(method: str, spec: SolverSpec, budget_nfe: int) -> int:
    """How many full denoises ``run_bon`` or ``run_zo`` makes within ``budget_nfe``.

    Raises ``BudgetError`` below one denoise (two for zo: the base and one
    step) and ``PreconditionError`` above ``MAX_NEIGHBORS``, before any draw.
    """
    cost = 2 * spec.steps
    count = as_integer(budget_nfe, "budget_nfe") // cost
    least = 2 if method == ZO else 1
    if count < least:
        raise BudgetError(f"{method} budget {budget_nfe} is below {least} denoise(s) of {cost} NFEs")
    if count > MAX_NEIGHBORS:
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
    zs = sample_gaussian(block.child(0)[:, None].child(candidates), model.dim).reshape(-1, model.dim)
    noises = None
    if spec.mode == SDE:
        noises = _churn_noises(spec, model.dim, block.child(1)[:, None].child(candidates))
        noises = noises.reshape(zs.shape[0], spec.steps - 1, model.dim)
    finals = _advance(model, spec, zs, 0, spec.steps, noises).reshape(len(streams), n_candidates, model.dim)
    rewards = evaluate_reward(reward, finals.reshape(zs.shape)).reshape(len(streams), n_candidates)
    nfe = n_candidates * 2 * spec.steps
    results = []
    for stream, samples, scores in zip(streams, finals, rewards.tolist()):
        best = int(np.argmax(scores))  # the first of tied maxima, as a strict running max
        results.append(RunResult(
            method=BON,
            final_sample=samples[best],
            final_reward=scores[best],
            nfe_used=nfe,
            seed=stream.root_seed,
            round_history={"candidates": scores},
            nfe_breakdown={"denoise": nfe},
        ))
    return results


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
    block = _seed_block(streams)
    noise, steps = block.child(1), block.child(2)
    base = sample_gaussian(block.child(0), model.dim)
    best_sample = denoise(model, spec, base, stream=noise.child(0))[0][:, -1]
    best_reward = evaluate_reward(reward, best_sample)
    rewards = [best_reward]
    for step in range(1, total):
        neighbor = random_spherical_sample(base, 1, step_tau, steps.child(step)).candidates[:, 0]
        sample = denoise(model, spec, neighbor, stream=noise.child(step))[0][:, -1]
        score = evaluate_reward(reward, sample)
        rewards.append(score)
        better = score > best_reward
        base = np.where(better[:, None], neighbor, base)
        best_sample = np.where(better[:, None], sample, best_sample)
        best_reward = np.where(better, score, best_reward)
    nfe = total * 2 * spec.steps
    return [
        RunResult(
            method=ZO,
            final_sample=sample,
            final_reward=score,
            nfe_used=nfe,
            seed=stream.root_seed,
            round_history={"evaluations": history},
            nfe_breakdown={"denoise": nfe},
        )
        for stream, sample, score, history in zip(streams, best_sample, best_reward.tolist(),
                                                    np.stack(rewards, axis=1).tolist())
    ]


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
    samples = denoise(model, spec, sample_gaussian(block.child(0), model.dim), stream=block.child(1))[0][:, -1]
    nfe = 2 * spec.steps
    return [
        RunResult(
            method=FREE,
            final_sample=sample,
            final_reward=score,
            nfe_used=nfe,
            seed=stream.root_seed,
            round_history={},
            nfe_breakdown={"denoise": nfe},
        )
        for stream, sample, score in zip(streams, samples, evaluate_reward(reward, samples).tolist())
    ]
