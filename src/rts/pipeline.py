"""End-to-end reward-guided trajectory search, baselines, and NFE accounting.

The full pipeline runs in five stages: (1) a multi-round coarse-to-fine
search over initial noises, each round's candidates scored as one batch by
a full denoise plus reward; (2) recording of the winning trajectory; (3)
key-step selection by projected curvature; (4) for each key step in
descending time order, one short coarse-to-fine search over the injected
noise at that step, scored by the one-step clean estimate, with the
trajectory re-simulated forward between key steps; (5) a final full denoise
with every chosen noise fixed, which is exactly the replay of (z_init,
injected).

Stage (2) runs only if (1) is off or scores with a shorter solver; stages
(3)-(5) need SDE mode, ``steps >= 3`` (the projection needs four latents),
``k_keysteps >= 1`` and ``search_inter.rounds >= 1``. ``_plan`` decides this.

Every velocity or clean-estimate call on one latent is one NFE. A search
phase may spend the budget less what later phases are owed: the record
denoise during the initial search, the final denoise during the key-step
search. Each atomic operation is pre-checked against that, and a batch is
cut to the rows that fit, so ``nfe_used`` never exceeds the budget and
matches one-at-a-time scoring exactly; when the budget runs out mid-phase
the run returns the best result so far with ``truncated`` set.
``expected_rts_nfe`` reproduces the ledger arithmetic so the counter can be
audited exactly.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

from .core import (
    BudgetError,
    Latent,
    NfeCounter,
    NoiseTrajectory,
    PreconditionError,
    RngStream,
    as_integer,
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
    _solve,
    denoise,
    evaluate_reward,
    heun_step,
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


class _Budget:
    """The NFEs one phase may spend: the run's limit less what later phases are owed."""

    def __init__(self, limit: int | None, counter: NfeCounter, owed: int = 0):
        self.cap = None if limit is None else limit - owed
        self.counter = counter

    def affordable(self, n: int, cost: int) -> int:
        """How many of ``n`` operations of ``cost`` (>= 1) NFEs each fit, taken in order."""
        if self.cap is None:
            return n
        return min(n, max(0, self.cap - self.counter.count) // cost)


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


def _latent_label(z: np.ndarray) -> int:
    """Stable 64-bit stream label for a latent's exact float64 contents."""
    digest = hashlib.blake2b(np.ascontiguousarray(z).tobytes(), digest_size=8).digest()
    return int.from_bytes(digest, "little")


def _score_rows(score, rows: np.ndarray, cost: int, budget: _Budget) -> np.ndarray:
    """``score`` the rows that fit in the budget, then signal truncation if any did not.

    The prefix rule spends exactly what scoring the rows one at a time would
    have spent before the budget check failed.
    """
    fit = budget.affordable(rows.shape[0], cost)
    if fit < rows.shape[0]:
        if fit > 0:
            score(rows[:fit])
        raise _PhaseTruncated()
    return score(rows)


class _DenoiseEvaluator:
    """Scores initial noises, one per row, by full denoise + reward; keeps each path and its noises.

    In SDE mode the churn noises of a candidate's scoring run are derived
    from a hash of the candidate itself, which makes the reward a pure
    function of the latent (order- and parallelism-independent) and keeps a
    relocated base's stored reward consistent on re-evaluation.
    """

    def __init__(
        self,
        model: MixtureModel,
        spec: SolverSpec,
        reward: RewardModel,
        noise_stream: RngStream,
        nfe: NfeCounter,
        budget: _Budget,
    ):
        self.model = model
        self.spec = spec
        self.reward = reward
        self.noise_stream = noise_stream
        self.nfe = nfe
        self.budget = budget
        self.cost = 2 * spec.steps
        self.cache: dict[bytes, tuple[float, np.ndarray, np.ndarray]] = {}  # score, path, noises

    def __call__(self, zs: np.ndarray) -> np.ndarray:
        return _score_rows(self._score, zs, self.cost, self.budget)

    def _score(self, zs: np.ndarray) -> np.ndarray:
        dim = self.model.dim
        noises = None
        if self.spec.mode == SDE:
            noises = np.stack(
                [_churn_noises(self.spec, dim, self.noise_stream.child(_latent_label(z))) for z in zs]
            )
        trace = _solve(self.model, self.spec, zs, noises, self.nfe)
        scores = evaluate_reward(self.reward, trace[:, -1])
        if noises is None:
            noises = np.zeros((len(zs), 0, dim))
        for z, score, path, injected in zip(zs, scores.tolist(), trace, noises):
            self.cache[z.tobytes()] = (score, path, injected)
        return scores


class _SlotEvaluator:
    """Scores candidate noises, one per row, for one churn slot by a deterministic preview.

    The candidate replaces the injected noise right after the already-fixed
    pre-churn state; the preview then integrates ``lookahead - 1`` solver
    steps (with the currently chosen noises) and takes a clean estimate, or
    rewards the final state directly if the preview reaches t = 0.
    """

    def __init__(
        self,
        model: MixtureModel,
        spec: SolverSpec,
        reward: RewardModel,
        pre_churn: np.ndarray,
        position: int,
        injected: np.ndarray,
        lookahead: int,
        nfe: NfeCounter,
        budget: _Budget,
    ):
        self.model = model
        self.spec = spec
        self.reward = reward
        self.pre_churn = pre_churn
        self.position = position
        self.injected = injected
        self.nfe = nfe
        self.budget = budget
        grid = spec.time_grid
        self.scale = spec.churn * math.sqrt(grid[position - 1] - grid[position])
        self.stop, self.cost = self.preview(spec, position, lookahead)

    @staticmethod
    def preview(spec: SolverSpec, position: int, lookahead: int) -> tuple[int, int]:
        """The step a preview from ``position`` stops at, and its NFEs per candidate."""
        stop = min(position + lookahead - 1, spec.steps)
        return stop, 2 * (stop - position) + (stop < spec.steps)

    def __call__(self, candidates: np.ndarray) -> np.ndarray:
        return _score_rows(self._score, candidates, self.cost, self.budget)

    def _score(self, candidates: np.ndarray) -> np.ndarray:
        x = self.pre_churn + self.scale * candidates
        x = _advance(self.model, self.spec, x, self.position, self.stop, self.injected, self.nfe)
        if self.stop < self.spec.steps:
            x = one_step_clean_estimate(self.model, x, self.spec.time_grid[self.stop], self.nfe)
        return evaluate_reward(self.reward, x)


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
    ``RunResult.nfe_breakdown``.
    """
    plan = _plan(cfg, spec)
    init = _search_evaluations(cfg.search_init) * 2 * plan.eval_steps if plan.init_search else 0
    inter = final = 0
    positions = sorted(key_positions)
    if plan.inter_search and positions:
        per_search = _search_evaluations(cfg.search_inter)
        valid_through = spec.steps
        for position in positions:
            # re-simulate up to the slot, one pre-churn Heun step, then the slot's search
            _, cost = _SlotEvaluator.preview(spec, position, cfg.eval_steps_inter)
            inter += 2 * max(0, position - 1 - valid_through) + 2 + per_search * cost
            valid_through = position
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
    """Full two-phase search; see the module docstring for the stage layout.

    ``k_keysteps`` is clamped to the number of interior steps. Raises
    ``BudgetError`` as ``check_rts_budget`` does.
    """
    check_rts_budget(cfg, spec)
    dim = model.dim
    steps = spec.steps
    plan = _plan(cfg, spec)
    counter = NfeCounter()
    truncated = False
    round_history: dict = {"init": [], "inter": []}
    breakdown = {"init_search": 0, "record": 0, "inter_search": 0, "final": 0}

    if plan.init_search:
        # Short-rollout scoring must be deterministic: re-rolled churn would
        # otherwise dominate the ranking and the winner's score would not
        # survive the full-length record run. Full-length scoring keeps the
        # run's own mode because the winner keeps its scored trajectory.
        eval_spec = spec if plan.eval_steps == steps else SolverSpec(ODE, plan.eval_steps)
        budget = _Budget(cfg.budget_nfe, counter, owed=plan.record)
        evaluator = _DenoiseEvaluator(model, eval_spec, reward, stream.child(_S_EVAL_NOISE), counter, budget)
        try:
            best_z, _, history = run_search(
                np.zeros(dim), cfg.search_init, evaluator, stream.child(_S_INIT_SEARCH)
            )
            round_history["init"] = [s.best_candidate_reward for s in history]
            _, path, noises = evaluator.cache[best_z.tobytes()]
        except _PhaseTruncated:
            truncated = True
            # the first best-scored latent, as a strict running maximum keeps it
            _, path, noises = max(evaluator.cache.values(), key=lambda entry: entry[0])
        traj0 = NoiseTrajectory(path, noises)
        breakdown["init_search"] = counter.count
        z_init = traj0.latents[0]
    else:
        z_init = sample_gaussian(stream.child(_S_FRESH_INIT), dim)
        traj0 = None

    if plan.record:
        before = counter.count
        traj0 = denoise(model, spec, z_init, stream=stream.child(_S_RECORD), nfe=counter)
        breakdown["record"] = counter.count - before

    keys: KeyStepSet | None = None
    final_traj = traj0
    if plan.inter_search and not truncated:
        if _Budget(cfg.budget_nfe, counter).affordable(1, 2 * steps):
            budget = _Budget(cfg.budget_nfe, counter, owed=2 * steps)
            before = counter.count
            keys = select_key_steps(project_trajectory(traj0), min(cfg.k_keysteps, steps - 1))
            grid = spec.time_grid
            latents = traj0.latents.copy()
            injected = traj0.injected.copy()
            valid_through = steps
            try:
                for position in sorted(keys.indices):
                    slot = position - 1
                    if valid_through < slot:
                        # re-simulate with the chosen noises as far as the budget
                        # allows; when it falls short, the check below cuts the run
                        stop = valid_through + budget.affordable(slot - valid_through, 2)
                        _advance(model, spec, latents[valid_through], valid_through, stop,
                                 injected, counter, latents)
                        valid_through = stop
                    if not budget.affordable(1, 2):
                        raise _PhaseTruncated()
                    pre_churn = heun_step(model, latents[slot], grid[slot], grid[slot + 1], counter)
                    slot_eval = _SlotEvaluator(
                        model, spec, reward, pre_churn, position, injected,
                        cfg.eval_steps_inter, counter, budget,
                    )
                    best_noise, _, history = run_search(
                        injected[slot],
                        cfg.search_inter,
                        slot_eval,
                        stream.child(_S_INTER).child(position),
                        start_from_z0=True,
                        resample_to_z0=not cfg.resample_inter_fresh,
                    )
                    round_history["inter"].append([s.best_candidate_reward for s in history])
                    injected[slot] = best_noise
                    latents[slot + 1] = pre_churn + slot_eval.scale * best_noise
                    valid_through = slot + 1
            except _PhaseTruncated:
                truncated = True
            breakdown["inter_search"] = counter.count - before
            if round_history["inter"]:  # at least one key step was committed
                before = counter.count
                final_traj = denoise(model, spec, traj0.latents[0], injected=injected, nfe=counter)
                breakdown["final"] = counter.count - before
        else:
            truncated = True

    final_reward = evaluate_reward(reward, final_traj.latents[-1])
    return RunResult(
        method=RTS,
        final_sample=final_traj.latents[-1],
        final_reward=final_reward,
        nfe_used=counter.count,
        seed=stream.root_seed,
        key_steps=keys,
        round_history=round_history,
        truncated=truncated,
        nfe_breakdown=breakdown,
    )


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
    """Best-of-N: as many independent full denoises as the budget allows."""
    n_candidates = denoise_count(BON, spec, budget_nfe)
    counter = NfeCounter()
    zs = np.stack([sample_gaussian(stream.child(0).child(i), model.dim) for i in range(n_candidates)])
    noises = None
    if spec.mode == SDE:
        noises = np.stack([_churn_noises(spec, model.dim, stream.child(1).child(i)) for i in range(n_candidates)])
    finals = _advance(model, spec, zs, 0, spec.steps, noises, counter)
    rewards = evaluate_reward(reward, finals).tolist()
    best = int(np.argmax(rewards))  # the first of tied maxima, as a strict running max
    return RunResult(
        method=BON,
        final_sample=finals[best],
        final_reward=rewards[best],
        nfe_used=counter.count,
        seed=stream.root_seed,
        round_history={"candidates": rewards},
        nfe_breakdown={"denoise": counter.count},
    )


def run_zo(
    model: MixtureModel,
    spec: SolverSpec,
    reward: RewardModel,
    budget_nfe: int,
    step_tau: float,
    stream: RngStream,
) -> RunResult:
    """Hill climbing on the initial noise with spherical steps at fixed tau."""
    total = denoise_count(ZO, spec, budget_nfe)
    counter = NfeCounter()
    base = sample_gaussian(stream.child(0), model.dim)
    best_traj = denoise(model, spec, base, stream=stream.child(1).child(0), nfe=counter)
    best_reward = evaluate_reward(reward, best_traj.latents[-1])
    rewards = [best_reward]
    for step in range(1, total):
        neighbor = random_spherical_sample(base, 1, step_tau, stream.child(2).child(step)).candidates[0]
        traj = denoise(model, spec, neighbor, stream=stream.child(1).child(step), nfe=counter)
        score = evaluate_reward(reward, traj.latents[-1])
        rewards.append(score)
        if score > best_reward:
            base, best_reward, best_traj = neighbor, score, traj
    return RunResult(
        method=ZO,
        final_sample=best_traj.latents[-1],
        final_reward=best_reward,
        nfe_used=counter.count,
        seed=stream.root_seed,
        round_history={"evaluations": rewards},
        nfe_breakdown={"denoise": counter.count},
    )


def run_free(
    model: MixtureModel,
    spec: SolverSpec,
    reward: RewardModel,
    stream: RngStream,
) -> RunResult:
    """A single unsearched denoise, the no-extra-compute reference."""
    counter = NfeCounter()
    z = sample_gaussian(stream.child(0), model.dim)
    traj = denoise(model, spec, z, stream=stream.child(1), nfe=counter)
    score = evaluate_reward(reward, traj.latents[-1])
    return RunResult(
        method=FREE,
        final_sample=traj.latents[-1],
        final_reward=score,
        nfe_used=counter.count,
        seed=stream.root_seed,
        round_history={},
        nfe_breakdown={"denoise": counter.count},
    )
