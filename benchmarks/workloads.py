"""The in-process workloads: inputs from a seed, method variants, output checks.

Every call into the package goes through a module attribute
(``pipeline.run_rts``, ``sim.denoise``, ...) so that the tracer's wrappers,
installed at those bindings, see it.
"""

from __future__ import annotations

import hashlib
import math
from collections import defaultdict
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable

import numpy as np

import testbed
from rts import core, pipeline, search, sim, sphere, surrogate

TESTBED_BLOCK = 200
HIGHDIM_BLOCK = 128
HIGHDIM_DIM = 1024
HIGHDIM_COMPONENTS = 64
HIGHDIM_MEAN_SCALE = 0.2
HIGHDIM_STDDEV = 0.6
HIGHDIM_PREFERRED_WEIGHT = 0.1
# Label under which the high-dimensional mixture is drawn from the workload seed.
_MIXTURE_STREAM = 7


@dataclass
class Variant:
    name: str
    run: Callable[[core.RngStream], pipeline.RunResult]
    rts_cfg: pipeline.RtsConfig | None = None


@dataclass
class Workload:
    name: str
    model: sim.MixtureModel
    spec: sim.SolverSpec
    reward: sim.ModePreferenceReward
    budget: int
    seeds: range
    variants: list[Variant] = field(default_factory=list)


def solver_spec() -> sim.SolverSpec:
    return sim.SolverSpec(**testbed.SOLVER)


def rts_configs() -> dict[str, pipeline.RtsConfig]:
    init = search.SearchConfig(**testbed.SEARCH_INIT)
    inter = search.SearchConfig(**testbed.SEARCH_INTER)
    off = search.SearchConfig(rounds=0)
    k, eval_init = testbed.K_KEYSTEPS, testbed.EVAL_STEPS_INIT
    return {
        "rts": pipeline.RtsConfig(search_init=init, search_inter=inter, k_keysteps=k, eval_steps_init=eval_init),
        "init": pipeline.RtsConfig(search_init=init, search_inter=off, k_keysteps=0, eval_steps_init=eval_init),
        "inter": pipeline.RtsConfig(search_init=off, search_inter=inter, k_keysteps=k),
    }


def matched_budget(cfg: pipeline.RtsConfig, spec: sim.SolverSpec) -> int:
    """Worst-case full-pipeline cost: key steps at 1 and the last k-1 steps."""
    worst = [1] + list(range(spec.steps - cfg.k_keysteps + 1, spec.steps))
    return pipeline.expected_rts_nfe(cfg, spec, key_positions=worst)["total"]


def _variants(model, spec, reward, budget, names) -> list[Variant]:
    # the lambdas look pipeline.run_* up at call time, so installed spans see them
    def rts_variant(name: str, cfg: pipeline.RtsConfig) -> Variant:
        return Variant(name, lambda stream: pipeline.run_rts(model, spec, reward, cfg, stream), cfg)

    variants = {name: rts_variant(name, cfg) for name, cfg in rts_configs().items()}
    variants["bon"] = Variant("bon", lambda stream: pipeline.run_bon(model, spec, reward, budget, stream))
    variants["zo"] = Variant(
        "zo", lambda stream: pipeline.run_zo(model, spec, reward, budget, testbed.ZO_STEP_TAU, stream)
    )
    variants["free"] = Variant("free", lambda stream: pipeline.run_free(model, spec, reward, stream))
    return [variants[name] for name in names]


def testbed_d2(seed: int, block: int = TESTBED_BLOCK) -> Workload:
    """Criterion-7/8 testbed; workload seed n runs replicate seeds n*200 .. n*200+199."""
    model = sim.MixtureModel(**testbed.MIXTURE)
    spec = solver_spec()
    reward = sim.ModePreferenceReward(model=model, preferred=testbed.PREFERRED, sharpness=testbed.SHARPNESS)
    budget = matched_budget(rts_configs()["rts"], spec)
    first = seed * TESTBED_BLOCK
    names = ("rts", "init", "inter", "bon", "zo", "free")
    return Workload("testbed-d2", model, spec, reward, budget, range(first, first + block),
                    _variants(model, spec, reward, budget, names))


def highdim_mixture(seed: int) -> sim.MixtureModel:
    """64 components at d=1024, means N(0, 0.2^2) per coordinate from the seed."""
    rng = core.RngStream(seed, (_MIXTURE_STREAM,)).generator()
    means = rng.normal(0.0, HIGHDIM_MEAN_SCALE, size=(HIGHDIM_COMPONENTS, HIGHDIM_DIM))
    weights = np.full(HIGHDIM_COMPONENTS, (1.0 - HIGHDIM_PREFERRED_WEIGHT) / (HIGHDIM_COMPONENTS - 1))
    weights[0] = HIGHDIM_PREFERRED_WEIGHT
    weights /= weights.sum()
    return sim.MixtureModel(weights=weights, means=means, stddevs=np.full(HIGHDIM_COMPONENTS, HIGHDIM_STDDEV))


def highdim_d1024(seed: int, block: int = HIGHDIM_BLOCK) -> Workload:
    """Model-bound workload; workload seed n draws the mixture and runs n*128 .. n*128+127."""
    model = highdim_mixture(seed)
    spec = solver_spec()
    reward = sim.ModePreferenceReward(model=model, preferred=0, sharpness=0.6 * math.sqrt(HIGHDIM_DIM))
    budget = matched_budget(rts_configs()["rts"], spec)
    first = seed * HIGHDIM_BLOCK
    return Workload("highdim-d1024", model, spec, reward, budget, range(first, first + block),
                    _variants(model, spec, reward, budget, ("rts", "bon", "free")))


BUILDERS = {"testbed-d2": testbed_d2, "highdim-d1024": highdim_d1024}


def run_seed(workload: Workload, seed: int) -> dict:
    """Run every variant on one replicate seed; an exception stands in for a result."""
    runs = {}
    for variant in workload.variants:
        try:
            runs[variant.name] = variant.run(core.RngStream(seed))
        except Exception as exc:  # a failed run is counted, not fatal
            runs[variant.name] = exc
    return runs


def check_run(workload: Workload, variant: Variant, result) -> list[str]:
    """The output checks of one run; an empty list means it passed."""
    if isinstance(result, Exception):
        return [f"{variant.name} raised {type(result).__name__}: {result}"]
    problems = []
    if result.nfe_used > workload.budget:
        problems.append(f"{variant.name} used {result.nfe_used} NFE over budget {workload.budget}")
    if variant.rts_cfg is not None and not result.truncated:
        keys = () if result.key_steps is None else result.key_steps.indices
        expected = pipeline.expected_rts_nfe(variant.rts_cfg, workload.spec, keys)
        if {**result.nfe_breakdown, "total": result.nfe_used} != expected:
            problems.append(f"{variant.name} ledger {result.nfe_breakdown} != expected {expected}")
    if sim.evaluate_reward(workload.reward, result.final_sample) != result.final_reward:
        problems.append(f"{variant.name} final_reward does not re-score from final_sample")
    return problems


def run_fingerprint(name: str, seed: int, result) -> str:
    """Every deterministic output of a run, as one line for the digest."""
    keys = () if result.key_steps is None else result.key_steps.indices
    return (
        f"{name}|{seed}|{result.final_reward!r}|{result.nfe_used}|{sorted(result.nfe_breakdown.items())}"
        f"|{keys}|{result.truncated}|{np.asarray(result.final_sample).tobytes().hex()}\n"
    )


class Outcomes:
    """Checks every run and accumulates the deterministic outputs of one pass.

    Seeds seen again (a later pass over the block) are compared with the
    first pass instead of being counted twice.
    """

    def __init__(self, workload: Workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.rewards: dict[str, list[float]] = defaultdict(list)
        self.hits: dict[str, list[bool]] = defaultdict(list)
        self.nfe_per_seed: list[int] = []
        self._first: dict[tuple[int, str], str] = {}
        self._seen: set[int] = set()
        self._digest = hashlib.sha256()

    def add(self, seed: int, runs: dict) -> None:
        first_pass = seed not in self._seen
        self._seen.add(seed)
        nfe = 0
        for variant in self.workload.variants:
            result = runs[variant.name]
            self.attempted += 1
            problems = check_run(self.workload, variant, result)
            if not problems:
                line = run_fingerprint(variant.name, seed, result)
                previous = self._first.setdefault((seed, variant.name), line)
                if previous != line:
                    problems.append(f"{variant.name} seed {seed} differs from its first run")
            if problems:
                self.failed += 1
                self.problems.extend(problems)
                continue
            if first_pass:
                self._digest.update(line.encode())
                self.rewards[variant.name].append(result.final_reward)
                self.hits[variant.name].append(
                    sim.nearest_mode(self.workload.model, result.final_sample) == self.workload.reward.preferred
                )
                nfe += result.nfe_used
        if first_pass:
            self.nfe_per_seed.append(nfe)

    def digest(self) -> str:
        return self._digest.hexdigest()[:16]

    def mean_rewards(self) -> dict[str, float]:
        return {name: float(np.mean(values)) for name, values in self.rewards.items()}

    def summary(self) -> dict:
        return {
            "mean_reward": float(np.mean(self.rewards["rts"])),
            "hit_rate": float(np.mean(self.hits["rts"])),
            "nfe_per_seed": float(np.mean(self.nfe_per_seed)),
            "variant_mean_reward": self.mean_rewards(),
            "variant_hit_rate": {name: float(np.mean(v)) for name, v in self.hits.items()},
            "digest": self.digest(),
            "seeds": len(self.nfe_per_seed),
        }


def median_call_us(fn, budget_s: float, min_repeats: int = 5, max_repeats: int = 5000) -> float:
    """Median wall time of one call in microseconds, each call timed alone."""
    fn()
    times = []
    spent = 0.0
    while len(times) < min_repeats or (spent < budget_s and len(times) < max_repeats):
        start = perf_counter()
        fn()
        elapsed = perf_counter() - start
        times.append(elapsed)
        spent += elapsed
    return float(np.median(times)) * 1e6


def micro_timings(model: sim.MixtureModel, spec: sim.SolverSpec, reward, budget_s: float) -> dict[str, float]:
    """Isolated per-call costs at one model, for the per-layer ledger.

    The search round is a coarse round of the intermediate-phase config
    whose evaluator is one clean estimate plus the reward, as at a key step.
    """
    dim = model.dim
    stream = core.RngStream(2**32 + 1)
    x = core.sample_gaussian(stream, dim)
    inter = search.SearchConfig(**testbed.SEARCH_INTER)
    rewards = np.linspace(0.1, 0.4, inter.n_neighbors)
    t_key = float(spec.time_grid[spec.steps // 2])

    def sphere_sample():
        neighbors = sphere.random_spherical_sample(x, inter.n_neighbors, inter.tau, stream.child(3))
        return surrogate.estimate_gradient(0.2, neighbors.with_rewards(rewards))

    def evaluate(z):
        return sim.evaluate_reward(reward, sim.one_step_clean_estimate(model, z, t_key))

    state = search.SearchState(dim=dim, seed_base=x)
    return {
        "core.draw_us": median_call_us(lambda: core.sample_gaussian(stream.child(1), dim), budget_s),
        "sim.model_call_us": median_call_us(lambda: sim.marginal_velocity(model, x, 0.5), budget_s),
        "sim.denoise_us": median_call_us(lambda: sim.denoise(model, spec, x, stream=stream.child(2)), budget_s),
        "sphere.sample_us": median_call_us(sphere_sample, budget_s),
        "search.round_us": median_call_us(
            lambda: search.coarse_round(state, inter, evaluate, stream.child(4)), budget_s
        ),
    }
