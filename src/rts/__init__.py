"""Reward-guided search over the initial and intermediate noises of a sampler.

The package couples a gradient-free coarse-to-fine spherical search with a
closed-form flow-matching testbed so that every property of the method is
verifiable at desk scale: norm-preserving neighborhoods (`sphere`), surrogate
ascent directions from reward differences (`surrogate`), the alternating
search loop (`search`), curvature-based key-step selection (`keysteps`), the
analytic mixture testbed and solver (`sim`), the end-to-end pipeline with
Best-of-N and zeroth-order baselines (`pipeline`), and a CLI (`cli`) whose
report (`report`) takes its p-values from pure-Python rank tests (`ranktests`).

Importing the package loads none of its modules: each name below is
imported from its home module at its first use, so that a command loads
only the modules it runs.
"""

import importlib

# home module -> the names the package exports from it
_EXPORTS = {
    "core": ("Latent", "RngStream", "StreamBlock", "as_latent", "sample_gaussian"),
    "errors": (
        "BudgetError", "ConfigError", "DegeneratePerturbationError", "DimensionError",
        "NonFiniteError", "PreconditionError", "RtsError",
    ),
    "keysteps": ("KeyStepSet", "curvature", "project_trajectory", "select_key_steps"),
    "pipeline": (
        "BON", "FREE", "METHODS", "RTS", "ZO", "RtsConfig", "RunResult", "expected_rts_nfe", "run_bon",
        "run_bon_block", "run_free", "run_free_block", "run_rts", "run_rts_block", "run_zo", "run_zo_block",
    ),
    "search": ("Evaluator", "RoundSummary", "SearchConfig", "SearchState", "coarse_round", "fine_round", "run_search"),
    "sim": (
        "ODE", "SDE", "MixtureModel", "ModePreferenceReward", "QuadraticReward", "RewardModel", "SolverSpec",
        "denoise", "evaluate_reward", "marginal_velocity", "nearest_mode", "one_step_clean_estimate",
    ),
    "sphere": ("NeighborSet", "guided_spherical_sample", "random_spherical_sample"),
    "surrogate": ("estimate_gradient",),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value  # later lookups find it without this hook
    return value
