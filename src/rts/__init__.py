"""Reward-guided search over the initial and intermediate noises of a sampler.

The package couples a gradient-free coarse-to-fine spherical search with a
closed-form flow-matching testbed so that every property of the method is
verifiable at desk scale: norm-preserving neighborhoods (`sphere`), surrogate
ascent directions from reward differences (`surrogate`), the alternating
search loop (`search`), curvature-based key-step selection (`keysteps`), the
analytic mixture testbed and solver (`sim`), the end-to-end pipeline with
Best-of-N and zeroth-order baselines (`pipeline`), and a CLI (`cli`) whose
report takes its p-values from numpy rank tests (`ranktests`).
"""

from .core import (
    BudgetError,
    ConfigError,
    DegenerateGradientError,
    DegeneratePerturbationError,
    DimensionError,
    Latent,
    NfeCounter,
    NoiseTrajectory,
    NonFiniteError,
    PreconditionError,
    RngStream,
    RtsError,
    as_latent,
    sample_gaussian,
)
from .keysteps import KeyStepSet, curvature, project_trajectory, select_key_steps
from .pipeline import (
    BON,
    FREE,
    METHODS,
    RTS,
    ZO,
    RtsConfig,
    RunResult,
    expected_rts_nfe,
    run_bon,
    run_free,
    run_rts,
    run_zo,
)
from .search import Evaluator, RoundSummary, SearchConfig, SearchState, coarse_round, fine_round, run_search
from .sim import (
    ODE,
    SDE,
    MixtureModel,
    ModePreferenceReward,
    QuadraticReward,
    RewardModel,
    SolverSpec,
    denoise,
    evaluate_reward,
    marginal_velocity,
    nearest_mode,
    one_step_clean_estimate,
)
from .sphere import NeighborSet, guided_spherical_sample, random_spherical_sample, tangent_project
from .surrogate import estimate_gradient

__version__ = "0.1.0"
