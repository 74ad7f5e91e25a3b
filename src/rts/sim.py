"""Closed-form flow-matching testbed: mixture targets, Heun solver, rewards.

The generative process is linear-interpolation flow matching toward a
Gaussian mixture: x_t = (1−t)·x₀ + t·ε with x₀ drawn from the mixture and
ε standard normal, so x_t given component j is Gaussian with mean (1−t)·μ_j
and isotropic variance ((1−t)·σ_j)² + t². Everything a learned denoiser
would provide is available exactly:

    velocity(x, t)  = E[ε − x₀ | x_t = x]      (marginal flow velocity)
    clean(x, t)     = E[x₀ | x_t = x]          (one-step clean estimate)

both computed from the per-component posterior responsibilities and
linear-Gaussian conditioning. The solver integrates from t = 1 to t = 0 with
Heun predictor-corrector steps (two velocity evaluations per step). In SDE
mode each of the first L−1 steps additionally adds churn·√Δt·z_l with z_l a
standard normal that is either injected by the caller or drawn from the
run's stream, which keeps every trajectory a pure function of
(z_init, injected noises).

The model calls, ``heun_step`` and ``evaluate_reward`` take one latent
``(d,)`` or a batch ``(n, d)`` of independent rows; a batch costs n NFEs per
model call and gives, row for row, the same bits as n single-latent calls.

The constants of the kernel that depend only on the model and on t are
computed once: the log-weights per model, and the per-component variance,
Gaussian log-normalizer and velocity and clean coefficients per (model, t),
in a table bounded by ``_TIME_TABLE_SIZE`` times. Each is the expression a
call would otherwise evaluate, so outputs are bit-identical to recomputing
them on every call; only what depends on x is computed per call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import wraps
from typing import NamedTuple, Union

import numpy as np

from .core import (
    DimensionError,
    Latent,
    NfeCounter,
    NoiseTrajectory,
    NonFiniteError,
    PreconditionError,
    RngStream,
    as_integer,
    as_latent,
    sample_gaussian,
)

ODE = "ode"
SDE = "sde"

# Most steps a solver grid may have: ten times a 1000-step DDPM schedule. An
# absurd count is refused up front instead of failing to allocate its grid.
MAX_STEPS = 10_000

# Weight multiplier for the preferred component of ModePreferenceReward.
# Large enough that a rare preferred mode still dominates the reward: with
# weight 0.1 against three 0.3 components the tilted weights are 0.53 vs
# 0.16 apiece.
_PREFERRED_BOOST = 10.0

# Largest rows × components × d that one vectorized model or reward call
# spans; a bigger batch is evaluated in chunks of as many rows as fit, and
# one row at a time when a single row is over the cap. Beyond this size the
# (rows, components, d) temporaries page-fault on every call, which made
# whole-batch calls 2.5-4x slower per row than single rows at d=1024 with
# 64 components.
_BATCH_ELEMENTS = 2**14

# Most distinct times a model keeps constants for. A solver revisits the
# steps + 1 points of its grid on every solve, so any grid up to this size
# is computed once; past it the table starts over, so calls at arbitrary
# times cannot grow memory without limit.
_TIME_TABLE_SIZE = 256


class _TimeConstants(NamedTuple):
    """The (K,) per-component constants of the kernel at one time t."""

    var: np.ndarray  # ((1−t)·σ)² + t²
    log_norm: np.ndarray  # 0.5·d·log(2π·var)
    velocity: np.ndarray  # (t − (1−t)·σ²) / var, as a (K, 1) column
    clean: np.ndarray  # (1−t)·σ² / var, as a (K, 1) column


@dataclass
class MixtureModel:
    """Isotropic Gaussian mixture standing in for a pre-trained model.

    Treat it as immutable: the log-weights and the per-time kernel
    constants are computed from the parameters once.
    """

    weights: np.ndarray
    means: np.ndarray
    stddevs: np.ndarray
    _log_weights: np.ndarray = field(init=False, repr=False, compare=False)
    _by_time: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.weights = np.asarray(self.weights, dtype=np.float64)
        self.means = np.asarray(self.means, dtype=np.float64)
        self.stddevs = np.asarray(self.stddevs, dtype=np.float64)
        if self.means.ndim != 2 or self.means.shape[1] < 2:
            raise DimensionError(f"means must be (components, dim >= 2), got {self.means.shape}")
        k = self.means.shape[0]
        if self.weights.shape != (k,) or self.stddevs.shape != (k,):
            raise DimensionError("weights, means, stddevs must have one entry per component")
        if not all(np.all(np.isfinite(a)) for a in (self.weights, self.means, self.stddevs)):
            raise NonFiniteError("mixture parameters must be finite")
        if np.any(self.weights <= 0.0):
            raise PreconditionError("mixture weights must be positive")
        if abs(float(np.sum(self.weights)) - 1.0) > 1e-12:
            raise PreconditionError("mixture weights must sum to 1 within 1e-12")
        if np.any(self.stddevs <= 0.0):
            raise PreconditionError("component stddevs must be positive")
        self._log_weights = np.log(self.weights)
        self._by_time = {}

    def _at(self, t: float) -> _TimeConstants:
        """The kernel constants of time t, computed on the first call at t."""
        consts = self._by_time.get(t)
        if consts is None:
            one_minus = 1.0 - t
            var = (one_minus * self.stddevs) ** 2 + t * t
            consts = _TimeConstants(
                var=var,
                log_norm=0.5 * self.dim * np.log(2.0 * math.pi * var),
                velocity=((t - one_minus * self.stddevs**2) / var)[:, None],
                clean=(one_minus * self.stddevs**2 / var)[:, None],
            )
            if len(self._by_time) >= _TIME_TABLE_SIZE:
                self._by_time.clear()
            self._by_time[t] = consts
        return consts

    @property
    def dim(self) -> int:
        return self.means.shape[1]

    @property
    def n_components(self) -> int:
        return self.means.shape[0]


@dataclass
class SolverSpec:
    """Integration plan: mode, step count, churn scale, and the uniform time grid from 1 to 0 they imply."""

    mode: str
    steps: int
    churn: float = 0.0
    time_grid: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.mode not in (ODE, SDE):
            raise PreconditionError(f"mode must be '{ODE}' or '{SDE}', got {self.mode!r}")
        as_integer(self.steps, "steps", 1, MAX_STEPS)
        if self.mode == ODE and self.churn != 0.0:
            raise PreconditionError("ODE mode requires churn = 0")
        if self.mode == SDE and not self.churn > 0.0:
            raise PreconditionError("SDE mode requires churn > 0")
        self.time_grid = np.linspace(1.0, 0.0, self.steps + 1)


def _in_chunks(fn, model: MixtureModel, x: np.ndarray) -> np.ndarray:
    """``fn(x)`` on one latent or a batch whole, or chunk by chunk past the cap."""
    rows = max(1, _BATCH_ELEMENTS // (model.n_components * model.dim))
    if x.ndim == 1 or x.shape[0] <= rows:
        return fn(x)
    return np.concatenate([fn(x[i : i + rows]) for i in range(0, x.shape[0], rows)])


def _capped(kernel):
    """Bound the temporaries of a ``(model, x, t)`` kernel; see ``_BATCH_ELEMENTS``."""

    @wraps(kernel)
    def apply(model: MixtureModel, x: np.ndarray, t: float) -> np.ndarray:
        return _in_chunks(lambda rows: kernel(model, rows, t), model, x)

    return apply


def _posterior(model: MixtureModel, x: np.ndarray, t: float):
    """Responsibilities and centered rows of x_t, with the constants of ``t``; broadcasts over rows of x."""
    consts = model._at(t)
    centered = x[..., None, :] - (1.0 - t) * model.means
    log_resp = model._log_weights - 0.5 * (centered * centered).sum(axis=-1) / consts.var - consts.log_norm
    log_resp -= log_resp.max(axis=-1, keepdims=True)
    resp = np.exp(log_resp, out=log_resp)
    resp /= resp.sum(axis=-1, keepdims=True)
    return resp, centered, consts


@_capped
def _velocity(model: MixtureModel, x: np.ndarray, t: float) -> np.ndarray:
    """Marginal velocity, valid on all of [0, 1] by continuity; broadcasts."""
    resp, centered, consts = _posterior(model, x, t)
    per_component = consts.velocity * centered - model.means
    return (resp[..., None] * per_component).sum(axis=-2)


@_capped
def _clean(model: MixtureModel, x: np.ndarray, t: float) -> np.ndarray:
    resp, centered, consts = _posterior(model, x, t)
    per_component = model.means + consts.clean * centered
    return (resp[..., None] * per_component).sum(axis=-2)


def _check_time(t: float) -> float:
    t = float(t)
    if not 0.0 < t <= 1.0:
        raise PreconditionError(f"t must lie in (0, 1], got {t}")
    return t


def _charge(nfe: NfeCounter | None, x: np.ndarray, per_row: int) -> None:
    if nfe is not None:
        nfe.add(per_row * (x.shape[0] if x.ndim == 2 else 1))


def marginal_velocity(model: MixtureModel, x: Latent, t: float, nfe: NfeCounter | None = None) -> Latent:
    """Exact marginal velocity E[ε − x₀ | x_t = x] of the mixture flow, per row."""
    x = as_latent(x, model.dim, batch=True)
    t = _check_time(t)
    _charge(nfe, x, 1)
    return _velocity(model, x, t)


def one_step_clean_estimate(model: MixtureModel, x: Latent, t: float, nfe: NfeCounter | None = None) -> Latent:
    """Conditional expectation E[x₀ | x_t = x], the single-call clean prediction, per row."""
    x = as_latent(x, model.dim, batch=True)
    t = _check_time(t)
    _charge(nfe, x, 1)
    return _clean(model, x, t)


def heun_step(
    model: MixtureModel,
    x: np.ndarray,
    t_from: float,
    t_to: float,
    nfe: NfeCounter | None = None,
) -> np.ndarray:
    """One predictor-corrector step from t_from to t_to (two velocity calls per row).

    The corrector slope at t_to = 0 uses the continuous limit of the
    marginal velocity, which is finite and smooth for positive stddevs.
    """
    dt = t_to - t_from
    v_from = _velocity(model, x, t_from)
    predicted = x + dt * v_from
    v_to = _velocity(model, predicted, t_to)
    _charge(nfe, x, 2)
    return x + dt * 0.5 * (v_from + v_to)


def _advance(
    model: MixtureModel,
    spec: SolverSpec,
    x: np.ndarray,
    start: int,
    stop: int,
    injected: np.ndarray | None = None,
    nfe: NfeCounter | None = None,
    trace: np.ndarray | None = None,
) -> np.ndarray:
    """Move ``x``, one latent or an ``(n, d)`` batch, across solver steps [start, stop).

    Each step is a Heun step, then, at every step but the last of the grid,
    churn·√Δt·``injected[..., step, :]``: an ``(L−1, d)`` array shares its
    noises across rows, an ``(n, L−1, d)`` array gives each row its own, and
    None adds no churn. ``trace[..., step + 1, :]`` receives each new state.
    """
    grid = spec.time_grid
    for step in range(start, stop):
        x = heun_step(model, x, grid[step], grid[step + 1], nfe)
        if injected is not None and step < spec.steps - 1:
            x = x + spec.churn * math.sqrt(grid[step] - grid[step + 1]) * injected[..., step, :]
        if trace is not None:
            trace[..., step + 1, :] = x
    return x


def _solve(
    model: MixtureModel,
    spec: SolverSpec,
    z: np.ndarray,
    injected: np.ndarray | None,
    nfe: NfeCounter | None,
) -> np.ndarray:
    """Every state of the full solve from ``z``, as ``(..., L+1, d)``; see ``_advance``."""
    trace = np.empty(z.shape[:-1] + (spec.steps + 1, model.dim))
    trace[..., 0, :] = z
    _advance(model, spec, z, 0, spec.steps, injected, nfe, trace)
    return trace


def _churn_noises(spec: SolverSpec, dim: int, stream: RngStream) -> np.ndarray:
    """The ``(L−1, d)`` churn noises of a stochastic solve; step i draws from ``stream.child(i)``."""
    return np.array([sample_gaussian(stream.child(i), dim) for i in range(spec.steps - 1)]).reshape(-1, dim)


def denoise(
    model: MixtureModel,
    spec: SolverSpec,
    z_init: Latent,
    injected: np.ndarray | None = None,
    stream: RngStream | None = None,
    nfe: NfeCounter | None = None,
) -> NoiseTrajectory:
    """Integrate from t = 1 to t = 0, recording every state and injected noise.

    In SDE mode each of the first L−1 steps appends churn·√Δt·z_l after the
    Heun update, with z_l taken from ``injected`` when provided (replay) or
    drawn from ``stream.child(step)`` otherwise. Costs exactly 2·L velocity
    evaluations.
    """
    z_init = as_latent(z_init, model.dim)
    steps = spec.steps
    if spec.mode == ODE:
        if injected is not None and len(injected) > 0:
            raise PreconditionError("ODE mode accepts no injected noises")
        injected_arr = np.zeros((0, model.dim))
    else:
        if injected is not None:
            injected_arr = np.asarray(injected, dtype=np.float64)
            if injected_arr.shape != (steps - 1, model.dim):
                raise DimensionError(
                    f"expected {steps - 1} injected noises of dim {model.dim}, got {injected_arr.shape}"
                )
        elif stream is None:
            raise PreconditionError("SDE mode needs either injected noises or a stream")
        else:
            injected_arr = _churn_noises(spec, model.dim, stream)

    latents = _solve(model, spec, z_init, injected_arr if spec.mode == SDE else None, nfe)
    return NoiseTrajectory(latents=latents, injected=injected_arr)


@dataclass
class QuadraticReward:
    """Negative squared distance to a target point; maximum 0 at the target."""

    target: np.ndarray
    dim: int = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.target = as_latent(self.target)
        self.dim = self.target.shape[0]

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        diff = x - self.target
        return -np.vecdot(diff, diff)  # each row reduced as the 1-D diff @ diff is


@dataclass
class ModePreferenceReward:
    """Mixture-bump reward with one component upweighted.

    R(x) = Σ_j w̃_j · exp(−‖x − μ_j‖² / (2·sharpness²)) where w̃ is the
    mixture weight vector with the preferred component boosted and the whole
    vector renormalized to sum 1.
    """

    model: MixtureModel
    preferred: int
    sharpness: float
    _tilted: np.ndarray = field(init=False, repr=False)
    _width: float = field(init=False, repr=False)  # 2·sharpness²
    dim: int = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if not 0 <= self.preferred < self.model.n_components:
            raise PreconditionError(f"preferred component {self.preferred} out of range")
        if not self.sharpness > 0.0:
            raise PreconditionError("sharpness must be positive")
        try:
            self._width = 2.0 * self.sharpness**2
        except OverflowError:
            raise PreconditionError(f"sharpness {self.sharpness} is too large") from None
        tilted = self.model.weights.copy()
        tilted[self.preferred] *= _PREFERRED_BOOST
        self._tilted = tilted / np.sum(tilted)
        self.dim = self.model.dim

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        return _in_chunks(self._bumps, self.model, x)

    def _bumps(self, x: np.ndarray) -> np.ndarray:
        sq = np.sum((x[..., None, :] - self.model.means) ** 2, axis=-1)
        return np.sum(self._tilted * np.exp(-sq / self._width), axis=-1)


# the built-in rewards; any object with the protocol of ``evaluate_reward`` serves as well
RewardModel = Union[QuadraticReward, ModePreferenceReward]


def evaluate_reward(reward: RewardModel, x: Latent):
    """Score a sample, or each row of a batch; rejects non-finite inputs and outputs.

    ``reward`` is any object with ``dim``, the latent dimension it scores (None
    for any), and ``evaluate``, which maps an ``(n, d)`` batch to its n scores.
    One latent, scored as a one-row batch, gives a Python float, an ``(n, d)`` batch an array of n scores.
    Rows of another dimension than the reward's raise ``DimensionError``.
    """
    x = as_latent(x, reward.dim, batch=True)
    value = reward.evaluate(np.atleast_2d(x))
    if not np.all(np.isfinite(value)):
        raise NonFiniteError(f"reward evaluated to a non-finite value: {value}")
    return value if x.ndim == 2 else float(value[0])


def nearest_mode(model: MixtureModel, x: Latent) -> int:
    """Index of the component mean closest to x (Euclidean)."""
    x = as_latent(x, model.dim)
    distances = np.linalg.norm(model.means - x, axis=1)
    return int(np.argmin(distances))
