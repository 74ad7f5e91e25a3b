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

The model calls, ``heun_step``, ``denoise`` and ``evaluate_reward`` take one
latent ``(d,)`` or a batch ``(n, d)`` of independent rows; a batch costs n
NFEs per model call, counted by the caller, and gives, row for row, the bits
of n single-latent calls. ``_heun_churn`` is the one solver step; ``denoise``
returns a trajectory as its per-step states and its injected noises.

The kernel expands ‖x − s·μ_k‖², s = 1 − t, about the center c of the
means: with M_c = μ − c and x' = x − s·c it is x'·x' − 2s·x'·M_c,k +
s²·M_c,k·M_c,k. Each model caches c, M_c, a contiguous M_c.T and M_c·M_c,
and per t (at most ``_TIME_TABLE_SIZE`` times) the (K,) vectors free of x
and the shifted center s·c, so the table holds at most
``_TIME_TABLE_SIZE``·(7K + d) floats. A call's largest arrays are
``(n, K)`` and ``(n, d)``; every dot is an ``np.vecdot``, which reduces
each row alone. A log-responsibility's error
is of order ε·‖x'‖²/var, the direct form's ε·‖x − s·μ_k‖²/var, so close
modes far from c lose precision (pairs 0.01 apart at ±30, stddev 1e-3:
5.6e-9, direct 4e-16). Tests hold each responsibility to 1e-12 of a
longdouble direct form, each velocity and clean row to 1e-12 of its
largest coordinate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Union

import numpy as np

from .core import (
    LATENT_BOUND,
    Latent,
    RngStream,
    StreamBlock,
    as_integer,
    as_latent,
    check_scalar,
    sample_gaussian,
)
from .errors import DimensionError, NonFiniteError, PreconditionError

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

# Most distinct times a model keeps constants for. A solver revisits the
# steps + 1 points of its grid on every solve, so any grid up to this size
# is computed once; past it the table starts over, so calls at arbitrary
# times cannot grow memory without limit.
_TIME_TABLE_SIZE = 256

_FLOAT = np.finfo(np.float64)

# the kernel's ufuncs and reductions, bound once: each model call makes about 19 numpy calls
_vecdot, _exp, _max_reduce, _sum_reduce = np.vecdot, np.exp, np.maximum.reduce, np.add.reduce


def _normal(values):
    """Whether each value is a positive normal float, not 0, subnormal or infinite, as a variance or width must be."""
    return (values >= _FLOAT.tiny) & (values <= _FLOAT.max)


class _TimeConstants(NamedTuple):
    """The kernel constants at t; the log-responsibility is log_prior + linear·x'·M_c + quadratic·x'·x'."""

    shift: np.ndarray  # s·c, (d,): x' = x − s·c
    log_prior: np.ndarray  # log w − 0.5·d·log(2π·var) − 0.5·s²·(M_c·M_c) / var, var = (s·σ)² + t²
    linear: np.ndarray  # s / var
    quadratic: np.ndarray  # −0.5 / var
    velocity: np.ndarray  # a = (t − s·σ²) / var, the coefficient of x'
    velocity_offset: np.ndarray  # a·s + 1, the coefficient of −M_c
    clean: np.ndarray  # b = s·σ² / var, the coefficient of x'
    clean_offset: np.ndarray  # 1 − b·s, the coefficient of M_c


@dataclass
class MixtureModel:
    """Isotropic Gaussian mixture standing in for a pre-trained model.

    Treat it as immutable: the log-weights, the centered means and the
    per-time kernel constants are computed from the parameters once.
    """

    weights: np.ndarray
    means: np.ndarray
    stddevs: np.ndarray
    _log_weights: np.ndarray = field(init=False, repr=False, compare=False)
    _center: np.ndarray = field(init=False, repr=False, compare=False)  # c, the mean of the means
    _offsets: np.ndarray = field(init=False, repr=False, compare=False)  # M_c = means − c, (K, d)
    _offsets_t: np.ndarray = field(init=False, repr=False, compare=False)  # M_c.T, contiguous (d, K)
    _offset_sq: np.ndarray = field(init=False, repr=False, compare=False)  # M_c·M_c per component, (K,)
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
        with np.errstate(over="ignore"):
            variances = self.stddevs**2
        if not (_normal(variances) & (self.stddevs > 0.0)).all():
            raise PreconditionError("component stddevs must be positive, with squares that are normal floats")
        if not (np.abs(self.means) < LATENT_BOUND).all():
            raise PreconditionError(f"mixture means must have entries of magnitude below {LATENT_BOUND:g}")
        self._log_weights = np.log(self.weights)
        self._center = self.means.mean(axis=0)
        self._offsets = self.means - self._center
        self._offsets_t = np.ascontiguousarray(self._offsets.T)
        self._offset_sq = np.vecdot(self._offsets, self._offsets)
        self._by_time = {}

    def _at(self, t: float) -> _TimeConstants:
        """The kernel constants of time t, computed on the first call at t."""
        consts = self._by_time.get(t)
        if consts is None:
            s = 1.0 - t
            var = (s * self.stddevs) ** 2 + t * t
            velocity = (t - s * self.stddevs**2) / var
            clean = s * self.stddevs**2 / var
            consts = _TimeConstants(
                shift=s * self._center,
                log_prior=self._log_weights - 0.5 * self.dim * np.log(2.0 * math.pi * var)
                - 0.5 * s * s * self._offset_sq / var,
                linear=s / var,
                quadratic=-0.5 / var,
                velocity=velocity,
                velocity_offset=velocity * s + 1.0,
                clean=clean,
                clean_offset=1.0 - clean * s,
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
        check_scalar(self.churn, "churn")
        if self.mode == ODE and self.churn != 0.0:
            raise PreconditionError("ODE mode requires churn = 0")
        if self.mode == SDE and not self.churn > 0.0:
            raise PreconditionError("SDE mode requires churn > 0")
        self.time_grid = np.linspace(1.0, 0.0, self.steps + 1)


def _posterior(model: MixtureModel, x: np.ndarray, t: float):
    """Responsibilities ``(..., K)`` and x' = x − (1−t)·c, with the constants of t; broadcasts over rows of x."""
    consts = model._by_time.get(t) or model._at(t)
    shifted = x - consts.shift
    log_resp = _vecdot(shifted[..., None, :], model._offsets)
    log_resp *= consts.linear
    log_resp += consts.log_prior
    log_resp += consts.quadratic * _vecdot(shifted, shifted, keepdims=True)
    log_resp -= _max_reduce(log_resp, axis=-1, keepdims=True)
    resp = _exp(log_resp, out=log_resp)
    resp /= _sum_reduce(resp, axis=-1, keepdims=True)
    return resp, shifted, consts


def _velocity(model: MixtureModel, x: np.ndarray, t: float) -> np.ndarray:
    """Marginal velocity, valid on all of [0, 1] by continuity; broadcasts."""
    resp, shifted, consts = _posterior(model, x, t)
    shifted *= _vecdot(resp, consts.velocity, keepdims=True)
    resp *= consts.velocity_offset
    shifted -= _vecdot(resp[..., None, :], model._offsets_t)
    shifted -= model._center
    return shifted


def _clean(model: MixtureModel, x: np.ndarray, t: float) -> np.ndarray:
    resp, shifted, consts = _posterior(model, x, t)
    shifted *= _vecdot(resp, consts.clean, keepdims=True)
    resp *= consts.clean_offset
    shifted += _vecdot(resp[..., None, :], model._offsets_t)
    shifted += model._center
    return shifted


def _check_time(t: float) -> float:
    t = float(t)
    if not 0.0 < t <= 1.0:
        raise PreconditionError(f"t must lie in (0, 1], got {t}")
    return t


def marginal_velocity(model: MixtureModel, x: Latent, t: float) -> Latent:
    """Exact marginal velocity E[ε − x₀ | x_t = x] of the mixture flow, per row."""
    x = as_latent(x, model.dim, batch=True)
    return _velocity(model, x, _check_time(t))


def one_step_clean_estimate(model: MixtureModel, x: Latent, t: float) -> Latent:
    """Conditional expectation E[x₀ | x_t = x], the single-call clean prediction, per row."""
    x = as_latent(x, model.dim, batch=True)
    return _clean(model, x, _check_time(t))


def heun_step(model: MixtureModel, x: np.ndarray, t_from: float, t_to: float) -> np.ndarray:
    """One predictor-corrector step from t_from to t_to (two velocity calls per row).

    The corrector slope at t_to = 0 uses the continuous limit of the
    marginal velocity, which is finite and smooth for positive stddevs.
    """
    dt = t_to - t_from
    v_from = _velocity(model, x, t_from)
    v_to = _velocity(model, x + dt * v_from, t_to)
    v_to += v_from
    v_to *= dt * 0.5
    v_to += x
    return v_to


def _heun_churn(model: MixtureModel, spec: SolverSpec, x: np.ndarray, grid: list, step: int):
    """Heun step ``step`` of ``x`` on ``grid``, ``spec.time_grid`` as floats, and its churn scale churn·√Δt."""
    t_from, t_to = grid[step], grid[step + 1]
    return heun_step(model, x, t_from, t_to), spec.churn * math.sqrt(t_from - t_to)


def _advance(
    model: MixtureModel,
    spec: SolverSpec,
    x: np.ndarray,
    injected: np.ndarray | None = None,
    trace: np.ndarray | None = None,
) -> np.ndarray:
    """Move ``x``, one latent or an ``(n, d)`` batch, across every solver step with ``_heun_churn``, t = 1 to 0.

    The churn noise of a step is ``injected[..., step, :]``: an ``(L−1, d)``
    array shares its noises across rows, an ``(n, L−1, d)`` array gives each
    row its own, and None adds no churn. ``trace[..., step + 1, :]`` receives
    each new state.
    """
    grid = spec.time_grid.tolist()  # Python floats give the differences np.float64 does, at less cost
    for step in range(spec.steps):
        x, scale = _heun_churn(model, spec, x, grid, step)
        if injected is not None and step < spec.steps - 1:
            x += scale * injected[..., step, :]  # x is heun_step's own
        if trace is not None:
            trace[..., step + 1, :] = x
    return x


def _churn_noises(spec: SolverSpec, dim: int, stream: StreamBlock) -> np.ndarray:
    """The ``(..., L−1, d)`` churn noises of a block of stochastic solves; step i draws from ``stream.child(i)``."""
    return sample_gaussian(stream[..., None].child(np.arange(spec.steps - 1)), dim)


def denoise(
    model: MixtureModel,
    spec: SolverSpec,
    z_init: Latent,
    injected: np.ndarray | None = None,
    stream: RngStream | list[RngStream] | StreamBlock | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Integrate one latent, or each row of an ``(n, d)`` batch, from t = 1 to t = 0.

    Returns ``(latents, injected)``: the ``(..., L+1, d)`` states, from
    ``z_init`` at t = 1 to the sample at t = 0, and the ``(..., L−1, d)``
    unscaled noises, none in ODE mode. In SDE mode each of the first L−1
    steps appends churn·√Δt·z_l after the Heun update, with z_l taken from
    ``injected`` when provided (replay) or drawn from ``stream.child(step)``
    otherwise; a batch takes a sequence, or a ``StreamBlock``, of one stream per row, as ``StreamBlock.of``
    checks. Noises are checked as latents before any model call. Costs 2·L NFEs per row.
    """
    z = as_latent(z_init, model.dim, batch=True)
    shape = z.shape[:-1] + (spec.steps - 1 if spec.mode == SDE else 0, model.dim)
    if spec.mode == ODE:
        if injected is not None and np.size(injected) > 0:
            raise PreconditionError("ODE mode accepts no injected noises")
        churn = None
    elif injected is not None:
        churn = np.asarray(injected, dtype=np.float64)
        if churn.shape != shape:
            raise DimensionError(f"expected injected noises of shape {shape}, got {churn.shape}")
        as_latent(churn.reshape(-1, model.dim), batch=True)
    elif stream is None:
        raise PreconditionError("SDE mode needs either injected noises or a stream")
    else:
        churn = _churn_noises(spec, model.dim, StreamBlock.of(stream, z.shape[:-1]))
    latents = np.empty(z.shape[:-1] + (spec.steps + 1, model.dim))
    latents[..., 0, :] = z
    _advance(model, spec, z, churn, latents)
    return latents, churn if churn is not None else np.zeros(shape)


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
        self.preferred = as_integer(self.preferred, "preferred component", 0, self.model.n_components - 1)
        check_scalar(self.sharpness, "sharpness")
        try:
            with np.errstate(over="ignore"):
                self._width = 2.0 * self.sharpness**2
        except OverflowError:  # a Python float's power raises
            self._width = math.inf
        if not (self.sharpness > 0.0 and _normal(self._width)):
            raise PreconditionError(f"sharpness must be positive, with 2·sharpness² a normal float, "
                                    f"got {self.sharpness}")
        tilted = self.model.weights.copy()
        tilted[self.preferred] *= _PREFERRED_BOOST
        self._tilted = tilted / np.sum(tilted)
        self.dim = self.model.dim

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        """Each row's reward; ‖x − μ_j‖² is expanded about c as in the kernel, error ~ε·‖x − c‖²/(2·sharpness²)."""
        model = self.model
        shifted = x - model._center
        # in place, and bit for bit (x·x − 2·x·M + M·M)·(−1) / width: IEEE rounding is symmetric in the sign
        sq = np.vecdot(shifted[..., None, :], model._offsets)
        sq *= -2.0
        sq += np.vecdot(shifted, shifted, keepdims=True)
        sq += model._offset_sq
        sq /= -self._width
        return np.vecdot(np.exp(sq, out=sq), self._tilted)


# the built-in rewards; any object with the protocol of ``evaluate_reward`` serves as well
RewardModel = Union[QuadraticReward, ModePreferenceReward]


def evaluate_reward(reward: RewardModel, x: Latent):
    """Score a sample, or each row of a batch; rejects non-finite inputs and outputs.

    ``reward`` is any object with ``dim``, the latent dimension it scores (None
    for any), and ``evaluate``, which maps an ``(n, d)`` batch to its n scores.
    One latent, scored as a one-row batch, gives a Python float, an ``(n, d)`` batch an array of n scores.
    Rows of another dimension than the reward's, or scores of another shape than ``(n,)``, raise ``DimensionError``.
    """
    x = as_latent(x, reward.dim, batch=True)
    rows = x if x.ndim == 2 else x[None]
    value = np.asarray(reward.evaluate(rows))
    if value.shape != (rows.shape[0],):
        raise DimensionError(f"reward must return {rows.shape[0]} scores, got shape {value.shape}")
    if not np.isfinite(value).all():
        raise NonFiniteError(f"reward evaluated to a non-finite value: {value}")
    return value if x.ndim == 2 else float(value[0])


def nearest_mode(model: MixtureModel, x: Latent) -> int:
    """Index of the component mean closest to x (Euclidean)."""
    x = as_latent(x, model.dim)
    distances = np.linalg.norm(model.means - x, axis=1)
    return int(np.argmin(distances))
