"""Shared value types, error taxonomy, and the deterministic RNG discipline.

Randomness is counter-based and hierarchical: every draw site receives an
:class:`RngStream`, identified by ``(root_seed, path)``. Deriving a child
stream appends one label to the path. The same ``(root_seed, path)`` always
produces the identical sequence of reals, regardless of evaluation order or
parallelism, so any run is replayable from its root seed alone. Streams are
values, not cursors: drawing from a stream twice yields the same numbers, and
distinct logical draws must use distinct child streams.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# A latent is a 1-D float64 vector of dimension >= 2. Plain arrays keep the
# numerics idiomatic; validation happens at operation boundaries.
Latent = np.ndarray

RewardScore = float

_MAX_SEED = 2**64


class RtsError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(RtsError, ValueError):
    """A latent or configuration has an unusable dimension."""


class NonFiniteError(RtsError, ValueError):
    """A NaN or infinity appeared where a finite value is required."""


class PreconditionError(RtsError, ValueError):
    """An argument violates a documented precondition."""


class DegeneratePerturbationError(RtsError, ArithmeticError):
    """A tangential perturbation collapsed below numerical tolerance."""


class DegenerateGradientError(RtsError, ArithmeticError):
    """A guidance gradient has no usable tangential component."""


class BudgetError(RtsError, RuntimeError):
    """An evaluation budget is too small for the requested operation."""


class ConfigError(RtsError, ValueError):
    """A run configuration is malformed."""


def as_latent(values, dim: int | None = None, *, batch: bool = False) -> Latent:
    """Validate ``values`` as a latent and return it as a float64 array.

    With ``batch`` a stack of latents, one per row of an ``(n, d)`` array,
    is accepted as well. Raises ``DimensionError`` for wrong shape or
    dimension < 2 and ``NonFiniteError`` if any entry is NaN or infinite.
    NaNs are a hard error everywhere in this package, never silently
    propagated.
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1 and not (batch and arr.ndim == 2):
        expected = "(d,) or (n, d)" if batch else "1-D"
        raise DimensionError(f"latent must be {expected}, got shape {arr.shape}")
    if arr.shape[-1] < 2:
        raise DimensionError(f"latent dimension must be >= 2, got {arr.shape[-1]}")
    if dim is not None and arr.shape[-1] != dim:
        raise DimensionError(f"expected dimension {dim}, got {arr.shape[-1]}")
    if not np.all(np.isfinite(arr)):
        raise NonFiniteError("latent contains NaN or infinite entries")
    return arr


@dataclass(frozen=True)
class RngStream:
    """A replayable random stream identified by ``(root_seed, path)``.

    The stream is realized as a Philox counter-based generator keyed by a
    ``SeedSequence`` over the root seed and the derivation path, so sibling
    streams are statistically independent and derivation order is irrelevant.
    """

    root_seed: int
    path: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if not (0 <= int(self.root_seed) < _MAX_SEED):
            raise PreconditionError(f"root_seed must be a u64, got {self.root_seed}")
        if any(int(p) < 0 for p in self.path):
            raise PreconditionError(f"path labels must be non-negative, got {self.path}")

    def child(self, label: int) -> "RngStream":
        """Derive the sub-stream for ``label`` by appending it to the path.

        Deriving with the same label twice gives the same child; distinct
        labels give statistically independent children.
        """
        if int(label) < 0:
            raise PreconditionError(f"derivation label must be non-negative, got {label}")
        return RngStream(self.root_seed, self.path + (int(label),))

    def generator(self) -> np.random.Generator:
        """A fresh generator positioned at the start of this stream."""
        seq = np.random.SeedSequence(self.root_seed, spawn_key=self.path)
        return np.random.Generator(np.random.Philox(seq))


def sample_gaussian(stream: RngStream, dim: int) -> Latent:
    """Draw one standard normal latent of dimension ``dim`` from ``stream``.

    The draw is a pure function of the stream identity: calling again with
    the same stream returns the identical vector.
    """
    if dim < 2:
        raise DimensionError(f"latent dimension must be >= 2, got {dim}")
    return stream.generator().standard_normal(dim)


@dataclass
class NoiseTrajectory:
    """One solver path: latents per step, injected noises, and the time grid.

    ``latents[0]`` is the initial noise at t = 1 and ``latents[-1]`` the final
    sample at t = 0. ``injected[i]`` is the unscaled standard normal added
    after integration step ``i``; stochastic runs carry one entry for each of
    the first L - 1 steps, deterministic runs carry none.
    """

    latents: np.ndarray
    injected: np.ndarray
    step_times: np.ndarray

    def __post_init__(self) -> None:
        self.latents = np.asarray(self.latents, dtype=np.float64)
        self.injected = np.asarray(self.injected, dtype=np.float64)
        self.step_times = np.asarray(self.step_times, dtype=np.float64)
        if self.latents.ndim != 2 or self.latents.shape[0] < 2:
            raise DimensionError(f"latents must be (steps+1, dim), got {self.latents.shape}")
        if self.step_times.shape != (self.latents.shape[0],):
            raise DimensionError("step_times must align with latents")
        steps = self.latents.shape[0] - 1
        if self.injected.size == 0:
            self.injected = self.injected.reshape(0, self.latents.shape[1])
        if self.injected.shape not in {(0, self.latents.shape[1]), (steps - 1, self.latents.shape[1])}:
            raise DimensionError(
                f"injected must hold 0 or {steps - 1} noises of dim {self.latents.shape[1]}, "
                f"got shape {self.injected.shape}"
            )
        if not np.all(np.isfinite(self.latents)):
            raise NonFiniteError("trajectory latents contain non-finite entries")
        if np.any(self.step_times < 0.0) or np.any(self.step_times > 1.0):
            raise PreconditionError("step_times must lie in [0, 1]")

    @property
    def dim(self) -> int:
        return self.latents.shape[1]

    @property
    def steps(self) -> int:
        return self.latents.shape[0] - 1


@dataclass
class NfeCounter:
    """Tally of denoiser evaluations (velocity or clean-estimate calls)."""

    count: int = 0

    def add(self, n: int = 1) -> None:
        if n < 0:
            raise PreconditionError("NFE increments must be non-negative")
        self.count += n
