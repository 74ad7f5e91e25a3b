"""Shared value types, error taxonomy, and the deterministic RNG discipline.

Randomness is counter-based and hierarchical: every draw site receives an
:class:`RngStream`, identified by ``(root_seed, path)``. Deriving a child
stream appends one label to the path. The same ``(root_seed, path)`` always
produces the identical sequence of reals, regardless of evaluation order or
parallelism, so any run is replayable from its root seed alone. Streams are
values, not cursors: drawing from a stream twice yields the same numbers, and
distinct logical draws must use distinct child streams.

A stream is numpy's ``SeedSequence(root_seed, spawn_key=path)`` keying a
Philox generator, derived one label at a time: numpy mixes the root into a
pool of four 32-bit words and then folds every word of the path into that
pool in turn, so a stream carries its pool and the running hash constant, and
``child(label)`` folds in only the label's words instead of re-mixing the
whole path. A draw turns the pool into the two-word Philox key exactly as
``SeedSequence.generate_state(2, np.uint64)`` does and sets it, at counter 0,
on one reused Philox generator per thread. Every draw is bit for bit the one
a fresh ``Generator(Philox(SeedSequence(root_seed, spawn_key=path)))``
makes, at a fraction of its cost.
"""

from __future__ import annotations

import math
import numbers
import operator
import threading
from dataclasses import dataclass, field

import numpy as np

# A latent is a 1-D float64 vector of dimension >= 2. Plain arrays keep the
# numerics idiomatic; validation happens at operation boundaries.
Latent = np.ndarray

# Largest magnitude a latent entry may have, exclusive: below it the squared
# norm of a latent, which the mixture kernel and the rewards form, stays
# finite for any dimension under 1e8.
LATENT_BOUND = 1e150

_MAX_SEED = 2**64 - 1

# numpy's SeedSequence constants for its pool of four 32-bit words: the hash
# multiplier for mixing entropy in (A), the initial hash constant and the
# multiplier for generating state out (B), and the multipliers of the word mix
_POOL_SIZE = 4
_MASK32 = 0xFFFF_FFFF
_MULT_A = 0x931E_8875
_INIT_B, _MULT_B = 0x8B51_F9DD, 0x58F3_8DED
_MIX_L, _MIX_R = 0xCA01_F9DD, 0x4973_F715
# The hash constant once the root is mixed in. It does not depend on the
# root: SeedSequence hashes 16 words into the pool first (the root padded to
# four words, then each pool word into the other three).
_ROOT_HASH = 0x43B0_D7E5 * pow(_MULT_A, 16, 2**32) & _MASK32


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
    dimension < 2 and ``NonFiniteError`` if any entry is NaN, infinite or of
    magnitude ``LATENT_BOUND`` or more. NaNs are a hard error everywhere in
    this package, never silently propagated.
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1 and not (batch and arr.ndim == 2):
        expected = "(d,) or (n, d)" if batch else "1-D"
        raise DimensionError(f"latent must be {expected}, got shape {arr.shape}")
    if arr.shape[-1] < 2:
        raise DimensionError(f"latent dimension must be >= 2, got {arr.shape[-1]}")
    if dim is not None and arr.shape[-1] != dim:
        raise DimensionError(f"expected dimension {dim}, got {arr.shape[-1]}")
    if not (np.abs(arr) < LATENT_BOUND).all():
        if not np.isfinite(arr).all():
            raise NonFiniteError("latent contains NaN or infinite entries")
        raise NonFiniteError(f"latent has an entry of magnitude >= {LATENT_BOUND:g}, whose square would overflow")
    return arr


def _words(n: int) -> list[int]:
    """The 32-bit words of ``n``, least significant first; one zero word for 0."""
    words = [n & _MASK32]
    n >>= 32
    while n:
        words.append(n & _MASK32)
        n >>= 32
    return words


def _root_pool(root: int) -> tuple[tuple[int, ...], int]:
    """The pool and hash constant once SeedSequence has mixed in ``root``.

    numpy pads the root's words with zeros to the pool size when a spawn key
    follows and hashes zeros for the missing words when none does, so the
    pool of ``SeedSequence(root)`` starts every path.
    """
    return tuple(int(word) for word in np.random.SeedSequence(root).pool), _ROOT_HASH


def _fold(pool: tuple[int, ...], hash_const: int, label: int) -> tuple[tuple[int, ...], int]:
    """Fold one path label into the pool, as SeedSequence mixes entropy past the pool size.

    Each word of the label is hashed once per pool word and mixed into it.
    """
    pool = list(pool)
    for word in _words(label):
        for i in range(_POOL_SIZE):
            hashed = word ^ hash_const
            hash_const = hash_const * _MULT_A & _MASK32
            hashed = hashed * hash_const & _MASK32
            hashed ^= hashed >> 16
            mixed = (_MIX_L * pool[i] - _MIX_R * hashed) & _MASK32
            pool[i] = mixed ^ (mixed >> 16)
    return tuple(pool), hash_const


def as_integer(value, what: str, low: int | None = None, high: int | None = None) -> int:
    """A seed, label or count as a Python int in [low, high]; 2.7 or "3" is refused, not truncated or parsed."""
    try:
        number = operator.index(value)
    except TypeError:
        raise PreconditionError(f"{what} must be an integer, got {value!r}") from None
    if (low is not None and number < low) or (high is not None and number > high):
        bounds = f"be >= {low}" if high is None else f"lie in [{low}, {high}]"
        raise PreconditionError(f"{what} must {bounds}, got {number}")
    return number


def check_scalar(value, what: str, low: float | None = None, high: float | None = None, kind: type = float) -> None:
    """Check a finite float (a real, not a bool) or bool ``kind`` in [low, high], unconverted; "0.5", inf, "no" fail."""
    flag = isinstance(value, (bool, np.bool_))
    try:  # math.isfinite raises on an integer too large for a float
        valid = flag if kind is bool else not flag and isinstance(value, numbers.Real) and math.isfinite(value)
    except OverflowError:
        valid = False
    if not valid:
        expected = "bool" if kind is bool else "finite float"
        raise PreconditionError(f"{what} must be a {expected}, got {value!r}")
    if (low is not None and not value >= low) or (high is not None and not value <= high):
        raise PreconditionError(f"{what} must lie in [{low}, {high}], got {value}")


@dataclass(frozen=True)
class RngStream:
    """A replayable random stream identified by ``(root_seed, path)``.

    The stream is realized as a Philox counter-based generator keyed by a
    ``SeedSequence`` over the root seed and the derivation path, so sibling
    streams are statistically independent and derivation order is irrelevant.
    The stream carries that SeedSequence's entropy pool (``_pool``: four
    words and the running hash constant), derived one label at a time:
    ``child`` folds only the new label into its parent's pool. The pool is a
    function of ``(root_seed, path)`` and takes no part in equality, hashing
    or the repr.
    """

    root_seed: int
    path: tuple[int, ...] = ()
    _pool: tuple[tuple[int, ...], int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        root = as_integer(self.root_seed, "root_seed", 0, _MAX_SEED)
        path = tuple(as_integer(label, "path label", 0) for label in self.path)
        pool = _root_pool(root)
        for label in path:
            pool = _fold(*pool, label)
        object.__setattr__(self, "root_seed", root)
        object.__setattr__(self, "path", path)
        object.__setattr__(self, "_pool", pool)

    def child(self, label: int) -> "RngStream":
        """Derive the sub-stream for ``label`` by appending it to the path.

        Deriving with the same label twice gives the same child; distinct
        labels give statistically independent children. Only the new label
        is checked and folded in; the parent's path already was.
        """
        label = as_integer(label, "derivation label", 0)
        child = object.__new__(RngStream)
        object.__setattr__(child, "root_seed", self.root_seed)
        object.__setattr__(child, "path", self.path + (label,))
        object.__setattr__(child, "_pool", _fold(*self._pool, label))
        return child

    def _key(self) -> tuple[int, int]:
        """The two-word Philox key, as ``SeedSequence.generate_state(2, np.uint64)`` makes it."""
        words, hash_const = [], _INIT_B
        for value in self._pool[0]:
            value ^= hash_const
            hash_const = hash_const * _MULT_B & _MASK32
            value = value * hash_const & _MASK32
            words.append(value ^ (value >> 16))
        return words[0] | words[1] << 32, words[2] | words[3] << 32

    def generator(self) -> np.random.Generator:
        """A fresh generator positioned at the start of this stream."""
        return np.random.Generator(np.random.Philox(key=np.array(self._key(), dtype=np.uint64)))


class _ThreadGenerator(threading.local):
    """One Philox generator per thread, rewound to counter 0 under a new key for each draw."""

    def __init__(self) -> None:
        self.bits = np.random.Philox(0)
        self.generator = np.random.Generator(self.bits)
        # a fresh Philox state (counter 0, empty buffer) in plain ints, which
        # the state setter reads faster than numpy arrays
        self.state = {"bit_generator": "Philox", "state": {"counter": (0, 0, 0, 0), "key": (0, 0)},
                      "buffer": (0, 0, 0, 0), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}

    def rewound(self, key: tuple[int, int]) -> np.random.Generator:
        self.state["state"]["key"] = key
        self.bits.state = self.state
        return self.generator


_THREAD_GENERATOR = _ThreadGenerator()


def sample_gaussian(stream: RngStream, dim: int) -> Latent:
    """Draw one standard normal latent of dimension ``dim`` from ``stream``.

    The draw is a pure function of the stream identity: calling again with
    the same stream returns the identical vector, the one
    ``stream.generator().standard_normal(dim)`` returns.
    """
    if dim < 2:
        raise DimensionError(f"latent dimension must be >= 2, got {dim}")
    return _THREAD_GENERATOR.rewound(stream._key()).standard_normal(dim)


def row_norm(rows: np.ndarray) -> np.ndarray:
    """Norm along the last axis, bit for bit each row's ``np.linalg.norm`` (``vecdot`` sums as ``w @ w``)."""
    return np.sqrt(np.vecdot(rows, rows))


@dataclass
class NfeCounter:
    """Tally of denoiser evaluations (velocity or clean-estimate calls)."""

    count: int = 0

    def add(self, n: int = 1) -> None:
        if n < 0:
            raise PreconditionError("NFE increments must be non-negative")
        self.count += n
