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
whole path. Folding a word subtracts from the pool terms that depend only
on the word and the hash constant; for an integer label word at an integer
hash constant, the case of every ``RngStream`` and of a block derived with
one label for all, those terms are memoized (``_int_fold_terms``, a
bounded ``lru_cache`` of read-only arrays), so deriving a child costs a
few array operations on four words; for an array label, the products that
depend only on an integer hash constant are (``_int_hash_products``). A
draw turns the pool into the two-word Philox key exactly as
``SeedSequence.generate_state(2, np.uint64)`` does and sets it, at counter
0, on one reused Philox generator per thread, built at the first draw.
Every draw is bit for bit the one a fresh
``Generator(Philox(SeedSequence(root_seed, spawn_key=path)))`` makes, at a
fraction of its cost.

The error taxonomy lives in ``errors`` and is importable from here too.

A ``StreamBlock`` is an array of such streams, say one per seed of a
lockstep block or one per candidate row: it folds a label into every
element, turns every pool into its key and draws one latent per element
with array arithmetic, and each element draws what its ``RngStream`` draws.
An ``RngStream`` keeps its pool as a one-element block.
"""

from __future__ import annotations

import functools
import math
import numbers
import operator
import threading
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .errors import (  # noqa: F401  (the error taxonomy is importable from here too)
    BudgetError,
    ConfigError,
    DegeneratePerturbationError,
    DimensionError,
    NonFiniteError,
    PreconditionError,
    RtsError,
)

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


def as_integer(value, what: str, low: int | None = None, high: int | None = None) -> int:
    """A seed, label or count as a Python int in [low, high]; 2.7, "3" or True is refused, not truncated or parsed."""
    try:  # a bool is an int to operator.index, True a 1
        number = operator.index(None if isinstance(value, bool) else value)
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


# SeedSequence's mixing multiplier to the powers 0..4: a label word is hashed
# into pool word i with the running constant times A**i and multiplied by it
# times A**(i+1), so one word folds into all four pool words at once
_POWERS_A = np.array([pow(_MULT_A, i, 2**32) for i in range(_POOL_SIZE + 1)], dtype=np.uint64)
# generate_state hashes the pool with constants that do not depend on it
_KEY_XOR = np.array([_INIT_B * pow(_MULT_B, i, 2**32) & _MASK32 for i in range(_POOL_SIZE)], dtype=np.uint64)
_KEY_MULT = np.array([_INIT_B * pow(_MULT_B, i + 1, 2**32) & _MASK32 for i in range(_POOL_SIZE)], dtype=np.uint64)


def _mix(value: np.ndarray) -> np.ndarray:
    return value ^ (value >> 16)


def _hash_products(hash_const) -> tuple[np.ndarray, np.ndarray]:
    """What folding at ``hash_const`` xors each word with and multiplies it by, ``(..., 4)`` each; the last
    product is the next hash constant."""
    return hash_const * _POWERS_A[:-1] & _MASK32, hash_const * _POWERS_A[1:] & _MASK32


def _fold_terms(word, hash_const) -> tuple[np.ndarray, np.ndarray]:
    """Folding ``word`` at ``hash_const``: the ``(..., 4)`` terms it subtracts from ``_MIX_L`` times each
    pool word, modulo 2**32, and the next hash constant ``(..., 1)``."""
    xor, mult = _int_hash_products(hash_const) if isinstance(hash_const, int) else _hash_products(hash_const)
    return _MIX_R * _mix((word ^ xor) * mult & _MASK32) & _MASK32, mult[..., -1:]


# Most (word, hash constant) pairs whose fold terms are kept, and most hash
# constants whose products are. The call sites fold a few small labels at a
# few depths, so a handful of entries serve every derivation; the bound keeps
# distinct 64-bit labels from growing it.
_FOLD_CACHE_SIZE = 1024


@functools.lru_cache(maxsize=_FOLD_CACHE_SIZE)
def _int_hash_products(hash_const: int) -> tuple[np.ndarray, np.ndarray]:
    """``_hash_products`` of an int hash constant, memoized as read-only arrays."""
    products = _hash_products(hash_const)
    for array in products:
        array.flags.writeable = False
    return products


@functools.lru_cache(maxsize=_FOLD_CACHE_SIZE)
def _int_fold_terms(word: int, hash_const: int) -> tuple[np.ndarray, int]:
    """``_fold_terms`` of an int word at an int hash constant, memoized: read-only ``(4,)`` terms and an int."""
    terms, next_hash = _fold_terms(word, hash_const)
    terms.flags.writeable = False
    return terms, int(next_hash[0])


class StreamBlock:
    """An array of streams, derived and drawn at once; each element is bit for bit one ``RngStream``.

    A block keeps each element's SeedSequence pool as uint64 words below
    2**32, so that the product of two words is exact, and derives, keys and
    draws with array arithmetic over all elements. The running hash constant
    depends only on how many label words were folded in, so it is one int for
    the whole block unless labels of one and of two words were mixed. Indexing
    a block indexes its leading axes, and ``child`` broadcasts its labels
    against them.
    """

    __slots__ = ("_pool", "_hash")

    def __init__(self, pool: np.ndarray, hash_const) -> None:
        self._pool = pool  # (..., 4) pool words
        self._hash = hash_const  # an int, or (..., 1) per element

    @classmethod
    def of(cls, streams) -> "StreamBlock":
        """The block of one ``RngStream`` (shape ``()``) or of a sequence of them (shape ``(S,)``); a block as it is.

        Anything else, an iterator of streams or a sequence holding something
        other than an ``RngStream``, raises ``PreconditionError``.
        """
        if isinstance(streams, StreamBlock):
            return streams
        if isinstance(streams, RngStream):
            return streams._pool
        if not isinstance(streams, Sequence) or not all(isinstance(stream, RngStream) for stream in streams):
            raise PreconditionError(f"expected an RngStream, a StreamBlock or a sequence of RngStreams, "
                                    f"got {type(streams).__name__}")
        pool = np.array([stream._pool._pool for stream in streams], dtype=np.uint64).reshape(-1, _POOL_SIZE)
        hashes = [stream._pool._hash for stream in streams]  # an RngStream's is an int
        if len(set(hashes)) == 1:
            return cls(pool, hashes[0])
        return cls(pool, np.array(hashes, dtype=np.uint64).reshape(-1, 1))

    @property
    def shape(self) -> tuple[int, ...]:
        return self._pool.shape[:-1]

    def __getitem__(self, index) -> "StreamBlock":
        index = (index if isinstance(index, tuple) else (index,)) + (slice(None),)  # the private last axis stays
        return StreamBlock(self._pool[index], self._hash if isinstance(self._hash, int) else self._hash[index])

    def _fold(self, word, fold=None) -> "StreamBlock":
        """Fold one 32-bit label word, an int or a uint64 array broadcast against the block, into every
        pool word; where ``fold`` is False, keep the stream."""
        if isinstance(word, int) and isinstance(self._hash, int):
            terms, hash_const = _int_fold_terms(word, self._hash)
        else:
            terms, hash_const = _fold_terms(word if isinstance(word, int) else word[..., None], self._hash)
            if isinstance(self._hash, int):
                hash_const = int(hash_const[0])
        pool = _mix((_MIX_L * self._pool - terms) & _MASK32)
        if fold is not None:
            pool = np.where(fold[..., None], pool, self._pool)
            hash_const = np.where(fold[..., None], hash_const, self._hash).astype(np.uint64)
        if not isinstance(hash_const, int):
            hash_const = np.broadcast_to(hash_const, pool.shape[:-1] + (1,))
        return StreamBlock(pool, hash_const)

    def child(self, labels) -> "StreamBlock":
        """Append a label to every path: one integer for all, or an array broadcast against the block.

        numpy folds a label one 32-bit word at a time, least significant
        first; an array label takes one or two words, so it must lie below
        2**64. Negative labels are refused.
        """
        if isinstance(labels, (int, np.integer)):
            block = self
            for word in _words(as_integer(labels, "derivation label", 0)):
                block = block._fold(word)
            return block
        labels = np.asarray(labels)
        if labels.dtype.kind not in "iu" or (labels.dtype.kind == "i" and labels.size and labels.min() < 0):
            raise PreconditionError(f"derivation labels must be integers in [0, 2**64), got {labels!r}")
        labels = labels.astype(np.uint64, copy=False)
        if labels.max(initial=0) <= _MASK32:
            return self._fold(labels)
        return self._fold(labels & _MASK32)._fold(labels >> 32, fold=labels > _MASK32)

    def keys(self) -> np.ndarray:
        """The ``(..., 2)`` Philox keys, as ``SeedSequence.generate_state(2, np.uint64)`` makes them."""
        words = _mix((self._pool ^ _KEY_XOR) * _KEY_MULT & _MASK32)
        return words[..., 0::2] | words[..., 1::2] << 32

    def normal(self, dim: int) -> np.ndarray:
        """One standard normal latent of dimension ``dim`` per stream, ``(..., dim)``."""
        rewound = _thread_generator().rewound
        draws = [rewound(key).standard_normal(dim) for key in self.keys().reshape(-1, 2).tolist()]
        return np.array(draws).reshape(self.shape + (dim,))


def _words(n: int) -> list[int]:
    """The 32-bit words of ``n``, least significant first; one zero word for 0."""
    words = [n & _MASK32]
    n >>= 32
    while n:
        words.append(n & _MASK32)
        n >>= 32
    return words


@dataclass(frozen=True)
class RngStream:
    """A replayable random stream identified by ``(root_seed, path)``.

    The stream is realized as a Philox counter-based generator keyed by a
    ``SeedSequence`` over the root seed and the derivation path, so sibling
    streams are statistically independent and derivation order is irrelevant.
    The stream carries that SeedSequence's entropy pool as a one-element
    ``StreamBlock`` (``_pool``), derived one label at a time: ``child`` folds
    only the new label into its parent's pool. The pool is a function of
    ``(root_seed, path)`` and takes no part in equality, hashing or the repr.
    """

    root_seed: int
    path: tuple[int, ...] = ()
    _pool: StreamBlock = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        root = as_integer(self.root_seed, "root_seed", 0, _MAX_SEED)
        path = tuple(as_integer(label, "path label", 0) for label in self.path)
        # numpy pads the root's words with zeros to the pool size when a spawn
        # key follows and hashes zeros for the missing words when none does,
        # so the pool of SeedSequence(root) starts every path
        pool = StreamBlock(np.random.SeedSequence(root).pool.astype(np.uint64), _ROOT_HASH)
        for label in path:
            pool = pool.child(label)
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
        object.__setattr__(child, "_pool", self._pool.child(label))
        return child

    def generator(self) -> np.random.Generator:
        """A fresh generator positioned at the start of this stream."""
        return np.random.Generator(np.random.Philox(key=self._pool.keys()))


class _ThreadGenerator(threading.local):
    """One Philox generator per thread, rewound to counter 0 under a new key for each draw."""

    def __init__(self) -> None:
        self.bits = np.random.Philox(0)
        self.generator = np.random.Generator(self.bits)
        # a fresh Philox state (counter 0, empty buffer) in plain ints, which
        # the state setter reads faster than numpy arrays
        self.state = {"bit_generator": "Philox", "state": {"counter": (0, 0, 0, 0), "key": (0, 0)},
                      "buffer": (0, 0, 0, 0), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}

    def rewound(self, key) -> np.random.Generator:
        self.state["state"]["key"] = key
        self.bits.state = self.state
        return self.generator


@functools.cache
def _thread_generator() -> _ThreadGenerator:
    """The per-thread generators, built at the first draw, so that importing this module leaves numpy.random
    unloaded."""
    return _ThreadGenerator()


def sample_gaussian(stream: RngStream | StreamBlock, dim: int) -> Latent:
    """Draw one standard normal latent of dimension ``dim`` from ``stream``, or ``(..., dim)`` from a block.

    The draw is a pure function of the stream identity: calling again with
    the same stream returns the identical vector, the one
    ``stream.generator().standard_normal(dim)`` returns.
    """
    dim = as_integer(dim, "latent dimension")
    if dim < 2:
        raise DimensionError(f"latent dimension must be >= 2, got {dim}")
    return StreamBlock.of(stream).normal(dim)


def row_norm(rows: np.ndarray) -> np.ndarray:
    """Norm along the last axis, bit for bit each row's ``np.linalg.norm`` (``vecdot`` sums as ``w @ w``)."""
    return np.sqrt(np.vecdot(rows, rows))

