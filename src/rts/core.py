"""Shared value types, error taxonomy, and the deterministic RNG discipline.

Randomness is counter-based and hierarchical: every draw site receives an
:class:`RngStream`, identified by ``(root_seed, path)``. Deriving a child
stream appends one label to the path. The same ``(root_seed, path)`` always
produces the identical sequence of reals, regardless of evaluation order or
parallelism, so any run is replayable from its root seed alone. Streams are
values, not cursors: drawing from a stream twice yields the same numbers, and
distinct logical draws must use distinct child streams.

A stream is numpy's ``SeedSequence(root_seed, spawn_key=path)`` keying a
Philox generator, derived one label at a time. Every label is one 32-bit
word, in [0, 2**32); a wider one raises ``PreconditionError``. numpy mixes
the root into a pool of four 32-bit words, then folds each label of the path
into the pool under a running hash constant, which depends only on how many
labels were folded. So a stream carries its pool, and ``child(label)`` folds
in only the label. Pools and fold terms are uint32 arrays, whose arithmetic
wraps modulo 2**32 as SeedSequence's does. The terms a label subtracts from
the pool depend only on the label and the hash constant. Every label below
256, an int or an array element, indexes its hash constant's table of the
terms of labels 0-255, one read-only array memoized in a bounded
``lru_cache`` (``_table_fold_terms``); a wider label is folded with array
arithmetic (``_fold_terms``). A draw turns the pool into the two-word
Philox key exactly as ``SeedSequence.generate_state(2, np.uint64)`` does,
reading each pair of mixed words as one little-endian uint64, and sets it,
at counter 0, on one reused Philox generator per thread, built at the first
draw. Every draw is bit for bit the one a fresh
``Generator(Philox(SeedSequence(root_seed, spawn_key=path)))`` makes, at a
fraction of its cost.

A ``StreamBlock`` is an array of such streams, say one per seed of a
lockstep block or one per candidate row. Its elements' paths are of one
length, so it has one hash constant. It folds a label into every element,
turns every pool into its key and draws one latent per element with array
arithmetic, and each element draws what its ``RngStream`` draws. An
``RngStream`` keeps its pool as a one-element block.
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

from . import errors  # by module, so that no error name has a second home here

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
# uint32 scalars, which an array's arithmetic takes without converting a Python int on every fold
_MIX_L, _MIX_R = np.uint32(0xCA01_F9DD), np.uint32(0x4973_F715)
_MIX_SHIFT = np.uint32(16)
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
        raise errors.DimensionError(f"latent must be {expected}, got shape {arr.shape}")
    if arr.shape[-1] < 2:
        raise errors.DimensionError(f"latent dimension must be >= 2, got {arr.shape[-1]}")
    if dim is not None and arr.shape[-1] != dim:
        raise errors.DimensionError(f"expected dimension {dim}, got {arr.shape[-1]}")
    # one pass over |arr|: a NaN propagates through the maximum and fails the bound as ±inf does
    if not np.maximum.reduce(np.abs(arr), axis=None, initial=0.0) < LATENT_BOUND:
        if not np.isfinite(arr).all():
            raise errors.NonFiniteError("latent contains NaN or infinite entries")
        raise errors.NonFiniteError(f"latent has an entry of magnitude >= {LATENT_BOUND:g}, "
                                    "whose square would overflow")
    return arr


def as_integer(value, what: str, low: int | None = None, high: int | None = None) -> int:
    """A seed, label or count as a Python int in [low, high]; 2.7, "3" or True is refused, not truncated or parsed."""
    try:  # a bool is an int to operator.index, True a 1
        number = operator.index(None if isinstance(value, bool) else value)
    except TypeError:
        raise errors.PreconditionError(f"{what} must be an integer, got {value!r}") from None
    if (low is not None and number < low) or (high is not None and number > high):
        bounds = f"be >= {low}" if high is None else f"lie in [{low}, {high}]"
        raise errors.PreconditionError(f"{what} must {bounds}, got {number}")
    return number


def check_scalar(value, what: str, low: float | None = None, high: float | None = None) -> None:
    """Check a finite float (a real, not a bool) in [low, high], unconverted; "0.5", inf and True fail."""
    try:  # math.isfinite raises on an integer too large for a float
        valid = not isinstance(value, (bool, np.bool_)) and isinstance(value, numbers.Real) and math.isfinite(value)
    except OverflowError:
        valid = False
    if not valid:
        raise errors.PreconditionError(f"{what} must be a finite float, got {value!r}")
    if (low is not None and not value >= low) or (high is not None and not value <= high):
        raise errors.PreconditionError(f"{what} must lie in [{low}, {high}], got {value}")


# SeedSequence's mixing multiplier to the powers 0..4: a label word is hashed
# into pool word i with the running constant times A**i and multiplied by it
# times A**(i+1), so one word folds into all four pool words at once
_POWERS_A = np.array([pow(_MULT_A, i, 2**32) for i in range(_POOL_SIZE + 1)], dtype=np.uint32)
# generate_state hashes the pool with constants that do not depend on it
_KEY_XOR = np.array([_INIT_B * pow(_MULT_B, i, 2**32) & _MASK32 for i in range(_POOL_SIZE)], dtype=np.uint32)
_KEY_MULT = np.array([_INIT_B * pow(_MULT_B, i + 1, 2**32) & _MASK32 for i in range(_POOL_SIZE)], dtype=np.uint32)


def _mix(value: np.ndarray) -> np.ndarray:
    return value ^ (value >> _MIX_SHIFT)


def _fold_terms(word, hash_const: int) -> tuple[np.ndarray, np.ndarray]:
    """Folding ``word``, an int or a uint32 ``(..., 1)`` array, at ``hash_const``: the uint32 ``(..., 4)`` terms
    it subtracts from ``_MIX_L`` times each pool word, and the next hash constant ``(1,)``, the last product."""
    xor, mult = hash_const * _POWERS_A[:-1], hash_const * _POWERS_A[1:]
    return _MIX_R * _mix((word ^ xor) * mult), mult[-1:]


# Labels below _TABLE_SIZE fold by indexing a table of their terms. A hash
# constant follows from a path's length, so few tables are ever built; the
# bound holds them to 64 tables of 4 KB.
_TABLE_SIZE = 256
_TABLE_CACHE_SIZE = 64


@functools.lru_cache(maxsize=_TABLE_CACHE_SIZE)
def _table_fold_terms(hash_const: int) -> tuple[np.ndarray, int]:
    """``_fold_terms`` of the words 0 to 255 at ``hash_const``, memoized: a read-only ``(256, 4)`` table whose
    row i holds word i's terms, and the next hash constant as an int."""
    terms, next_hash = _fold_terms(np.arange(_TABLE_SIZE, dtype=np.uint32)[:, None], hash_const)
    terms.flags.writeable = False
    return terms, int(next_hash[0])


class StreamBlock:
    """An array of streams, derived and drawn at once; each element is bit for bit one ``RngStream``.

    A block keeps each element's SeedSequence pool as four uint32 words,
    whose products and differences wrap modulo 2**32 as SeedSequence's do,
    and derives, keys and draws with array arithmetic over all elements.
    Every element's path is of one length, so the block has one running hash
    constant, an int. A label below 256, an int or an array element, folds by
    indexing that constant's table of terms; a wider one is computed. A key
    is the block's mixed words read in pairs as little-endian uint64s, a
    view. Indexing a block indexes its leading axes, and ``child``
    broadcasts its labels against them.
    """

    __slots__ = ("_pool", "_hash")

    def __init__(self, pool: np.ndarray, hash_const: int) -> None:
        self._pool = pool  # (..., 4) uint32 pool words
        self._hash = hash_const

    @classmethod
    def of(cls, streams, shape: tuple[int, ...] | None = None) -> "StreamBlock":
        """The block of one ``RngStream`` (shape ``()``) or of a sequence of them (shape ``(S,)``); a block as it is.

        The one check of a stream argument: anything else, an iterator or a
        sequence holding what is not an ``RngStream`` (named), raises
        ``PreconditionError``, as do paths of different lengths and, given the
        leading ``shape`` of the latents drawn for, a block of another shape.
        """
        if isinstance(streams, RngStream):
            streams = streams._pool
        elif not isinstance(streams, StreamBlock):
            if not isinstance(streams, Sequence):
                raise errors.PreconditionError(f"expected an RngStream, a StreamBlock or a sequence of RngStreams, "
                                        f"got {type(streams).__name__}")
            if odd := sorted({type(stream).__name__ for stream in streams if not isinstance(stream, RngStream)}):
                raise errors.PreconditionError(f"expected a sequence of RngStreams, got {type(streams).__name__} "
                                        f"holding {', '.join(odd)}")
            if len({len(stream.path) for stream in streams}) > 1:
                raise errors.PreconditionError("the streams of a block must have paths of one length")
            pool = np.array([stream._pool._pool for stream in streams], dtype=np.uint32).reshape(-1, _POOL_SIZE)
            streams = cls(pool, streams[0]._pool._hash if streams else _ROOT_HASH)
        if shape is not None and streams.shape != shape:
            raise errors.PreconditionError(f"latents of leading shape {shape} need one stream per row, got streams of "
                                    f"shape {streams.shape}")
        return streams

    @property
    def shape(self) -> tuple[int, ...]:
        return self._pool.shape[:-1]

    def __getitem__(self, index) -> "StreamBlock":
        index = (index if isinstance(index, tuple) else (index,)) + (slice(None),)  # the private last axis stays
        return StreamBlock(self._pool[index], self._hash)

    def child(self, labels) -> "StreamBlock":
        """Append a label to every path: one integer for all, or an array broadcast against the block.

        Every label is one 32-bit word, folded into every pool word: a label
        outside [0, 2**32) raises ``PreconditionError``.
        """
        if isinstance(labels, (int, np.integer)):
            labels = high = as_integer(labels, "derivation label", 0, _MASK32)
        else:
            labels = np.asarray(labels)
            # the dtype check comes first: min and max of a string array raise numpy's own error
            if (labels.dtype.kind not in "iu" or (high := labels.max(initial=0)) > _MASK32
                    or labels.min(initial=0) < 0):
                raise errors.PreconditionError(f"derivation labels must be integers in [0, 2**32), got {labels!r}")
        if high < _TABLE_SIZE:
            table, hash_const = _table_fold_terms(self._hash)
            terms = table[labels]
        else:
            terms, next_hash = _fold_terms(np.asarray(labels, dtype=np.uint32)[..., None], self._hash)
            hash_const = int(next_hash[0])
        return StreamBlock(_mix(_MIX_L * self._pool - terms), hash_const)

    def keys(self) -> np.ndarray:
        """The ``(..., 2)`` Philox keys, as ``SeedSequence.generate_state(2, np.uint64)`` makes them: C-contiguous
        uint64."""
        words = _mix((self._pool ^ _KEY_XOR) * _KEY_MULT)
        return words.astype("<u4", order="C", copy=False).view("<u8")

    def normal(self, dim: int) -> np.ndarray:
        """One standard normal latent of dimension ``dim`` per stream, ``(..., dim)``."""
        rewound = _thread_generator().rewound
        draws = np.empty(self.shape + (dim,))
        for key, row in zip(self.keys().reshape(-1, 2).tolist(), draws.reshape(-1, dim)):
            rewound(key).standard_normal(out=row)
        return draws


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
        path = tuple(as_integer(label, "path label", 0, _MASK32) for label in self.path)
        # numpy pads the root's words with zeros to the pool size when a spawn
        # key follows and hashes zeros for the missing words when none does,
        # so the pool of SeedSequence(root) starts every path
        pool = StreamBlock(np.random.SeedSequence(root).pool.astype(np.uint32), _ROOT_HASH)
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
        label = as_integer(label, "derivation label", 0, _MASK32)
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
        raise errors.DimensionError(f"latent dimension must be >= 2, got {dim}")
    return StreamBlock.of(stream).normal(dim)


def row_norm(rows: np.ndarray) -> np.ndarray:
    """Norm along the last axis, bit for bit each row's ``np.linalg.norm`` (``vecdot`` sums as ``w @ w``)."""
    return np.sqrt(np.vecdot(rows, rows))

