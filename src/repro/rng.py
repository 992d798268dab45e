"""Seeded random-number-stream management.

Every stochastic component of the library (PMF sampling, runtime availability
processes, iteration-time draws, randomized heuristics) draws from a
:class:`numpy.random.Generator`. To keep experiments reproducible across
replications and across parallel entities (one stream per simulated
processor), streams are derived from a root seed with
:class:`numpy.random.SeedSequence` spawning, which guarantees statistically
independent child streams.

The helpers here are thin but used pervasively; centralizing them keeps the
seeding discipline in one place.

Streams that are built many at a time (the workers and fault processes of
every simulated run) go through :func:`rngs_from_words`. It gives each
stream the bits of ``default_rng(SeedSequence(seed, spawn_key=key))``
without numpy's per-stream Python overhead: the caller supplies the uint32
entropy words numpy would assemble (:func:`entropy_words`), numpy mixes
each pool, and numpy's output hash (``SeedSequence.generate_state``) is
computed for the whole batch in one vectorized pass.
"""

from __future__ import annotations

import operator
from collections.abc import Iterable, Iterator, Sequence
from typing import Any

import numpy as np
from numpy.random.bit_generator import ISpawnableSeedSequence

__all__ = [
    "make_rng",
    "spawn_rngs",
    "rng_stream",
    "ensure_rng",
    "entropy_words",
    "rngs_from_words",
]

#: Default root seed used when a caller does not provide one. Chosen once so
#: that "no seed given" still yields reproducible library-level defaults.
DEFAULT_SEED = 20120521  # IPDPS 2012 workshop week

_MASK32 = 0xFFFFFFFF

#: Size of numpy's entropy pool in 32-bit words. A seed shorter than the
#: pool is zero-padded to it when a spawn key follows.
_POOL_WORDS = 4

#: numpy's ``SeedSequence.generate_state`` output hash: output word ``i``
#: is pool word ``i mod 4`` xored with a running constant (``INIT_B``,
#: multiplied by ``MULT_B`` at each word), times the stepped constant,
#: then xor-shifted right by 16. ``_HASH_XOR[i]`` and ``_HASH_MUL[i]`` are
#: the constant before and after step ``i``, for the 8 words of a PCG64
#: seed (four uint64).
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_XSHIFT = np.uint32(16)
_HASH_XOR = np.array(
    [_INIT_B * _MULT_B**i & _MASK32 for i in range(8)], dtype=np.uint32
)
_HASH_MUL = np.array(
    [_INIT_B * _MULT_B ** (i + 1) & _MASK32 for i in range(8)], dtype=np.uint32
)
#: The pool word each output word hashes.
_HASH_SRC = np.arange(8) % _POOL_WORDS


def make_rng(seed: int | None = None) -> np.random.Generator:
    """Return a new PCG64 generator seeded with ``seed``.

    ``None`` falls back to :data:`DEFAULT_SEED` (deterministic), never to OS
    entropy: simulation experiments must be repeatable by default. Callers
    that genuinely want fresh entropy can construct their own generator.
    """
    if seed is None:
        seed = DEFAULT_SEED
    return np.random.default_rng(seed)


def ensure_rng(rng: np.random.Generator | int | None) -> np.random.Generator:
    """Coerce ``rng`` to a generator: pass through, seed an int, or default."""
    if isinstance(rng, np.random.Generator):
        return rng
    return make_rng(rng)


def _int_words(value: int) -> tuple[int, ...]:
    """``value`` as little-endian 32-bit words; 0 is one zero word."""
    words = [value & _MASK32]
    value >>= 32
    while value:
        words.append(value & _MASK32)
        value >>= 32
    return tuple(words)


def entropy_words(seed: int, spawn_key: Sequence[int] = ()) -> tuple[int, ...]:
    """The uint32 words numpy's ``SeedSequence(seed, spawn_key=...)`` mixes.

    The seed split into little-endian 32-bit words, zero-padded to the
    pool's 4 words when a spawn key follows, then each key int split the
    same way. ``SeedSequence(np.array(words, np.uint32))`` has the same
    pool as ``SeedSequence(seed, spawn_key=spawn_key)``. Every int must be
    >= 0 (callers validate).
    """
    words = _int_words(seed)
    if spawn_key:
        words += (0,) * (_POOL_WORDS - len(words))
        for key in spawn_key:
            words += _int_words(key)
    return words


def _output_hash(pools: np.ndarray) -> np.ndarray:
    """``generate_state(8, np.uint32)`` of each row of ``pools``.

    ``pools`` is an ``(m, 4)`` uint32 array of mixed entropy pools.
    """
    out = pools.take(_HASH_SRC, axis=1)
    out ^= _HASH_XOR
    out *= _HASH_MUL
    out ^= out >> _XSHIFT
    return out


class _BatchSeeded(ISpawnableSeedSequence):
    """A seed sequence whose PCG64 seed words were computed in a batch.

    ``PCG64`` asks its seed sequence for ``generate_state(4, np.uint64)``
    once, on construction; the first such call returns the precomputed
    words. Every other call, and :meth:`spawn`, goes to the real
    :class:`~numpy.random.SeedSequence` (same pool, so the same answers),
    which keeps ``Generator.spawn`` and ``bit_generator.jumped()``
    unchanged.
    """

    __slots__ = ("_seq", "_state")

    def __init__(self, seq: np.random.SeedSequence, state: np.ndarray) -> None:
        self._seq = seq
        self._state: np.ndarray | None = state

    def generate_state(self, n_words: int, dtype: Any = np.uint32) -> np.ndarray:
        state = self._state
        if state is not None and n_words == 4 and dtype is np.uint64:
            self._state = None
            return state
        return self._seq.generate_state(n_words, dtype)

    def spawn(  # type: ignore[override]
        self, n_children: int
    ) -> list[np.random.SeedSequence]:
        return self._seq.spawn(n_children)


def rngs_from_words(keys: Iterable[np.ndarray]) -> list[np.random.Generator]:
    """One PCG64 generator per entropy-word array, built in one batch.

    Each key is the 1-D uint32 array of :func:`entropy_words`; generator
    ``i`` draws exactly what ``np.random.default_rng(SeedSequence(seed,
    spawn_key=key))`` draws for the seed and key behind ``keys[i]``.
    numpy mixes each pool; its output hash runs once over all of them.
    """
    seqs = [np.random.SeedSequence(key) for key in keys]
    if not seqs:
        return []
    # Pairs of output words are little-endian uint64 (numpy's own view).
    states = (
        _output_hash(np.array([seq.pool for seq in seqs]))
        .astype("<u4", copy=False)
        .view("<u8")
        .astype(np.uint64, copy=False)
    )
    return [
        np.random.Generator(np.random.PCG64(_BatchSeeded(seq, state)))
        for seq, state in zip(seqs, states)
    ]


def spawn_rngs(seed: int | None, n: int) -> list[np.random.Generator]:
    """Spawn ``n`` independent generators from a root ``seed``.

    Used to give each simulated processor (or each replication) its own
    stream so that adding a processor does not perturb the draws seen by the
    others. Child ``i`` is ``SeedSequence(seed).spawn(n)[i]``: spawn key
    ``(i,)``. ``seed`` may be a numpy integer; it must be >= 0.
    """
    if n < 0:
        raise ValueError(f"cannot spawn a negative number of streams: {n}")
    root = DEFAULT_SEED if seed is None else operator.index(seed)
    if root < 0:
        raise ValueError(f"seed must be >= 0, got {root}")
    # Each child's words: the root's, padded as for any spawn key, then i.
    prefix = entropy_words(root, (0,))[:-1]
    keys = np.empty((n, len(prefix) + 1), dtype=np.uint32)
    keys[:, :-1] = prefix
    keys[:, -1] = np.arange(n)
    return rngs_from_words(keys)


def rng_stream(seed: int | None) -> Iterator[np.random.Generator]:
    """Yield an unbounded sequence of independent generators.

    Convenient for replication loops of unknown length::

        for rep, rng in zip(range(reps), rng_stream(seed)):
            ...
    """
    root = np.random.SeedSequence(DEFAULT_SEED if seed is None else seed)
    while True:
        (child,) = root.spawn(1)
        yield np.random.default_rng(child)
