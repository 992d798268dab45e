"""Deterministic seed tree for serial and parallel execution.

Every stochastic task in the pipeline — a stage-II replication, a cell of
the study grid, a validation run — needs its own independent random
stream, and the stream must not depend on *where* the task executes
(serial loop, process pool, future distributed backends). The historic
ad-hoc derivations (``base + 7919 * case``, ``base * 1_000_003 + rep``)
were arithmetic on the integer line, where different ``(root, index)``
pairs can land on the same seed and therefore replay the same draws.

A :class:`SeedTree` replaces them with :class:`numpy.random.SeedSequence`
spawn keys: a node is ``(root entropy, path)`` where the path is a tuple
of hashed components. Two nodes with different paths have different spawn
keys by construction, so their streams are statistically independent and
cannot collide the way integer arithmetic can. Path components may be
ints or strings (``tree.child("cell", "case2", "app1").child(rep)``), so
seeds are derived from *what* a task is, not from loop-index arithmetic.

``SeedTree(None)`` draws fresh OS entropy for the root — "no seed" means
a genuinely new experiment — while ``SeedTree(42)`` is fully
reproducible. Callers that want the library's deterministic default root
pass :data:`repro.rng.DEFAULT_SEED` explicitly. A negative root is
rejected.

Each node also keeps the uint32 words numpy would assemble from its root
and path, so :meth:`SeedTree.rngs` can build many streams in one batch
(:func:`repro.rng.rngs_from_words`) with the bits of
``default_rng(node.seed_sequence())``. Path components are hashed once per
process (a bounded memo of each component's BLAKE2b word).

This module is, next to :mod:`repro.rng`, the only place allowed to
touch ``numpy.random`` directly (lint rule ``RNG001``): the seed tree
*is* part of the seeding discipline.
"""

from __future__ import annotations

import functools
import hashlib
from collections.abc import Iterable

import numpy as np

from ..rng import entropy_words, rngs_from_words

__all__ = ["SeedTree", "derive_seed", "encode_component"]


@functools.lru_cache(maxsize=4096)
def _encode_tag(tag: str) -> tuple[int, tuple[int, ...]]:
    """The 64-bit BLAKE2b word of a tagged component, and its key words.

    Memoized: simulations hash the same few kinds and worker ids over and
    over. A pure function of ``tag``, so the memo changes no result.
    """
    digest = hashlib.blake2b(tag.encode("utf-8"), digest_size=8).digest()
    word = int.from_bytes(digest, "big")
    return word, entropy_words(word)


def _encode(component: int | str) -> tuple[int, tuple[int, ...]]:
    """:func:`encode_component` and the uint32 words of its result."""
    if isinstance(component, bool) or not isinstance(component, (int, str)):
        raise TypeError(
            f"seed-tree path components must be int or str, got "
            f"{type(component).__name__}"
        )
    return _encode_tag(
        f"i:{component}" if isinstance(component, int) else f"s:{component}"
    )


def encode_component(component: int | str) -> int:
    """Hash one path component to a stable 64-bit spawn-key word.

    Ints and strings are tagged before hashing so ``child(1)`` and
    ``child("1")`` denote different children. The hash (BLAKE2b) is
    stable across processes and Python versions — unlike built-in
    ``hash()``, which is salted per interpreter.
    """
    return _encode(component)[0]


class SeedTree:
    """A node in the deterministic seed-derivation tree.

    The tree is value-like and cheap: nodes hold the root entropy, the
    path of hashed components and the uint32 entropy words numpy's
    :class:`~numpy.random.SeedSequence` would assemble from the two
    (:func:`repro.rng.entropy_words`), extended once per :meth:`child`.
    Streams and integer seeds are built from those words, with the bits
    of the node's :meth:`seed_sequence`.
    """

    __slots__ = ("_entropy", "_path", "_words")

    def __init__(self, seed: int | None = None) -> None:
        if seed is None:
            # Fresh OS entropy: "no seed" means a new experiment, not a
            # silent replay of seed 0 (the bug this class fixes).
            entropy = np.random.SeedSequence().entropy
            assert entropy is not None
            self._entropy = int(entropy)
        else:
            if isinstance(seed, bool) or not isinstance(seed, int):
                raise TypeError(
                    f"seed must be an int or None, got {type(seed).__name__}"
                )
            if seed < 0:
                raise ValueError(f"seed must be >= 0, got {seed}")
            self._entropy = seed
        self._path: tuple[int, ...] = ()
        self._words = entropy_words(self._entropy)

    # -------------------------------------------------------------- structure

    @property
    def entropy(self) -> int:
        """The root entropy shared by every node of this tree."""
        return self._entropy

    @property
    def spawn_key(self) -> tuple[int, ...]:
        """The node's path as SeedSequence spawn-key words."""
        return self._path

    def child(self, *path: int | str) -> "SeedTree":
        """The descendant node at ``path`` (components are ints/strings)."""
        if not path:
            raise ValueError("child() needs at least one path component")
        key: tuple[int, ...] = ()
        key_words: tuple[int, ...] = ()
        for component in path:
            word, words = _encode(component)
            key += (word,)
            key_words += words
        node = SeedTree.__new__(SeedTree)
        node._entropy = self._entropy
        node._path = self._path + key
        # Below the root the words are padded already: the key's follow.
        node._words = (
            self._words + key_words
            if self._path
            else entropy_words(self._entropy, key)
        )
        return node

    # ------------------------------------------------------------- derivation

    def seed_sequence(self) -> np.random.SeedSequence:
        """The node's :class:`~numpy.random.SeedSequence`."""
        return np.random.SeedSequence(self._entropy, spawn_key=self._path)

    def seed(self) -> int:
        """A 128-bit integer seed for APIs that take plain int seeds.

        The node's ``seed_sequence().generate_state(4, np.uint32)`` read
        as one big-endian int, so two distinct paths yield independent
        (and, with probability ``1 - 2^-128``, distinct) seeds. The
        sequence is built from the node's words: same pool, same state.
        """
        sequence = np.random.SeedSequence(np.array(self._words, dtype=np.uint32))
        value = 0
        for word in sequence.generate_state(4, np.uint32).tolist():
            value = (value << 32) | word
        return value

    def rng(self) -> np.random.Generator:
        """A PCG64 generator seeded at this node."""
        return SeedTree.rngs((self,))[0]

    @staticmethod
    def rngs(nodes: Iterable["SeedTree"]) -> list[np.random.Generator]:
        """``[node.rng() for node in nodes]``, built in one batch.

        Same bits as ``default_rng(node.seed_sequence())`` per node (see
        :func:`repro.rng.rngs_from_words`).
        """
        return rngs_from_words(
            [np.array(node._words, dtype=np.uint32) for node in nodes]
        )

    # -------------------------------------------------------------- plumbing

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SeedTree):
            return NotImplemented
        return self._entropy == other._entropy and self._path == other._path

    def __hash__(self) -> int:
        return hash((self._entropy, self._path))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SeedTree(entropy={self._entropy}, path={self._path})"


def derive_seed(seed: int | None, *path: int | str) -> int:
    """One-shot helper: the integer seed at ``path`` under root ``seed``.

    ``seed=None`` draws a fresh entropy root per call; pass an explicit
    root for reproducible derivation.
    """
    node = SeedTree(seed)
    return (node.child(*path) if path else node).seed()
