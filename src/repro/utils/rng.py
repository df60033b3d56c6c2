"""Deterministic random-number management.

Every stochastic component in the library (dataset generators, weight
initialisers, attack injectors, power-rail noise) receives an explicit
seed.  This module centralises how seeds are derived so that experiment
scripts can fix a single master seed and still give statistically
independent streams to each component.

The scheme follows numpy's ``SeedSequence`` philosophy: a *name* is
hashed together with the master seed, so adding a new consumer never
perturbs the streams of existing ones (unlike ``seed + counter``
schemes).

Generators come two ways.  :func:`new_rng` makes one through numpy's
own ``SeedSequence``.  :func:`new_rngs` makes many at once with the
same streams: it runs numpy's seed hashing for every child as one
uint64 array pass (:func:`_seed_words`, a port of ``SeedSequence`` for
an int entropy with no spawn key and a pool of four) and hands each
child's words to ``PCG64`` through :class:`_SeedWords`.  numpy hashes
~6 µs to construct a ``SeedSequence`` and 6–10 µs more in
``generate_state``; given the words, ``Generator(PCG64(...))`` takes
~2 µs.  The array pass has a fixed cost of ~60–100 µs, so a single
generator stays on :func:`new_rng`, which is also the tests' oracle for
:func:`new_rngs`.
"""

from __future__ import annotations

import hashlib
from typing import Any, Iterable

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from repro.errors import ConfigError

__all__ = ["derive_seed", "new_rng", "new_rngs", "SeedSequence"]

_MAX_SEED = 2**63 - 1

# numpy's SeedSequence constants (numpy/random/bit_generator.pyx).
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_XSHIFT = 16
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4

#: The pool word each source word mixes into, in numpy's loop order.
_DESTINATIONS = [
    [dst for dst in range(_POOL_SIZE) if dst != src] for src in range(_POOL_SIZE)
]
#: ``generate_state(4, np.uint64)`` reads the pool twice round for 8 words.
_OUTPUT_CYCLE = np.arange(2 * _POOL_SIZE, dtype=np.int64) % _POOL_SIZE


def _hash_chain(init: int, mult: int, calls: int) -> tuple[np.ndarray, np.ndarray]:
    """The xor and multiply constants of ``calls`` successive hash calls.

    Each call xors its value with the running constant, advances the
    constant by ``mult`` and multiplies by the new one; the chain never
    depends on the data, so it is computed once.
    """
    chain = [init]
    for _ in range(calls):
        chain.append(chain[-1] * mult & _MASK32)
    constants = np.array(chain, dtype=np.uint64)
    return constants[:-1], constants[1:]


#: ``hashmix`` constants: four pool fills, then three per source word.
_A_XOR, _A_MUL = _hash_chain(_INIT_A, _MULT_A, _POOL_SIZE + _POOL_SIZE * (_POOL_SIZE - 1))
#: ``generate_state`` constants, one pair per output uint32 word.
_B_XOR, _B_MUL = _hash_chain(_INIT_B, _MULT_B, 2 * _POOL_SIZE)


def _hashmix(values: np.ndarray, xor: np.ndarray, mul: np.ndarray) -> np.ndarray:
    """numpy's ``hashmix`` on uint32 values held in uint64 (exact)."""
    mixed = ((values ^ xor) * mul) & _MASK32
    return mixed ^ (mixed >> _XSHIFT)


def _seed_words(seeds: np.ndarray) -> np.ndarray:
    """``SeedSequence(s).generate_state(4, np.uint64)`` for every seed.

    ``seeds`` is a uint64 array; the result is its ``(N, 4)`` uint64
    words.  Every value is a uint32 held in uint64: a product of two
    stays below 2**64, and a subtraction that wraps is masked back to
    32 bits, so each step is exact.  A seed is its 1–2 little-endian
    uint32 words; a missing word hashes as 0, exactly as numpy runs the
    hash out past a short entropy.
    """
    entropy = np.zeros((len(seeds), _POOL_SIZE), dtype=np.uint64)
    entropy[:, 0] = seeds & _MASK32
    entropy[:, 1] = seeds >> 32
    pool = _hashmix(entropy, _A_XOR[:_POOL_SIZE], _A_MUL[:_POOL_SIZE])
    # Each source word, hashed with three successive constants, mixes
    # into the other three words (numpy's ``mix``: L*x - R*y, xorshift).
    for src, dst in enumerate(_DESTINATIONS):
        first = _POOL_SIZE + 3 * src
        hashed = _hashmix(
            pool[:, src, None], _A_XOR[first : first + 3], _A_MUL[first : first + 3]
        )
        mixed = (_MIX_MULT_L * pool[:, dst] - _MIX_MULT_R * hashed) & _MASK32
        pool[:, dst] = mixed ^ (mixed >> _XSHIFT)
    state = _hashmix(pool[:, _OUTPUT_CYCLE], _B_XOR, _B_MUL)
    return np.ascontiguousarray(state[:, 0::2] | (state[:, 1::2] << 32))


class _SeedWords(ISeedSequence):
    """One generator's precomputed ``generate_state(4, np.uint64)`` words.

    numpy's bit generators use any ``ISeedSequence`` as they would a
    ``SeedSequence``; ``PCG64`` asks for exactly these words once.  Any
    other request is refused, since no other words were computed.
    """

    def __init__(self, words: np.ndarray) -> None:
        self._words = words

    def generate_state(self, n_words: int, dtype: Any = np.uint32) -> np.ndarray:
        # ``PCG64`` passes the type itself; skip the ~1 µs dtype build.
        if n_words != _POOL_SIZE or (
            dtype is not np.uint64 and np.dtype(dtype) != np.dtype(np.uint64)
        ):
            raise ConfigError(
                "precomputed seed words serve generate_state(4, uint64) only, "
                f"got ({n_words!r}, {dtype!r})"
            )
        return self._words


def _check_seed(seed: int) -> int:
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)):
        raise ConfigError(f"master_seed must be an int, got {seed!r}")
    return int(seed)


def _unnamed_seed(seed: int) -> int:
    """A seed numpy takes as entropy itself: an int in ``[0, 2**64)``."""
    seed = _check_seed(seed)
    if not 0 <= seed < 2**64:
        raise ConfigError(f"seed must be in [0, 2**64), got {seed}")
    return seed


def derive_seed(master_seed: int, name: str) -> int:
    """Derive a child seed from ``master_seed`` and a component ``name``.

    The derivation is a SHA-256 hash of both inputs, truncated to 63
    bits, so child streams are independent and reproducible across
    platforms and Python versions (``hash()`` is salted, so it is not
    used here).  ``master_seed`` must be an int; a ``bool`` is refused
    rather than read as 0 or 1.

    >>> derive_seed(42, "dataset") == derive_seed(42, "dataset")
    True
    >>> derive_seed(42, "dataset") != derive_seed(42, "weights")
    True
    """
    digest = hashlib.sha256(f"{_check_seed(master_seed)}::{name}".encode()).digest()
    return int.from_bytes(digest[:8], "little") & _MAX_SEED


def new_rng(seed: int, name: str | None = None) -> np.random.Generator:
    """Create a :class:`numpy.random.Generator` for a component.

    Parameters
    ----------
    seed:
        Master seed shared by the experiment.
    name:
        Optional component name; when given, the stream is derived with
        :func:`derive_seed` so it is independent of other components.
        Without one, ``seed`` must be an int in ``[0, 2**64)``; any
        other value, a ``bool`` included, raises :class:`ConfigError`.
    """
    return np.random.default_rng(
        derive_seed(seed, name) if name is not None else _unnamed_seed(seed)
    )


def new_rngs(pairs: Iterable[tuple[int, str | None]]) -> list[np.random.Generator]:
    """``[new_rng(seed, name) for seed, name in pairs]``, seeded in one pass.

    Every generator has the same ``bit_generator.state`` and draws as
    :func:`new_rng`'s.  The children's seed words come from one uint64
    array pass over all pairs (:func:`_seed_words`, a port of numpy's
    ``SeedSequence`` hashing) instead of one ``SeedSequence`` each, and
    each child's ``PCG64`` reads its words through an ``ISeedSequence``.
    Such a generator cannot ``spawn``.  Named children are
    :func:`derive_seed` values; an unnamed seed must be an int in
    ``[0, 2**64)``.

    >>> a, b = new_rngs([(7, "data"), (7, None)])
    >>> a.random() == new_rng(7, "data").random()
    True
    >>> int(b.integers(1000)) == int(new_rng(7).integers(1000))
    True
    """
    children = [
        derive_seed(seed, name) if name is not None else _unnamed_seed(seed)
        for seed, name in pairs
    ]
    words = _seed_words(np.array(children, dtype=np.uint64))
    return [np.random.Generator(np.random.PCG64(_SeedWords(row))) for row in words]


class SeedSequence:
    """A named hierarchy of seeds rooted at one master seed.

    Example
    -------
    >>> seeds = SeedSequence(7)
    >>> rng_a = seeds.rng("dataset")
    >>> rng_b = seeds.rng("weights")
    >>> child = seeds.child("dos-experiment")
    >>> rng_c = child.rng("dataset")   # independent of rng_a
    """

    def __init__(self, master_seed: int, scope: str = "") -> None:
        self.master_seed = _check_seed(master_seed)
        self.scope = scope

    def _qualify(self, name: str) -> str:
        return f"{self.scope}/{name}" if self.scope else name

    def seed(self, name: str) -> int:
        """Return the derived integer seed for ``name``."""
        return derive_seed(self.master_seed, self._qualify(name))

    def rng(self, name: str) -> np.random.Generator:
        """Return a generator seeded for ``name`` within this scope."""
        return np.random.default_rng(self.seed(name))

    def child(self, name: str) -> "SeedSequence":
        """Return a sub-scope, e.g. per-experiment or per-trial."""
        return SeedSequence(self.master_seed, self._qualify(name))

    def indexed(self, name: str, index: int) -> "SeedSequence":
        """Return the ``index``-th sub-scope of a named family.

        The fleet primitive: ``seeds.indexed("vehicle", i)`` gives every
        member of an arbitrarily large population its own independent
        scope, derivable from the index alone — no state accumulates, so
        any shard can re-derive any member's streams without having seen
        the members before it.
        """
        if index < 0:
            raise ConfigError(f"scope index must be >= 0, got {index}")
        return self.child(f"{name}[{index}]")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"SeedSequence(master_seed={self.master_seed}, scope={self.scope!r})"
