"""Deterministic seeding for every stochastic component in the library.

The paper's measurements contain three sources of randomness: sensor noise,
JVM nondeterminism (adaptive JIT and GC scheduling), and generic run-to-run
jitter.  To keep the whole reproduction bit-for-bit stable, every random draw
in this library comes from a generator seeded with :func:`seed_from_key` of a
stable string key rather than from global process state — one fresh
generator per noise site.

The scalar path builds that generator with :func:`rng_for`
(``np.random.default_rng(seed)``).  The compiled sweep kernels replay tens of
thousands of sites per campaign, and building a generator costs far more
than drawing from it, so they derive the same streams in two steps instead:
:func:`pcg64_seed_table` runs numpy's seeding (NEP 19's ``SeedSequence``
mixing, pool size 4, ``generate_state(4, uint64)``) vectorised over a whole
batch of seeds, and :func:`reseed` puts one row of that table into a
generator the caller owns, leaving it in exactly the state
``np.random.PCG64(seed)`` starts in.  Draws from it are byte-identical to
``default_rng(seed)``'s; ``tests/unit/core/test_seeding.py`` pins the
equivalence, so a numpy release that changes its seeding fails there
instead of drifting the bytes.
"""

from __future__ import annotations

import hashlib
from typing import Sequence

import numpy as np

#: Root seed for the whole library.  Changing it re-rolls every stochastic
#: component at once while keeping each component internally consistent.
ROOT_SEED = "asplos2011-power-perf-scaling"


def seed_from_key(key: str, root: str = ROOT_SEED) -> int:
    """Return a stable 64-bit seed derived from ``key``.

    The derivation uses SHA-256 over ``root || key`` so that seeds are
    independent of Python's per-process hash randomisation and of the order
    in which components are constructed.
    """
    digest = hashlib.sha256(f"{root}::{key}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def rng_for(key: str, root: str = ROOT_SEED) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` dedicated to ``key``.

    Two calls with the same ``key`` return independent generators that
    produce identical streams, so callers never need to share generator
    objects to get reproducibility.
    """
    return np.random.default_rng(seed_from_key(key, root=root))


# NEP 19 ``SeedSequence`` constants (numpy/random/bit_generator.pyx): the
# entropy hash, the pool mix, and the output hash, over uint32 words.
_M32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
#: PCG64's 128-bit LCG multiplier (``PCG_DEFAULT_MULTIPLIER_128``).
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341
_M128 = (1 << 128) - 1


def _hash_schedule(init: int, mult: int, count: int) -> np.ndarray:
    """The ``(xor, multiply)`` constant pairs of ``count`` successive
    hashes.  ``SeedSequence``'s hash constant evolves independently of
    the data (each hash xors the value with the constant, advances the
    constant by ``mult``, multiplies by the advanced constant), so the
    whole schedule is known up front."""
    pairs = []
    const = init
    for _ in range(count):
        advanced = (const * mult) & _M32
        pairs.append((const, advanced))
        const = advanced
    return np.array(pairs, dtype=np.uint32).T


# One hash per pool word, then one per (source, destination) mix step.
_XOR_A, _MUL_A = _hash_schedule(_INIT_A, _MULT_A, _POOL_SIZE * _POOL_SIZE)
# Two uint32 words per uint64 output word.
_XOR_B, _MUL_B = _hash_schedule(_INIT_B, _MULT_B, 2 * _POOL_SIZE)


def _hash(values: np.ndarray, xor: np.ndarray, mul: np.ndarray) -> np.ndarray:
    values = values ^ xor
    values *= mul
    values ^= values >> np.uint32(16)
    return values


def pcg64_seed_table(seeds: Sequence[int]) -> np.ndarray:
    """The words ``np.random.PCG64(seed)`` seeds itself from, for a batch.

    Returns an ``(N, 4)`` ``uint64`` array whose row ``i`` equals
    ``np.random.SeedSequence(seeds[i]).generate_state(4, np.uint64)``;
    :func:`reseed` turns a row into the generator state.  Each seed must
    lie in ``[0, 2**64)`` (what :func:`seed_from_key` returns).

    ``SeedSequence`` hashes a seed's uint32 words into a pool of four:
    one word for a seed below ``2**32``, two otherwise, and zero for the
    words past the entropy.  A one-word seed's missing high word is
    therefore hashed exactly as a zero high word would be, so every seed
    enters here as its (low, high) word pair.  All arithmetic is uint32
    and wraps exactly as the C implementation's does.
    """
    words = np.asarray(seeds, dtype=np.uint64).reshape(-1)
    entropy = np.zeros((_POOL_SIZE, words.size), dtype=np.uint32)
    entropy[0] = words & np.uint64(_M32)
    entropy[1] = words >> np.uint64(32)
    pool = _hash(entropy, _XOR_A[:_POOL_SIZE, None], _MUL_A[:_POOL_SIZE, None])
    # Mix every pool word into every other, source by source; within one
    # source the destinations are independent, so they update together.
    step = _POOL_SIZE
    for source in range(_POOL_SIZE):
        targets = [word for word in range(_POOL_SIZE) if word != source]
        hashed = _hash(
            pool[source][None, :],
            _XOR_A[step:step + len(targets), None],
            _MUL_A[step:step + len(targets), None],
        )
        step += len(targets)
        mixed = pool[targets] * np.uint32(_MIX_MULT_L) - hashed * np.uint32(_MIX_MULT_R)
        mixed ^= mixed >> np.uint32(16)
        pool[targets] = mixed
    # generate_state(4, uint64): eight uint32 outputs cycling over the
    # pool, paired little-endian into uint64 words.
    out = _hash(np.concatenate([pool, pool]), _XOR_B[:, None], _MUL_B[:, None])
    low = out[0::2].astype(np.uint64)
    high = out[1::2].astype(np.uint64)
    return np.ascontiguousarray((low | (high << np.uint64(32))).T)


def reseed(generator: np.random.Generator, row: Sequence[int]) -> np.random.Generator:
    """Put ``generator`` (PCG64-backed, owned by the caller) in the state
    ``np.random.PCG64(seed)`` starts in, given ``seed``'s row of
    :func:`pcg64_seed_table`; returns ``generator`` for chaining.

    This is PCG64's own seeding step in Python ints: the second word pair
    is the stream increment, the first is added to it and stepped once
    through the 128-bit LCG.  The buffered 32-bit half-draw is cleared, so
    nothing of an earlier stream leaks into the next."""
    w0, w1, w2, w3 = map(int, row)
    inc = (((w2 << 64) | w3) << 1 | 1) & _M128
    state = ((inc + ((w0 << 64) | w1)) * _PCG_MULT + inc) & _M128
    generator.bit_generator.state = {
        "bit_generator": "PCG64",
        "state": {"state": state, "inc": inc},
        "has_uint32": 0,
        "uinteger": 0,
    }
    return generator


def run_key(*parts: object) -> str:
    """Build a seeding key from heterogeneous identifying parts.

    Example::

        rng = rng_for(run_key("sensor", processor.key, benchmark.name, 3))
    """
    return "/".join(str(part) for part in parts)
