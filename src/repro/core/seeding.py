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
than drawing from it, so they derive the same streams in batches instead:
:func:`site_seeds` hashes a run of sites that share a key prefix in one
pass, :func:`pcg64_seed_table` runs numpy's seeding (NEP 19's
``SeedSequence`` mixing, pool size 4, ``generate_state(4, uint64)``)
vectorised over a whole batch of seeds, :func:`pcg64_states` steps those
words into PCG64's 128-bit ``(state, inc)`` the way ``PCG64`` seeds
itself, and a :class:`PCG64Writer` writes one such row straight into its
generator's state words (0.21 µs a site on a 2-vCPU x86-64 host, where
numpy's public state setter took 2.2 µs), leaving it in exactly the
state ``np.random.PCG64(seed)`` starts in.  Draws from it are byte-identical to ``default_rng(seed)``'s;
``tests/unit/core/test_seeding.py`` pins the equivalence, so a numpy
release that changes its seeding or its PCG64 layout fails there
instead of drifting the bytes.
"""

from __future__ import annotations

import ctypes
import hashlib
import threading
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


def site_seeds(prefix: str, count: int) -> np.ndarray:
    """``seed_from_key(prefix + str(i))`` for ``i`` in ``range(count)``,
    as one ``uint64`` array.

    The sites of one noise stream differ only in a trailing index, so
    the shared prefix is hashed once and each site copies that hasher and
    feeds it only its index; the digests' first eight bytes are read
    little-endian in a single ``frombuffer``."""
    head = hashlib.sha256(f"{ROOT_SEED}::{prefix}".encode("utf-8"))
    digests = bytearray()
    for i in range(count):
        site = head.copy()
        site.update(str(i).encode("ascii"))
        digests += site.digest()
    # Each digest is four uint64 words; the seed is the first of them.
    return np.frombuffer(digests, "<u8")[::4].copy()


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
#: PCG64's 128-bit LCG multiplier (``PCG_DEFAULT_MULTIPLIER_128``), as
#: its high and low uint64 limbs.
_PCG_MULT_HI = np.uint64(2549297995355413924)
_PCG_MULT_LO = np.uint64(4865540595714422341)
_U32 = np.uint64(_M32)


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
    :func:`pcg64_states` turns the rows into generator states.  Each seed
    must lie in ``[0, 2**64)`` (what :func:`seed_from_key` returns).

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


def _mulhi(a: np.ndarray, b: np.uint64) -> np.ndarray:
    """The high 64 bits of each 128-bit product ``a * b``, from 32-bit
    limbs (every partial product and partial sum fits in uint64)."""
    shift = np.uint64(32)
    a0, a1 = a & _U32, a >> shift
    b0, b1 = b & _U32, b >> shift
    low_cross = a0 * b1
    high_cross = a1 * b0
    mid = ((a0 * b0) >> shift) + (low_cross & _U32) + (high_cross & _U32)
    return a1 * b1 + (low_cross >> shift) + (high_cross >> shift) + (mid >> shift)


def pcg64_states(table: np.ndarray) -> np.ndarray:
    """PCG64's own seeding step over rows of :func:`pcg64_seed_table`.

    Returns an ``(N, 4)`` ``uint64`` array of ``(state_hi, state_lo,
    inc_hi, inc_lo)``: the second word pair of a row, shifted left once
    with the low bit set, is the stream increment; the first pair is
    added to it and stepped once through the 128-bit LCG.  All
    arithmetic is modulo ``2**128`` on (high, low) uint64 limbs, with the
    carries taken explicitly."""
    w0, w1, w2, w3 = np.asarray(table, dtype=np.uint64).reshape(-1, 4).T
    one = np.uint64(1)
    inc_hi = (w2 << one) | (w3 >> np.uint64(63))
    inc_lo = (w3 << one) | one
    seed_lo = inc_lo + w1
    seed_hi = inc_hi + w0 + (seed_lo < inc_lo)
    # (seed * MULT) mod 2**128: the low limbs' full product, plus both
    # cross products in the high limb (their own high halves overflow
    # past 2**128).
    prod_lo = seed_lo * _PCG_MULT_LO
    prod_hi = (
        _mulhi(seed_lo, _PCG_MULT_LO)
        + seed_hi * _PCG_MULT_LO
        + seed_lo * _PCG_MULT_HI
    )
    state_lo = prod_lo + inc_lo
    state_hi = prod_hi + inc_hi + (state_lo < inc_lo)
    return np.stack([state_hi, state_lo, inc_hi, inc_lo], axis=1)


_M64 = (1 << 64) - 1


def _limbs(bits: np.random.PCG64) -> list[int]:
    """The public state as a :func:`pcg64_states` row; [] if a half-draw is buffered."""
    state = bits.state
    if state["has_uint32"] or state["uinteger"]:
        return []
    words = state["state"]
    return [words[key] >> shift & _M64 for key in ("state", "inc") for shift in (64, 0)]


class PCG64Writer:
    """A ``Generator(PCG64)`` with a writable ``uint64`` ``view`` of its
    128-bit ``state`` and ``inc`` (``ctypes.state_address`` points at
    numpy's ``pcg64_state``, whose first field points at them).  Their
    word order depends on the numpy build: ``order`` permutes a
    :func:`pcg64_states` row into it, found once here by writing distinct
    probe words that must read back through the public getter, else
    building raises.  ``view[:] = row[order]`` starts the generator where
    ``PCG64(seed)`` does; the 32-bit half-draw buffer is never written
    and stays 0 because this generator only draws doubles
    (``standard_normal(out=...)``, ``lognormal``)."""

    def __init__(self) -> None:
        self.generator = np.random.Generator(np.random.PCG64(0))
        bits = self.generator.bit_generator
        address = ctypes.c_void_p.from_address(bits.ctypes.state_address).value
        self.view = np.ctypeslib.as_array((ctypes.c_uint64 * 4).from_address(address))
        # Write only once the view holds the state the getter reports.
        held, limbs = self.view.tolist(), _limbs(bits)
        if sorted(held) == sorted(limbs) and len(set(limbs)) == 4:
            self.order = [limbs.index(word) for word in held]
            probe = [word ^ _M64 for word in limbs]
            self.view[:] = [probe[i] for i in self.order]
            if _limbs(bits) == probe:
                return
        raise RuntimeError(
            f"numpy {np.__version__}: PCG64's state words do not round-trip "
            "through its state address; the kernels cannot seed in place"
        )


_THREAD = threading.local()


def thread_writer() -> PCG64Writer:
    """This thread's writer: concurrent replays never share a generator."""
    if not hasattr(_THREAD, "writer"):
        _THREAD.writer = PCG64Writer()
    return _THREAD.writer


def run_key(*parts: object) -> str:
    """Build a seeding key from heterogeneous identifying parts.

    Example::

        rng = rng_for(run_key("sensor", processor.key, benchmark.name, 3))
    """
    return "/".join(str(part) for part in parts)
