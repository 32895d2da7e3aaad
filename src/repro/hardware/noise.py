"""Deterministic measurement noise.

Real benchmark campaigns see run-to-run jitter (clock scaling, cache state,
scheduler interference) that is roughly multiplicative and heavier-tailed
for network operations.  We model it as log-normal with a per-source sigma,
seeded from a stable hash of the measurement identity so repeated campaigns
— and therefore tests — are exactly reproducible.

The seeding contract matters for the parallel campaign engine: every noise
draw is keyed by :func:`point_seed` over the *identity* of the measurement
(campaign seed, device, model, batch, phase, rep) — never by executor call
order, wall clock, or process id.  Running the same sweep serially, across
any number of worker processes, or resumed from a partial record store
therefore yields byte-identical timings.

:func:`lognormal_factor` also takes a 1-D array of seeds: the campaign
engine draws every factor of a ``(model, image)`` grid in one call, with
the seeds from :func:`point_seeds`, which hashes the identities' shared
prefix once.  The array path reproduces ``np.random.default_rng(seed)``
bit for bit without building one ``SeedSequence``/``PCG64``/``Generator``
per seed: numpy's seed-sequence hashing runs vectorised over the seeds,
PCG64's two 128-bit seeding steps run in Python ints, and one generator
local to the call is re-seeded by assigning its ``.state`` before each
draw.
"""

from __future__ import annotations

import hashlib
from typing import Sequence

import numpy as np


#: Identity part types whose ``repr`` is stable across numpy versions.
#: Exact types: a numpy scalar subclasses ``int``/``float`` but reprs as
#: ``np.int64(8)`` under numpy 2, which would silently fork the stream.
_IDENTITY_TYPES = frozenset({int, str, float, bool, type(None)})


def _check_parts(parts: tuple) -> None:
    for p in parts:
        if type(p) not in _IDENTITY_TYPES:
            raise TypeError(
                f"seed identity part {p!r} is a {type(p).__name__}; "
                "use a builtin int, str, float, bool or None"
            )


def stable_seed(*parts: object) -> int:
    """64-bit seed derived from a stable hash of the given identity parts.

    Parts must be builtin ``int``, ``str``, ``float``, ``bool`` or
    ``None``; anything else raises :class:`TypeError`.
    """
    _check_parts(parts)
    key = "\x1f".join(repr(p) for p in parts).encode()
    digest = hashlib.blake2b(key, digest_size=8).digest()
    return int.from_bytes(digest, "little")


def point_seed(campaign_seed: int, *identity: object) -> int:
    """RNG seed of one measurement point.

    Derived purely from the campaign seed and the point's identity (device,
    model, batch size, image size, phase, rep) — independent of the order in
    which the campaign engine happens to execute points.
    """
    return stable_seed(campaign_seed, *identity)


def point_seeds(
    campaign_seed: int, shared: tuple, identities: "Sequence[tuple]"
) -> np.ndarray:
    """``point_seed(campaign_seed, *shared, *identity)`` of each identity,
    as a uint64 array.

    The key of a seed is its parts' reprs joined by ``\\x1f``, so every
    identity's key starts with the same ``(campaign_seed, *shared)``
    prefix: it is hashed once, and each identity continues from a copy of
    that hash state.  Parts are checked as :func:`stable_seed` checks them.
    """
    prefix = (campaign_seed, *shared)
    _check_parts(prefix)
    head = hashlib.blake2b(
        "\x1f".join(map(repr, prefix)).encode(), digest_size=8
    )
    digests = []
    for identity in identities:
        _check_parts(identity)
        h = head.copy()
        if identity:
            h.update(("\x1f" + "\x1f".join(map(repr, identity))).encode())
        digests.append(h.digest())
    # stable_seed reads each digest as a little-endian integer.
    return np.frombuffer(b"".join(digests), dtype="<u8").astype(np.uint64)


def lognormal_factor(
    sigma: float, seed: "int | np.ndarray"
) -> "float | np.ndarray":
    """One centred log-normal factor (E[factor] = 1) from an explicit seed.

    ``seed`` may also be a 1-D integer array; the result is then a float64
    array holding, for each seed, exactly the factor its scalar call
    returns.
    """
    if isinstance(seed, np.ndarray):
        return _lognormal_factors(sigma, seed)
    if sigma <= 0:
        return 1.0
    rng = np.random.default_rng(seed)
    # mean of lognormal(mu, sigma) is exp(mu + sigma^2/2); centre it at 1.
    return float(rng.lognormal(mean=-0.5 * sigma * sigma, sigma=sigma))


# numpy's SeedSequence constants (numpy/random/bit_generator.pyx).
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = np.uint32(0xCA01F9DD)
_MIX_MULT_R = np.uint32(0x4973F715)
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
# PCG64's 128-bit LCG multiplier.
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


def _hash_consts(init: int, mult: int, n: int) -> tuple[np.ndarray, ...]:
    """``(xor, multiply)`` constant columns of the first ``n`` hashmix steps
    of a SeedSequence hash: each step xors the running constant, advances
    it, then multiplies by the advanced one.  The sequence does not depend
    on the data, so one table serves every seed."""
    consts = []
    for _ in range(n + 1):
        consts.append(init)
        init = (init * mult) & _MASK32
    column = np.array(consts, dtype=np.uint32)[:, None]
    return column[:-1], column[1:]


#: mix_entropy hashes each pool word once, then, for each source word,
#: the three other words: 4 + 4 * 3 steps.
_MIX_XOR, _MIX_MULT = _hash_consts(_INIT_A, _MULT_A, _POOL_SIZE * _POOL_SIZE)
#: generate_state(4, uint64) draws 8 uint32 words, cycling over the pool.
_STATE_XOR, _STATE_MULT = _hash_consts(_INIT_B, _MULT_B, 2 * _POOL_SIZE)
_STATE_ROWS = [i % _POOL_SIZE for i in range(2 * _POOL_SIZE)]


def _cross_steps() -> list[tuple[np.ndarray, ...]]:
    """Per source word of mix_entropy's cross-mixing loop: the row mask
    that keeps the source word itself, and the ``(xor, multiply)`` column
    each other word's step uses (in destination order, as SeedSequence
    numbers them)."""
    steps = []
    step = _POOL_SIZE
    for src in range(_POOL_SIZE):
        xor = np.zeros((_POOL_SIZE, 1), dtype=np.uint32)
        mult = np.zeros((_POOL_SIZE, 1), dtype=np.uint32)
        for dst in range(_POOL_SIZE):
            if dst != src:
                xor[dst], mult[dst] = _MIX_XOR[step], _MIX_MULT[step]
                step += 1
        keep = (np.arange(_POOL_SIZE) == src)[:, None]
        steps.append((keep, xor, mult))
    return steps


_CROSS_STEPS = _cross_steps()


def _hashmix(
    value: np.ndarray, xor: np.ndarray, mult: np.ndarray
) -> np.ndarray:
    value = (value ^ xor) * mult
    return value ^ (value >> np.uint32(16))


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = _MIX_MULT_L * x - _MIX_MULT_R * y
    return result ^ (result >> np.uint32(16))


def _pcg64_seed_words(seeds: np.ndarray) -> np.ndarray:
    """``SeedSequence(s).generate_state(4, np.uint64)`` for every seed, one
    row per seed.

    Works on a ``(pool word, seed)`` uint32 array whose arithmetic wraps as
    SeedSequence's does.  A seed is hashed as its little-endian uint32
    words; a seed below 2**32 has one word, and SeedSequence pads the pool
    with zeros — exactly how a zero high word hashes — so two words per
    seed cover every uint64.
    """
    pool = np.zeros((_POOL_SIZE, len(seeds)), dtype=np.uint32)
    pool[0] = seeds & np.uint64(_MASK32)
    pool[1] = seeds >> np.uint64(32)
    pool = _hashmix(pool, _MIX_XOR[:_POOL_SIZE], _MIX_MULT[:_POOL_SIZE])
    for src, (keep, xor, mult) in enumerate(_CROSS_STEPS):
        # Updating the other words reads only the source word, so the three
        # sequential steps of one source are independent and run at once.
        mixed = _mix(pool, _hashmix(pool[src:src + 1], xor, mult))
        pool = np.where(keep, pool, mixed)
    state = _hashmix(pool[_STATE_ROWS], _STATE_XOR, _STATE_MULT)
    # Adjacent uint32 words pair up little-endian, as generate_state's view.
    wide = state.astype(np.uint64)
    return (wide[0::2] | (wide[1::2] << np.uint64(32))).T


def _lognormal_factors(sigma: float, seeds: np.ndarray) -> np.ndarray:
    if seeds.ndim != 1:
        raise ValueError(f"seed array must be 1-D, got shape {seeds.shape}")
    if seeds.dtype.kind not in "iu":
        raise TypeError(f"seed array must be integer, got {seeds.dtype}")
    if sigma <= 0:
        return np.ones(len(seeds))
    if seeds.dtype.kind == "i" and bool((seeds < 0).any()):
        raise ValueError("seeds must be non-negative")
    words = _pcg64_seed_words(seeds.astype(np.uint64)).tolist()
    generator = np.random.Generator(np.random.PCG64(0))
    bit_generator = generator.bit_generator
    pcg = {"state": 0, "inc": 0}
    state = {
        "bit_generator": "PCG64", "state": pcg,
        "has_uint32": 0, "uinteger": 0,
    }
    mean = -0.5 * sigma * sigma
    factors = np.empty(len(words))
    for i, (s_hi, s_lo, i_hi, i_lo) in enumerate(words):
        # pcg64_set_seed: start from state 0 with inc = 2 * initseq + 1,
        # step, add the initial state, step.
        inc = ((((i_hi << 64) | i_lo) << 1) | 1) & _MASK128
        initstate = (s_hi << 64) | s_lo
        pcg["inc"] = inc
        pcg["state"] = ((inc + initstate) * _PCG_MULT + inc) & _MASK128
        bit_generator.state = state
        factors[i] = generator.lognormal(mean, sigma)
    return factors


def lognormal_vector(sigma: float, n: int, seed: int) -> np.ndarray:
    """A vector of independent centred log-normal factors from one seed."""
    if sigma <= 0:
        return np.ones(n)
    rng = np.random.default_rng(seed)
    return rng.lognormal(mean=-0.5 * sigma * sigma, sigma=sigma, size=n)


def multiplicative_noise(sigma: float, *identity: object) -> float:
    """One log-normal noise factor keyed by a measurement identity."""
    return lognormal_factor(sigma, stable_seed(*identity))


def noise_vector(sigma: float, n: int, *identity: object) -> np.ndarray:
    """A vector of independent factors keyed by a measurement identity."""
    return lognormal_vector(sigma, n, stable_seed(*identity))
