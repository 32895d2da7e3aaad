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
engine draws every factor of a model's images (the grids of one topology)
in one call, with the seeds from :func:`point_seeds`, which hashes each
image's prefix once and encodes each identity once.  The array path
reproduces ``np.random.default_rng(seed).lognormal(mean, sigma)`` bit for
bit without a Python loop over the seeds for nearly all of them:

* numpy's seed-sequence hashing runs vectorised over the seeds;
* each seed's first PCG64 output comes from 128-bit arithmetic on uint64
  limbs: the seeded state after one step, ``initstate·M² + inc·(M²+M+1)``
  mod 2**128, then the XSL-RR output function;
* numpy's ziggurat fast path turns that output into the standard normal
  ``±rabs·WI[layer]``, accepted iff ``rabs < KI[layer]``, with numpy's
  ``wi_double``/``ki_double`` tables pinned in :mod:`repro.hardware.ziggurat`;
* ``math.exp(mean + sigma·x)`` — libm's ``exp``, as numpy's C code calls
  it — gives the factor.

The seeds the fast path rejects draw again inside numpy: every seed of
layer 1 (``KI[1] == 0``), layer 0's tail and the wedge tests, about 1.5 %
of seeds.  They go through numpy itself, one generator re-seeded through
``.state`` per seed, reusing the seed words already computed.  A one-time
check against that loop guards the fast path: one crafted output per
layer must give numpy's normal, after one draw, and numpy's factor.  A
numpy with other tables, another ``exp`` or a fused multiply-add in
``mean + sigma·x`` fails it, and every seed then takes the loop.  It costs
about 5 ms on first use.  For the 226 grid calls of a 33-model training
campaign (108 seeds each) the draws took 0.20 s with the per-seed loop
and 0.065 s with the kernel on a 2-vCPU host, point-seed hashing (0.05 s)
excluded; the same seeds drawn as 33 per-model calls take 0.018 s, and
their hashing 0.019 s.
"""

from __future__ import annotations

import hashlib
import math
from typing import Iterator, Sequence

import numpy as np

from repro.caching import LRUCache
from repro.hardware.ziggurat import KI, WI


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
    campaign_seed: int,
    shared: "list[tuple]",
    identities: "Sequence[tuple]",
) -> np.ndarray:
    """The seeds of each prefix in ``shared`` with each identity, as a
    uint64 array of one row per prefix: ``[p, i]`` is
    ``point_seed(campaign_seed, *shared[p], *identities[i])``.

    The key of a seed is its parts' reprs joined by ``\\x1f``, so a key is
    its prefix's encoding followed by its identity's.  Each identity is
    checked (as :func:`stable_seed` checks parts) and encoded once per
    call, each prefix is hashed once, and every seed continues from a copy
    of its prefix's hash state.
    """
    _check_parts((campaign_seed,))
    tails = []
    for identity in identities:
        _check_parts(identity)
        tails.append(
            ("\x1f" + "\x1f".join(map(repr, identity))).encode()
            if identity else b""
        )
    digests = []
    for parts in shared:
        _check_parts(parts)
        head = hashlib.blake2b(
            "\x1f".join(map(repr, (campaign_seed, *parts))).encode(),
            digest_size=8,
        )
        for tail in tails:
            h = head.copy()
            h.update(tail)
            digests.append(h.digest())
    # stable_seed reads each digest as a little-endian integer.
    seeds = np.frombuffer(b"".join(digests), dtype="<u8").astype(np.uint64)
    return seeds.reshape(len(shared), len(tails))


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
_PCG_MULT_INV = pow(_PCG_MULT, -1, 1 << 128)
_MASK64 = (1 << 64) - 1
_MASK52 = (1 << 52) - 1


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


def _limbs(value: int) -> tuple[np.uint64, np.uint64]:
    return np.uint64(value >> 64), np.uint64(value & _MASK64)


#: A seeded PCG64 state is ``initstate·M + inc·(M + 1)``, and its first
#: output is taken after one more step, so the state it is taken from is
#: ``initstate·M² + inc·(M² + M + 1)`` (mod 2**128).
_STEP2_MULT = _limbs(_PCG_MULT * _PCG_MULT & _MASK128)
_STEP2_INC = _limbs((_PCG_MULT * _PCG_MULT + _PCG_MULT + 1) & _MASK128)
_LOW32 = np.uint64(_MASK32)
_SHIFT32 = np.uint64(32)


def _mulhi(a: np.ndarray, b: np.uint64) -> np.ndarray:
    """High 64 bits of each 128-bit product ``a * b``, from 32-bit halves."""
    a0, a1 = a & _LOW32, a >> _SHIFT32
    b0, b1 = b & _LOW32, b >> _SHIFT32
    p00, p01, p10 = a0 * b0, a0 * b1, a1 * b0
    mid = (p00 >> _SHIFT32) + (p01 & _LOW32) + (p10 & _LOW32)
    return a1 * b1 + (p01 >> _SHIFT32) + (p10 >> _SHIFT32) + (mid >> _SHIFT32)


def _mul128(
    hi: np.ndarray, lo: np.ndarray, const: tuple[np.uint64, np.uint64]
) -> tuple[np.ndarray, np.ndarray]:
    """``(hi, lo) · const`` mod 2**128 as uint64 limbs (uint64 wraps)."""
    c_hi, c_lo = const
    return _mulhi(lo, c_lo) + lo * c_hi + hi * c_lo, lo * c_lo


def _first_outputs(words: np.ndarray) -> np.ndarray:
    """The first ``next_uint64`` of each seed's PCG64, from its
    :func:`_pcg64_seed_words` row: the two-step state in 128-bit limb
    arithmetic, then the XSL-RR output function."""
    s_hi, s_lo, i_hi, i_lo = words.T
    # inc = 2 * initseq + 1, shifted across the limbs.
    inc_hi = (i_hi << np.uint64(1)) | (i_lo >> np.uint64(63))
    inc_lo = (i_lo << np.uint64(1)) | np.uint64(1)
    a_hi, a_lo = _mul128(s_hi, s_lo, _STEP2_MULT)
    b_hi, b_lo = _mul128(inc_hi, inc_lo, _STEP2_INC)
    lo = a_lo + b_lo
    hi = a_hi + b_hi + (lo < a_lo)
    xored = hi ^ lo
    rot = hi >> np.uint64(58)
    return (xored >> rot) | (xored << ((np.uint64(64) - rot) & np.uint64(63)))


def _fast_normals(words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each seed's standard normal through the fast path of numpy's
    ziggurat, and whether that path accepted the seed's first output.

    ``random_standard_normal`` splits the output into a layer index (low 8
    bits), a sign (bit 8) and a 52-bit magnitude ``rabs``; it returns
    ``±rabs·WI`` when ``rabs < KI`` and draws again otherwise.
    """
    raw = _first_outputs(words)
    layer = (raw & np.uint64(0xFF)).astype(np.intp)
    rabs = (raw >> np.uint64(9)) & np.uint64(_MASK52)
    x = rabs.astype(np.float64) * WI[layer]
    return (
        np.where((raw >> np.uint64(8)) & np.uint64(1), -x, x),
        rabs < KI[layer],
    )


def _factors(sigma: float, normals: np.ndarray) -> np.ndarray:
    """``random_lognormal``'s ``exp(mean + sigma·x)`` of each normal.

    numpy calls libm's ``exp``, which ``math.exp`` is and ``np.exp``
    (numpy's own SIMD code) is not.  With ``mean = -sigma²/2`` and
    ``|x| < 3.7`` on the fast path, the exponent stays below 7 for every
    sigma, so ``math.exp`` cannot overflow.
    """
    exponents = (-0.5 * sigma * sigma + sigma * normals).tolist()
    return np.fromiter(map(math.exp, exponents), np.float64, len(exponents))


def _seeded(words: list[list[int]]) -> "Iterator[np.random.Generator]":
    """numpy's generator as each :func:`_pcg64_seed_words` row's seed
    seeds it: one generator, re-seeded through ``.state`` per row."""
    generator = np.random.Generator(np.random.PCG64(0))
    pcg = {"state": 0, "inc": 0}
    state = {
        "bit_generator": "PCG64", "state": pcg,
        "has_uint32": 0, "uinteger": 0,
    }
    for s_hi, s_lo, i_hi, i_lo in words:
        # pcg64_set_seed: start from state 0 with inc = 2 * initseq + 1,
        # step, add the initial state, step.
        inc = ((((i_hi << 64) | i_lo) << 1) | 1) & _MASK128
        initstate = (s_hi << 64) | s_lo
        pcg["inc"] = inc
        pcg["state"] = ((inc + initstate) * _PCG_MULT + inc) & _MASK128
        generator.bit_generator.state = state
        yield generator


def _loop_factors(sigma: float, words: list[list[int]]) -> list[float]:
    """The factors of seeds given as :func:`_pcg64_seed_words` rows, drawn
    by numpy itself."""
    mean = -0.5 * sigma * sigma
    return [g.lognormal(mean, sigma) for g in _seeded(words)]


def _words_for_output(raw: int) -> list[int]:
    """Seed words (``initseq`` 0, so ``inc`` 1) whose first output is
    ``raw``: the two-step state ``raw`` outputs itself (high limb 0, no
    rotation), and each step is inverted as ``(s - inc)·M⁻¹``."""
    seeded = (raw - 1) * _PCG_MULT_INV & _MASK128
    initstate = ((seeded - 1) * _PCG_MULT_INV - 1) & _MASK128
    return [initstate >> 64, initstate & _MASK64, 0, 0]


#: Sigma of the calibration draws; any value with a rounding-sensitive
#: ``mean + sigma·x`` works.
_CALIBRATION_SIGMA = 0.1


def _calibrate() -> bool:
    """Whether the fast path reproduces this numpy's generator.

    One output per layer, at the largest magnitude the pinned ``KI``
    accepts, alternating sign: numpy must draw the same standard normal
    from it without drawing again, and the same factor as
    :func:`_factors`.  That checks ``WI``, ``KI`` from above (a
    smaller ``KI`` only sends more seeds to the loop), the limb arithmetic
    and ``exp``; a numpy that contracts ``mean + sigma·x`` into an FMA
    fails it too.
    """
    raws = [
        ((ki - 1) << 9) | ((layer & 1) << 8) | layer
        for layer, ki in enumerate(KI.tolist())
        if ki
    ]
    words = [_words_for_output(raw) for raw in raws]
    normals, accepted = _fast_normals(np.array(words, dtype=np.uint64))
    factors = _factors(_CALIBRATION_SIGMA, normals)
    drawn = [
        # One draw steps the seeded state once, to the state ``raw``.
        (g.standard_normal(), g.bit_generator.state["state"]["state"])
        for g in _seeded(words)
    ]
    return (
        bool(accepted.all())
        and drawn == list(zip(normals.tolist(), raws))
        and factors.tolist() == _loop_factors(_CALIBRATION_SIGMA, words)
    )


#: :func:`_calibrate`'s verdict, computed once per process.
_FAST_PATH_VERDICT: LRUCache[str, bool] = LRUCache(maxsize=1)


def _fast_path_agrees() -> bool:
    return _FAST_PATH_VERDICT.get_or_compute("numpy", _calibrate)


def _lognormal_factors(sigma: float, seeds: np.ndarray) -> np.ndarray:
    if seeds.ndim != 1:
        raise ValueError(f"seed array must be 1-D, got shape {seeds.shape}")
    if seeds.dtype.kind not in "iu":
        raise TypeError(f"seed array must be integer, got {seeds.dtype}")
    if sigma <= 0:
        return np.ones(len(seeds))
    if seeds.dtype.kind == "i" and bool((seeds < 0).any()):
        raise ValueError("seeds must be non-negative")
    words = _pcg64_seed_words(seeds.astype(np.uint64))
    if _fast_path_agrees():
        normals, accepted = _fast_normals(words)
        factors = _factors(sigma, normals)
        slow = np.flatnonzero(~accepted)
    else:
        factors, slow = np.empty(len(seeds)), np.arange(len(seeds))
    if slow.size:
        factors[slow] = _loop_factors(sigma, words[slow].tolist())
    return factors


def lognormal_vector(sigma: float, n: int, seed: int) -> np.ndarray:
    """A vector of independent centred log-normal factors from one seed."""
    if sigma <= 0:
        return np.ones(n)
    rng = np.random.default_rng(seed)
    return rng.lognormal(mean=-0.5 * sigma * sigma, sigma=sigma, size=n)
