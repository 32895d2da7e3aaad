"""The vectorised noise kernel behind ``lognormal_factor``'s array path.

For every seed the kernel computes the first PCG64 output of
``np.random.default_rng(seed)`` in 128-bit limb arithmetic and takes
numpy's ziggurat fast path on it; seeds the fast path rejects are drawn by
numpy itself.  Every factor must equal ``default_rng(seed).lognormal`` bit
for bit, the pinned ziggurat tables must be numpy's, and a calibration
guard must turn the fast path off when they are not.
"""

import math
import types

import numpy as np
import pytest

from repro.hardware import noise
from repro.hardware.backend import get_backend
from repro.hardware.device import DEVICE_PRESETS
from repro.hardware.ziggurat import KI, WI

WI_LIST, KI_LIST = WI.tolist(), KI.tolist()

SIGMAS = (0.06, 0.09, 0.10, 0.2)
MASK128 = (1 << 128) - 1


def _reference(sigma: float, seeds) -> np.ndarray:
    mean = -0.5 * sigma * sigma
    return np.array([
        np.random.default_rng(s).lognormal(mean=mean, sigma=sigma)
        for s in seeds
    ])


def _bits(values) -> list[int]:
    return np.asarray(values, dtype=np.float64).view(np.uint64).tolist()


def _split(raw: np.ndarray):
    """Layer, sign and 52-bit magnitude of first outputs, as numpy's
    ``random_standard_normal`` splits them."""
    layer = (raw & np.uint64(0xFF)).astype(np.intp)
    sign = (raw >> np.uint64(8)) & np.uint64(1)
    rabs = (raw >> np.uint64(9)) & np.uint64((1 << 52) - 1)
    return layer, sign, rabs


def _first_outputs(seeds: np.ndarray) -> np.ndarray:
    return noise._first_outputs(noise._pcg64_seed_words(seeds))


@pytest.fixture(scope="module")
def random_seeds() -> np.ndarray:
    rng = np.random.default_rng(25)
    return rng.integers(0, 2**64 - 1, size=200_000, dtype=np.uint64,
                        endpoint=True)


class TestBitIdentity:
    @pytest.mark.parametrize("part", range(len(SIGMAS)))
    def test_random_seeds_equal_default_rng(self, random_seeds, part):
        # 200k seeds in all, a quarter at each sigma.
        sigma = SIGMAS[part]
        seeds = np.array_split(random_seeds, len(SIGMAS))[part]
        got = noise.lognormal_factor(sigma, seeds)
        assert _bits(got) == _bits(_reference(sigma, seeds.tolist()))

    def test_first_outputs_equal_pcg64(self, random_seeds):
        seeds = random_seeds[:2000]
        expected = [
            int(np.random.default_rng(s).bit_generator.random_raw())
            for s in seeds.tolist()
        ]
        assert _first_outputs(seeds).tolist() == expected

    @pytest.mark.parametrize("device", sorted(DEVICE_PRESETS))
    def test_point_seeds_of_a_campaign_grid(self, device):
        backend = get_backend("", DEVICE_PRESETS[device])
        identities = [
            (batch, tag, rep)
            for batch in (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048)
            for rep in range(3)
            for tag in ("fwd", "bwd", "grad")
        ]
        (seeds,) = noise.point_seeds(
            0, [(backend.noise_tag, "resnet50_224")], identities
        )
        for sigma in {backend.noise_sigma, *SIGMAS}:
            got = noise.lognormal_factor(sigma, seeds)
            assert _bits(got) == _bits(_reference(sigma, seeds.tolist()))


    @pytest.mark.parametrize("sigma", [300.0, 1e200, float("inf")])
    def test_exponents_past_exp_range(self, random_seeds, sigma):
        # Exponents far below zero, and NaN or -inf ones for an infinite
        # sigma, still give numpy's bits.
        seeds = random_seeds[:500]
        with np.errstate(invalid="ignore", over="ignore"):
            got = noise.lognormal_factor(sigma, seeds)
            want = _reference(sigma, seeds.tolist())
        assert _bits(got) == _bits(want)


class TestSlowBranches:
    """Seeds the fast path rejects go to numpy's own draw."""

    @pytest.fixture(scope="class")
    def branches(self) -> dict[str, np.ndarray]:
        seeds = np.random.default_rng(7).integers(
            0, 2**64 - 1, size=200_000, dtype=np.uint64, endpoint=True
        )
        layer, sign, rabs = _split(_first_outputs(seeds))
        rejected = rabs >= KI[layer]
        wedge = rejected & (layer > 1)
        # A wedge point numpy rejects as well draws again: its normal is
        # not the fast path's +-rabs * WI.
        x = rabs.astype(np.float64) * WI[layer]
        x = np.where(sign, -x, x)
        candidates = np.flatnonzero(wedge)[:400]
        redrawn = [
            i for i in candidates.tolist()
            if np.random.default_rng(int(seeds[i])).standard_normal() != x[i]
        ]
        return {
            "layer-0 tail": seeds[rejected & (layer == 0)],
            "layer 1": seeds[layer == 1],
            "wedge rejection": seeds[redrawn],
        }

    @pytest.mark.parametrize(
        "branch", ["layer-0 tail", "layer 1", "wedge rejection"]
    )
    def test_branch_seeds_equal_default_rng(self, branches, branch):
        seeds = branches[branch][:200]
        assert len(seeds) >= 5, f"no {branch} seeds found"
        for sigma in SIGMAS:
            got = noise.lognormal_factor(sigma, seeds)
            assert _bits(got) == _bits(_reference(sigma, seeds.tolist()))


def _generator_before(raw: int, inc: int = 1) -> np.random.Generator:
    """A generator whose next ``next_uint64`` is ``raw``: the state
    ``raw`` (high limb 0) outputs itself under XSL-RR, and the state before
    it is ``(raw - inc)·M⁻¹``."""
    inverse = pow(noise._PCG_MULT, -1, 1 << 128)
    generator = np.random.Generator(np.random.PCG64(0))
    generator.bit_generator.state = {
        "bit_generator": "PCG64",
        "state": {"state": (raw - inc) * inverse & MASK128, "inc": inc},
        "has_uint32": 0, "uinteger": 0,
    }
    return generator


def _one_draw(raw: int) -> tuple[float, bool]:
    """numpy's standard normal from first output ``raw``, and whether it
    took that output alone (the ziggurat's fast path)."""
    generator = _generator_before(raw)
    x = generator.standard_normal()
    return x, generator.bit_generator.state["state"]["state"] == raw


class TestTables:
    def test_crafted_state_yields_the_word(self):
        word = 0x0123456789ABCDEF
        assert int(_generator_before(word, inc=77).bit_generator
                   .random_raw()) == word

    def test_tables_rederived_from_numpy(self):
        for layer in range(256):
            # Magnitude 1, sign +: numpy returns WI[layer] itself (layer 1,
            # whose fast path accepts nothing, through its wedge test).
            x, _ = _one_draw((1 << 9) | layer)
            assert x == WI_LIST[layer], layer
            # Acceptance is rabs < KI[layer]: the fast path takes KI - 1
            # and refuses KI, which pins KI exactly.
            ki = KI_LIST[layer]
            if ki:
                assert _one_draw(((ki - 1) << 9) | layer)[1], layer
            assert not _one_draw((ki << 9) | layer)[1], layer

    def test_the_guard_passes_on_this_numpy(self):
        assert noise._calibrate() and noise._fast_path_agrees()


class TestGuard:
    @pytest.fixture
    def perturb(self):
        """Replace one table entry for the test, then restore it and the
        guard's cached verdict."""
        saved = {"WI": noise.WI, "KI": noise.KI}

        def apply(name: str, layer: int, value) -> None:
            table = saved[name].copy()
            table[layer] = value
            setattr(noise, name, table)
            noise._FAST_PATH_VERDICT.clear()

        yield apply
        for name, table in saved.items():
            setattr(noise, name, table)
        noise._FAST_PATH_VERDICT.clear()

    def test_other_exp_arithmetic_falls_back_to_the_loop(self, monkeypatch):
        # As a numpy that fuses mean + sigma*x, or another exp, would.
        off_by_one_ulp = types.SimpleNamespace(
            exp=lambda v: float(np.nextafter(math.exp(v), np.inf))
        )
        monkeypatch.setattr(noise, "math", off_by_one_ulp)
        noise._FAST_PATH_VERDICT.clear()
        try:
            assert not noise._fast_path_agrees()
            seeds = np.arange(2000, dtype=np.uint64)
            got = noise.lognormal_factor(0.1, seeds)
            assert _bits(got) == _bits(_reference(0.1, seeds.tolist()))
        finally:
            monkeypatch.undo()
            noise._FAST_PATH_VERDICT.clear()

    @pytest.mark.parametrize(
        "name, layer",
        [("WI", 0), ("WI", 37), ("KI", 0), ("KI", 200)],
    )
    def test_perturbed_table_falls_back_to_the_loop(
        self, perturb, name, layer
    ):
        original = getattr(noise, name)[layer]
        if name == "WI":
            perturb(name, layer, np.nextafter(original, 1.0))
        else:
            perturb(name, layer, original + np.uint64(1 << 20))
        assert not noise._fast_path_agrees()
        seeds = np.random.default_rng(3).integers(
            0, 2**64 - 1, size=20_000, dtype=np.uint64, endpoint=True
        )
        seeds = seeds[_split(_first_outputs(seeds))[0] == layer]
        assert len(seeds) > 20
        got = noise.lognormal_factor(0.1, seeds)
        assert _bits(got) == _bits(_reference(0.1, seeds.tolist()))
