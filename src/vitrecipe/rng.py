"""Deterministic random numbers from the splitmix64 sequence.

Every stochastic choice in the package (augmentation, init, sampling)
goes through `Rng` so that a 64-bit seed fixes the result for a given
numpy and scipy build.  No numpy global state is touched.  Two draws
are shaped: the truncated normal of weight init (Box-Muller, rejecting
past 2 sigma) and the Beta of the mixup/CutMix lambda (inverse CDF).
"""

from __future__ import annotations

import numpy as np
from scipy.special import betaincinv

from .errors import ParameterError

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

# 2^-53: top 53 bits of a u64 become a uniform double in [0, 1)
_U53 = 1.0 / (1 << 53)

# Box-Muller pairs per block of a truncated-normal draw: 128 KiB of uniforms
_PAIRS_PER_BLOCK = 8192


def mix64(x: int) -> int:
    """splitmix64 output function: one full avalanche of a 64-bit value."""
    z = (x + _GOLDEN) & _MASK
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK
    return z ^ (z >> 31)


def derive_seed(base: int, *parts: int) -> int:
    """Fold integer components into a fresh 64-bit seed.

    Chained `mix64(state ^ part)`, so distinct tuples land on distinct
    seeds for all practical purposes.
    """
    state = mix64(base & _MASK)
    for p in parts:
        state = mix64(state ^ (p & _MASK))
    return state


class Rng:
    """splitmix64 stream with scalar and vectorized draws.

    The array methods consume exactly as many states as the equivalent
    sequence of scalar calls, so scalar/vector usage can be mixed
    without changing the stream.
    """

    def __init__(self, seed: int):
        self.state = seed & _MASK

    def next_u64(self) -> int:
        z = mix64(self.state)
        self.state = (self.state + _GOLDEN) & _MASK
        return z

    def u64_array(self, n: int) -> np.ndarray:
        z = np.arange(1, n + 1, dtype=np.uint64)
        shifted = np.empty_like(z)
        with np.errstate(over="ignore"):
            z *= np.uint64(_GOLDEN)
            z += np.uint64(self.state)
            for shift, mult in ((30, _MIX1), (27, _MIX2)):
                np.right_shift(z, np.uint64(shift), out=shifted)
                z ^= shifted
                z *= np.uint64(mult)
            np.right_shift(z, np.uint64(31), out=shifted)
            z ^= shifted
        self.state = (self.state + n * _GOLDEN) & _MASK
        return z

    def uniform(self, lo: float = 0.0, hi: float = 1.0) -> float:
        u = (self.next_u64() >> 11) * _U53
        return lo + (hi - lo) * u

    def _unit_array(self, n: int) -> np.ndarray:
        """`uniform_array(n)` on [0, 1), bit for bit, in place: the top 53
        bits fit int64, whose conversion to f64 is exact and faster."""
        z = self.u64_array(n)
        z >>= np.uint64(11)
        u = z.view(np.int64).astype(np.float64)
        u *= _U53
        return u

    def uniform_array(self, n: int, lo: float = 0.0, hi: float = 1.0) -> np.ndarray:
        return lo + (hi - lo) * self._unit_array(n)

    def randint(self, n: int) -> int:
        """Uniform integer in [0, n). Modulo bias is ~n/2^64, irrelevant here."""
        if n < 1:
            raise ParameterError(f"randint needs n >= 1, got {n}")
        return self.next_u64() % n

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates driven by this stream."""
        for i in range(len(items) - 1, 0, -1):
            j = self.randint(i + 1)
            items[i], items[j] = items[j], items[i]

    def truncated_normal_array(self, n: int, std: float) -> np.ndarray:
        """Normal(0, std) by Box-Muller on uniform pairs, with draws outside
        2 sigma rejected and redrawn. Each rejection round draws one pair per
        value still missing, in blocks of `_PAIRS_PER_BLOCK` pairs so the
        temporaries stay small; the stream is counter-based, so the values
        are those of one draw per round."""
        out = np.empty(n, dtype=np.float64)
        filled = 0
        while filled < n:
            pairs = n - filled
            for start in range(0, pairs, _PAIRS_PER_BLOCK):
                z = self._box_muller(min(_PAIRS_PER_BLOCK, pairs - start))
                z = z[np.abs(z) <= 2.0]
                out[filled : filled + len(z)] = z
                filled += len(z)
        return out * std

    def _box_muller(self, pairs: int) -> np.ndarray:
        u = self._unit_array(2 * pairs)
        radius = np.maximum(u[0::2], _U53)
        np.log(radius, out=radius)
        radius *= -2.0
        np.sqrt(radius, out=radius)
        angle = u[1::2] * (2.0 * np.pi)
        np.cos(angle, out=angle)
        radius *= angle
        return radius

    def beta(self, a: float, b: float) -> float:
        """Beta(a, b) by inverse CDF; consumes exactly one state."""
        if a <= 0.0 or b <= 0.0:
            raise ParameterError(f"beta needs positive shapes, got {a} and {b}")
        return float(betaincinv(a, b, self.uniform()))
