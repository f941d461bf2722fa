"""Deterministic random numbers from the splitmix64 sequence.

Every stochastic choice in the package (augmentation, init, sampling)
goes through `Rng` so that a 64-bit seed fixes the result on any
platform.  No numpy global state is touched.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ParameterError

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

# 2^-53: top 53 bits of a u64 become a uniform double in [0, 1)
_U53 = 1.0 / (1 << 53)


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
        self.state = (self.state + _GOLDEN) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK
        return z ^ (z >> 31)

    def u64_array(self, n: int) -> np.ndarray:
        steps = np.arange(1, n + 1, dtype=np.uint64)
        with np.errstate(over="ignore"):
            z = np.uint64(self.state) + steps * np.uint64(_GOLDEN)
            z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
            z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
            z = z ^ (z >> np.uint64(31))
        self.state = (self.state + n * _GOLDEN) & _MASK
        return z

    def uniform(self, lo: float = 0.0, hi: float = 1.0) -> float:
        u = (self.next_u64() >> 11) * _U53
        return lo + (hi - lo) * u

    def uniform_array(self, n: int, lo: float = 0.0, hi: float = 1.0) -> np.ndarray:
        u = (self.u64_array(n) >> np.uint64(11)).astype(np.float64) * _U53
        return lo + (hi - lo) * u

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

    def normal(self) -> float:
        """Standard normal via Box-Muller; consumes two uniforms."""
        u1 = max(self.uniform(), _U53)
        u2 = self.uniform()
        return math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)

    def normal_array(self, n: int) -> np.ndarray:
        u = self.uniform_array(2 * n)
        u1 = np.maximum(u[0::2], _U53)
        u2 = u[1::2]
        return np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)

    def truncated_normal_array(self, n: int, std: float) -> np.ndarray:
        """Normal(0, std) with draws outside 2 sigma rejected and redrawn."""
        out = np.empty(n, dtype=np.float64)
        filled = 0
        while filled < n:
            z = self.normal_array(n - filled)
            z = z[np.abs(z) <= 2.0]
            out[filled : filled + len(z)] = z
            filled += len(z)
        return out * std

    def gamma(self, shape: float) -> float:
        """Gamma(shape, 1) via Marsaglia-Tsang, boosted for shape < 1."""
        if shape <= 0.0:
            raise ParameterError(f"gamma shape must be positive, got {shape}")
        if shape < 1.0:
            u = max(self.uniform(), _U53)
            return self.gamma(shape + 1.0) * u ** (1.0 / shape)
        d = shape - 1.0 / 3.0
        c = 1.0 / math.sqrt(9.0 * d)
        while True:
            x = self.normal()
            v = (1.0 + c * x) ** 3
            if v <= 0.0:
                continue
            u = max(self.uniform(), _U53)
            if u < 1.0 - 0.0331 * x**4:
                return d * v
            if math.log(u) < 0.5 * x * x + d * (1.0 - v + math.log(v)):
                return d * v

    def beta(self, a: float, b: float) -> float:
        ga = self.gamma(a)
        gb = self.gamma(b)
        return ga / (ga + gb)
