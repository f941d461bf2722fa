"""Seeded-stream oracles: splitmix64 reference values, scalar/vector
stream equivalence, distribution sanity."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vitrecipe import rng as rng_module
from vitrecipe.errors import ParameterError
from vitrecipe.rng import Rng, derive_seed, mix64

# Reference outputs for seed 1234567 published with the splitmix64
# algorithm (Vigna); the first three 64-bit outputs of the stream.
SPLITMIX_REF = [6457827717110365317, 3203168211198807973, 9817491932198370423]


def test_known_stream_seed_1234567():
    rng = Rng(1234567)
    got = [rng.next_u64() for _ in range(3)]
    assert got == SPLITMIX_REF


def test_mix64_is_pure_and_avalanches():
    assert mix64(42) == mix64(42)
    a = mix64(0)
    b = mix64(1)
    assert bin(a ^ b).count("1") > 16  # single-bit input change flips many bits


def test_scalar_and_vector_streams_agree():
    a = Rng(99)
    b = Rng(99)
    scalar = [a.next_u64() for _ in range(17)]
    vector = list(b.u64_array(17))
    assert scalar == vector
    # interleaving draws keeps the streams aligned
    assert a.next_u64() == b.next_u64()


def test_uniform_scalar_vector_agree():
    a = Rng(7)
    b = Rng(7)
    xs = [a.uniform() for _ in range(9)]
    ys = b.uniform_array(9)
    np.testing.assert_array_equal(xs, ys)


def test_uniform_range_and_bounds():
    rng = Rng(3)
    xs = rng.uniform_array(10_000, -2.0, 5.0)
    assert xs.min() >= -2.0
    assert xs.max() < 5.0
    assert abs(xs.mean() - 1.5) < 0.1


def test_uniform_determinism_across_instances():
    assert Rng(11).uniform() == Rng(11).uniform()
    assert Rng(11).uniform() != Rng(12).uniform()


def test_truncated_normal_bound_and_scale():
    std = 0.02
    xs = Rng(6).truncated_normal_array(50_000, std)
    assert np.abs(xs).max() <= 2.0 * std + 1e-15
    # variance of a 2-sigma-truncated standard normal is about 0.774
    assert abs(xs.std() / std - math.sqrt(0.7737)) < 0.02


def _box_muller_truncated_reference(rng, n, std, rounds=None):
    """The truncated normal as a separate Box-Muller `normal_array` and a
    2-sigma rejection loop, one draw per round; `model.init` keeps these
    bytes. Each round's pair count is appended to `rounds`."""

    def normal_array(m):
        u = rng.uniform_array(2 * m)
        u1 = np.maximum(u[0::2], 2.0**-53)
        u2 = u[1::2]
        return np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)

    out = np.empty(n, dtype=np.float64)
    filled = 0
    while filled < n:
        if rounds is not None:
            rounds.append(n - filled)
        z = normal_array(n - filled)
        z = z[np.abs(z) <= 2.0]
        out[filled : filled + len(z)] = z
        filled += len(z)
    return out * std


BLOCK = rng_module._PAIRS_PER_BLOCK


@pytest.mark.parametrize("seed", [0, 2**64 - 5])
@pytest.mark.parametrize(
    "n", [1, 7, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1, 110_592, 147_456, 589_824]
)
def test_truncated_normal_keeps_box_muller_bytes(seed, n):
    a, b = Rng(seed), Rng(seed)
    got = a.truncated_normal_array(n, 0.02)
    want = _box_muller_truncated_reference(b, n, 0.02)
    assert got.tobytes() == want.tobytes()
    assert a.state == b.state


def test_the_largest_pinned_size_redraws_over_several_blocks():
    # so the pin above covers a rejection round that is itself split into blocks
    rounds = []
    _box_muller_truncated_reference(Rng(0), 589_824, 0.02, rounds)
    assert len(rounds) > 2 and rounds[1] > 2 * BLOCK, rounds


def test_shuffle_is_a_seeded_permutation():
    items = list(range(20))
    a = items.copy()
    Rng(4).shuffle(a)
    assert sorted(a) == items
    b = items.copy()
    Rng(4).shuffle(b)
    assert a == b
    c = items.copy()
    Rng(5).shuffle(c)
    assert a != c


def test_randint_covers_range():
    rng = Rng(2)
    draws = {rng.randint(6) for _ in range(600)}
    assert draws == {0, 1, 2, 3, 4, 5}


@pytest.mark.parametrize("n", [0, -3])
def test_randint_rejects_empty_range(n):
    with pytest.raises(ParameterError):
        Rng(2).randint(n)


def test_beta_moments_and_support():
    rng = Rng(10)
    a, b = 0.8, 0.8
    xs = np.array([rng.beta(a, b) for _ in range(20_000)])
    assert xs.min() > 0.0 and xs.max() < 1.0
    assert abs(xs.mean() - a / (a + b)) < 0.01
    var = a * b / ((a + b) ** 2 * (a + b + 1.0))
    assert abs(xs.var() - var) < 0.01


@pytest.mark.parametrize("a, b", [(0.8, 0.8), (1.0, 1.0), (0.3, 2.5)])
def test_beta_consumes_exactly_one_state(a, b):
    rng, ref = Rng(13), Rng(13)
    for _ in range(50):
        rng.beta(a, b)
        ref.next_u64()
        assert rng.state == ref.state


def test_beta_one_one_is_the_uniform_draw():
    rng = Rng(14)
    xs = np.array([rng.beta(1.0, 1.0) for _ in range(100_000)])
    ys = Rng(14).uniform_array(100_000)
    assert xs.tobytes() == ys.tobytes()


@pytest.mark.parametrize("a, b", [(0.0, 1.0), (1.0, 0.0), (-1.0, 0.8), (0.8, -0.5)])
def test_beta_rejects_non_positive_shapes(a, b):
    rng = Rng(0)
    with pytest.raises(ParameterError):
        rng.beta(a, b)
    assert rng.state == 0  # nothing drawn


def test_derive_seed_changes_with_every_part():
    base = derive_seed(1, 2, 3)
    assert derive_seed(1, 2, 3) == base
    assert derive_seed(1, 2, 4) != base
    assert derive_seed(1, 3, 3) != base
    assert derive_seed(2, 2, 3) != base
    assert derive_seed(1, 2) != base
    assert derive_seed(1, 2, 3, 0) != base


def test_derive_seed_masks_to_64_bits():
    assert derive_seed(-1) == derive_seed((1 << 64) - 1)
    assert 0 <= derive_seed(123456789, 2**70) < 1 << 64


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**64 - 1))
def test_stream_reproducible_property(seed):
    assert Rng(seed).next_u64() == Rng(seed).next_u64()
    u = Rng(seed).uniform()
    assert 0.0 <= u < 1.0


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**64 - 1), st.integers(1, 64))
def test_vector_stream_prefix_property(seed, n):
    full = Rng(seed).u64_array(64)
    prefix = Rng(seed).u64_array(n)
    np.testing.assert_array_equal(full[:n], prefix)
