"""Tensor-op oracles: hand arithmetic, closed forms, and central finite
differences (h=1e-5, f64) for every differentiable op at ranks 1-4."""

import multiprocessing
import os
import subprocess
import sys
import threading
import tracemalloc
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr

from vitrecipe import numerics as nm
from vitrecipe.errors import ContractError, DimensionError
from vitrecipe.numerics import Tensor

H = 1e-5


def rel_err(a, b):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-6)
    return float(np.max(np.abs(a - b) / denom)) if a.size else 0.0


def check_gradients(op, arrays, tol=1e-4, seed=0):
    """Analytic grads of sum(op(xs) * c) vs central finite differences.

    The random probe tensor c keeps d(loss)/d(out) non-constant so
    backward rules cannot pass by accident of symmetry."""
    rng = np.random.default_rng(seed)
    probe_shape = op(*[Tensor(a, dtype=np.float64) for a in arrays]).shape
    c = Tensor(rng.normal(size=probe_shape), dtype=np.float64)

    def loss_of(arrs, grad):
        ts = [Tensor(a.copy(), requires_grad=grad, dtype=np.float64) for a in arrs]
        return ts, nm.tensor_sum(nm.mul(op(*ts), c))

    ts, loss = loss_of(arrays, grad=True)
    nm.backward(loss)

    for target, t in enumerate(ts):
        numeric = np.zeros_like(arrays[target], dtype=np.float64)
        it = np.nditer(numeric, flags=["multi_index"], op_flags=["readonly"])
        for _ in it:
            idx = it.multi_index
            bumped = [a.copy() for a in arrays]
            bumped[target][idx] += H
            _, up = loss_of(bumped, grad=False)
            bumped[target][idx] -= 2 * H
            _, down = loss_of(bumped, grad=False)
            numeric[idx] = (float(up.data) - float(down.data)) / (2 * H)
        err = rel_err(t.grad, numeric)
        assert err < tol, f"grad {target}: rel err {err:.3g} >= {tol}"


def randn(*shape, seed=0):
    return np.random.default_rng(seed).normal(size=shape)


# -- hand and closed-form oracles ------------------------------------------


def test_matmul_identity():
    m = Tensor(randn(2, 2, seed=1), dtype=np.float64)
    out = nm.matmul(Tensor(np.eye(2), dtype=np.float64), m)
    np.testing.assert_array_equal(out.data, m.data)


def test_matmul_hand_arithmetic():
    a = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]), dtype=np.float64)
    b = Tensor(np.array([[1.0], [1.0]]), dtype=np.float64)
    np.testing.assert_array_equal(nm.matmul(a, b).data, [[3.0], [7.0]])


def test_matmul_sum_gradient_tight():
    # grad of sum(A @ B) has the closed form: each entry counts its row/col uses
    a = randn(3, 4, seed=2)
    b = randn(4, 2, seed=3)
    ta = Tensor(a, requires_grad=True, dtype=np.float64)
    tb = Tensor(b, requires_grad=True, dtype=np.float64)
    nm.backward(nm.tensor_sum(nm.matmul(ta, tb)))

    numeric = np.zeros_like(a)
    for idx in np.ndindex(a.shape):
        up, down = a.copy(), a.copy()
        up[idx] += H
        down[idx] -= H
        numeric[idx] = ((up @ b).sum() - (down @ b).sum()) / (2 * H)
    assert rel_err(ta.grad, numeric) < 1e-6


def test_layernorm_constant_row_is_zero():
    x = Tensor(np.full((4,), 3.25), dtype=np.float64)
    gamma = Tensor(np.ones(4), dtype=np.float64)
    beta = Tensor(np.zeros(4), dtype=np.float64)
    out = nm.layernorm(x, gamma, beta)
    np.testing.assert_allclose(out.data, np.zeros(4), atol=1e-3)


def test_layernorm_two_point_row():
    x = Tensor(np.array([1.0, 3.0]), dtype=np.float64)
    gamma = Tensor(np.ones(2), dtype=np.float64)
    beta = Tensor(np.zeros(2), dtype=np.float64)
    out = nm.layernorm(x, gamma, beta, eps=1e-12)
    np.testing.assert_allclose(out.data, [-1.0, 1.0], atol=1e-6)


def test_softmax_symmetry_and_stability():
    out = nm.softmax(Tensor(np.zeros(3), dtype=np.float64))
    np.testing.assert_allclose(out.data, np.full(3, 1 / 3))
    big = nm.softmax(Tensor(np.array([1000.0, 0.0, 0.0]), dtype=np.float64))
    assert np.all(np.isfinite(big.data))
    np.testing.assert_allclose(big.data, [1.0, 0.0, 0.0], atol=1e-12)


def test_gelu_zero_fixed_point():
    assert float(nm.gelu(Tensor(np.zeros(1), dtype=np.float64)).data[0]) == 0.0


def gelu_and_derivative(x):
    """Forward value and the derivative that backward multiplies g by."""
    out = nm.gelu(Tensor(x, requires_grad=True))
    return out.data, out.node.grad_fn(np.ones_like(x))[0]


def test_gelu_f32_matches_f64_reference():
    # A&S 7.1.26 is within 7.5e-8 on Φ; the rest is f32 rounding (2e-7 measured)
    x = np.concatenate([
        np.linspace(-12.0, 12.0, 2_000_001, dtype=np.float32),
        np.random.default_rng(50).normal(size=1_000_000).astype(np.float32),
    ])
    value, deriv = gelu_and_derivative(x)
    ref_value, ref_deriv = gelu_and_derivative(x.astype(np.float64))
    assert value.dtype == deriv.dtype == np.float32
    bound = 3e-7 * np.maximum(1.0, np.abs(x.astype(np.float64)))
    assert np.all(np.abs(value - ref_value) <= bound)
    assert np.all(np.abs(deriv - ref_deriv) <= bound)


SPECIAL_VALUES = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1e30, -1e30], dtype=np.float32)


def test_gelu_f32_special_values_match_f64_without_warnings():
    _check_special_values(SPECIAL_VALUES)


def test_gelu_f32_special_values_warn_on_neither_thread(monkeypatch):
    monkeypatch.setattr(nm, "_PARTS", 2)  # errstate is per thread: each part enters its own
    _check_special_values(np.tile(SPECIAL_VALUES, 3 * nm._GELU_BLOCK // SPECIAL_VALUES.size + 1))


def _check_special_values(x):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value, deriv = gelu_and_derivative(x)
    with np.errstate(invalid="ignore"):  # -inf·0 and inf·0 are nan on both paths
        ref_value, ref_deriv = gelu_and_derivative(x.astype(np.float64))
    np.testing.assert_array_equal(value, ref_value.astype(np.float32))
    np.testing.assert_array_equal(np.signbit(value), np.signbit(ref_value))
    np.testing.assert_array_equal(deriv, ref_deriv.astype(np.float32))


def test_gelu_f32_keeps_relative_precision_in_the_lower_tail():
    # Φ(x) = q exactly for x < 0, so what is left is A&S 7.1.26's own
    # relative error, 1.03% at x = -8 (measured); selecting Φ as
    # ½ + copysign(½ − q, x) rounded it to 0 below about -5.5
    x = np.linspace(-8.0, -3.0, 500_001, dtype=np.float32)
    value = nm.gelu(Tensor(x)).data
    x64 = x.astype(np.float64)
    reference = x64 * ndtr(x64)  # 1 + erf(x/√2) would cancel in f64 too
    assert np.all(value < 0.0)
    assert np.max(np.abs(value - reference) / -reference) < 0.0125


def test_gelu_f32_blocks_match_per_element_results():
    n = 3 * nm._GELU_BLOCK + 7  # three full blocks and a ragged last one
    x = np.random.default_rng(51).normal(scale=3.0, size=n).astype(np.float32)
    value, deriv = gelu_and_derivative(x)
    edges = [k * nm._GELU_BLOCK + d for k in range(1, 4) for d in (-1, 0)]
    sampled = np.random.default_rng(52).integers(0, n, size=100)
    for i in [0, *edges, *range(n - 7, n), *sampled]:
        v, d = gelu_and_derivative(x[i : i + 1])
        assert v[0] == value[i] and d[0] == deriv[i], i


def test_gelu_f32_bytes_do_not_depend_on_the_block_size_or_parts(monkeypatch):
    x = np.random.default_rng(54).normal(scale=3.0, size=3 * (1 << 18) + 7).astype(np.float32)
    x[:: x.size // 49][:49] = np.tile(SPECIAL_VALUES, 7)  # spread over every block
    results = []
    for parts in (1, 2):
        for block in (1 << 14, 1 << 16, 1 << 17, 1 << 18):
            monkeypatch.setattr(nm, "_PARTS", parts)
            monkeypatch.setattr(nm, "_GELU_BLOCK", block)
            value, deriv = gelu_and_derivative(x)
            untracked = nm.gelu(Tensor(x)).data
            results.append((value.tobytes(), deriv.tobytes(), untracked.tobytes()))
    assert results[0][0] == results[0][2]
    assert all(r == results[0] for r in results)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_gelu_tracked_call_saves_one_array(dtype):
    x = Tensor(randn(4, 5, seed=53), requires_grad=True, dtype=dtype)
    out = nm.gelu(x)
    saved = [c.cell_contents for c in out.node.grad_fn.__closure__ or ()]
    arrays = [v for v in saved if isinstance(v, (np.ndarray, Tensor))]
    assert len(arrays) == 1 and arrays[0].shape == x.shape


def test_log_sigmoid_values():
    out = nm.log_sigmoid(Tensor(np.array([0.0, 50.0, -50.0]), dtype=np.float64))
    np.testing.assert_allclose(out.data[0], -np.log(2.0), rtol=1e-12)
    assert abs(out.data[1]) < 1e-12
    np.testing.assert_allclose(out.data[2], -50.0, rtol=1e-12)


def test_log_softmax_agrees_with_softmax_log():
    x = randn(3, 5, seed=4)
    ls = nm.log_softmax(Tensor(x, dtype=np.float64)).data
    s = nm.softmax(Tensor(x, dtype=np.float64)).data
    np.testing.assert_allclose(ls, np.log(s), rtol=1e-10, atol=1e-12)


def test_backward_sum_is_ones():
    w = Tensor(randn(5, seed=5), requires_grad=True, dtype=np.float64)
    nm.backward(nm.tensor_sum(w))
    np.testing.assert_array_equal(w.grad, np.ones(5))


def test_backward_half_sum_of_squares_is_identity():
    w = Tensor(randn(6, seed=6), requires_grad=True, dtype=np.float64)
    nm.backward(nm.scale(nm.tensor_sum(nm.mul(w, w)), 0.5))
    np.testing.assert_allclose(w.grad, w.data, rtol=1e-12)


# -- finite-difference sweep, ranks 1-4 -------------------------------------

ELEMENTWISE_CASES = [
    ("gelu", lambda x: nm.gelu(x)),
    ("log_sigmoid", lambda x: nm.log_sigmoid(x)),
    ("neg", lambda x: nm.neg(x)),
    ("scale", lambda x: nm.scale(x, -1.7)),
    ("softmax", lambda x: nm.softmax(x)),
    ("log_softmax", lambda x: nm.log_softmax(x)),
    ("sum_all", lambda x: nm.tensor_sum(x)),
]
RANK_SHAPES = [(5,), (3, 4), (2, 3, 4), (2, 2, 3, 2)]


@pytest.mark.parametrize("name,op", ELEMENTWISE_CASES, ids=[c[0] for c in ELEMENTWISE_CASES])
@pytest.mark.parametrize("shape", RANK_SHAPES, ids=["r1", "r2", "r3", "r4"])
def test_elementwise_gradients(name, op, shape):
    check_gradients(op, [randn(*shape, seed=7)])


@pytest.mark.parametrize("shape", RANK_SHAPES, ids=["r1", "r2", "r3", "r4"])
def test_add_mul_same_shape_gradients(shape):
    check_gradients(nm.add, [randn(*shape, seed=8), randn(*shape, seed=9)])
    check_gradients(nm.mul, [randn(*shape, seed=10), randn(*shape, seed=11)])


@pytest.mark.parametrize("shape", [(4,), (3, 4), (2, 3, 4), (2, 2, 3, 4)],
                         ids=["r1", "r2", "r3", "r4"])
def test_add_mul_trailing_bias_gradients(shape):
    check_gradients(nm.mul, [randn(*shape, seed=14), randn(4, seed=15)])


def test_matmul_gradients_flattened_and_batched():
    check_gradients(nm.matmul, [randn(3, 4, seed=16), randn(4, 2, seed=17)])
    check_gradients(nm.matmul, [randn(2, 3, 4, seed=18), randn(4, 2, seed=19)])
    check_gradients(nm.matmul, [randn(2, 3, 4, seed=20), randn(2, 4, 3, seed=21)])
    check_gradients(nm.matmul, [randn(2, 2, 3, 4, seed=22), randn(2, 2, 4, 2, seed=23)])


def test_matmul_bias_gradients():
    check_gradients(
        lambda a, b, c: nm.matmul(a, b, c),
        [randn(2, 3, 4, seed=46), randn(4, 5, seed=47), randn(5, seed=48)],
    )
    check_gradients(
        lambda a, b, c: nm.matmul(a, b, c),
        [randn(2, 3, 4, seed=49), randn(2, 4, 3, seed=50), randn(3, seed=51)],
    )


def _grads_f32(build, arrays, probe):
    ts = [Tensor(a, requires_grad=True) for a in arrays]
    out = build(*ts)
    nm.backward(nm.tensor_sum(nm.mul(out, Tensor(probe))))
    return [out.data.tobytes()] + [t.grad.tobytes() for t in ts]


def _add_bias(x, c):
    """The trailing rank-1 add that `nm.add` did before it took only equal shapes."""
    return nm._make(x.data + c.data, (x, c), lambda g: (g, nm._sum_to_rank1(g)))


@pytest.mark.parametrize("b_shape", [(8, 6), (3, 8, 6)], ids=["flattened", "batched"])
def test_matmul_bias_bits_equal_add_after_matmul_f32(b_shape):
    arrays = [randn(3, 5, 8, seed=52), randn(*b_shape, seed=53), randn(6, seed=54)]
    probe = randn(3, 5, 6, seed=55)
    fused = _grads_f32(lambda a, b, c: nm.matmul(a, b, c), arrays, probe)
    composed = _grads_f32(lambda a, b, c: _add_bias(nm.matmul(a, b), c), arrays, probe)
    assert fused == composed


def test_matmul_rejects_a_bias_that_is_not_rank1_over_n():
    a, w = Tensor(randn(2, 3, seed=56)), Tensor(randn(3, 4, seed=57))
    for shape in [(3,), (5,), (1, 4), (2, 4)]:
        with pytest.raises(DimensionError):
            nm.matmul(a, w, Tensor(randn(*shape, seed=58)))


def test_layernorm_gradients():
    for shape in [(6,), (3, 6), (2, 3, 6), (2, 2, 2, 6)]:
        check_gradients(
            lambda x, g, b: nm.layernorm(x, g, b),
            [randn(*shape, seed=24), randn(6, seed=25), randn(6, seed=26)],
            tol=1e-5,
        )


def test_shape_op_gradients():
    check_gradients(lambda x: nm.reshape(x, (6, 2)), [randn(3, 4, seed=27)])
    check_gradients(lambda x: nm.transpose(x, (1, 0, 2)), [randn(2, 3, 4, seed=28)])
    check_gradients(lambda x: nm.narrow(x, 1, 1, 2), [randn(3, 4, seed=29)])
    check_gradients(lambda x: nm.expand_batch(x, 5), [randn(1, 3, seed=30)])
    check_gradients(
        lambda a, b: nm.concat([a, b], axis=1), [randn(2, 3, seed=31), randn(2, 2, seed=32)]
    )


def test_drop_path_scale_gradient_and_forward():
    mask = np.array([1.0, 0.0, 1.0])
    x = randn(3, 4, seed=33)
    out = nm.drop_path_scale(Tensor(x, dtype=np.float64), mask, 2.0)
    np.testing.assert_allclose(out.data[1], 0.0)
    np.testing.assert_allclose(out.data[0], 2.0 * x[0])
    check_gradients(lambda t: nm.drop_path_scale(t, mask, 2.0), [x])


# -- in-place layernorm and softmax against their out-of-place formulas ------


def layernorm_reference(x, gamma, beta, eps, g):
    """The out-of-place formulas the op writes in place, in the same order."""
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    out = xhat * gamma + beta
    dxhat = g * gamma
    m1 = dxhat.mean(axis=-1, keepdims=True)
    m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
    gx = inv * (dxhat - m1 - xhat * m2)
    g2 = g.reshape(-1, g.shape[-1])
    return out, (gx, (g * xhat).reshape(g2.shape).sum(axis=0), g2.sum(axis=0))


def softmax_reference(x, g):
    shifted = x - x.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=-1, keepdims=True)
    inner = (g * out).sum(axis=-1, keepdims=True)
    return out, (out * (g - inner),)


def f32(*shape, seed):
    return (randn(*shape, seed=seed) * 3.0).astype(np.float32)


@pytest.mark.parametrize("shape", [(6,), (4, 7, 33), (2, 3, 65, 64)])
def test_layernorm_and_softmax_bits_equal_reference_f32(shape):
    x, g = f32(*shape, seed=59), f32(*shape, seed=60)
    gamma, beta = f32(shape[-1], seed=61), f32(shape[-1], seed=62)
    g_before = g.copy()
    for op, reference in [
        (lambda: nm.layernorm(Tensor(x, requires_grad=True), Tensor(gamma, requires_grad=True),
                              Tensor(beta, requires_grad=True), 1e-6),
         lambda: layernorm_reference(x, gamma, beta, np.float32(1e-6), g)),
        (lambda: nm.softmax(Tensor(x, requires_grad=True)), lambda: softmax_reference(x, g)),
    ]:
        out = op()
        grads = out.node.grad_fn(g)
        ref_out, ref_grads = reference()
        assert out.data.dtype == np.float32 and out.data.tobytes() == ref_out.tobytes()
        assert [a.tobytes() for a in grads] == [a.tobytes() for a in ref_grads]
        assert all(a.dtype == np.float32 for a in grads)
        assert g.tobytes() == g_before.tobytes()  # add hands one g to two inputs


# -- fused attention against the composition it replaced -----------------------


def attention_reference(qkv, num_heads):
    """The 15-node composition `nm.attention` replaced, from the (B, T, 3D)
    qkv product to the (B, T, D) merged heads."""
    b, t, width = qkv.shape
    d = width // 3
    dh = d // num_heads
    qkv = nm.reshape(qkv, (b, t, 3, num_heads, dh))
    qkv = nm.transpose(qkv, (2, 0, 3, 1, 4))
    q = nm.reshape(nm.narrow(qkv, 0, 0, 1), (b, num_heads, t, dh))
    k = nm.reshape(nm.narrow(qkv, 0, 1, 1), (b, num_heads, t, dh))
    v = nm.reshape(nm.narrow(qkv, 0, 2, 1), (b, num_heads, t, dh))
    scores = nm.matmul(nm.scale(q, dh**-0.5), nm.transpose(k, (0, 1, 3, 2)))
    out = nm.matmul(nm.softmax(scores), v)
    return nm.reshape(nm.transpose(out, (0, 2, 1, 3)), (b, t, d))


def test_attention_gradients():
    check_gradients(lambda x: nm.attention(x, 2), [randn(2, 5, 12, seed=65)])
    check_gradients(lambda x: nm.attention(x, 1), [randn(1, 3, 6, seed=66)])


# (B, T, heads, dh): the acceptance toy's blocks, ViT-T's at 96 px, and a small odd case
ATTENTION_SHAPES = [(4, 65, 4, 16), (2, 37, 3, 64), (3, 5, 2, 3)]


@pytest.mark.parametrize("b,t,heads,dh", ATTENTION_SHAPES)
def test_attention_f32_forward_bits_and_gradients_match_the_composition(b, t, heads, dh):
    qkv = f32(b, t, 3 * heads * dh, seed=67)
    probe = f32(b, t, heads * dh, seed=68)
    fused = nm.attention(Tensor(qkv), heads)
    composed = attention_reference(Tensor(qkv), heads)
    assert fused.data.dtype == np.float32
    assert fused.data.tobytes() == composed.data.tobytes()
    grads = []
    for op in (lambda x: nm.attention(x, heads), lambda x: attention_reference(x, heads)):
        x = Tensor(qkv, requires_grad=True)
        nm.backward(nm.tensor_sum(nm.mul(op(x), Tensor(probe))))
        grads.append(x.grad)
    # each f32 path was within 3e-6·max|grad| of the f64 gradient, and the
    # two within 1.2e-6·max|grad| of each other (measured)
    assert grads[0].dtype == np.float32
    assert np.abs(grads[0] - grads[1]).max() < 1e-5 * np.abs(grads[1]).max()


def attention_backward_reference(qkv, num_heads, g):
    """The qkv gradient of `nm.attention` computed from the softmax P saved
    by the forward: the rule's passes, cut by the same `_split`."""
    b, t, width = qkv.shape
    dh = width // (3 * num_heads)
    s = dh**-0.5
    q, k, v = qkv.reshape(b, t, 3, num_heads, dh).transpose(2, 0, 3, 1, 4)
    scores = nm.matmul(Tensor(q * s), Tensor(np.ascontiguousarray(k.swapaxes(-1, -2)))).data
    p = nm.softmax(Tensor(scores)).data
    o = np.ascontiguousarray(nm.matmul(Tensor(p), Tensor(v)).data.transpose(0, 2, 1, 3))
    do = g.reshape(b, t, num_heads, dh)
    grad = np.empty((b, t, 3, num_heads, dh), qkv.dtype)
    dq, dk, dv = grad.transpose(2, 0, 3, 1, 4)

    def part(lo, hi):
        rows = np.einsum("bthd,bthd->bht", do[lo:hi], o[lo:hi])
        do_ = do[lo:hi].transpose(0, 2, 1, 3)
        np.matmul(p[lo:hi].swapaxes(-1, -2), do_, out=dv[lo:hi])
        ds = do_ @ np.ascontiguousarray(v[lo:hi].swapaxes(-1, -2))
        ds = (ds - rows[..., None]) * p[lo:hi]
        np.matmul(ds, k[lo:hi], out=dq[lo:hi])
        np.multiply(dq[lo:hi], s, out=dq[lo:hi])
        np.matmul(ds.swapaxes(-1, -2), q[lo:hi], out=dk[lo:hi])
        np.multiply(dk[lo:hi], s, out=dk[lo:hi])

    nm._split(part, b, p.size)
    return grad.reshape(b, t, width)


@pytest.mark.parametrize("parts", [1, 2])
@pytest.mark.parametrize(
    "b,t,heads,dh",
    [(64, 65, 4, 16), (64, 37, 3, 64), (2, 197, 3, 64), (3, 65, 4, 16), (1, 197, 6, 64)],
    # below 4 batch elements the forward's gemm runs whole and backward's may
    # run in halves: P's bits then rest on numpy's one gemm per stacked matrix
    ids=["toy", "vit-t-96", "b2-vit-t-224", "b3-odd-cut", "b1-vit-s-224"],
)
def test_attention_gradient_from_rebuilt_p_equals_saved_p_bytes(
    monkeypatch, parts, b, t, heads, dh
):
    monkeypatch.setattr(nm, "_PARTS", parts)
    qkv, g = f32(b, t, 3 * heads * dh, seed=99), f32(b, t, heads * dh, seed=100)
    [grad] = nm.attention(Tensor(qkv, requires_grad=True), heads).node.grad_fn(g)
    assert grad.dtype == np.float32
    assert grad.tobytes() == attention_backward_reference(qkv, heads, g).tobytes()


def test_attention_tape_keeps_qkv_the_result_and_two_row_statistics():
    b, t, heads, dh = 64, 65, 4, 16
    qkv = _tracked(b, t, 3 * heads * dh, seed=101)
    out = nm.attention(qkv, heads)
    held = {}
    for cell in out.node.grad_fn.__closure__:
        value = cell.cell_contents
        if isinstance(value, np.ndarray):
            while isinstance(value.base, np.ndarray):
                value = value.base
            held[id(value)] = value
    assert all(a.size < b * heads * t * t for a in held.values())  # no P, no scores
    row_stats = 2 * b * heads * t * 4  # each softmax row's max and sum, f32
    assert sum(a.nbytes for a in held.values()) == qkv.data.nbytes + out.data.nbytes + row_stats


def test_attention_rejects_bad_shapes():
    for shape, heads in [((4, 12), 2), ((2, 3, 4, 12), 2), ((2, 3, 10), 2), ((2, 3, 12), 3),
                         ((2, 3, 0), 1), ((2, 3, 12), 0)]:
        with pytest.raises(DimensionError):
            nm.attention(Tensor(randn(*shape, seed=69)), heads)


def _peak_full_arrays(fn, full_bytes):
    """Peak bytes allocated while `fn` runs, result included, in full-size arrays."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    del result
    return (peak - base) / full_bytes


def test_layernorm_and_softmax_allocate_at_most_two_full_arrays():
    # layernorm keeps xhat and its result, softmax only its result; the row
    # statistics (1/64 each) and numpy's fixed buffers stay under 0.25
    shape = (32, 65, 64)
    x, g, gamma, beta = (Tensor(f32(*s, seed=63), requires_grad=True)
                         for s in (shape, shape, (64,), (64,)))
    full = x.data.nbytes
    ln = nm.layernorm(x, gamma, beta)
    assert _peak_full_arrays(lambda: nm.layernorm(x, gamma, beta), full) < 2.25
    assert _peak_full_arrays(lambda: ln.node.grad_fn(g.data), full) < 2.25
    sm = nm.softmax(x)
    assert _peak_full_arrays(lambda: nm.softmax(x), full) < 1.25
    assert _peak_full_arrays(lambda: sm.node.grad_fn(g.data), full) < 1.25


# -- rows split across the helper thread ---------------------------------------


def _tracked(*shape, seed):
    return Tensor(f32(*shape, seed=seed), requires_grad=True)


def _forward_and_grads(out, seed):
    """The op's result and every gradient its backward rule returns."""
    grads = out.node.grad_fn(f32(*out.shape, seed=seed))
    return [out.data, *grads]


def _split_matmul(b, t, d, heads, bias):
    w = _tracked(d, 3 * d, seed=71)
    args = (_tracked(3 * d, seed=72),) if bias else ()
    return _forward_and_grads(nm.matmul(_tracked(b, t, d, seed=70), w, *args), seed=73)


def _split_batched_matmul(b, t, d, heads, bias):
    dh = d // heads
    q, k = _tracked(b, heads, t, dh, seed=74), _tracked(b, heads, dh, t, seed=75)
    args = (_tracked(t, seed=76),) if bias else ()
    return _forward_and_grads(nm.matmul(q, k, *args), seed=77)


SPLIT_OPS = {
    "matmul": lambda *s: _split_matmul(*s, bias=False),
    "matmul-bias": lambda *s: _split_matmul(*s, bias=True),
    "matmul-batched": lambda *s: _split_batched_matmul(*s, bias=False),
    "matmul-batched-bias": lambda *s: _split_batched_matmul(*s, bias=True),
    "attention": lambda b, t, d, h: _forward_and_grads(
        nm.attention(_tracked(b, t, 3 * d, seed=78), h), seed=79),
    "gelu": lambda b, t, d, h: _forward_and_grads(nm.gelu(_tracked(b, t, 4 * d, seed=80)), seed=81),
    "layernorm": lambda b, t, d, h: _forward_and_grads(
        nm.layernorm(_tracked(b, t, d, seed=82), _tracked(d, seed=83), _tracked(d, seed=84)),
        seed=85),
    "softmax": lambda b, t, d, h: _forward_and_grads(
        nm.softmax(_tracked(b, h, t, t, seed=86)), seed=87),
}
# (B, T, D, heads): the acceptance toy's blocks, ViT-T's at 96 px (dh = 64), an
# odd row count (7·65 rows, 7 batch elements, 3 GELU blocks) and a single row
SPLIT_SHAPES = {
    "toy": (64, 65, 64, 4),
    "vit-t-96": (64, 37, 192, 3),
    "odd": (7, 65, 96, 3),
    "one-row": (1, 1, 64, 4),
}


def _narrow_product(a_shape):
    w, bias = _tracked(48, 8, seed=88), _tracked(8, seed=89)
    return _forward_and_grads(nm.matmul(_tracked(*a_shape, seed=90), w, bias), seed=91)


# every op at every shape, and two products only 8 wide, whose gemm gives
# other bits for other row counts: a 2-D one and a (B, T, k) stack
SPLIT_CASES = {
    f"{op}-{shape}": lambda op=op, shape=shape: SPLIT_OPS[op](*SPLIT_SHAPES[shape])
    for shape in SPLIT_SHAPES
    for op in SPLIT_OPS
}
SPLIT_CASES["matmul-2d-narrow"] = lambda: _narrow_product((4160, 48))
SPLIT_CASES["matmul-3d-narrow"] = lambda: _narrow_product((64, 65, 48))


def _run_in_parts(monkeypatch, parts, fn):
    """`fn()` with the part count set to `parts`, and the threads the parts ran on."""
    monkeypatch.setattr(nm, "_PARTS", parts)
    threads, split = set(), nm._split

    def spy(part, *args, **kwargs):
        def recorded(lo, hi):
            threads.add(threading.get_ident())
            part(lo, hi)

        split(recorded, *args, **kwargs)

    monkeypatch.setattr(nm, "_split", spy)
    try:
        return fn(), threads
    finally:
        monkeypatch.undo()


def _gemm_operands(monkeypatch):
    """The shapes of the left operands `np.matmul` receives from here on."""
    shapes, matmul = [], np.matmul

    def spy(a, *args, **kwargs):
        shapes.append(a.shape)
        return matmul(a, *args, **kwargs)

    monkeypatch.setattr(np, "matmul", spy)
    return shapes


@pytest.mark.parametrize("case", SPLIT_CASES)
def test_split_and_serial_give_the_same_bytes(monkeypatch, case):
    serial, serial_threads = _run_in_parts(monkeypatch, 1, SPLIT_CASES[case])
    split, split_threads = _run_in_parts(monkeypatch, 2, SPLIT_CASES[case])
    assert [a.tobytes() for a in split] == [a.tobytes() for a in serial]
    assert [a.dtype for a in split] == [a.dtype for a in serial]
    assert serial_threads == {threading.get_ident()}
    assert len(split_threads) == (1 if case.endswith("one-row") else 2)


def test_matmul_cuts_halves_of_two_rows_at_least(monkeypatch):
    # big enough to cut, but a half of one row would run as a BLAS gemv: 3 rows
    # run as one gemm, 4 as two halves of 2
    for m, halves in [(3, [(3, 64)]), (4, [(2, 64), (2, 64)])]:
        a, b = Tensor(f32(m, 64, seed=89)), Tensor(f32(64, 4 * nm._MIN_PART, seed=90))
        outputs = []
        for parts in (1, 2):
            def run():
                operands = _gemm_operands(monkeypatch)
                return nm.matmul(a, b).data, sorted(operands)

            (out, operands), _ = _run_in_parts(monkeypatch, parts, run)
            assert operands == halves
            outputs.append(out.tobytes())
        assert outputs[0] == outputs[1]


def test_a_linear_layer_runs_one_gemm_per_half(monkeypatch):
    # the toy's fc1; numpy runs a (64, 65, 64) left operand as 64 gemms of 65 rows
    x, w, bias = (Tensor(f32(*shape, seed=92)) for shape in [(64, 65, 64), (64, 256), (256,)])
    operands = _gemm_operands(monkeypatch)
    nm.matmul(x, w, bias)
    assert 1 <= len(operands) <= 2
    assert all(len(shape) == 2 for shape in operands)


def _linear_layers():
    """(B, T, k, n) of the patch projection and each linear layer of a block."""
    models = {  # (batch, patches, embed width, patch values)
        "toy": (64, 64, 64, 48),
        "vit-t-96": (64, 36, 192, 768),
        "vit-t-224-b2": (2, 196, 192, 768),
    }
    for model, (b, t, d, k) in models.items():
        layers = {"patch": (t, k, d), "qkv": (t + 1, d, 3 * d), "proj": (t + 1, d, d),
                  "fc1": (t + 1, d, 4 * d), "fc2": (t + 1, 4 * d, d)}
        for layer, shape in layers.items():
            yield pytest.param(b, *shape, id=f"{model}-{layer}")


@pytest.mark.parametrize("b, t, k, n", _linear_layers())
def test_a_linear_layer_pins_the_per_batch_element_formula(b, t, k, n):
    a, w, bias = _tracked(b, t, k, seed=95), _tracked(k, n, seed=96), _tracked(n, seed=97)
    g = f32(b, t, n, seed=98)
    out = nm.matmul(a, w, bias)
    ga = out.node.grad_fn(g)[0]
    # over the (B, T, ·) stacks, which numpy runs as B gemms of T rows each
    assert out.data.tobytes() == (np.matmul(a.data, w.data) + bias.data).tobytes()
    assert ga.tobytes() == (g @ w.data.swapaxes(-1, -2)).tobytes()


def test_an_error_in_the_helper_reaches_the_caller(monkeypatch):
    monkeypatch.setattr(nm, "_PARTS", 2)
    ran = []

    def part(lo, hi):
        ran.append((lo, hi))
        if lo == 0:
            raise FloatingPointError("first half")

    with pytest.raises(FloatingPointError, match="first half"):
        nm._split(part, 4, 4 * nm._MIN_PART)
    assert sorted(ran) == [(0, 2), (2, 4)]
    nm._split(lambda lo, hi: ran.append((lo, hi)), 4, 4 * nm._MIN_PART)  # still serves
    assert sorted(ran[2:]) == [(0, 2), (2, 4)]


def test_importing_numerics_starts_no_thread():
    src = str(Path(nm.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import threading, vitrecipe.numerics; print(threading.active_count())"
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "1"


def _gelu_in_child(x, expected):
    sys.exit(0 if nm.gelu(Tensor(x)).data.tobytes() == expected else 1)


def test_a_forked_child_splits_ops_after_the_parent_did(monkeypatch):
    monkeypatch.setattr(nm, "_PARTS", 2)
    x = f32(3 * nm._GELU_BLOCK, seed=88)  # three GELU blocks: one on the helper, two here
    expected = nm.gelu(Tensor(x)).data.tobytes()
    assert "vitrecipe-numerics" in {t.name for t in threading.enumerate()}
    child = multiprocessing.get_context("fork").Process(target=_gelu_in_child, args=(x, expected))
    child.start()
    child.join(60)
    hung = child.is_alive()
    if hung:  # its helper queues were the parent's, which no thread reads
        child.kill()
        child.join()
    assert not hung and child.exitcode == 0


# -- tape behaviour ----------------------------------------------------------


def test_tape_frees_what_no_backward_rule_reads():
    w = Tensor(randn(3, 4, seed=64), requires_grad=True, dtype=np.float64)
    h = nm.add(w, w)  # add's backward reads nothing
    freed = weakref.ref(h.data)
    s = nm.scale(h, 3.0)
    kept = weakref.ref(s.data)  # mul reads it
    out = nm.mul(s, w)
    del h, s
    assert freed() is None and kept() is not None
    assert all(t.data.size == 0 for t in out.node.inputs if t.node is not None)
    nm.backward(nm.tensor_sum(out))
    np.testing.assert_allclose(w.grad, 12.0 * w.data, rtol=1e-12)



def test_duplicated_input_accumulates_both_paths():
    x = Tensor(randn(4, seed=34), requires_grad=True, dtype=np.float64)
    nm.backward(nm.tensor_sum(nm.add(x, x)))
    np.testing.assert_allclose(x.grad, np.full(4, 2.0))

    x.zero_grad()
    nm.backward(nm.tensor_sum(nm.mul(x, x)))
    np.testing.assert_allclose(x.grad, 2.0 * x.data, rtol=1e-12)


def test_grad_accumulates_across_backward_calls():
    x = Tensor(randn(3, seed=35), requires_grad=True, dtype=np.float64)
    nm.backward(nm.tensor_sum(x))
    nm.backward(nm.tensor_sum(x))
    np.testing.assert_allclose(x.grad, np.full(3, 2.0))


def test_deep_chain_does_not_overflow():
    x = Tensor(np.ones(2), requires_grad=True, dtype=np.float64)
    y = x
    for _ in range(3000):
        y = nm.scale(y, 1.0)
    nm.backward(nm.tensor_sum(y))
    np.testing.assert_allclose(x.grad, np.ones(2))


def test_forward_is_deterministic():
    x = randn(4, 4, seed=36)
    a = nm.gelu(nm.softmax(Tensor(x, dtype=np.float64))).data
    b = nm.gelu(nm.softmax(Tensor(x, dtype=np.float64))).data
    assert np.array_equal(a, b)


def test_untracked_inputs_record_no_tape_node():
    a = Tensor(randn(2, 3, seed=43), dtype=np.float64)
    w = Tensor(randn(3, 4, seed=44), dtype=np.float64)
    out = nm.gelu(nm.matmul(a, w))
    assert out.node is None and not out.requires_grad
    tracked = nm.matmul(a, Tensor(w.data, requires_grad=True))
    assert tracked.node is not None and tracked.requires_grad


# -- error contracts ---------------------------------------------------------


def test_backward_rejects_non_scalar():
    x = Tensor(randn(3, seed=37), requires_grad=True, dtype=np.float64)
    with pytest.raises(ContractError):
        nm.backward(nm.scale(x, 2.0))


def test_a_second_backward_of_one_loss_is_refused():
    x = Tensor(randn(3, seed=65), requires_grad=True, dtype=np.float64)
    loss = nm.tensor_sum(nm.mul(x, x))
    nm.backward(loss)
    with pytest.raises(ContractError, match="already used by a backward"):
        nm.backward(loss)
    np.testing.assert_allclose(x.grad, 2.0 * x.data, rtol=1e-12)  # the refusal added nothing


def test_a_backward_through_a_consumed_sub_graph_is_refused():
    x = Tensor(randn(3, seed=66), requires_grad=True, dtype=np.float64)
    y = nm.mul(x, x)
    nm.backward(nm.tensor_sum(y))
    w = Tensor(randn(3, seed=67), requires_grad=True, dtype=np.float64)
    with pytest.raises(ContractError, match="already used by a backward"):
        nm.backward(nm.tensor_sum(nm.mul(y, w)))
    assert w.grad is None
    nm.backward(nm.tensor_sum(nm.mul(nm.mul(x, x), w)))  # a fresh forward has a tape
    np.testing.assert_allclose(w.grad, x.data * x.data, rtol=1e-12)


def test_matmul_shape_mismatch():
    with pytest.raises(DimensionError):
        nm.matmul(Tensor(randn(2, 3, seed=38)), Tensor(randn(4, 2, seed=39)))


def test_broadcasting_is_restricted():
    a = Tensor(randn(3, 4, seed=40))
    with pytest.raises(DimensionError):
        nm.add(a, Tensor(randn(3, seed=41)))  # leading, not trailing
    with pytest.raises(DimensionError):
        nm.add(a, Tensor(randn(3, 1, seed=42)))  # rank-2 broadcast
    with pytest.raises(DimensionError):
        nm.add(a, Tensor(randn(4, seed=43)))  # trailing rank-1: only mul takes it


def test_layernorm_rejects_mismatched_affine():
    with pytest.raises(DimensionError):
        nm.layernorm(
            Tensor(randn(2, 4, seed=43)), Tensor(randn(3, seed=44)), Tensor(randn(4, seed=45))
        )


# -- properties ---------------------------------------------------------------


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-30, 30), min_size=2, max_size=8))
def test_softmax_rows_sum_to_one(values):
    out = nm.softmax(Tensor(np.array(values), dtype=np.float64))
    assert abs(float(out.data.sum()) - 1.0) < 1e-12
    assert np.all(out.data >= 0)


@settings(max_examples=50, deadline=None)
@given(st.floats(-8, 8))
def test_gelu_odd_part_identity(x):
    # gelu(x) - gelu(-x) == x because the normal CDF satisfies F(x)+F(-x)=1
    t = Tensor(np.array([x]), dtype=np.float64)
    m = Tensor(np.array([-x]), dtype=np.float64)
    diff = float(nm.gelu(t).data[0] - nm.gelu(m).data[0])
    assert diff == pytest.approx(x, abs=1e-12)


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 6), st.integers(1, 4))
def test_layernorm_normalizes_rows(d, rows):
    x = np.random.default_rng(d * 13 + rows).normal(size=(rows, d)) * 5 + 2
    eps = 1e-6
    out = nm.layernorm(
        Tensor(x, dtype=np.float64),
        Tensor(np.ones(d), dtype=np.float64),
        Tensor(np.zeros(d), dtype=np.float64),
        eps=eps,
    ).data
    np.testing.assert_allclose(out.mean(axis=-1), 0.0, atol=1e-10)
    # eps floors the denominator, so output variance is var/(var+eps), not 1
    v = x.var(axis=-1)
    np.testing.assert_allclose(out.var(axis=-1), v / (v + eps), rtol=1e-8)
