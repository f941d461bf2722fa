"""Minimal dense tensors with reverse-mode automatic differentiation.

Supports the operations the transformer and its losses need, and `softmax`,
which only the tests' attention reference and the benchmark's tracer call.
Broadcasting is deliberately restricted: elementwise ops take identical
shapes, and `mul` also takes a rank-1 right operand matching the trailing
axis (per-channel scaling). Anything richer has a dedicated op
(`expand_batch`, `drop_path_scale`, the bias of `matmul`) with an explicit
backward rule.

f32 is the training dtype; gradient checks run everything at f64.

The heavy ops (`matmul`, `attention`'s backward, `layernorm`, the softmax
and the f32 GELU) cut their rows in two halves with `_split`, by a rule
that reads the shapes alone. When the process may run on two or more CPUs,
one half runs on a helper thread and the other on the calling thread; else
both run on the calling thread. Each output element comes from the same
numpy or BLAS call on the same slice either way, so the bytes do not depend
on the number of CPUs. A linear layer's leading axes are flattened into the
rows of one gemm per half.

A tracked op keeps only what its backward rule reads. `attention` keeps no
(B, H, T, T) array: its backward makes each half's scores and softmax P
again with the calls the forward made on those matrices and each row's saved
max and sum, so every bit is the same.
"""

from __future__ import annotations

import math
import os
import queue
import threading
from typing import Optional, Sequence

import numpy as np
from scipy.special import erf, expit

from .errors import ContractError, DimensionError

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)


# -- the helper thread -------------------------------------------------------

# Two parts when the process may run on two or more CPUs, else one: every op
# then runs inline on the calling thread.
_PARTS = 2 if len(os.sched_getaffinity(0)) >= 2 else 1
# Elements a part must hold for the handoff to pay: handing a part to the
# helper and waiting for it took ~23 µs; a (64, 64) @ (64, 10) product took
# 6 µs inline and 50 µs split.
_MIN_PART = 1 << 14
_tasks: Optional[queue.SimpleQueue] = None  # what the helper thread, once started, runs
_lock = threading.Lock()  # held by the one caller using the helper


def _help(tasks: queue.SimpleQueue) -> None:
    while True:
        fn, lo, hi, done = tasks.get()
        err = None
        try:
            fn(lo, hi)
        except BaseException as exc:  # handed back to the caller, which raises it
            err = exc
        del fn  # else its arrays would live until the next part arrives
        done.put(err)


def _split(fn, n: int, size: int) -> None:
    """Run `fn(lo, hi)` over the rows [0, n) and return when it is done.

    The cut reads the shapes alone: the halves [0, n//2) and [n//2, n) when
    n ≥ 2 and the `size` elements fill two parts of `_MIN_PART`, else the
    whole range at once. The first half runs on the helper thread and the
    second on the calling thread; both run inline, one after the other,
    when there is one part or another thread is using the helper.
    `fn` runs raw numpy on slices of arrays the caller allocated, never a
    public op of this module (a tracer wraps those, single-threaded).
    """
    global _tasks
    if n < 2 or size < 2 * _MIN_PART:
        fn(0, n)
        return
    if _PARTS < 2 or not _lock.acquire(blocking=False):
        fn(0, n // 2)
        fn(n // 2, n)
        return
    try:
        if _tasks is None:
            _tasks = queue.SimpleQueue()
            threading.Thread(
                target=_help, args=(_tasks,), name="vitrecipe-numerics", daemon=True
            ).start()
        done = queue.SimpleQueue()  # per call, so an interrupted wait leaves no stale answer
        _tasks.put((fn, 0, n // 2, done))
        try:
            fn(n // 2, n)
        finally:
            err = done.get()  # the helper writes into the caller's arrays until here
    finally:
        _lock.release()
    if err is not None:
        raise err


def _forget_helper() -> None:  # a forked child has no helper thread
    global _tasks, _lock
    _tasks, _lock = None, threading.Lock()


os.register_at_fork(after_in_child=_forget_helper)


class TapeNode:
    """One recorded op: the graph handles of its inputs and how to push
    gradients back, until a backward consumes it (see `backward`). A handle
    is a leaf or untracked input itself, or the data-free vertex of a
    tracked op's output (see `_make`)."""

    __slots__ = ("inputs", "grad_fn")

    def __init__(self, inputs, grad_fn):
        self.inputs = inputs
        self.grad_fn = grad_fn


class Tensor:
    __slots__ = ("data", "requires_grad", "grad", "node", "vertex")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data)
        if dtype is not None:
            arr = arr.astype(dtype)
        elif arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float32)
        self.data = arr
        self.requires_grad = requires_grad
        self.grad: Optional[np.ndarray] = None
        self.node: Optional[TapeNode] = None
        self.vertex: Optional[Tensor] = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={tuple(self.shape)}, dtype={self.data.dtype}{flag})"


def _handle(t: Tensor) -> Tensor:
    """What the tape records for input `t`: its vertex when an op made it
    under tracking, else `t` itself."""
    return t if t.vertex is None else t.vertex


def _make(out_data, inputs, grad_fn) -> Tensor:
    """Wrap an op's result; under tracking, record it on the tape.

    The node holds the inputs' handles and `grad_fn`, and `grad_fn` holds
    only the arrays its rule reads. The result gets a vertex: a Tensor with
    no data that shares its node and stands for it on later nodes. So an
    intermediate no backward rule reads is freed once the caller drops it,
    as in an untracked forward."""
    out = Tensor.__new__(Tensor)
    out.data = out_data
    out.grad = None
    out.requires_grad = any(t.requires_grad for t in inputs)
    out.node = out.vertex = None
    if out.requires_grad:
        out.node = TapeNode(tuple(_handle(t) for t in inputs), grad_fn)
        out.vertex = Tensor(np.empty(0, out_data.dtype), requires_grad=True)
        out.vertex.node = out.node
    return out


def _rows(x: np.ndarray) -> np.ndarray:
    """`x` as a matrix: its leading axes flattened into rows."""
    return x.reshape(math.prod(x.shape[:-1]), x.shape[-1])


def _sum_to_rank1(g: np.ndarray) -> np.ndarray:
    if g.ndim == 1:
        return g
    return _rows(g).sum(axis=0)


# -- elementwise ---------------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise DimensionError(f"add: shapes {tuple(a.shape)} and {tuple(b.shape)} differ")
    return _make(a.data + b.data, (a, b), lambda g: (g, g))


def mul(a: Tensor, b: Tensor) -> Tensor:
    broadcast = a.shape != b.shape  # then b must be rank-1 against a's last axis
    if broadcast and not (b.ndim == 1 and a.ndim >= 1 and a.shape[-1] == b.shape[0]):
        raise DimensionError(
            f"mul: shapes {tuple(a.shape)} and {tuple(b.shape)} are neither "
            "identical nor (nd, trailing rank-1)"
        )
    a_data, b_data = a.data, b.data
    out = a_data * b_data

    def grad_fn(g):
        ga = g * b_data
        gb = g * a_data
        return ga, _sum_to_rank1(gb) if broadcast else gb

    return _make(out, (a, b), grad_fn)


def neg(a: Tensor) -> Tensor:
    return _make(-a.data, (a,), lambda g: (-g,))


def scale(a: Tensor, s: float) -> Tensor:
    return _make(a.data * s, (a,), lambda g: (g * s,))


# -- matmul ---------------------------------------------------------------


def matmul(a: Tensor, b: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """Matrix product, plus an optional rank-1 `bias` of shape (n,).

    Two layouts: (.., k) @ (k, n) applies one weight matrix to the leading
    axes of `a` flattened into rows, and (batch.., m, k) @ (batch.., k, n)
    with equal batch extents multiplies per batch element (attention
    scores/values). `_split` cuts those rows, or the batch axis, in halves
    by shape alone, so a linear layer runs one gemm per half forward and
    one for g·bᵀ. The bias is added in place into the fresh product, so a
    linear layer is one node with the bits of `matmul(a, b) + bias` and its
    column-sum gradient.
    """
    if a.ndim >= 2 and b.ndim == 2:
        if a.shape[-1] != b.shape[0]:
            raise DimensionError(
                f"matmul: inner extents {a.shape[-1]} and {b.shape[0]} differ"
            )
        batched = False
    elif a.ndim >= 3 and b.ndim == a.ndim:
        if a.shape[:-2] != b.shape[:-2]:
            raise DimensionError(
                f"matmul: batch extents {a.shape[:-2]} and {b.shape[:-2]} differ"
            )
        if a.shape[-1] != b.shape[-2]:
            raise DimensionError(
                f"matmul: inner extents {a.shape[-1]} and {b.shape[-2]} differ"
            )
        batched = True
    else:
        raise DimensionError(
            f"matmul: unsupported ranks {a.ndim} and {b.ndim} "
            "(need (..,k)@(k,n) or equal-rank batched)"
        )
    if bias is not None and bias.shape != (b.shape[-1],):
        raise DimensionError(
            f"matmul: bias shape {tuple(bias.shape)} is not ({b.shape[-1]},)"
        )
    a_data, b_data = a.data, b.data
    has_bias = bias is not None
    parts = 2 if a.requires_grad else 1  # 1: aᵀ·g alone, as for the patchified images
    out = np.empty(a.shape[:-1] + b.shape[-1:], np.result_type(a_data, b_data))
    rows, out_rows = (a_data, out) if batched else (_rows(a_data), _rows(out))
    bias_data = bias.data if has_bias else None

    def part(lo, hi):
        o = out_rows[lo:hi]
        np.matmul(rows[lo:hi], b_data[lo:hi] if batched else b_data, out=o)
        if has_bias:
            np.add(o, bias_data, out=o)

    m = len(rows)
    if m < 4:  # a half of one row would run as a gemv
        part(0, m)
    else:
        _split(part, m, out.size)

    def grad_fn(g):
        grads = [None, None]  # aᵀ·g on the helper, g·bᵀ on the caller; neither split
        a_, g_ = (a_data, g) if batched else (_rows(a_data), _rows(g))

        def task(lo, hi):
            if lo == 0:
                grads[0] = a_.swapaxes(-1, -2) @ g_
            if hi == 2:
                grads[1] = (g_ @ b_data.swapaxes(-1, -2)).reshape(a_data.shape)

        _split(task, parts, g.size)
        gb, ga = grads
        return (ga, gb, _sum_to_rank1(g)) if has_bias else (ga, gb)

    return _make(out, (a, b, bias) if has_bias else (a, b), grad_fn)


def attention(qkv: Tensor, num_heads: int) -> Tensor:
    """Multi-head self-attention, as one node from the (B, T, 3D) qkv
    product to the (B, T, D) merged heads that the output projection reads.

    The last axis of qkv holds (3, num_heads, dh): q, k and v are strided
    views of it. The forward is the composition it replaces, in its order,
    so it has the same bits: q·dh^-0.5, the product with kᵀ, the softmax P,
    the product with v. Both products go through `matmul` on untracked
    tensors. The tape keeps qkv, the result, which the output projection
    keeps anyway, and each softmax row's max and sum, not P. Backward runs
    one pass per batch half (FlashAttention, arXiv 2205.14135, Alg. 4,
    keeps the same two statistics). It makes that half's scores and P again
    with the forward's calls on those matrices and the saved max and sum,
    so P and every gradient keep their bits: numpy runs a stacked product
    one matrix at a time, whatever the slice. It then applies the softmax
    rule dS = P∘(dP − rowsum(dO∘O)), and writes dq = s·dS·K, dk = s·dSᵀ·Q
    and dv = Pᵀ·dO, with s = dh^-0.5, through strided views into one
    qkv-shaped array.
    """
    if qkv.ndim != 3:
        raise DimensionError(f"attention: qkv must be (B, T, 3D), got {tuple(qkv.shape)}")
    b, t, width = qkv.shape
    if num_heads < 1 or width == 0 or width % (3 * num_heads):
        raise DimensionError(
            f"attention: last axis {width} is not 3·{num_heads} heads·head width"
        )
    dh = width // (3 * num_heads)
    s = dh**-0.5
    qkv_data = qkv.data
    q, k, v = qkv_data.reshape(b, t, 3, num_heads, dh).transpose(2, 0, 3, 1, 4)
    # kᵀ is copied: OpenBLAS ran the strided one slower and, at dh = 64,
    # with other bits
    scores = matmul(Tensor(q * s), Tensor(np.ascontiguousarray(k.swapaxes(-1, -2)))).data
    p, stats = _softmax(scores, out=scores)
    top, total = stats.reshape(2, b, num_heads, t, 1)
    heads = matmul(Tensor(p), Tensor(v)).data  # (B, H, T, dh)
    out = heads.transpose(0, 2, 1, 3).reshape(b, t, width // 3)

    def grad_fn(g):
        # P on the calling thread: made in `part`, the toy's peak RSS rose ~2 MiB
        p = np.empty((b, num_heads, t, t), qkv_data.dtype)
        grad = np.empty((b, t, 3, num_heads, dh), qkv_data.dtype)
        dq, dk, dv = grad.transpose(2, 0, 3, 1, 4)
        do = g.reshape(b, t, num_heads, dh)
        o = out.reshape(b, t, num_heads, dh)

        def part(lo, hi):  # batch elements [lo, hi)
            p_, q_, k_, dq_, dk_ = p[lo:hi], q[lo:hi], k[lo:hi], dq[lo:hi], dk[lo:hi]
            # P again, with the forward's calls on these matrices, so its bits
            np.matmul(q_ * s, np.ascontiguousarray(k_.swapaxes(-1, -2)), out=p_)
            np.subtract(p_, top[lo:hi], out=p_)
            np.exp(p_, out=p_)
            np.divide(p_, total[lo:hi], out=p_)
            # rowsum(dP∘P) = rowsum(dO∘O), read from the (B, T, D) arrays
            rows = np.einsum("bthd,bthd->bht", do[lo:hi], o[lo:hi])
            do_ = do[lo:hi].transpose(0, 2, 1, 3)
            np.matmul(p_.swapaxes(-1, -2), do_, out=dv[lo:hi])
            ds = do_ @ np.ascontiguousarray(v[lo:hi].swapaxes(-1, -2))  # dP
            np.subtract(ds, rows[..., None], out=ds)
            np.multiply(ds, p_, out=ds)
            np.matmul(ds, k_, out=dq_)
            np.multiply(dq_, s, out=dq_)
            np.matmul(ds.swapaxes(-1, -2), q_, out=dk_)
            np.multiply(dk_, s, out=dk_)

        _split(part, b, p.size)
        return (grad.reshape(b, t, width),)

    return _make(out, (qkv,), grad_fn)


# -- shape ops -------------------------------------------------------------


def reshape(a: Tensor, shape: tuple) -> Tensor:
    old = a.shape
    out = a.data.reshape(shape)
    return _make(out, (a,), lambda g: (g.reshape(old),))


def transpose(a: Tensor, axes: tuple) -> Tensor:
    if len(axes) != a.ndim:
        raise DimensionError(f"transpose: {len(axes)} axes for rank-{a.ndim} tensor")
    inverse = tuple(int(i) for i in np.argsort(axes))
    out = np.ascontiguousarray(a.data.transpose(axes))
    return _make(out, (a,), lambda g: (g.transpose(inverse),))


def narrow(a: Tensor, axis: int, start: int, length: int) -> Tensor:
    """A copy of `length` entries from `start` along `axis`. Always a copy:
    a view would keep all of `a` alive wherever a backward rule saves it."""
    if not 0 <= axis < a.ndim:
        raise DimensionError(f"narrow: axis {axis} out of range for rank {a.ndim}")
    if start < 0 or start + length > a.shape[axis]:
        raise DimensionError(
            f"narrow: [{start}, {start + length}) exceeds extent {a.shape[axis]}"
        )
    index = [slice(None)] * a.ndim
    index[axis] = slice(start, start + length)
    index = tuple(index)
    out = a.data[index].copy()
    shape, dtype = a.shape, a.dtype

    def grad_fn(g):
        full = np.zeros(shape, dtype)
        full[index] = g
        return (full,)

    return _make(out, (a,), grad_fn)


def concat(tensors: Sequence[Tensor], axis: int) -> Tensor:
    if not tensors:
        raise DimensionError("concat: empty input list")
    out = np.concatenate([t.data for t in tensors], axis=axis)
    # a list: an ndarray would be tape bytes that `count_activation_bytes` misses
    cuts = np.cumsum([t.shape[axis] for t in tensors[:-1]]).tolist()

    def grad_fn(g):
        return tuple(np.ascontiguousarray(part) for part in np.split(g, cuts, axis=axis))

    return _make(out, tuple(tensors), grad_fn)


def expand_batch(a: Tensor, batch: int) -> Tensor:
    """Tile a leading extent of 1 up to `batch`; backward sums over it."""
    if a.ndim < 1 or a.shape[0] != 1:
        raise DimensionError(f"expand_batch: leading extent must be 1, got {a.shape}")
    out = np.ascontiguousarray(np.broadcast_to(a.data, (batch,) + a.shape[1:]))
    return _make(out, (a,), lambda g: (g.sum(axis=0, keepdims=True),))


def tensor_sum(a: Tensor) -> Tensor:
    """Sum of every element, as a scalar."""
    out = np.asarray(a.data.sum())
    shape, dtype = a.shape, a.dtype

    def grad_fn(g):
        return (np.full(shape, g, dtype=dtype),)

    return _make(out, (a,), grad_fn)


# -- normalization and activations -----------------------------------------


def layernorm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-6) -> Tensor:
    d = x.shape[-1] if x.ndim else 0
    if d == 0:
        raise DimensionError("layernorm: empty trailing axis")
    if gamma.shape != (d,) or beta.shape != (d,):
        raise DimensionError(
            f"layernorm: gamma/beta must have shape ({d},), "
            f"got {tuple(gamma.shape)} and {tuple(beta.shape)}"
        )
    # Two full-size arrays: xhat, which backward reads, and the result, which
    # first holds xc² for the variance. Each pass is the formula's own
    # operation in its order, written in place, so the bits do not change.
    # Every pass but the two column sums of backward is row-local, so the
    # rows are split.
    x_data, gamma_data, beta_data, dtype = x.data, gamma.data, beta.data, x.dtype
    xs = x_data.reshape(-1, d)
    xhat, out = np.empty(xs.shape, dtype), np.empty(xs.shape, dtype)
    inv = np.empty((xs.shape[0], 1), dtype)

    def forward_rows(lo, hi):
        x_, xhat_, out_ = xs[lo:hi], xhat[lo:hi], out[lo:hi]
        mu = x_.mean(axis=-1, keepdims=True)
        np.subtract(x_, mu, out=xhat_)  # xc
        np.multiply(xhat_, xhat_, out=out_)
        var = out_.mean(axis=-1, keepdims=True)
        np.add(var, eps, out=var)
        np.sqrt(var, out=var)
        np.divide(1.0, var, out=inv[lo:hi])
        np.multiply(xhat_, inv[lo:hi], out=xhat_)
        np.multiply(xhat_, gamma_data, out=out_)
        np.add(out_, beta_data, out=out_)

    _split(forward_rows, xs.shape[0], xs.size)

    def grad_fn(g):
        # standard layernorm backward: remove the mean and the xhat-projection;
        # g is never written, since `add` hands one g to both its inputs
        gs = g.reshape(-1, d)
        dxhat = np.empty(gs.shape, np.result_type(g, gamma_data))
        tmp = np.empty(gs.shape, np.result_type(dxhat, xhat))

        def backward_rows(lo, hi):
            g_, xhat_, dxhat_, tmp_ = gs[lo:hi], xhat[lo:hi], dxhat[lo:hi], tmp[lo:hi]
            np.multiply(g_, gamma_data, out=dxhat_)
            np.multiply(dxhat_, xhat_, out=tmp_)
            m1 = dxhat_.mean(axis=-1, keepdims=True)
            m2 = tmp_.mean(axis=-1, keepdims=True)
            np.subtract(dxhat_, m1, out=dxhat_)
            np.multiply(xhat_, m2, out=tmp_)
            np.subtract(dxhat_, tmp_, out=dxhat_)
            np.multiply(inv[lo:hi], dxhat_, out=dxhat_)
            np.multiply(g_, xhat_, out=tmp_)  # last: a rank-1 sum is tmp itself

        _split(backward_rows, gs.shape[0], gs.size)
        gx = dxhat.reshape(g.shape).astype(dtype, copy=False)
        return gx, _sum_to_rank1(tmp), _sum_to_rank1(gs)

    out = out.reshape(x.shape)
    return _make(out, (x, gamma, beta), grad_fn)


def softmax(x: Tensor) -> Tensor:
    """Softmax over the last axis."""
    out, _ = _softmax(x.data)

    def grad_fn(g):
        gx = np.multiply(g, out)
        inner = gx.sum(axis=-1, keepdims=True)
        np.subtract(g, inner, out=gx)
        np.multiply(out, gx, out=gx)
        return (gx,)

    return _make(out, (x,), grad_fn)


def _softmax(x: np.ndarray, out: Optional[np.ndarray] = None):
    """Softmax of `x` over its last axis into `out` (fresh when None; `x`
    itself is allowed, and a given `out` must be C-contiguous), and its row
    statistics: a (2, rows, 1) array of each row's max and sum of exps.
    Each pass rewrites one array, with the bits of the out-of-place
    formula, and the rows are split."""
    if out is None:
        out = np.empty(x.shape, x.dtype)
    xs, outs = _rows(x), _rows(out)
    top, total = stats = np.empty((2, xs.shape[0], 1), x.dtype)

    def rows(lo, hi):
        x_, out_ = xs[lo:hi], outs[lo:hi]
        np.max(x_, axis=-1, keepdims=True, out=top[lo:hi])
        np.subtract(x_, top[lo:hi], out=out_)
        np.exp(out_, out=out_)
        np.sum(out_, axis=-1, keepdims=True, out=total[lo:hi])
        np.divide(out_, total[lo:hi], out=out_)

    _split(rows, xs.shape[0], xs.size)
    return out, stats


def log_softmax(x: Tensor) -> Tensor:
    """Log-softmax over the last axis."""
    shifted = x.data - x.data.max(axis=-1, keepdims=True)
    out = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))

    def grad_fn(g):
        return (g - np.exp(out) * g.sum(axis=-1, keepdims=True),)

    return _make(out, (x,), grad_fn)


def gelu(x: Tensor) -> Tensor:
    """GELU x·Φ(x) with the normal CDF Φ, not the tanh approximation.

    f64 evaluates Φ with scipy's exact `erf`. f32 uses Abramowitz & Stegun
    7.1.26 for erf, absolute error at most 1.5e-7, so Φ is within 7.5e-8
    before rounding. Computed blockwise in f32 (`_gelu_f32`), the value
    was within 1.8e-7·max(1, |x|) and the derivative within 2.1e-7 of the
    f64 path over [-12, 12]; the tests hold both to 3e-7·max(1, |x|).
    A tracked call saves the derivative Φ(x) + x·φ(x) as its one
    array, so backward is one multiply.
    """
    if x.data.dtype == np.float32:
        out, deriv = _gelu_f32(x.data, x.requires_grad)
    else:
        phi = 0.5 * (1.0 + erf(x.data * _INV_SQRT2))
        out = (x.data * phi).astype(x.data.dtype, copy=False)
        deriv = None
        if x.requires_grad:
            deriv = phi + x.data * (np.exp(-0.5 * x.data * x.data) * _INV_SQRT2PI)
    return _make(out, (x,), lambda g: (g * deriv,))


# Abramowitz & Stegun 7.1.26: erfc(z) ≈ (a1·t + a2·t² + … + a5·t⁵)·exp(-z²)
# with t = 1/(1 + p·z), for z ≥ 0 and absolute error at most 1.5e-7.
_AS_P = 0.3275911
_AS_A = (0.254829592, -0.284496736, 1.421413741, -1.453152027, 1.061405429)
# The same polynomial halved, so that it gives 1 − Φ(|x|) at z = |x|/√2, and
# re-expanded in s = t − 1 = −p·z/(1 + p·z), highest power first. Near x = 0
# Φ ≈ 1/2 is 1/2 − (1 − Φ(|x|)), which keeps the absolute error of the
# polynomial; there s is small, so the f32 rounding of every Horner step but
# the last is scaled down by |s|. Against f64 over [-12, 12], Horner in t put
# up to 3.3e-7 on the f32 derivative near x = 0; Horner in s puts 2.0e-7.
_AS_HALF_S = tuple(
    0.5 * sum(math.comb(k, j) * a for k, a in enumerate(_AS_A, start=1) if k >= j)
    for j in range(5, -1, -1)
)
# Elements per block, 64 Ki per part: on one part 128 Ki ran ~9% slower, as x,
# out and three buffers leave L2; two parts contend for the GIL between numpy
# calls, and there 128 Ki, half the calls, ran 8-12% faster. Same bytes at any size.
_GELU_BLOCK = _PARTS << 16


def _gelu_f32(x: np.ndarray, tracked: bool):
    """x·Φ(x) for f32 x, and Φ(x) + x·φ(x) when `tracked` (else None).

    Every pass runs in place over one block at a time, so the ~24 numpy
    passes reuse cached memory and allocate nothing full-size beyond the
    result and the derivative. exp(-x²/2) serves both Φ and the density φ.
    1/0 at x = ±0, overflow of x² for |x| > 1.8e19 and inf·0 at x = ±inf
    give the results of the f64 path without warnings.
    """
    flat = x.ravel()
    out = np.empty_like(flat)
    deriv = np.empty_like(flat) if tracked else None

    def blocks(first, last):  # blocks [first, last), each part with its own scratch
        start, stop = first * _GELU_BLOCK, min(last * _GELU_BLOCK, flat.size)
        scratch = np.empty((2, min(stop - start, _GELU_BLOCK)), np.float32)
        # errstate is per thread, so each part enters it
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            for lo in range(start, stop, _GELU_BLOCK):
                hi = min(lo + _GELU_BLOCK, flat.size)
                xb, ob = flat[lo:hi], out[lo:hi]
                s, h = scratch[:, : hi - lo]
                e = deriv[lo:hi] if tracked else h  # untracked, h reuses e once it is spent
                np.multiply(xb, xb, out=e)
                np.multiply(e, -0.5, out=e)
                np.exp(e, out=e)  # exp(-x²/2) = exp(-z²)
                np.abs(xb, out=s)
                np.divide(math.sqrt(2.0) / _AS_P, s, out=s)  # 1/(p·z)
                np.add(s, 1.0, out=s)
                np.divide(-1.0, s, out=s)  # s = t − 1 = −1/(1 + 1/(p·z)), −1 at x = ±inf
                np.multiply(s, _AS_HALF_S[0], out=ob)
                for b in _AS_HALF_S[1:-1]:
                    np.add(ob, b, out=ob)
                    np.multiply(ob, s, out=ob)
                np.add(ob, _AS_HALF_S[-1], out=ob)
                np.multiply(ob, e, out=ob)  # q = 1 − Φ(|x|)
                np.greater_equal(xb, 0.0, out=h)
                np.multiply(ob, -2.0, out=s)
                np.add(s, 1.0, out=s)
                np.multiply(s, h, out=s)
                np.add(ob, s, out=ob)  # Φ(x) = q + h·(1 − 2q): exactly q for x < 0
                if tracked:
                    np.multiply(e, xb, out=e)
                    np.multiply(e, _INV_SQRT2PI, out=e)
                    np.add(e, ob, out=e)  # Φ(x) + x·φ(x)
                np.multiply(ob, xb, out=ob)

    _split(blocks, -(-flat.size // _GELU_BLOCK), flat.size)
    return out.reshape(x.shape), None if deriv is None else deriv.reshape(x.shape)


def log_sigmoid(x: Tensor) -> Tensor:
    """log σ(x) = −log(1 + e^(−x)), computed overflow-free."""
    x_data = x.data
    out = -np.logaddexp(0.0, -x_data)

    def grad_fn(g):
        return (g * expit(-x_data),)

    return _make(out.astype(x.data.dtype, copy=False), (x,), grad_fn)


def drop_path_scale(x: Tensor, keep_mask: np.ndarray, scale_factor: float) -> Tensor:
    """Per-sample residual-branch gate: out[i] = x[i]·keep[i]·scale.

    `keep_mask` is a constant 0/1 vector over the leading (batch) axis,
    drawn outside the tape; `scale_factor` is 1/(1−drop_rate).
    """
    keep_mask = np.asarray(keep_mask, dtype=x.data.dtype)
    if keep_mask.shape != (x.shape[0],):
        raise DimensionError(
            f"drop_path_scale: mask shape {keep_mask.shape} does not match "
            f"batch extent {x.shape[0]}"
        )
    factor = (keep_mask * scale_factor).reshape((x.shape[0],) + (1,) * (x.ndim - 1))
    out = x.data * factor
    return _make(out, (x,), lambda g: (g * factor,))


# -- backward ---------------------------------------------------------------


def backward(loss: Tensor) -> None:
    """Accumulate d(loss)/d(leaf) into `.grad` of every requires_grad leaf.

    It consumes the tape: each node drops its rule, with the arrays the rule
    reads, and its inputs once it has run. A second backward through a
    consumed node raises ContractError."""
    if loss.data.size != 1:
        raise ContractError(f"backward: loss must be scalar, got shape {tuple(loss.shape)}")
    if not loss.requires_grad:
        raise ContractError("backward: loss does not depend on any requires_grad tensor")

    # iterative depth-first topological sort of the graph handles
    # (recursion would overflow on deep tapes)
    root = _handle(loss)
    topo: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        t, expanded = stack.pop()
        if expanded:
            topo.append(t)
            continue
        if id(t) in visited:
            continue
        visited.add(id(t))
        stack.append((t, True))
        if t.node is not None:
            if t.node.grad_fn is None:
                raise ContractError("backward: the tape was already used by a backward")
            for inp in t.node.inputs:
                if inp.requires_grad and id(inp) not in visited:
                    stack.append((inp, False))

    grads: dict[int, np.ndarray] = {id(root): np.ones_like(loss.data)}
    for t in reversed(topo):
        g = grads.pop(id(t), None)
        node = t.node
        if node is not None:
            grad_fn, inputs = node.grad_fn, node.inputs
            node.grad_fn, node.inputs = None, ()
        if g is None:
            continue
        if node is None:
            if t.grad is None:
                t.grad = g.copy()
            else:
                t.grad += g
            continue
        for inp, gi in zip(inputs, grad_fn(g)):
            if gi is None or not inp.requires_grad:
                continue
            # out-of-place: grad_fns may hand back views or share one array
            # between two inputs, so += would corrupt a sibling's gradient
            if id(inp) in grads:
                grads[id(inp)] = grads[id(inp)] + gi
            else:
                grads[id(inp)] = gi
