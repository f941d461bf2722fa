"""Minimal dense tensors with reverse-mode automatic differentiation.

Supports exactly the operations the transformer and its losses need.
Broadcasting is deliberately restricted: elementwise ops accept either
identical shapes or a rank-1 right operand matching the trailing axis
(bias add, per-channel scaling). Anything richer has a dedicated op
(`expand_batch`, `drop_path_scale`) with an explicit backward rule.

f32 is the training dtype; gradient checks run everything at f64.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np
from scipy.special import erf, expit

from .errors import ContractError, DimensionError

_FINITE_CHECKS = False

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)


def set_finite_checks(enabled: bool) -> None:
    """Toggle NaN/Inf assertions on every op output (debug aid, off by default)."""
    global _FINITE_CHECKS
    _FINITE_CHECKS = bool(enabled)


class TapeNode:
    """One recorded op: the tensors it read and how to push gradients back."""

    __slots__ = ("inputs", "grad_fn", "name")

    def __init__(self, inputs, grad_fn, name):
        self.inputs = inputs
        self.grad_fn = grad_fn
        self.name = name


class Tensor:
    __slots__ = ("data", "requires_grad", "grad", "node")

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

    # -- operator sugar -------------------------------------------------
    def __add__(self, other):
        return add(self, other)

    def __mul__(self, other):
        if isinstance(other, Tensor):
            return mul(self, other)
        return scale(self, float(other))

    def __rmul__(self, other):
        return scale(self, float(other))

    def __neg__(self):
        return neg(self)

    def __sub__(self, other):
        return add(self, neg(other))

    def __matmul__(self, other):
        return matmul(self, other)

    def reshape(self, *shape):
        return reshape(self, *shape)

    def transpose(self, *axes):
        return transpose(self, *axes)

    def sum(self, axis=None, keepdims=False):
        return tensor_sum(self, axis=axis, keepdims=keepdims)


def _make(out_data, inputs, grad_fn, name) -> Tensor:
    if _FINITE_CHECKS and not np.all(np.isfinite(out_data)):
        raise ContractError(f"non-finite values produced by op '{name}'")
    out = Tensor.__new__(Tensor)
    out.data = out_data
    out.grad = None
    out.requires_grad = any(t.requires_grad for t in inputs)
    out.node = TapeNode(inputs, grad_fn, name) if out.requires_grad else None
    return out


def _trailing_rank1(a: Tensor, b: Tensor, opname: str) -> bool:
    """True when b is rank-1 against a's last axis; raises on anything else."""
    if a.shape == b.shape:
        return False
    if b.ndim == 1 and a.ndim >= 1 and a.shape[-1] == b.shape[0]:
        return True
    raise DimensionError(
        f"{opname}: shapes {tuple(a.shape)} and {tuple(b.shape)} are neither "
        "identical nor (nd, trailing rank-1)"
    )


def _sum_to_rank1(g: np.ndarray) -> np.ndarray:
    if g.ndim == 1:
        return g
    return g.reshape(-1, g.shape[-1]).sum(axis=0)


# -- elementwise ---------------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    broadcast = _trailing_rank1(a, b, "add")
    out = a.data + b.data

    def grad_fn(g):
        return g, _sum_to_rank1(g) if broadcast else g

    return _make(out, (a, b), grad_fn, "add")


def mul(a: Tensor, b: Tensor) -> Tensor:
    broadcast = _trailing_rank1(a, b, "mul")
    out = a.data * b.data

    def grad_fn(g):
        ga = g * b.data
        gb = g * a.data
        return ga, _sum_to_rank1(gb) if broadcast else gb

    return _make(out, (a, b), grad_fn, "mul")


def neg(a: Tensor) -> Tensor:
    return _make(-a.data, (a,), lambda g: (-g,), "neg")


def scale(a: Tensor, s: float) -> Tensor:
    return _make(a.data * s, (a,), lambda g: (g * s,), "scale")


# -- matmul ---------------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product.

    Two layouts: (.., k) @ (k, n) applies one weight matrix to flattened
    leading axes, and (batch.., m, k) @ (batch.., k, n) with equal batch
    extents multiplies per batch element (attention scores/values).
    """
    if a.ndim >= 2 and b.ndim == 2:
        if a.shape[-1] != b.shape[0]:
            raise DimensionError(
                f"matmul: inner extents {a.shape[-1]} and {b.shape[0]} differ"
            )
        out = a.data @ b.data

        def grad_fn(g):
            ga = g @ b.data.T
            k = a.shape[-1]
            gb = a.data.reshape(-1, k).T @ g.reshape(-1, g.shape[-1])
            return ga, gb

        return _make(out, (a, b), grad_fn, "matmul")

    if a.ndim >= 3 and b.ndim == a.ndim:
        if a.shape[:-2] != b.shape[:-2]:
            raise DimensionError(
                f"matmul: batch extents {a.shape[:-2]} and {b.shape[:-2]} differ"
            )
        if a.shape[-1] != b.shape[-2]:
            raise DimensionError(
                f"matmul: inner extents {a.shape[-1]} and {b.shape[-2]} differ"
            )
        out = a.data @ b.data

        def grad_fn(g):
            ga = g @ b.data.swapaxes(-1, -2)
            gb = a.data.swapaxes(-1, -2) @ g
            return ga, gb

        return _make(out, (a, b), grad_fn, "matmul")

    raise DimensionError(
        f"matmul: unsupported ranks {a.ndim} and {b.ndim} "
        "(need (..,k)@(k,n) or equal-rank batched)"
    )


# -- shape ops -------------------------------------------------------------


def reshape(a: Tensor, *shape) -> Tensor:
    if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
        shape = tuple(shape[0])
    old = a.shape
    out = a.data.reshape(shape)
    return _make(out, (a,), lambda g: (g.reshape(old),), "reshape")


def transpose(a: Tensor, *axes) -> Tensor:
    if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
        axes = tuple(axes[0])
    if len(axes) != a.ndim:
        raise DimensionError(f"transpose: {len(axes)} axes for rank-{a.ndim} tensor")
    inverse = np.argsort(axes)
    out = np.ascontiguousarray(a.data.transpose(axes))
    return _make(out, (a,), lambda g: (g.transpose(inverse),), "transpose")


def narrow(a: Tensor, axis: int, start: int, length: int) -> Tensor:
    if not 0 <= axis < a.ndim:
        raise DimensionError(f"narrow: axis {axis} out of range for rank {a.ndim}")
    if start < 0 or start + length > a.shape[axis]:
        raise DimensionError(
            f"narrow: [{start}, {start + length}) exceeds extent {a.shape[axis]}"
        )
    index = [slice(None)] * a.ndim
    index[axis] = slice(start, start + length)
    index = tuple(index)
    out = np.ascontiguousarray(a.data[index])

    def grad_fn(g):
        full = np.zeros_like(a.data)
        full[index] = g
        return (full,)

    return _make(out, (a,), grad_fn, "narrow")


def concat(tensors: Sequence[Tensor], axis: int) -> Tensor:
    if not tensors:
        raise DimensionError("concat: empty input list")
    out = np.concatenate([t.data for t in tensors], axis=axis)
    extents = [t.shape[axis] for t in tensors]

    def grad_fn(g):
        grads = []
        offset = 0
        index = [slice(None)] * g.ndim
        for e in extents:
            index[axis] = slice(offset, offset + e)
            grads.append(np.ascontiguousarray(g[tuple(index)]))
            offset += e
        return tuple(grads)

    return _make(out, tuple(tensors), grad_fn, "concat")


def expand_batch(a: Tensor, batch: int) -> Tensor:
    """Tile a leading extent of 1 up to `batch`; backward sums over it."""
    if a.ndim < 1 or a.shape[0] != 1:
        raise DimensionError(f"expand_batch: leading extent must be 1, got {a.shape}")
    out = np.ascontiguousarray(np.broadcast_to(a.data, (batch,) + a.shape[1:]))
    return _make(out, (a,), lambda g: (g.sum(axis=0, keepdims=True),), "expand_batch")


def tensor_sum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    if axis is None:
        out = np.asarray(a.data.sum())
        shape = a.shape

        def grad_fn(g):
            return (np.full(shape, g, dtype=a.data.dtype),)

        return _make(out, (a,), grad_fn, "sum")

    out = a.data.sum(axis=axis, keepdims=keepdims)

    def grad_fn_axis(g):
        if not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, a.shape).astype(a.data.dtype, copy=True),)

    return _make(out, (a,), grad_fn_axis, "sum")


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
    mu = x.data.mean(axis=-1, keepdims=True)
    xc = x.data - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    out = xhat * gamma.data + beta.data

    def grad_fn(g):
        dxhat = g * gamma.data
        # standard layernorm backward: remove the mean and the xhat-projection
        m1 = dxhat.mean(axis=-1, keepdims=True)
        m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
        gx = inv * (dxhat - m1 - xhat * m2)
        ggamma = _sum_to_rank1(g * xhat)
        gbeta = _sum_to_rank1(g)
        return gx.astype(x.data.dtype, copy=False), ggamma, gbeta

    return _make(out.astype(x.data.dtype, copy=False), (x, gamma, beta), grad_fn, "layernorm")


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    if not -x.ndim <= axis < x.ndim:
        raise DimensionError(f"softmax: axis {axis} out of range for rank {x.ndim}")
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=axis, keepdims=True)

    def grad_fn(g):
        inner = (g * out).sum(axis=axis, keepdims=True)
        return (out * (g - inner),)

    return _make(out, (x,), grad_fn, "softmax")


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    if not -x.ndim <= axis < x.ndim:
        raise DimensionError(f"log_softmax: axis {axis} out of range for rank {x.ndim}")
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    out = shifted - np.log(np.exp(shifted).sum(axis=axis, keepdims=True))

    def grad_fn(g):
        return (g - np.exp(out) * g.sum(axis=axis, keepdims=True),)

    return _make(out, (x,), grad_fn, "log_softmax")


def gelu(x: Tensor) -> Tensor:
    """Exact-erf GELU x·Φ(x) (not the tanh approximation)."""
    phi = 0.5 * (1.0 + erf(x.data * _INV_SQRT2))
    out = x.data * phi

    def grad_fn(g):
        density = np.exp(-0.5 * x.data * x.data) * _INV_SQRT2PI
        return (g * (phi + x.data * density),)

    return _make(out.astype(x.data.dtype, copy=False), (x,), grad_fn, "gelu")


def log_sigmoid(x: Tensor) -> Tensor:
    """log σ(x) = −log(1 + e^(−x)), computed overflow-free."""
    out = -np.logaddexp(0.0, -x.data)

    def grad_fn(g):
        return (g * expit(-x.data),)

    return _make(out.astype(x.data.dtype, copy=False), (x,), grad_fn, "log_sigmoid")


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
    return _make(out, (x,), lambda g: (g * factor,), "drop_path_scale")


# -- backward ---------------------------------------------------------------


def backward(loss: Tensor) -> None:
    """Accumulate d(loss)/d(leaf) into `.grad` of every requires_grad leaf."""
    if loss.data.size != 1:
        raise ContractError(f"backward: loss must be scalar, got shape {tuple(loss.shape)}")
    if not loss.requires_grad:
        raise ContractError("backward: loss does not depend on any requires_grad tensor")

    # iterative depth-first topological sort (recursion would overflow on
    # deep tapes)
    topo: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
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
            for inp in t.node.inputs:
                if inp.requires_grad and id(inp) not in visited:
                    stack.append((inp, False))

    grads: dict[int, np.ndarray] = {
        id(loss): np.ones_like(loss.data)
    }
    for t in reversed(topo):
        g = grads.pop(id(t), None)
        if g is None:
            continue
        if t.node is None:
            if t.grad is None:
                t.grad = g.copy()
            else:
                t.grad += g
            continue
        input_grads = t.node.grad_fn(g)
        for inp, gi in zip(t.node.inputs, input_grads):
            if gi is None or not inp.requires_grad:
                continue
            # out-of-place: grad_fns may hand back views or share one array
            # between two inputs, so += would corrupt a sibling's gradient
            if id(inp) in grads:
                grads[id(inp)] = grads[id(inp)] + gi
            else:
                grads[id(inp)] = gi
