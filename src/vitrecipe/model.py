"""Vanilla ViT with LayerScale and uniform per-sample stochastic depth.

Parameters live in an ordered name -> Tensor dict so the optimizer,
checkpointing, and weight-decay policy can all key off names. The
forward pass is a pure function of (config, params, images, mode, rng).

Also holds the analytic parameter/FLOPs accounting and the bicubic
positional-embedding resampler that makes the model resolution-flexible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar, Dict, Optional, Tuple

import numpy as np

from . import numerics as nm
from .errors import DimensionError, ParameterError
from .numerics import Tensor
from .rng import Rng

ViTParams = Dict[str, Tensor]


@dataclass(frozen=True)
class ViTConfig:
    patch_size: int
    embed_dim: int
    depth: int
    num_heads: int
    image_size: int
    num_classes: int
    drop_path_rate: float = 0.0
    layerscale_init: float = 1e-4
    mlp_ratio: ClassVar[float] = 4.0  # MLP width over embed_dim, the same at every size

    def __post_init__(self):
        _require_positive(**{
            name: getattr(self, name) for name in ("embed_dim", "depth", "num_heads", "num_classes")
        })
        num_patches(self.image_size, self.patch_size)
        if self.embed_dim % self.num_heads != 0:
            raise ParameterError(
                f"embed_dim {self.embed_dim} not divisible by num_heads {self.num_heads}"
            )
        if not 0.0 <= self.drop_path_rate < 1.0:
            raise ParameterError("drop_path_rate must lie in [0, 1)")

    @property
    def grid(self) -> int:
        return self.image_size // self.patch_size

    @property
    def mlp_hidden(self) -> int:
        return int(self.embed_dim * self.mlp_ratio)


def _require_positive(**sizes: int) -> None:
    for name, value in sizes.items():
        if value < 1:
            raise ParameterError(f"{name} must be at least 1, got {value}")


def num_patches(image_size: int, patch_size: int) -> int:
    """Tokens of the patch grid; the one check that a size divides into patches."""
    _require_positive(image_size=image_size, patch_size=patch_size)
    if image_size % patch_size != 0:
        raise ParameterError(f"image size {image_size} not divisible by patch size {patch_size}")
    return (image_size // patch_size) ** 2


# name -> (embed_dim, num_heads, depth, patch_size, drop-path rate when
# pretrained on in1k, drop-path rate when pretrained on in21k)
PRESETS = {
    "ViT-T": (192, 3, 12, 16, 0.0, 0.0),
    "ViT-S": (384, 6, 12, 16, 0.0, 0.0),
    "ViT-B": (768, 12, 12, 16, 0.1, 0.1),
    "ViT-L": (1024, 16, 24, 16, 0.4, 0.3),
    "ViT-H": (1280, 16, 32, 14, 0.5, 0.5),
}


def canonical_preset(name: str) -> str:
    key = name.strip().lower().replace("_", "-")
    if not key.startswith("vit-"):
        key = "vit-" + key
    for preset in PRESETS:
        if preset.lower() == key:
            return preset
    raise ParameterError(f"unknown model preset {name!r}; choose from {list(PRESETS)}")


def preset_drop_path(name: str, dataset: str = "in1k") -> float:
    if dataset not in ("in1k", "in21k"):
        raise ParameterError(f"dataset must be in1k or in21k, got {dataset!r}")
    in1k, in21k = PRESETS[canonical_preset(name)][4:]
    return in1k if dataset == "in1k" else in21k


def preset_config(
    name: str,
    image_size: int = 224,
    num_classes: int = 1000,
    drop_path_rate: Optional[float] = None,
    dataset: str = "in1k",
) -> ViTConfig:
    preset = canonical_preset(name)
    dim, heads, depth, patch = PRESETS[preset][:4]
    if drop_path_rate is None:
        drop_path_rate = preset_drop_path(preset, dataset)
    return ViTConfig(
        patch_size=patch,
        embed_dim=dim,
        depth=depth,
        num_heads=heads,
        image_size=image_size,
        num_classes=num_classes,
        drop_path_rate=drop_path_rate,
    )


# -- parameters ---------------------------------------------------------------


# name -> (shape, fill): fill None is a truncated-normal(0.02) draw, else the constant
ParamLayout = Dict[str, Tuple[Tuple[int, ...], Optional[float]]]


def param_layout(config: ViTConfig) -> ParamLayout:
    """Every parameter's name, shape and init, in `init`'s order: the one
    statement of the layout, which loading a checkpoint checks against."""
    d, hid, ls = config.embed_dim, config.mlp_hidden, config.layerscale_init
    tokens = config.grid**2 + 1
    layout: ParamLayout = {
        "patch_embed.weight": ((3 * config.patch_size**2, d), None),
        "patch_embed.bias": ((d,), 0.0),
        "cls_token": ((1, 1, d), None),
        "pos_embed": ((1, tokens, d), None),
    }
    for i in range(config.depth):
        block = {
            "norm1.weight": ((d,), 1.0), "norm1.bias": ((d,), 0.0),
            "attn.qkv.weight": ((d, 3 * d), None), "attn.qkv.bias": ((3 * d,), 0.0),
            "attn.proj.weight": ((d, d), None), "attn.proj.bias": ((d,), 0.0),
            "ls1": ((d,), ls),
            "norm2.weight": ((d,), 1.0), "norm2.bias": ((d,), 0.0),
            "mlp.fc1.weight": ((d, hid), None), "mlp.fc1.bias": ((hid,), 0.0),
            "mlp.fc2.weight": ((hid, d), None), "mlp.fc2.bias": ((d,), 0.0),
            "ls2": ((d,), ls),
        }
        layout.update((f"blocks.{i}.{name}", entry) for name, entry in block.items())
    layout.update({
        "norm.weight": ((d,), 1.0), "norm.bias": ((d,), 0.0),
        "head.weight": ((d, config.num_classes), None), "head.bias": ((config.num_classes,), 0.0),
    })
    return layout


def init(config: ViTConfig, rng: Rng, dtype=np.float32) -> ViTParams:
    """Truncated-normal(0.02) weights/embeddings, zero biases, LN at
    identity, every LayerScale vector at layerscale_init exactly.

    Tensors are created (and random draws consumed) in `param_layout`'s
    order, so one seed pins every byte.
    """
    params: ViTParams = {}
    for name, (shape, fill) in param_layout(config).items():
        if fill is None:
            data = rng.truncated_normal_array(math.prod(shape), 0.02).reshape(shape)
        else:
            data = np.full(shape, fill, dtype=dtype)
        params[name] = Tensor(data, requires_grad=True, dtype=dtype)
    return params


# -- forward -------------------------------------------------------------------


def _attention(x: Tensor, params: ViTParams, prefix: str, num_heads: int) -> Tensor:
    qkv = nm.matmul(x, params[prefix + "attn.qkv.weight"], params[prefix + "attn.qkv.bias"])
    out = nm.attention(qkv, num_heads)
    return nm.matmul(out, params[prefix + "attn.proj.weight"], params[prefix + "attn.proj.bias"])


def _mlp(x: Tensor, params: ViTParams, prefix: str) -> Tensor:
    h = nm.gelu(nm.matmul(x, params[prefix + "mlp.fc1.weight"], params[prefix + "mlp.fc1.bias"]))
    return nm.matmul(h, params[prefix + "mlp.fc2.weight"], params[prefix + "mlp.fc2.bias"])


def forward(
    config: ViTConfig,
    params: ViTParams,
    images: Tensor,
    mode: str = "eval",
    rng: Optional[Rng] = None,
) -> Tensor:
    """images: (B, 3, R, R) standardized floats -> logits (B, num_classes).

    Train mode drops each residual branch per sample with probability
    drop_path_rate and rescales survivors by 1/(1-rate). One
    `rng.uniform_array` call draws every mask before the blocks run, laid
    out (block, branch, sample) with attention before MLP: the values of one
    draw per branch in that order. Eval mode and rate 0 draw nothing.
    """
    if mode not in ("train", "eval"):
        raise ParameterError(f"mode must be train or eval, got {mode!r}")
    b = images.shape[0]
    r = config.image_size
    if images.shape != (b, 3, r, r):
        raise DimensionError(
            f"forward: expected images ({b}, 3, {r}, {r}), got {tuple(images.shape)}"
        )
    g, p = config.grid, config.patch_size
    n = g * g
    rate = config.drop_path_rate
    keep = None
    if mode == "train" and rate > 0.0:
        if rng is None:
            raise ParameterError("forward: train mode with drop_path_rate > 0 needs an rng")
        keep = (rng.uniform_array(config.depth * 2 * b) >= rate).reshape(config.depth, 2, b)

    # patchify: (B,3,R,R) -> (B, N, p*p*3), pixels of each patch row-major
    x = nm.reshape(images, (b, 3, g, p, g, p))
    x = nm.transpose(x, (0, 2, 4, 3, 5, 1))
    x = nm.reshape(x, (b, n, p * p * 3))
    x = nm.matmul(x, params["patch_embed.weight"], params["patch_embed.bias"])

    cls = nm.expand_batch(params["cls_token"], b)
    x = nm.concat([cls, x], axis=1)
    x = nm.add(x, nm.expand_batch(params["pos_embed"], b))

    for i in range(config.depth):
        pre = f"blocks.{i}."
        y = nm.layernorm(x, params[pre + "norm1.weight"], params[pre + "norm1.bias"])
        y = _attention(y, params, pre, config.num_heads)
        y = nm.mul(y, params[pre + "ls1"])
        if keep is not None:
            y = nm.drop_path_scale(y, keep[i, 0], 1.0 / (1.0 - rate))
        x = nm.add(x, y)
        y = nm.layernorm(x, params[pre + "norm2.weight"], params[pre + "norm2.bias"])
        y = _mlp(y, params, pre)
        y = nm.mul(y, params[pre + "ls2"])
        if keep is not None:
            y = nm.drop_path_scale(y, keep[i, 1], 1.0 / (1.0 - rate))
        x = nm.add(x, y)

    x = nm.layernorm(x, params["norm.weight"], params["norm.bias"])
    cls_out = nm.reshape(nm.narrow(x, 1, 0, 1), (b, config.embed_dim))
    return nm.matmul(cls_out, params["head.weight"], params["head.bias"])


# -- positional-embedding resampling -------------------------------------------


def _catmull_rom_weights(t: np.ndarray) -> np.ndarray:
    """Weights for taps at offsets (-1, 0, 1, 2) around the integer cell."""
    ts = np.stack([1.0 + t, t, 1.0 - t, 2.0 - t])
    at = np.abs(ts)
    near = 1.5 * at**3 - 2.5 * at**2 + 1.0
    far = -0.5 * (at**3 - 5.0 * at**2 + 8.0 * at - 4.0)
    return np.where(at <= 1.0, near, np.where(at < 2.0, far, 0.0))


def _bicubic_axis(grid: np.ndarray, n_out: int, axis: int) -> np.ndarray:
    n_in = grid.shape[axis]
    if n_out == n_in:
        return grid
    scale = n_in / n_out
    src = (np.arange(n_out, dtype=np.float64) + 0.5) * scale - 0.5
    i0 = np.floor(src).astype(np.int64)
    w = _catmull_rom_weights(src - i0)  # (4, n_out)
    w /= w.sum(axis=0, keepdims=True)
    out = 0.0
    for tap in range(4):
        idx = np.clip(i0 + tap - 1, 0, n_in - 1)
        out = out + np.take(grid, idx, axis=axis) * np.expand_dims(
            w[tap], tuple(a for a in range(grid.ndim) if a != axis)
        )
    return out


def interpolate_pos_embed(params: ViTParams, new_size: int, patch_size: int) -> ViTParams:
    """Resample the positional grid to a new resolution.

    The class-token row passes through untouched; grid rows are reshaped
    to g x g, bicubically resampled (Catmull-Rom, half-pixel centers,
    per-position weight normalization), and flattened back.
    """
    g_new = math.isqrt(num_patches(new_size, patch_size))
    pos = params["pos_embed"].data
    tokens, dim = pos.shape[1], pos.shape[2]
    g_old = math.isqrt(tokens - 1)
    if g_old * g_old != tokens - 1:
        raise DimensionError(f"pos_embed grid is not square: {tokens - 1} rows")
    out = dict(params)
    if g_new == g_old:
        return out
    grid = pos[0, 1:].astype(np.float64).reshape(g_old, g_old, dim)
    grid = _bicubic_axis(grid, g_new, axis=0)
    grid = _bicubic_axis(grid, g_new, axis=1)
    new_pos = np.concatenate(
        [pos[0, :1].astype(np.float64), grid.reshape(g_new * g_new, dim)], axis=0
    )[None]
    out["pos_embed"] = Tensor(
        new_pos.astype(pos.dtype), requires_grad=params["pos_embed"].requires_grad
    )
    return out


# -- accounting oracles ---------------------------------------------------------


def count_params(config: ViTConfig) -> int:
    """Exact learnable-scalar count; no tensors are allocated."""
    d = config.embed_dim
    hid = config.mlp_hidden
    k = config.num_classes
    tokens = num_patches(config.image_size, config.patch_size) + 1
    patch = 3 * config.patch_size**2 * d + d
    embed = d + tokens * d  # class token + positional table
    block = (
        4 * d  # two layernorms
        + d * 3 * d + 3 * d  # qkv
        + d * d + d  # attention projection
        + d * hid + hid + hid * d + d  # mlp
        + 2 * d  # two layerscale vectors
    )
    head = 2 * d + d * k + k  # final layernorm + classifier
    return patch + embed + config.depth * block + head


def count_flops(config: ViTConfig, resolution: int) -> int:
    """Analytic multiply-accumulate count for one forward pass.

    Reported as MACs, the convention under which ViT-B at 224 is 17.6e9;
    covers the patch projection, attention including both N^2 terms, the
    MLP, and the classifier head.
    """
    d = config.embed_dim
    hid = config.mlp_hidden
    n = num_patches(resolution, config.patch_size)
    t = n + 1
    patch = n * (3 * config.patch_size**2) * d
    block = (
        t * d * 3 * d  # qkv projection
        + 2 * t * t * d  # scores and weighted values
        + t * d * d  # output projection
        + 2 * t * d * hid  # mlp
    )
    head = d * config.num_classes
    return patch + config.depth * block + head


def count_activation_bytes(config: ViTConfig, batch: int, dtype=np.float32) -> Dict[str, int]:
    """Bytes a tracked train-mode forward keeps for backward, by part.

    Counts each base buffer the tape holds once, parameters and the input
    images excluded, and the logits included. That is what the backward
    rules read (after Korthikanti et al., arXiv 2205.05198, §4): matmul
    operands, layernorm's xhat and 1/σ, attention's qkv and the max and
    sum of each softmax row, from which backward makes P again (its result
    is the projection's operand), GELU's derivative, the branch outputs
    the LayerScale gates multiply and the drop-path factors.
    Returns `patch_embed` (the patchified copy), `block` (one block),
    `head` (final norm, class-token rows and logits) and `total`.
    """
    s = np.dtype(dtype).itemsize
    b, d, h, m = batch, config.embed_dim, config.num_heads, config.mlp_hidden
    t = config.grid**2 + 1
    btd = b * t * d
    drop = 2 * b if config.drop_path_rate > 0.0 else 0
    block = (
        2 * (btd + b * t)  # each layernorm: xhat and 1/σ
        + 2 * btd  # each layernorm's output, read by the matmul after it
        + 3 * btd  # qkv, which attention reads q, k and v from
        + 2 * b * h * t  # attention's softmax row max and sum
        + btd  # heads merged: attention's result and the projection's input
        + 2 * btd  # attention and MLP branch outputs, read by LayerScale
        + 2 * b * t * m  # GELU's derivative and output
        + drop
    )
    parts = {
        "patch_embed": b * 3 * config.image_size**2,
        "block": block,
        "head": btd + b * t + b * d + b * config.num_classes,
    }
    parts = {k: v * s for k, v in parts.items()}
    parts["total"] = parts["patch_embed"] + config.depth * parts["block"] + parts["head"]
    return parts
