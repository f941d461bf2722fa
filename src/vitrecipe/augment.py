"""Image-space and label-space augmentation, plus eval preprocessing.

The train-time pipeline is: one of {grayscale, solarize, blur} chosen
uniformly, then color jitter, then a horizontal flip; cropping is either
random-resized-crop or the simpler fixed-scale crop with reflect
padding. Label-space mixing (mixup/cutmix) operates on prepared float
batches.

Everything is a pure function of (input, Rng state): byte-identical
results for a given seed on any platform. All float intermediates are
f64 and each op rounds back to bytes exactly once, half-up.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar, Optional

import numpy as np

from .errors import DimensionError, ParameterError
from .rng import Rng

# BT.601 luma weights
_LUMA = np.array([0.299, 0.587, 0.114], dtype=np.float64)


@dataclass(frozen=True)
class ImageU8:
    """Row-major RGB bytes, shape (height, width, 3)."""

    pixels: np.ndarray

    def __post_init__(self):
        p = self.pixels
        if p.ndim != 3 or p.shape[2] != 3:
            raise DimensionError(f"ImageU8 needs (h, w, 3) pixels, got {p.shape}")
        if p.shape[0] < 1 or p.shape[1] < 1:
            raise DimensionError("ImageU8 extents must be at least 1")
        if p.dtype != np.uint8:
            raise DimensionError(f"ImageU8 needs uint8 pixels, got {p.dtype}")

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def width(self) -> int:
        return self.pixels.shape[1]


@dataclass(frozen=True)
class AugmentPolicy:
    color_jitter_strength: float = 0.3
    hflip_prob: float = 0.5
    crop_mode: str = "rrc"  # the recipe's spelling: "rrc" or "src"
    mixup_alpha: float = 0.8  # <= 0 disables
    cutmix_alpha: float = 1.0  # <= 0 disables
    train_resolution: int = 224
    # 3-Augment's fixed solarize threshold and blur sigma range
    solarize_threshold: ClassVar[int] = 128
    blur_sigma_range: ClassVar[tuple] = (0.1, 2.0)

    def __post_init__(self):
        if self.crop_mode not in ("rrc", "src"):
            raise ParameterError(f"crop_mode must be rrc or src, got {self.crop_mode!r}")
        if not 0.0 <= self.hflip_prob <= 1.0:
            raise ParameterError("hflip_prob must lie in [0, 1]")


def _round_u8(x: np.ndarray) -> np.ndarray:
    """Round half-up and clamp to byte range."""
    return np.clip(np.floor(x + 0.5), 0.0, 255.0).astype(np.uint8)


def _reflect_indices(n: int, pad: int) -> np.ndarray:
    """Source indices for reflect padding without edge duplication.

    Works for any pad size (period 2(n-1)), unlike np.pad which rejects
    pad >= n.
    """
    pos = np.arange(-pad, n + pad)
    if n == 1:
        return np.zeros_like(pos)
    period = 2 * (n - 1)
    j = np.abs(pos) % period
    return np.where(j >= n, period - j, j)


def reflect_pad(img: ImageU8, pad: int) -> ImageU8:
    rows = _reflect_indices(img.height, pad)
    cols = _reflect_indices(img.width, pad)
    return ImageU8(np.ascontiguousarray(img.pixels[rows][:, cols]))


def _resize_axis(data: np.ndarray, n_out: int, axis: int) -> np.ndarray:
    """Bilinear resample of one axis; half-pixel-center coordinate mapping."""
    n_in = data.shape[axis]
    if n_out == n_in:
        return data
    scale = n_in / n_out
    src = (np.arange(n_out, dtype=np.float64) + 0.5) * scale - 0.5
    i0 = np.floor(src).astype(np.int64)
    frac = src - i0
    lo = np.take(data, np.clip(i0, 0, n_in - 1), axis=axis)
    hi = np.take(data, np.clip(i0 + 1, 0, n_in - 1), axis=axis)
    shape = [1] * data.ndim
    shape[axis] = n_out
    w = frac.reshape(shape)
    return lo * (1.0 - w) + hi * w


def resize_bilinear(img: ImageU8, out_h: int, out_w: int) -> ImageU8:
    if out_h < 1 or out_w < 1:
        raise ParameterError("resize extents must be at least 1")
    data = img.pixels.astype(np.float64)
    data = _resize_axis(data, out_h, axis=0)
    data = _resize_axis(data, out_w, axis=1)
    return ImageU8(_round_u8(data))


def hflip(img: ImageU8) -> ImageU8:
    return ImageU8(np.ascontiguousarray(img.pixels[:, ::-1, :]))


def grayscale(img: ImageU8) -> ImageU8:
    luma = img.pixels.astype(np.float64) @ _LUMA
    byte = _round_u8(luma)
    return ImageU8(np.repeat(byte[:, :, None], 3, axis=2))


def solarize(img: ImageU8, threshold: int) -> ImageU8:
    p = img.pixels
    return ImageU8(np.where(p >= threshold, 255 - p, p))


def gaussian_blur(img: ImageU8, sigma: float) -> ImageU8:
    if sigma <= 0:
        raise ParameterError(f"blur sigma must be positive, got {sigma}")
    radius = math.ceil(3.0 * sigma)
    xs = np.arange(-radius, radius + 1, dtype=np.float64)
    kernel = np.exp(-(xs * xs) / (2.0 * sigma * sigma))
    kernel /= kernel.sum()

    data = img.pixels.astype(np.float64)
    h, w = data.shape[:2]
    padded = data[_reflect_indices(h, radius)]
    acc = np.zeros_like(data)
    for j in range(2 * radius + 1):
        acc += kernel[j] * padded[j : j + h]
    padded = acc[:, _reflect_indices(w, radius)]
    acc = np.zeros_like(data)
    for j in range(2 * radius + 1):
        acc += kernel[j] * padded[:, j : j + w]
    return ImageU8(_round_u8(acc))


def color_jitter(
    img: ImageU8, strength: float, rng: Rng, factors: Optional[tuple] = None
) -> ImageU8:
    """Brightness, contrast, saturation scaling, each by an independent
    factor from U[1-strength, 1+strength], applied in that fixed order.

    `factors` overrides the draws (tests pin them); rounding to bytes
    happens once at the end, each stage is clamped in float.
    """
    if not 0.0 <= strength < 1.0:
        raise ParameterError(f"jitter strength must lie in [0, 1), got {strength}")
    if factors is None:
        lo, hi = 1.0 - strength, 1.0 + strength
        factors = (rng.uniform(lo, hi), rng.uniform(lo, hi), rng.uniform(lo, hi))
    f_bright, f_contrast, f_sat = factors

    x = img.pixels.astype(np.float64)
    x = np.clip(x * f_bright, 0.0, 255.0)
    mean_luma = (x @ _LUMA).mean()
    x = np.clip(mean_luma + f_contrast * (x - mean_luma), 0.0, 255.0)
    luma = (x @ _LUMA)[:, :, None]
    x = np.clip(luma + f_sat * (x - luma), 0.0, 255.0)
    return ImageU8(_round_u8(x))


def three_augment_traced(img: ImageU8, policy: AugmentPolicy, rng: Rng):
    """As three_augment, also reporting which branch fired (0 gray,
    1 solarize, 2 blur).

    Draw order is part of the contract: branch u; blur sigma (blur branch
    only); three jitter factors; flip u.
    """
    u = rng.uniform()
    branch = min(int(u * 3.0), 2)
    if branch == 0:
        out = grayscale(img)
    elif branch == 1:
        out = solarize(img, policy.solarize_threshold)
    else:
        sigma = rng.uniform(*policy.blur_sigma_range)
        out = gaussian_blur(img, sigma)
    out = color_jitter(out, policy.color_jitter_strength, rng)
    if rng.uniform() < policy.hflip_prob:
        out = hflip(out)
    return out, branch


def three_augment(img: ImageU8, policy: AugmentPolicy, rng: Rng) -> ImageU8:
    return three_augment_traced(img, policy, rng)[0]


def random_resized_crop(
    img: ImageU8,
    out: int,
    rng: Rng,
    scale_range: tuple = (0.08, 1.0),
    ratio_range: tuple = (3.0 / 4.0, 4.0 / 3.0),
) -> ImageU8:
    if out < 1:
        raise ParameterError("crop size must be at least 1")
    h, w = img.height, img.width
    area = float(h * w)
    for _ in range(10):
        target_area = area * rng.uniform(*scale_range)
        ratio = math.exp(rng.uniform(math.log(ratio_range[0]), math.log(ratio_range[1])))
        cw = int(math.floor(math.sqrt(target_area * ratio) + 0.5))
        ch = int(math.floor(math.sqrt(target_area / ratio) + 0.5))
        if 0 < cw <= w and 0 < ch <= h:
            x0 = rng.randint(w - cw + 1)
            y0 = rng.randint(h - ch + 1)
            crop = ImageU8(np.ascontiguousarray(img.pixels[y0 : y0 + ch, x0 : x0 + cw]))
            return resize_bilinear(crop, out, out)
    # fallback: centered crop at the nearest admissible aspect ratio
    in_ratio = w / h
    if in_ratio < ratio_range[0]:
        cw = w
        ch = int(math.floor(cw / ratio_range[0] + 0.5))
    elif in_ratio > ratio_range[1]:
        ch = h
        cw = int(math.floor(ch * ratio_range[1] + 0.5))
    else:
        cw, ch = w, h
    x0 = (w - cw) // 2
    y0 = (h - ch) // 2
    crop = ImageU8(np.ascontiguousarray(img.pixels[y0 : y0 + ch, x0 : x0 + cw]))
    return resize_bilinear(crop, out, out)


def _resize_smallest_side(img: ImageU8, target: int) -> ImageU8:
    h, w = img.height, img.width
    if h <= w:
        nh = target
        nw = int(math.floor(w * target / h + 0.5))
    else:
        nw = target
        nh = int(math.floor(h * target / w + 0.5))
    return resize_bilinear(img, nh, nw)


def simple_random_crop(img: ImageU8, out: int, rng: Rng) -> ImageU8:
    """Fixed-scale crop: smallest side to `out`, reflect-pad 4, then an
    out-square window uniform over the full x and y slack (x drawn first)."""
    if out < 1:
        raise ParameterError("crop size must be at least 1")
    resized = _resize_smallest_side(img, out)
    padded = reflect_pad(resized, 4)
    slack_x = padded.width - out
    slack_y = padded.height - out
    x0 = rng.randint(slack_x + 1)
    y0 = rng.randint(slack_y + 1)
    return ImageU8(np.ascontiguousarray(padded.pixels[y0 : y0 + out, x0 : x0 + out]))


def eval_preprocess(img: ImageU8, out: int, crop_ratio: float) -> ImageU8:
    if not 0.0 < crop_ratio <= 1.0:
        raise ParameterError(f"crop_ratio must lie in (0, 1], got {crop_ratio}")
    target = int(math.floor(out / crop_ratio + 0.5))
    resized = _resize_smallest_side(img, target)
    x0 = (resized.width - out) // 2
    y0 = (resized.height - out) // 2
    return ImageU8(np.ascontiguousarray(resized.pixels[y0 : y0 + out, x0 : x0 + out]))


# -- label-space mixing (operates on prepared float batches) ----------------


def mixup(
    batch_a: np.ndarray,
    batch_b: np.ndarray,
    targets_a: np.ndarray,
    targets_b: np.ndarray,
    alpha: float,
    rng: Rng,
    lam: Optional[float] = None,
):
    """Convex blend of two batches; lam ~ Beta(alpha, alpha) unless pinned."""
    if batch_a.shape != batch_b.shape or targets_a.shape != targets_b.shape:
        raise DimensionError("mixup: batch/target shapes must match pairwise")
    if lam is None:
        if alpha <= 0:
            raise ParameterError("mixup alpha must be positive when enabled")
        lam = rng.beta(alpha, alpha)
    images = lam * batch_a + (1.0 - lam) * batch_b
    targets = lam * targets_a + (1.0 - lam) * targets_b
    return images.astype(batch_a.dtype, copy=False), targets


def cutmix(
    batch_a: np.ndarray,
    batch_b: np.ndarray,
    targets_a: np.ndarray,
    targets_b: np.ndarray,
    alpha: float,
    rng: Rng,
    lam: Optional[float] = None,
    box: Optional[tuple] = None,
):
    """Paste a rectangle of b into a; targets mix by the exact pasted area.

    The rectangle has side ratio sqrt(1-lam) and a uniform center, clipped
    to bounds; `box` = (x0, y0, x1, y1) pins it directly for tests. Batches
    are (B, C, R, R) with square resolution.
    """
    if batch_a.shape != batch_b.shape or targets_a.shape != targets_b.shape:
        raise DimensionError("cutmix: batch/target shapes must match pairwise")
    if batch_a.ndim != 4 or batch_a.shape[2] != batch_a.shape[3]:
        raise DimensionError(f"cutmix: batches must be (B, C, R, R), got {batch_a.shape}")
    res = batch_a.shape[2]
    if box is None:
        if lam is None:
            if alpha <= 0:
                raise ParameterError("cutmix alpha must be positive when enabled")
            lam = rng.beta(alpha, alpha)
        side = math.sqrt(max(0.0, 1.0 - lam))
        bw = int(math.floor(res * side + 0.5))
        bh = bw
        cx = rng.randint(res)
        cy = rng.randint(res)
        x_raw = cx - bw // 2
        y_raw = cy - bh // 2
        x0, x1 = max(0, x_raw), min(res, x_raw + bw)
        y0, y1 = max(0, y_raw), min(res, y_raw + bh)
    else:
        x0, y0, x1, y1 = box
    area = max(0, x1 - x0) * max(0, y1 - y0)
    images = batch_a.copy()
    if area > 0:
        images[:, :, y0:y1, x0:x1] = batch_b[:, :, y0:y1, x0:x1]
    lam_adj = 1.0 - area / float(res * res)
    targets = lam_adj * targets_a + (1.0 - lam_adj) * targets_b
    return images, targets


def mix_dispatch(policy: AugmentPolicy, rng: Rng) -> str:
    """Per-batch choice among {"mixup", "cutmix", "none"}; 50/50 when both
    alphas are enabled, the enabled one otherwise."""
    has_mixup = policy.mixup_alpha > 0
    has_cutmix = policy.cutmix_alpha > 0
    if has_mixup and has_cutmix:
        return "mixup" if rng.uniform() < 0.5 else "cutmix"
    if has_mixup:
        return "mixup"
    if has_cutmix:
        return "cutmix"
    return "none"
