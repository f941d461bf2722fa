"""Image-space and label-space augmentation, plus eval preprocessing.

The train-time pipeline is: one of {grayscale, solarize, blur} chosen
uniformly, then color jitter; cropping is either random-resized-crop or
the simpler fixed-scale crop with reflect padding (numpy's reflect mode,
made once per image by `reflect_pad`, as the blur's is). The horizontal
flip is drawn by `training.augment_train_sample_traced`, after either path.
Label-space mixing (mixup/cutmix) operates on prepared float batches.

Everything is a pure function of (input, Rng state): byte-identical
results for a given seed, numpy and scipy build. All float intermediates
are f64 and each op rounds back to bytes exactly once, half-up.

The f64 ops work in place on per-call scratch, a block of whole rows at a
time (see `_row_blocks`), and broadcast along full rows rather than over
the 3-channel axis. Each output value is the same chain of IEEE
operations as the plain whole-image formula in the docstring or comment
beside it, so the bytes do not depend on the blocking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import RecipeConfig
from .errors import DimensionError, ParameterError
from .rng import Rng

# BT.601 luma weights
_LUMA = np.array([0.299, 0.587, 0.114], dtype=np.float64)

# f64 elements in one block of rows of scratch (256 KiB): an op's few block
# arrays stay in a core's cache, and blocks freed by one call are reused by
# the next instead of faulting in fresh pages as whole-image arrays do
_BLOCK_ELEMENTS = 1 << 15


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


def _round_u8(x: np.ndarray) -> np.ndarray:
    """Round half-up and clamp to byte range. Works in place: `x` must be
    the caller's own f64 scratch, and is spent."""
    np.add(x, 0.5, out=x)
    np.floor(x, out=x)
    x.clip(0.0, 255.0, out=x)
    return x.astype(np.uint8)


def _row_blocks(height: int, row_elements: int) -> list:
    """Slices covering `height` rows of `row_elements` values each, in
    blocks of about _BLOCK_ELEMENTS values (at least one row)."""
    step = max(1, _BLOCK_ELEMENTS // row_elements)
    return [slice(r0, min(height, r0 + step)) for r0 in range(0, height, step)]


def reflect_pad(img: ImageU8, pad: int) -> ImageU8:
    """Mirror `pad` pixels about each edge, not repeating it (numpy's reflect)."""
    return ImageU8(np.pad(img.pixels, ((pad, pad), (pad, pad), (0, 0)), mode="reflect"))


def _taps(n_in: int, n_out: int):
    """Bilinear source indices (lo, hi) and hi's weight for each of n_out
    positions along an axis; half-pixel-center coordinate mapping."""
    scale = n_in / n_out
    src = (np.arange(n_out, dtype=np.float64) + 0.5) * scale - 0.5
    i0 = np.floor(src).astype(np.int64)
    frac = src - i0
    return i0.clip(0, n_in - 1), (i0 + 1).clip(0, n_in - 1), frac


def _lerp(lo: np.ndarray, hi: np.ndarray, w: np.ndarray) -> np.ndarray:
    """lo * (1 - w) + hi * w, in place on the fresh 2-D gathers lo and hi
    (bytes are cast to f64 first, exactly); w broadcasts along whole rows."""
    lo = lo.astype(np.float64, copy=False)
    hi = hi.astype(np.float64, copy=False)
    lo *= 1.0 - w
    hi *= w
    lo += hi
    return lo


def resize_bilinear(img: ImageU8, out_h: int, out_w: int) -> ImageU8:
    """Bilinear resample, the rows and then the columns of the result, each
    axis skipped when its extent is unchanged; one block of output rows at
    a time, each row as its w * 3 values. `img` may be a strided view."""
    if out_h < 1 or out_w < 1:
        raise ParameterError("resize extents must be at least 1")
    h, w = img.height, img.width
    if (out_h, out_w) == (h, w):
        return ImageU8(img.pixels.copy())
    flat = img.pixels.reshape(h, w * 3)
    row_lo, row_hi, row_w = _taps(h, out_h)
    col_lo, col_hi, col_w = _taps(w, out_w)
    # each column tap and weight for its 3 values
    col_lo, col_hi = ((3 * i[:, None] + np.arange(3)).ravel() for i in (col_lo, col_hi))
    col_w = np.repeat(col_w, 3)
    out = np.empty((out_h, out_w * 3), dtype=np.uint8)
    for rows in _row_blocks(out_h, 3 * max(w, out_w)):
        block = flat[rows]
        if out_h != h:
            block = _lerp(flat[row_lo[rows]], flat[row_hi[rows]], row_w[rows, None])
        if out_w != w:
            block = _lerp(np.take(block, col_lo, axis=1), np.take(block, col_hi, axis=1), col_w)
        out[rows] = _round_u8(block)
    return ImageU8(out.reshape(out_h, out_w, 3))


def hflip(img: ImageU8) -> ImageU8:
    out = np.empty_like(img.pixels)
    for c in range(3):  # by plane: a copy whose inner axis is the 3 channels is slow
        out[:, :, c] = img.pixels[:, ::-1, c]
    return ImageU8(out)


def grayscale(img: ImageU8) -> ImageU8:
    # _round_u8(pixels.astype(f64) @ _LUMA) in every channel, by row blocks
    out = np.empty_like(img.pixels)
    for rows in _row_blocks(img.height, 3 * img.width):
        luma = _round_u8(img.pixels[rows].astype(np.float64) @ _LUMA)
        for c in range(3):
            out[rows, :, c] = luma
    return ImageU8(out)


def solarize(img: ImageU8, threshold: int) -> ImageU8:
    p = img.pixels
    return ImageU8(np.where(p >= threshold, 255 - p, p))


def gaussian_blur(img: ImageU8, sigma: float) -> ImageU8:
    if not sigma > 0:
        raise ParameterError(f"blur sigma must be positive, got {sigma}")
    radius = math.ceil(3.0 * sigma)
    xs = np.arange(-radius, radius + 1, dtype=np.float64)
    kernel = np.exp(-(xs * xs) / (2.0 * sigma * sigma))
    kernel /= kernel.sum()

    # Vertical then horizontal: each pass is acc = sum_j kernel[j] *
    # padded[j : j + n] along its axis, a block of output rows at a time. The
    # image is reflect-padded once, in both axes, and the vertical pass runs
    # over the padded width: a padded column's sums are its source column's.
    h, w = img.height, img.width
    taps = len(kernel)
    padded = reflect_pad(img, radius).pixels
    blocks = _row_blocks(h, 3 * (w + 2 * radius))
    n = blocks[0].stop
    tall = np.empty((n + 2 * radius, w + 2 * radius, 3))
    wide, wide_tmp = np.empty((2, n, w + 2 * radius, 3))
    acc, tmp = np.empty((2, n, w, 3))
    out = np.empty((h, w, 3), dtype=np.uint8)
    for block in blocks:
        m = block.stop - block.start
        rows = tall[: m + 2 * radius]
        np.copyto(rows, padded[block.start : block.stop + 2 * radius])
        _convolve(kernel, [rows[j : j + m] for j in range(taps)], wide[:m], wide_tmp[:m])
        _convolve(kernel, [wide[:m, j : j + w] for j in range(taps)], acc[:m], tmp[:m])
        out[block] = _round_u8(acc[:m])
    return ImageU8(out)


def _convolve(kernel: np.ndarray, windows: list, acc: np.ndarray, tmp: np.ndarray) -> None:
    """acc = sum_j kernel[j] * windows[j], summed in order through the
    product buffer tmp. It starts from the first product, not from zeros:
    0 + y is y for the y >= 0 here."""
    np.multiply(windows[0], kernel[0], out=acc)
    for k, window in zip(kernel[1:], windows[1:]):
        np.multiply(window, k, out=tmp)
        acc += tmp


def color_jitter(img: ImageU8, strength: float, rng: Rng) -> ImageU8:
    """Brightness, contrast, saturation scaling, each by an independent
    factor from U[1-strength, 1+strength], drawn from `rng` and applied in
    that fixed order.

    Rounding to bytes happens once at the end, each stage is clamped in
    float.
    """
    if not 0.0 <= strength < 1.0:
        raise ParameterError(f"jitter strength must lie in [0, 1), got {strength}")
    lo, hi = 1.0 - strength, 1.0 + strength
    f_bright, f_contrast, f_sat = (rng.uniform(lo, hi) for _ in range(3))

    # x = clip(pixels * f_bright); m = mean(x @ _LUMA)
    # x = clip(m + f_contrast * (x - m)); l = x @ _LUMA
    # x = clip(l + f_sat * (x - l)). The first two stages depend on a byte
    # alone, so each makes a 256-entry table; the rest runs in place by row
    # blocks, with each product and sum in the other operand order.
    h, w = img.height, img.width
    bright = np.arange(256, dtype=np.float64) * f_bright
    bright.clip(0.0, 255.0, out=bright)
    blocks = _row_blocks(h, 3 * w)
    x = np.empty((blocks[0].stop, w, 3))
    planes = np.empty_like(x)  # a block's luma, once per channel
    luma = np.empty((h, w))
    for rows in blocks:
        np.matmul(_lookup(bright, img.pixels[rows], x), _LUMA, out=luma[rows])
    mean_luma = luma.mean()
    contrast = bright - mean_luma
    contrast *= f_contrast
    contrast += mean_luma
    contrast.clip(0.0, 255.0, out=contrast)
    out = np.empty_like(img.pixels)
    for rows in blocks:
        xb = _lookup(contrast, img.pixels[rows], x)
        lb = planes[: len(xb)]
        block_luma = np.matmul(xb, _LUMA, out=luma[rows])
        for c in range(3):
            lb[:, :, c] = block_luma
        xb -= lb
        xb *= f_sat
        xb += lb
        xb.clip(0.0, 255.0, out=xb)
        out[rows] = _round_u8(xb)
    return ImageU8(out)


def _lookup(table: np.ndarray, pixels: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """table[pixels] written to the front of `scratch`. Bytes index a
    256-entry table in range, and mode "wrap" skips take's buffered check."""
    out = scratch[: len(pixels)]
    return np.take(table, pixels.astype(np.intp), out=out, mode="wrap")


def three_augment_traced(img: ImageU8, recipe: RecipeConfig, rng: Rng):
    """3-Augment: one of grayscale, solarize and blur, then color jitter.
    Returns the image and the branch that fired (0 gray, 1 solarize, 2 blur).
    The flip that follows is drawn by `training.augment_train_sample_traced`.

    Draw order is part of the contract: branch u; blur sigma (blur branch
    only); three jitter factors.
    """
    u = rng.uniform()
    branch = min(int(u * 3.0), 2)
    if branch == 0:
        out = grayscale(img)
    elif branch == 1:
        out = solarize(img, RecipeConfig.solarize_threshold)
    else:
        sigma = rng.uniform(*RecipeConfig.blur_sigma_range)
        out = gaussian_blur(img, sigma)
    return color_jitter(out, recipe.color_jitter, rng), branch


def random_resized_crop(img: ImageU8, out: int, rng: Rng) -> ImageU8:
    """A crop of area drawn from `RecipeConfig.rrc_scale` and log-aspect
    from `rrc_ratio`, resized to out x out; ten tries, then a centered crop."""
    if out < 1:
        raise ParameterError("crop size must be at least 1")
    scale_range, ratio_range = RecipeConfig.rrc_scale, RecipeConfig.rrc_ratio
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
            return resize_bilinear(ImageU8(img.pixels[y0 : y0 + ch, x0 : x0 + cw]), out, out)
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
    return resize_bilinear(ImageU8(img.pixels[y0 : y0 + ch, x0 : x0 + cw]), out, out)


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
):
    """Convex blend of two batches; lam ~ Beta(alpha, alpha) from `rng`."""
    if batch_a.shape != batch_b.shape or targets_a.shape != targets_b.shape:
        raise DimensionError("mixup: batch/target shapes must match pairwise")
    if not alpha > 0:
        raise ParameterError("mixup alpha must be positive when enabled")
    lam = rng.beta(alpha, alpha)
    # lam * a + (1 - lam) * b with that expression's dtypes; the partner's
    # product is made one sample at a time, in a reused one-sample buffer
    images = np.multiply(lam, batch_a)
    partner = (1.0 - lam) * batch_b[:1]
    for row, b in zip(images, batch_b):
        np.multiply(1.0 - lam, b, out=partner[0])
        row += partner[0]
    targets = lam * targets_a + (1.0 - lam) * targets_b
    return images.astype(batch_a.dtype, copy=False), targets


def cutmix(
    batch_a: np.ndarray,
    batch_b: np.ndarray,
    targets_a: np.ndarray,
    targets_b: np.ndarray,
    alpha: float,
    rng: Rng,
):
    """Paste a rectangle of b into a; targets mix by the exact pasted area.

    lam ~ Beta(alpha, alpha), then the center x and y, are drawn from `rng`.
    The rectangle has side ratio sqrt(1-lam) and that center, clipped to
    bounds. Batches are (B, C, R, R) with square resolution.
    """
    if batch_a.shape != batch_b.shape or targets_a.shape != targets_b.shape:
        raise DimensionError("cutmix: batch/target shapes must match pairwise")
    if batch_a.ndim != 4 or batch_a.shape[2] != batch_a.shape[3]:
        raise DimensionError(f"cutmix: batches must be (B, C, R, R), got {batch_a.shape}")
    if not alpha > 0:
        raise ParameterError("cutmix alpha must be positive when enabled")
    res = batch_a.shape[2]
    lam = rng.beta(alpha, alpha)
    side = math.sqrt(max(0.0, 1.0 - lam))
    bw = int(math.floor(res * side + 0.5))
    x_raw = rng.randint(res) - bw // 2
    y_raw = rng.randint(res) - bw // 2
    x0, x1 = max(0, x_raw), min(res, x_raw + bw)
    y0, y1 = max(0, y_raw), min(res, y_raw + bw)
    area = (x1 - x0) * (y1 - y0)  # both extents are >= 0: each center lies in [0, res)
    images = batch_a.copy()
    images[:, :, y0:y1, x0:x1] = batch_b[:, :, y0:y1, x0:x1]
    lam_adj = 1.0 - area / float(res * res)
    targets = lam_adj * targets_a + (1.0 - lam_adj) * targets_b
    return images, targets


def mix_dispatch(recipe: RecipeConfig, rng: Rng) -> str:
    """Per-batch choice among {"mixup", "cutmix", "none"}; 50/50 when both
    alphas are enabled, the enabled one otherwise."""
    has_mixup = recipe.mixup_alpha > 0
    has_cutmix = recipe.cutmix_alpha > 0
    if has_mixup and has_cutmix:
        return "mixup" if rng.uniform() < 0.5 else "cutmix"
    if has_mixup:
        return "mixup"
    if has_cutmix:
        return "cutmix"
    return "none"
