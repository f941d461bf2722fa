"""Augmentation oracles: hand tables, brute-force convolution and
pixel-count references, seeded-draw statistics, byte pins against the
whole-image formulas, and bounds on each op's scratch memory."""

import hashlib
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vitrecipe import augment as aug
from vitrecipe import config as cfg
from vitrecipe import data as dat
from vitrecipe import training as trn
from vitrecipe.augment import ImageU8
from vitrecipe.config import RecipeConfig
from vitrecipe.errors import ContractError, DimensionError, ParameterError
from vitrecipe.rng import Rng

ROOT = Path(__file__).resolve().parents[1]

LUMA = np.array([0.299, 0.587, 0.114])


def solid(r, g, b, h=4, w=4):
    px = np.zeros((h, w, 3), dtype=np.uint8)
    px[:, :] = (r, g, b)
    return ImageU8(px)


def random_image(h, w, seed=0):
    rng = np.random.default_rng(seed)
    return ImageU8(rng.integers(0, 256, size=(h, w, 3), dtype=np.uint8))


def round_half_up(x):
    return np.clip(np.floor(np.asarray(x, dtype=np.float64) + 0.5), 0, 255).astype(np.uint8)


def reflect_index(n, pad):
    """Source index of each of the n + 2 * pad positions of a reflect-padded
    axis, each folded back into [0, n) one mirror at a time: the edge is not
    repeated, and a pad past the extent folds again."""
    if n == 1:
        return np.zeros(1 + 2 * pad, dtype=np.int64)
    index = []
    for i in range(-pad, n + pad):
        while not 0 <= i < n:
            i = -i if i < 0 else 2 * (n - 1) - i
        index.append(i)
    return np.array(index)


class ScriptedRng:
    """Stands in for `Rng`: `uniform`, `beta` and `randint` return the queued
    values in order, and each value must lie in the range its draw asked
    for, so a test pins only a draw the recipe itself could make."""

    def __init__(self, *values):
        self.values = list(values)

    def _take(self, lo, hi, draw):
        assert self.values, f"unscripted {draw} draw"
        value = self.values.pop(0)
        assert lo <= value <= hi, f"{draw} value {value} outside [{lo}, {hi}]"
        return value

    def uniform(self, lo=0.0, hi=1.0):
        return self._take(lo, hi, "uniform")

    def beta(self, a, b):
        return self._take(0.0, 1.0, "beta")

    def randint(self, n):
        return self._take(0, n - 1, "randint")


# a jitter strength just under 1: its factors span [5e-7, 1.9999995]
WIDE = 0.9999995


# -- grayscale ---------------------------------------------------------------


def test_grayscale_fixed_points_and_red():
    assert np.all(aug.grayscale(solid(255, 255, 255)).pixels == 255)
    assert np.all(aug.grayscale(solid(0, 0, 0)).pixels == 0)
    assert np.all(aug.grayscale(solid(255, 0, 0)).pixels == 76)


def test_grayscale_matches_direct_luma():
    img = random_image(8, 8, seed=1)
    expected = round_half_up(img.pixels.astype(np.float64) @ LUMA)
    out = aug.grayscale(img).pixels
    for c in range(3):
        np.testing.assert_array_equal(out[:, :, c], expected)


# -- solarize ----------------------------------------------------------------


def test_solarize_threshold_table():
    img = solid(200, 100, 128)
    out = aug.solarize(img, 128).pixels
    assert tuple(out[0, 0]) == (55, 100, 127)


def test_solarize_disabled_threshold_is_identity():
    img = random_image(5, 7, seed=2)
    np.testing.assert_array_equal(aug.solarize(img, 256).pixels, img.pixels)


# -- gaussian blur -------------------------------------------------------------


def brute_force_blur(img, sigma):
    """Direct dense 2-D convolution with the same reflect border rule."""
    radius = math.ceil(3.0 * sigma)
    xs = np.arange(-radius, radius + 1, dtype=np.float64)
    k1 = np.exp(-(xs * xs) / (2.0 * sigma * sigma))
    k1 /= k1.sum()
    k2 = np.outer(k1, k1)

    h, w = img.height, img.width
    rows = reflect_index(h, radius)
    cols = reflect_index(w, radius)
    padded = img.pixels.astype(np.float64)[rows][:, cols]
    out = np.zeros((h, w, 3), dtype=np.float64)
    for y in range(h):
        for x in range(w):
            patch = padded[y : y + 2 * radius + 1, x : x + 2 * radius + 1]
            out[y, x] = np.tensordot(k2, patch, axes=([0, 1], [0, 1]))
    return round_half_up(out)


@pytest.mark.parametrize("sigma", [0.1, 0.5, 1.0, 2.0])
def test_blur_separable_equals_direct_2d(sigma):
    img = random_image(8, 8, seed=3)
    fast = aug.gaussian_blur(img, sigma).pixels.astype(np.int32)
    slow = brute_force_blur(img, sigma).astype(np.int32)
    assert np.abs(fast - slow).max() <= 1


def test_blur_constant_image_unchanged():
    img = solid(93, 154, 12, h=6, w=9)
    np.testing.assert_array_equal(aug.gaussian_blur(img, 1.3).pixels, img.pixels)


@pytest.mark.parametrize("size", [32, 64])
def test_blur_preserves_mean(size):
    # border re-weighting shifts the mean measurably on tiny images, so the
    # statistical property is asserted where borders are a minor fraction
    img = random_image(size, size, seed=4)
    out = aug.gaussian_blur(img, 1.5)
    for c in range(3):
        before = img.pixels[:, :, c].mean()
        after = out.pixels[:, :, c].mean()
        assert abs(before - after) <= 1.0


def test_blur_rejects_nonpositive_sigma():
    with pytest.raises(ParameterError):
        aug.gaussian_blur(random_image(4, 4), 0.0)
    with pytest.raises(ParameterError):  # NaN fails every comparison, so it is refused too
        aug.gaussian_blur(random_image(4, 4), math.nan)


# -- color jitter ---------------------------------------------------------------


def test_jitter_zero_strength_is_identity():
    img = random_image(6, 6, seed=5)
    np.testing.assert_array_equal(aug.color_jitter(img, 0.0, Rng(7)).pixels, img.pixels)


def test_jitter_pure_brightness():
    rng = ScriptedRng(1.5, 1.0, 1.0)
    out = aug.color_jitter(solid(100, 100, 100), WIDE, rng)
    assert np.all(out.pixels == 150) and rng.values == []


def test_jitter_contrast_matches_per_pixel_formula():
    img = random_image(5, 5, seed=6)
    f = 1.27
    x = img.pixels.astype(np.float64)
    mean_luma = (x @ LUMA).mean()
    expected = round_half_up(np.clip(mean_luma + f * (x - mean_luma), 0, 255))
    out = aug.color_jitter(img, WIDE, ScriptedRng(1.0, f, 1.0))
    np.testing.assert_array_equal(out.pixels, expected)


def test_jitter_saturation_matches_per_pixel_formula():
    img = random_image(5, 5, seed=7)
    f = 0.62
    x = img.pixels.astype(np.float64)
    luma = (x @ LUMA)[:, :, None]
    expected = round_half_up(np.clip(luma + f * (x - luma), 0, 255))
    out = aug.color_jitter(img, WIDE, ScriptedRng(1.0, 1.0, f))
    np.testing.assert_array_equal(out.pixels, expected)


def test_jitter_rejects_bad_strength():
    with pytest.raises(ParameterError):
        aug.color_jitter(random_image(4, 4), 1.0, Rng(0))


# -- three_augment ----------------------------------------------------------------


def grayscale_seed():
    for seed in range(1000):
        if Rng(seed).uniform() < 1 / 3:
            return seed
    raise AssertionError("no grayscale-branch seed found")


def test_three_augment_collapses_to_grayscale():
    img = random_image(8, 8, seed=8)
    recipe = RecipeConfig(color_jitter=0.0)
    seed = grayscale_seed()
    out, branch = aug.three_augment_traced(img, recipe, Rng(seed))
    assert branch == 0
    np.testing.assert_array_equal(out.pixels, aug.grayscale(img).pixels)


def test_three_augment_deterministic():
    img = random_image(10, 10, seed=9)
    recipe = RecipeConfig()
    a = aug.three_augment_traced(img, recipe, Rng(42))[0].pixels
    b = aug.three_augment_traced(img, recipe, Rng(42))[0].pixels
    np.testing.assert_array_equal(a, b)


def test_three_augment_applies_exactly_one_primitive(monkeypatch):
    calls = []
    originals = (aug.grayscale, aug.solarize, aug.gaussian_blur)
    monkeypatch.setattr(aug, "grayscale", lambda i: (calls.append(0), originals[0](i))[1])
    monkeypatch.setattr(aug, "solarize", lambda i, t: (calls.append(1), originals[1](i, t))[1])
    monkeypatch.setattr(
        aug, "gaussian_blur", lambda i, s: (calls.append(2), originals[2](i, s))[1]
    )
    img = random_image(6, 6, seed=10)
    recipe = RecipeConfig()
    for seed in range(30):
        calls.clear()
        _, branch = aug.three_augment_traced(img, recipe, Rng(seed))
        assert calls == [branch]


def test_three_augment_branch_frequencies():
    img = random_image(4, 4, seed=11)
    recipe = RecipeConfig()
    n = 3000
    counts = [0, 0, 0]
    for seed in range(n):
        _, branch = aug.three_augment_traced(img, recipe, Rng(seed))
        counts[branch] += 1
    sigma = math.sqrt((1 / 3) * (2 / 3) / n)
    for c in counts:
        assert abs(c / n - 1 / 3) < 3 * sigma


# -- crops -------------------------------------------------------------------------


def test_rrc_output_size_contract():
    img = random_image(37, 23, seed=12)
    for seed in range(25):
        out = aug.random_resized_crop(img, 16, Rng(seed))
        assert out.pixels.shape == (16, 16, 3)


def test_rrc_full_area_equals_whole_image_resize(monkeypatch):
    monkeypatch.setattr(RecipeConfig, "rrc_scale", (1.0, 1.0))
    monkeypatch.setattr(RecipeConfig, "rrc_ratio", (2.0, 2.0))
    img = random_image(10, 20, seed=13)
    out = aug.random_resized_crop(img, 12, Rng(0))
    np.testing.assert_array_equal(out.pixels, aug.resize_bilinear(img, 12, 12).pixels)


def test_rrc_fallback_centers_extreme_aspect(monkeypatch):
    # 10x100 image with large forced areas: every attempt overflows the
    # short side, so the centered fallback at the ratio bound fires
    monkeypatch.setattr(RecipeConfig, "rrc_scale", (0.9, 1.0))
    img = random_image(10, 100, seed=14)
    out = aug.random_resized_crop(img, 8, Rng(5))
    cw = int(math.floor(10 * 4 / 3 + 0.5))  # 13
    x0 = (100 - cw) // 2
    crop = ImageU8(np.ascontiguousarray(img.pixels[:, x0 : x0 + cw]))
    np.testing.assert_array_equal(out.pixels, aug.resize_bilinear(crop, 8, 8).pixels)


def test_rrc_output_within_input_value_range():
    img = random_image(30, 30, seed=15)
    lo, hi = int(img.pixels.min()), int(img.pixels.max())
    for seed in range(50):
        out = aug.random_resized_crop(img, 14, Rng(seed))
        assert out.pixels.min() >= lo and out.pixels.max() <= hi


def test_src_geometry_640x480():
    img = random_image(480, 640, seed=16)
    resized = aug._resize_smallest_side(img, 224)
    assert (resized.height, resized.width) == (224, 299)
    padded = aug.reflect_pad(resized, 4)
    assert (padded.height, padded.width) == (232, 307)

    # each crop must match the padded image at exactly one admissible offset
    seen_x, seen_y = set(), set()
    for seed in range(12):
        out = aug.simple_random_crop(img, 224, Rng(seed))
        matches = [
            (x0, y0)
            for x0 in range(307 - 224 + 1)
            for y0 in range(232 - 224 + 1)
            if np.array_equal(out.pixels, padded.pixels[y0 : y0 + 224, x0 : x0 + 224])
        ]
        assert len(matches) == 1
        seen_x.add(matches[0][0])
        seen_y.add(matches[0][1])
    assert max(seen_x) <= 83 and max(seen_y) <= 8
    assert len(seen_x) > 1  # offsets actually vary


def test_src_square_input_slack():
    img = random_image(32, 32, seed=17)
    resized = aug._resize_smallest_side(img, 32)
    padded = aug.reflect_pad(resized, 4)
    assert (padded.height, padded.width) == (40, 40)
    out = aug.simple_random_crop(img, 32, Rng(3))
    assert out.pixels.shape == (32, 32, 3)


# -- eval preprocessing ---------------------------------------------------------


def test_eval_preprocess_square_identity_ratio():
    img = random_image(64, 64, seed=18)
    out = aug.eval_preprocess(img, 32, 1.0)
    np.testing.assert_array_equal(out.pixels, aug.resize_bilinear(img, 32, 32).pixels)


def test_eval_preprocess_crop_ratio_intermediate_side():
    # 224/0.875 rounds to 256 on the smallest side before the center crop
    img = random_image(256, 512, seed=19)
    out = aug.eval_preprocess(img, 224, 0.875)
    resized = aug._resize_smallest_side(img, 256)
    assert resized.height == 256
    x0 = (resized.width - 224) // 2
    y0 = (resized.height - 224) // 2
    np.testing.assert_array_equal(
        out.pixels, resized.pixels[y0 : y0 + 224, x0 : x0 + 224]
    )


def test_eval_preprocess_rejects_bad_ratio():
    with pytest.raises(ParameterError):
        aug.eval_preprocess(random_image(8, 8), 8, 0.0)
    with pytest.raises(ParameterError):
        aug.eval_preprocess(random_image(8, 8), 8, 1.5)


# -- mixup / cutmix -----------------------------------------------------------------


def one_hot_rows(labels, k=4):
    t = np.zeros((len(labels), k), dtype=np.float64)
    t[np.arange(len(labels)), labels] = 1.0
    return t


def test_mixup_lambda_endpoints():
    a = np.random.default_rng(20).normal(size=(3, 3, 8, 8))
    b = np.random.default_rng(21).normal(size=(3, 3, 8, 8))
    ya, yb = one_hot_rows([0, 1, 2]), one_hot_rows([3, 2, 1])

    # the mix is written into its first batch, so each call gets a fresh copy
    img, tgt = aug.mixup(a.copy(), b, ya, yb, 0.8, ScriptedRng(1.0))
    np.testing.assert_array_equal(img, a)
    np.testing.assert_array_equal(tgt, ya)

    img, tgt = aug.mixup(a.copy(), b, ya, yb, 0.8, ScriptedRng(0.5))
    np.testing.assert_allclose(img, 0.5 * a + 0.5 * b)
    assert tgt[0, 0] == 0.5 and tgt[0, 3] == 0.5


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_mixup_targets_stay_probability_rows(seed):
    a = np.zeros((4, 3, 4, 4))
    b = np.ones((4, 3, 4, 4))
    ya, yb = one_hot_rows([0, 1, 2, 3]), one_hot_rows([3, 0, 1, 2])
    _, tgt = aug.mixup(a, b, ya, yb, 0.8, Rng(seed))
    assert np.all(tgt >= 0)
    np.testing.assert_allclose(tgt.sum(axis=1), 1.0, rtol=1e-12)


def test_cutmix_box_endpoints():
    a = np.zeros((2, 3, 8, 8))
    b = np.ones((2, 3, 8, 8))
    ya, yb = one_hot_rows([0, 1]), one_hot_rows([2, 3])

    # lam 1 gives an empty box; lam 0 centered at (4, 4) gives (0, 0, 8, 8)
    img, tgt = aug.cutmix(a.copy(), b, ya, yb, 1.0, ScriptedRng(1.0, 3, 5))
    np.testing.assert_array_equal(img, a)
    np.testing.assert_array_equal(tgt, ya)

    img, tgt = aug.cutmix(a.copy(), b, ya, yb, 1.0, ScriptedRng(0.0, 4, 4))
    np.testing.assert_array_equal(img, b)
    np.testing.assert_array_equal(tgt, yb)


@pytest.mark.parametrize("seed", range(8))
def test_cutmix_lambda_matches_pixel_count(seed):
    r = 16
    a = np.zeros((2, 3, r, r))
    b = np.ones((2, 3, r, r))
    ya, yb = one_hot_rows([0, 1]), one_hot_rows([2, 3])
    img, tgt = aug.cutmix(a, b, ya, yb, 1.0, Rng(seed))
    pasted = int((img[0, 0] == 1.0).sum())
    lam_adj = 1.0 - pasted / (r * r)
    # target row 0 mixes one-hot class 0 with class 2: coefficient is lam_adj
    assert tgt[0, 0] == lam_adj
    assert tgt[0, 2] == 1.0 - lam_adj


@pytest.mark.parametrize("mix", [aug.mixup, aug.cutmix], ids=["mixup", "cutmix"])
@pytest.mark.parametrize("alpha", [0.0, -1.0, math.nan])
def test_mixing_rejects_a_nonpositive_alpha(mix, alpha):
    batch = np.zeros((2, 3, 4, 4))
    with pytest.raises(ParameterError, match="alpha must be positive"):
        mix(batch, batch, one_hot_rows([0, 1]), one_hot_rows([1, 0]), alpha, Rng(0))


def _read_only(batch):
    batch.flags.writeable = False
    return batch


# each case's (batch_a, batch_b, error): a mix writes into batch_a, and
# computes batch_b's rows in batch_a's dtype
UNWRITABLE = {
    "read-only": (lambda: _read_only(np.zeros((2, 3, 4, 4))), np.ones((2, 3, 4, 4)), ContractError),
    "int": (lambda: np.zeros((2, 3, 4, 4), np.int64), np.ones((2, 3, 4, 4), np.int64),
            DimensionError),
    "dtype-pair": (lambda: np.zeros((2, 3, 4, 4), np.float32), np.ones((2, 3, 4, 4)),
                   DimensionError),
}


@pytest.mark.parametrize("mix", [aug.mixup, aug.cutmix], ids=["mixup", "cutmix"])
@pytest.mark.parametrize("case", sorted(UNWRITABLE))
def test_mixing_refuses_a_batch_it_cannot_write_in_place(mix, case):
    make_a, batch_b, error = UNWRITABLE[case]
    batch_a = make_a()
    before = batch_a.copy()
    with pytest.raises(error, match="read-only|float dtype"):
        mix(batch_a, batch_b, one_hot_rows([0, 1]), one_hot_rows([1, 0]), 1.0, Rng(0))
    assert batch_a.tobytes() == before.tobytes()


@pytest.mark.parametrize("mix", [aug.mixup, aug.cutmix], ids=["mixup", "cutmix"])
@pytest.mark.parametrize("n", [1, 2, 7, 8])
def test_mixing_a_mirror_view_gives_the_copied_partner_bytes(mix, n):
    # _apply_mix passes batch_a[::-1]: every pair of mirrored rows must be
    # read before either is written, the middle row of an odd batch too
    gen = np.random.default_rng(n)
    a = gen.normal(size=(n, 3, 16, 16)).astype(np.float32)
    ya = one_hot_rows(gen.integers(0, 4, n))
    for seed in range(5):
        expected = mix(a.copy(), a[::-1].copy(), ya, ya[::-1], 0.8, Rng(seed))
        batch = a.copy()
        got = mix(batch, batch[::-1], ya, ya[::-1], 0.8, Rng(seed))
        assert got[0] is batch
        assert got[0].tobytes() == expected[0].tobytes()
        assert got[1].tobytes() == expected[1].tobytes()


def test_cutmix_rejects_non_square():
    bad = np.zeros((1, 3, 4, 6))
    with pytest.raises(DimensionError):
        aug.cutmix(bad, bad, one_hot_rows([0]), one_hot_rows([1]), 1.0, Rng(0))


# -- mix dispatch -------------------------------------------------------------------


def test_mix_dispatch_degenerate_policies():
    off = RecipeConfig(mixup_alpha=0.0, cutmix_alpha=0.0)
    only_cut = RecipeConfig(mixup_alpha=0.0, cutmix_alpha=1.0)
    only_mix = RecipeConfig(mixup_alpha=0.8, cutmix_alpha=0.0)
    for seed in range(20):
        assert aug.mix_dispatch(off, Rng(seed)) == "none"
        assert aug.mix_dispatch(only_cut, Rng(seed)) == "cutmix"
        assert aug.mix_dispatch(only_mix, Rng(seed)) == "mixup"


def test_mix_dispatch_is_balanced():
    recipe = RecipeConfig()
    n = 2000
    hits = sum(aug.mix_dispatch(recipe, Rng(seed)) == "mixup" for seed in range(n))
    sigma = math.sqrt(0.25 / n)
    assert abs(hits / n - 0.5) < 3 * sigma


# -- geometry helpers ----------------------------------------------------------------


def test_reflect_pad_matches_hand_table():
    ramp = ImageU8(np.arange(27, dtype=np.uint8).reshape(3, 3, 3))
    row = ramp.pixels[:, :, 0]  # [[0 3 6] [9 12 15] [18 21 24]]
    padded = aug.reflect_pad(ramp, 2).pixels[:, :, 0]
    expected_rows = [2, 1, 0, 1, 2, 1, 0]
    expected = row[expected_rows][:, expected_rows]
    np.testing.assert_array_equal(padded, expected)
    # edge pixel not duplicated: first interior neighbour mirrors outward
    assert padded[1, 2] == row[1, 0] == 9
    np.testing.assert_array_equal(padded[2:5, 2:5], row)


def test_reflect_pad_convention_single_pixel_border():
    # for a 3-wide axis with pad 1, pad(img)[-1-k] == img[k+1]
    strip = ImageU8(np.arange(9, dtype=np.uint8).reshape(1, 3, 3))
    padded = aug.reflect_pad(strip, 1).pixels[1, :, 0]  # middle row is original
    for k in range(2):
        assert padded[-1 - k] == strip.pixels[0, k + 1, 0]


def test_reflect_pad_agrees_with_numpy_for_small_pads():
    img = random_image(5, 7, seed=22)
    for pad in (1, 2, 4):
        ours = aug.reflect_pad(img, pad).pixels
        theirs = np.pad(img.pixels, ((pad, pad), (pad, pad), (0, 0)), mode="reflect")
        np.testing.assert_array_equal(ours, theirs)


def test_reflect_pad_larger_than_image():
    img = random_image(3, 3, seed=23)
    out = aug.reflect_pad(img, 5)
    assert out.pixels.shape == (13, 13, 3)
    # period 2(n-1): wrap-around repeats the interior mirror pattern
    np.testing.assert_array_equal(out.pixels[0], out.pixels[4])


@pytest.mark.parametrize("h, w", [(1, 1), (1, 4), (2, 3), (5, 2)])
def test_reflect_pad_folds_pads_past_the_extent(h, w):
    img = random_image(h, w, seed=10 * h + w)
    for pad in range(0, 14):
        expected = img.pixels[reflect_index(h, pad)][:, reflect_index(w, pad)]
        np.testing.assert_array_equal(aug.reflect_pad(img, pad).pixels, expected)


def test_the_flip_is_drawn_with_hflip_off_too():
    # so turning the flip off changes no other draw: the image is the flip-on one, unflipped
    img = random_image(20, 20, seed=30)
    on, off = RecipeConfig(train_resolution=8), RecipeConfig(train_resolution=8, hflip=False)
    flipped = 0
    for i in range(12):
        seed = dat.per_sample_seed(0, 0, i)
        rng_on, rng_off = Rng(seed), Rng(seed)
        a = trn.augment_train_sample(img, on, True, rng_on).pixels
        b = trn.augment_train_sample(img, off, True, rng_off).pixels
        assert rng_on.uniform() == rng_off.uniform()
        assert np.array_equal(a, b) or np.array_equal(a, b[:, ::-1])
        flipped += not np.array_equal(a, b)
    assert 0 < flipped < 12


def test_hflip_involution():
    img = random_image(6, 9, seed=24)
    np.testing.assert_array_equal(aug.hflip(aug.hflip(img)).pixels, img.pixels)


def test_resize_bilinear_same_size_identity():
    img = random_image(9, 11, seed=25)
    np.testing.assert_array_equal(aug.resize_bilinear(img, 9, 11).pixels, img.pixels)


def test_resize_bilinear_constant_stays_constant():
    img = solid(77, 140, 203, h=5, w=8)
    out = aug.resize_bilinear(img, 13, 6)
    assert np.all(out.pixels == np.array([77, 140, 203], dtype=np.uint8))


@pytest.mark.parametrize(
    "kwargs",
    [
        {"color_jitter": 1.5},
        {"color_jitter": 1.0},
        {"color_jitter": -0.1},
        {"train_resolution": 0},
        {"train_resolution": -3},
    ],
)
def test_policy_rejects_bad_values_at_construction(kwargs):
    # the recipe is the augmentation's policy: a bad value fails before any image is drawn
    with pytest.raises(ParameterError):
        RecipeConfig(**kwargs)


def test_imageu8_validation():
    with pytest.raises(DimensionError):
        ImageU8(np.zeros((4, 4), dtype=np.uint8))
    with pytest.raises(DimensionError):
        ImageU8(np.zeros((4, 4, 3), dtype=np.float32))


# -- byte pins: each op against a local copy of the whole-image formula ---------------
# The ops run in place by row blocks; these copies are the plain formulas
# they replaced, and the bytes must be the same.


def ref_resize_axis(data, n_out, axis):
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


def ref_resize(pixels, out_h, out_w):
    data = pixels.astype(np.float64)
    data = ref_resize_axis(data, out_h, axis=0)
    data = ref_resize_axis(data, out_w, axis=1)
    return round_half_up(data)


def ref_blur(pixels, sigma):
    radius = math.ceil(3.0 * sigma)
    xs = np.arange(-radius, radius + 1, dtype=np.float64)
    kernel = np.exp(-(xs * xs) / (2.0 * sigma * sigma))
    kernel /= kernel.sum()
    data = pixels.astype(np.float64)
    h, w = data.shape[:2]
    padded = data[reflect_index(h, radius)]
    acc = np.zeros_like(data)
    for j in range(2 * radius + 1):
        acc += kernel[j] * padded[j : j + h]
    padded = acc[:, reflect_index(w, radius)]
    acc = np.zeros_like(data)
    for j in range(2 * radius + 1):
        acc += kernel[j] * padded[:, j : j + w]
    return round_half_up(acc)


def ref_jitter(pixels, factors):
    f_bright, f_contrast, f_sat = factors
    x = pixels.astype(np.float64)
    x = np.clip(x * f_bright, 0.0, 255.0)
    mean_luma = (x @ aug._LUMA).mean()
    x = np.clip(mean_luma + f_contrast * (x - mean_luma), 0.0, 255.0)
    luma = (x @ aug._LUMA)[:, :, None]
    x = np.clip(luma + f_sat * (x - luma), 0.0, 255.0)
    return round_half_up(x)


# (h, w) sources: square at the in1k shapes, tall, wide, one pixel, and
# smaller than the blur's radius of up to 6, so its padding folds more than
# once in both axes; each spans one or several row blocks, with a short last
# block
PIN_SHAPES = [(224, 224), (256, 256), (300, 20), (10, 2000), (1, 1), (37, 91), (3, 5), (2, 7)]


@pytest.mark.parametrize(
    "h, w, out_h, out_w",
    [
        (256, 256, 224, 224),  # down
        (40, 52, 224, 224),  # up
        (224, 224, 224, 224),  # same size
        (64, 48, 64, 96),  # one axis unchanged
        (1, 1, 5, 7),  # from one pixel
        (7, 5, 1, 1),  # to one pixel
        (30, 80, 17, 45),  # non-square both ways
        (10, 2000, 300, 15),
    ],
)
def test_resize_pins_the_whole_image_formula(h, w, out_h, out_w):
    img = random_image(h, w, seed=h * 7 + w)
    np.testing.assert_array_equal(
        aug.resize_bilinear(img, out_h, out_w).pixels, ref_resize(img.pixels, out_h, out_w)
    )


@pytest.mark.parametrize("out, crop_ratio", [(224, 0.875), (96, 0.9), (32, 1.0)])
def test_eval_preprocess_pins_the_whole_image_formula(out, crop_ratio):
    img = random_image(180, 256, seed=41)
    target = int(math.floor(out / crop_ratio + 0.5))
    nw = int(math.floor(256 * target / 180 + 0.5))
    resized = ref_resize(img.pixels, target, nw)
    x0, y0 = (nw - out) // 2, (target - out) // 2
    np.testing.assert_array_equal(
        aug.eval_preprocess(img, out, crop_ratio).pixels,
        resized[y0 : y0 + out, x0 : x0 + out],
    )


@pytest.mark.parametrize("sigma", [0.1, 0.77, 2.0])
@pytest.mark.parametrize("h, w", PIN_SHAPES)
def test_blur_pins_the_whole_image_formula(sigma, h, w):
    img = random_image(h, w, seed=h + w)
    np.testing.assert_array_equal(aug.gaussian_blur(img, sigma).pixels, ref_blur(img.pixels, sigma))


@pytest.mark.parametrize(
    "factors",
    [
        (1e-6, 1e-6, 1e-6),  # strength just under 1: the extreme factors
        (1.999999, 1.999999, 1.999999),
        (1e-6, 1.999999, 1e-6),
        (1.999999, 1e-6, 1.999999),
        (1.0, 1.0, 1.0),
        (0.83, 1.17, 0.91),
    ],
)
@pytest.mark.parametrize("h, w", PIN_SHAPES)
def test_jitter_pins_the_whole_image_formula(factors, h, w):
    img = random_image(h, w, seed=3 * h + w)
    out = aug.color_jitter(img, WIDE, ScriptedRng(*factors)).pixels
    np.testing.assert_array_equal(out, ref_jitter(img.pixels, factors))


@pytest.mark.parametrize("h, w", PIN_SHAPES)
def test_grayscale_and_flip_pin_the_whole_image_formula(h, w):
    img = random_image(h, w, seed=5 * h + w)
    luma = round_half_up(img.pixels.astype(np.float64) @ aug._LUMA)
    np.testing.assert_array_equal(aug.grayscale(img).pixels, np.repeat(luma[:, :, None], 3, axis=2))
    np.testing.assert_array_equal(aug.hflip(img).pixels, img.pixels[:, ::-1, :])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("lam", [None, 0.0, 1.0, 0.3, np.float64(0.3), np.float32(0.3)])
def test_mixup_pins_the_whole_batch_formula(dtype, lam):
    gen = np.random.default_rng(42)
    a, b = (gen.normal(size=(5, 3, 16, 16)).astype(dtype) for _ in range(2))
    ya, yb = one_hot_rows([0, 1, 2, 3, 0]), one_hot_rows([3, 2, 1, 0, 1])
    rng = Rng(9) if lam is None else ScriptedRng(lam)
    images, targets = aug.mixup(a.copy(), b, ya, yb, 0.8, rng)
    drawn = Rng(9).beta(0.8, 0.8) if lam is None else lam
    expected = (drawn * a + (1.0 - drawn) * b).astype(dtype, copy=False)
    assert images.dtype == expected.dtype
    np.testing.assert_array_equal(images, expected)
    np.testing.assert_array_equal(targets, drawn * ya + (1.0 - drawn) * yb)


def test_cutmix_pins_the_whole_batch_formula():
    gen = np.random.default_rng(43)
    a, b = (gen.normal(size=(4, 3, 32, 32)).astype(np.float32) for _ in range(2))
    ya, yb = one_hot_rows([0, 1, 2, 3]), one_hot_rows([3, 2, 1, 0])
    for seed in range(10):
        images, targets = aug.cutmix(a.copy(), b, ya, yb, 1.0, Rng(seed))
        rng = Rng(seed)
        bw = int(math.floor(32 * math.sqrt(max(0.0, 1.0 - rng.beta(1.0, 1.0))) + 0.5))
        cx, cy = rng.randint(32), rng.randint(32)
        x0, x1 = max(0, cx - bw // 2), min(32, cx - bw // 2 + bw)
        y0, y1 = max(0, cy - bw // 2), min(32, cy - bw // 2 + bw)
        expected = a.copy()
        expected[:, :, y0:y1, x0:x1] = b[:, :, y0:y1, x0:x1]
        lam_adj = 1.0 - max(0, x1 - x0) * max(0, y1 - y0) / 1024.0
        np.testing.assert_array_equal(images, expected)
        np.testing.assert_array_equal(targets, lam_adj * ya + (1.0 - lam_adj) * yb)


# -- scratch memory: the peak of one call at 224 px, in f64 images --------------------

F64_IMAGE = 224 * 224 * 3 * 8


def peak_in_f64_images(call):
    call()  # first-call set-up is not the op's scratch
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / F64_IMAGE
    finally:
        tracemalloc.stop()


# Peaks before the ops ran by row blocks: resize 5.94, random_resized_crop
# 4.94, jitter 3.39, blur 5.05, grayscale 1.33.
SCRATCH_BOUNDS = {
    "resize": (lambda img, src: aug.resize_bilinear(src, 224, 224), 1.5),
    "random_resized_crop": (lambda img, src: aug.random_resized_crop(src, 224, Rng(5)), 1.5),
    "color_jitter": (lambda img, src: aug.color_jitter(img, 0.3, Rng(1)), 1.5),
    "gaussian_blur": (lambda img, src: aug.gaussian_blur(img, 2.0), 1.5),
    "grayscale": (lambda img, src: aug.grayscale(img), 1.0),
}


@pytest.mark.parametrize("name", sorted(SCRATCH_BOUNDS))
def test_ops_keep_their_scratch_to_row_blocks(name):
    call, bound = SCRATCH_BOUNDS[name]
    img, src = random_image(224, 224, seed=44), random_image(256, 256, seed=45)
    assert peak_in_f64_images(lambda: call(img, src)) < bound


# -- the benchmark's byte probe ------------------------------------------------------


def test_augment_224_probe_matches_the_benchmark_record(tmp_path):
    """perfbench's augment-224 probe, recomputed: 64 in1k train samples from
    fixed 256 px sources and seeds, hashed as bytes, against the sha256 the
    benchmark checks every run against."""
    record = json.loads((ROOT / "perfbench" / "expected.json").read_text(encoding="utf-8"))
    recipe = cfg.preset("in1k")
    spec = dat.SynthSpec(num_classes=4, per_class=4, resolution=256, seed=0)
    probe = dat.synth_dataset(spec, tmp_path)
    digest = hashlib.sha256()
    for i in range(64):
        img = dat.load_image(probe.image_path(i % len(probe)))
        out = trn.augment_train_sample(img, recipe, True, Rng(dat.per_sample_seed(0, 0, i)))
        digest.update(out.pixels.tobytes())
    assert digest.hexdigest() == record["augment-224"]["probe_sha256"]
