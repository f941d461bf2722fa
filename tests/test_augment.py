"""Augmentation oracles: hand tables, brute-force convolution and
pixel-count references, and seeded-draw statistics."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vitrecipe import augment as aug
from vitrecipe.augment import AugmentPolicy, ImageU8
from vitrecipe.errors import DimensionError, ParameterError
from vitrecipe.rng import Rng

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
    rows = aug._reflect_indices(h, radius)
    cols = aug._reflect_indices(w, radius)
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


# -- color jitter ---------------------------------------------------------------


def test_jitter_zero_strength_is_identity():
    img = random_image(6, 6, seed=5)
    np.testing.assert_array_equal(aug.color_jitter(img, 0.0, Rng(7)).pixels, img.pixels)


def test_jitter_pure_brightness():
    out = aug.color_jitter(solid(100, 100, 100), 0.0, Rng(0), factors=(2.0, 1.0, 1.0))
    assert np.all(out.pixels == 200)


def test_jitter_contrast_matches_per_pixel_formula():
    img = random_image(5, 5, seed=6)
    f = 1.27
    x = img.pixels.astype(np.float64)
    mean_luma = (x @ LUMA).mean()
    expected = round_half_up(np.clip(mean_luma + f * (x - mean_luma), 0, 255))
    out = aug.color_jitter(img, 0.0, Rng(0), factors=(1.0, f, 1.0))
    np.testing.assert_array_equal(out.pixels, expected)


def test_jitter_saturation_matches_per_pixel_formula():
    img = random_image(5, 5, seed=7)
    f = 0.62
    x = img.pixels.astype(np.float64)
    luma = (x @ LUMA)[:, :, None]
    expected = round_half_up(np.clip(luma + f * (x - luma), 0, 255))
    out = aug.color_jitter(img, 0.0, Rng(0), factors=(1.0, 1.0, f))
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
    policy = AugmentPolicy(color_jitter_strength=0.0, hflip_prob=0.0)
    seed = grayscale_seed()
    out, branch = aug.three_augment_traced(img, policy, Rng(seed))
    assert branch == 0
    np.testing.assert_array_equal(out.pixels, aug.grayscale(img).pixels)


def test_three_augment_deterministic():
    img = random_image(10, 10, seed=9)
    policy = AugmentPolicy()
    a = aug.three_augment(img, policy, Rng(42)).pixels
    b = aug.three_augment(img, policy, Rng(42)).pixels
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
    policy = AugmentPolicy()
    for seed in range(30):
        calls.clear()
        _, branch = aug.three_augment_traced(img, policy, Rng(seed))
        assert calls == [branch]


def test_three_augment_branch_frequencies():
    img = random_image(4, 4, seed=11)
    policy = AugmentPolicy()
    n = 3000
    counts = [0, 0, 0]
    for seed in range(n):
        _, branch = aug.three_augment_traced(img, policy, Rng(seed))
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


def test_rrc_full_area_equals_whole_image_resize():
    img = random_image(10, 20, seed=13)
    out = aug.random_resized_crop(
        img, 12, Rng(0), scale_range=(1.0, 1.0), ratio_range=(2.0, 2.0)
    )
    np.testing.assert_array_equal(out.pixels, aug.resize_bilinear(img, 12, 12).pixels)


def test_rrc_fallback_centers_extreme_aspect():
    # 10x100 image with large forced areas: every attempt overflows the
    # short side, so the centered fallback at the ratio bound fires
    img = random_image(10, 100, seed=14)
    out = aug.random_resized_crop(img, 8, Rng(5), scale_range=(0.9, 1.0))
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

    img, tgt = aug.mixup(a, b, ya, yb, 0.8, Rng(0), lam=1.0)
    np.testing.assert_array_equal(img, a)
    np.testing.assert_array_equal(tgt, ya)

    img, tgt = aug.mixup(a, b, ya, yb, 0.8, Rng(0), lam=0.5)
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

    img, tgt = aug.cutmix(a, b, ya, yb, 1.0, Rng(0), box=(0, 0, 0, 0))
    np.testing.assert_array_equal(img, a)
    np.testing.assert_array_equal(tgt, ya)

    img, tgt = aug.cutmix(a, b, ya, yb, 1.0, Rng(0), box=(0, 0, 8, 8))
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


def test_cutmix_rejects_non_square():
    bad = np.zeros((1, 3, 4, 6))
    with pytest.raises(DimensionError):
        aug.cutmix(bad, bad, one_hot_rows([0]), one_hot_rows([1]), 1.0, Rng(0))


# -- mix dispatch -------------------------------------------------------------------


def test_mix_dispatch_degenerate_policies():
    off = AugmentPolicy(mixup_alpha=0.0, cutmix_alpha=0.0)
    only_cut = AugmentPolicy(mixup_alpha=0.0, cutmix_alpha=1.0)
    only_mix = AugmentPolicy(mixup_alpha=0.8, cutmix_alpha=0.0)
    for seed in range(20):
        assert aug.mix_dispatch(off, Rng(seed)) == "none"
        assert aug.mix_dispatch(only_cut, Rng(seed)) == "cutmix"
        assert aug.mix_dispatch(only_mix, Rng(seed)) == "mixup"


def test_mix_dispatch_is_balanced():
    policy = AugmentPolicy()
    n = 2000
    hits = sum(aug.mix_dispatch(policy, Rng(seed)) == "mixup" for seed in range(n))
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
    out = aug.reflect_pad(img, 5)  # np.pad reflect would reject this
    assert out.pixels.shape == (13, 13, 3)
    # period 2(n-1): wrap-around repeats the interior mirror pattern
    np.testing.assert_array_equal(out.pixels[0], out.pixels[4])


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


def test_imageu8_validation():
    with pytest.raises(DimensionError):
        ImageU8(np.zeros((4, 4), dtype=np.uint8))
    with pytest.raises(DimensionError):
        ImageU8(np.zeros((4, 4, 3), dtype=np.float32))
    with pytest.raises(ParameterError):
        AugmentPolicy(crop_mode="center")
    with pytest.raises(ParameterError):  # one spelling, the recipe's
        AugmentPolicy(crop_mode="RRC")
