"""Dataset container, manifest, seeding, sampler, and synthetic-set tests."""

import itertools
import struct

import numpy as np
import pytest

from vitrecipe import data as dat
from vitrecipe.augment import ImageU8, hflip
from vitrecipe.errors import FormatError, ParameterError


def checker(h=6, w=8, value=200):
    px = np.zeros((h, w, 3), dtype=np.uint8)
    px[::2, ::2] = value
    px[1::2, 1::2] = value
    return ImageU8(px)


# -- IMG1 container ---------------------------------------------------------


def test_image_round_trip(tmp_path):
    img = checker()
    path = tmp_path / "a.img1"
    dat.save_image(img, path)
    back = dat.load_image(path)
    np.testing.assert_array_equal(back.pixels, img.pixels)
    assert (back.height, back.width) == (6, 8)


def test_image_bad_magic(tmp_path):
    path = tmp_path / "bad.img1"
    path.write_bytes(b"JUNK" + b"\0" * 20)
    with pytest.raises(FormatError):
        dat.load_image(path)


def test_image_too_short(tmp_path):
    path = tmp_path / "short.img1"
    path.write_bytes(b"IMG1\x01\x00")
    with pytest.raises(FormatError):
        dat.load_image(path)


def test_image_truncated_payload(tmp_path):
    path = tmp_path / "trunc.img1"
    header = b"IMG1" + struct.pack("<III", 10, 10, 3)
    path.write_bytes(header + b"\0" * 50)
    with pytest.raises(FormatError):
        dat.load_image(path)


def test_image_wrong_channel_count(tmp_path):
    path = tmp_path / "gray.img1"
    header = b"IMG1" + struct.pack("<III", 2, 2, 1)
    path.write_bytes(header + b"\0" * 4)
    with pytest.raises(FormatError):
        dat.load_image(path)


def test_loaded_image_owns_its_buffer(tmp_path):
    path = tmp_path / "own.img1"
    dat.save_image(checker(), path)
    img = dat.load_image(path)
    img.pixels.flags.writeable or img.pixels.setflags(write=True)
    img.pixels[0, 0] = 7  # must not raise: the array is a private copy


# -- manifests -----------------------------------------------------------------


def test_manifest_round_trip(tmp_path):
    manifest = dat.DatasetManifest(
        root=tmp_path, entries=(("a.img1", 0), ("sub/b.img1", 2)), num_classes=3
    )
    path = tmp_path / "manifest.tsv"
    dat.save_manifest(manifest, path)
    back = dat.load_manifest(path)
    assert back.entries == manifest.entries
    assert back.num_classes == 3
    assert back.root == tmp_path
    assert len(back) == 2
    assert back.image_path(1) == tmp_path / "sub/b.img1"
    assert back.label(1) == 2


@pytest.mark.parametrize(
    "text",
    [
        "",
        "classes\n",
        "klasses\t3\n",
        "classes\tthree\n",
        "classes\t0\n",
        "classes\t2\na.img1\n",
        "classes\t2\na.img1\tx\n",
        "classes\t2\na.img1\t2\n",
        "classes\t2\na.img1\t-1\n",
    ],
)
def test_manifest_rejects_malformed(tmp_path, text):
    path = tmp_path / "m.tsv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(FormatError):
        dat.load_manifest(path)


def test_manifest_rejects_non_utf8(tmp_path):
    path = tmp_path / "m.tsv"
    path.write_bytes(b"classes\t2\n\xff.img1\t0\n")
    with pytest.raises(FormatError):
        dat.load_manifest(path)


# -- seeding --------------------------------------------------------------------


def test_per_sample_seed_is_pure():
    assert dat.per_sample_seed(1, 2, 3) == dat.per_sample_seed(1, 2, 3)
    assert dat.per_sample_seed(0, 0, 0) != dat.per_sample_seed(0, 0, 1)
    assert dat.per_sample_seed(0, 1, 0) != dat.per_sample_seed(1, 0, 0)


def test_seed_chain_collision_free():
    seen = set()
    for epoch, idx in itertools.product(range(1000), range(1000)):
        seen.add(dat.per_sample_seed(77, epoch, idx))
    assert len(seen) == 1_000_000


def test_repeat_seed_distinct_from_parent():
    base = dat.per_sample_seed(5, 0, 9)
    reps = [dat.repeat_seed(base, k) for k in range(3)]
    assert len(set(reps)) == 3
    assert base not in reps


def test_domain_tags_distinct():
    tags = [
        dat.TAG_SAMPLE, dat.TAG_REPEAT, dat.TAG_SHUFFLE, dat.TAG_INIT,
        dat.TAG_MIX, dat.TAG_DROP, dat.TAG_SYNTH,
    ]
    assert len(set(tags)) == len(tags)


# -- samplers -------------------------------------------------------------------


def make_manifest(n, num_classes=4):
    entries = tuple((f"f{i}.img1", i % num_classes) for i in range(n))
    return dat.DatasetManifest(root=None, entries=entries, num_classes=num_classes)


def test_plain_epoch_is_a_permutation():
    manifest = make_manifest(10)
    out = dat.batches(manifest, dat.PlainSampler(batch_size=4, seed=0), epoch=0)
    assert [len(b) for b in out] == [4, 4, 2]
    assert sorted(i for b in out for i in b) == list(range(10))


def test_plain_epochs_differ_but_replay_identically():
    manifest = make_manifest(32)
    sampler = dat.PlainSampler(batch_size=8, seed=3)
    e0 = dat.batches(manifest, sampler, epoch=0)
    e1 = dat.batches(manifest, sampler, epoch=1)
    assert e0 != e1
    assert dat.batches(manifest, sampler, epoch=0) == e0


def test_repeated_batch6_m3_two_distinct_each():
    manifest = make_manifest(12)
    out = dat.batches(manifest, dat.RepeatedAugSampler(batch_size=6, seed=1), epoch=0)
    assert len(out) == 6
    for b in out:
        assert len(b) == 6
        counts = {i: b.count(i) for i in set(b)}
        assert len(counts) == 2
        assert all(c == 3 for c in counts.values())


def test_repeated_truncates_tail_group():
    # batch 64 at m=3 takes 22 distinct; 22*3=66 trims to 64, so the last
    # distinct index appears only twice
    manifest = make_manifest(256)
    out = dat.batches(manifest, dat.RepeatedAugSampler(batch_size=64, seed=2), epoch=0)
    assert len(out) == 11  # floor(256 / 22)
    for b in out:
        assert len(b) == 64
        counts = sorted(b.count(i) for i in set(b))
        assert counts == [1] + [3] * 21


def test_repeated_drops_leftover_samples():
    manifest = make_manifest(5)
    out = dat.batches(manifest, dat.RepeatedAugSampler(batch_size=6, seed=0), epoch=0)
    assert len(out) == 2
    for b in out:
        assert len(b) == 6
        assert len(set(b)) == 2


@pytest.mark.parametrize("sampler_type", [dat.PlainSampler, dat.RepeatedAugSampler])
@pytest.mark.parametrize("batch_size", [0, -2])
def test_batches_reject_batch_size_below_one(sampler_type, batch_size):
    sampler = sampler_type(batch_size=batch_size, seed=0)
    with pytest.raises(ParameterError):
        dat.batches(make_manifest(6), sampler, epoch=0)


def test_batches_empty_manifest():
    manifest = dat.DatasetManifest(root=None, entries=(), num_classes=1)
    with pytest.raises(ParameterError):
        dat.batches(manifest, dat.PlainSampler(batch_size=4, seed=0), epoch=0)


# -- synthetic gratings ------------------------------------------------------------


def test_synth_image_deterministic():
    spec = dat.SynthSpec(num_classes=4, per_class=8, resolution=16, seed=9)
    a = dat.synth_image(spec, 2, 5)
    b = dat.synth_image(spec, 2, 5)
    np.testing.assert_array_equal(a.pixels, b.pixels)
    c = dat.synth_image(spec, 2, 6)
    assert not np.array_equal(a.pixels, c.pixels)


def test_synth_noise_zero_collapses_samples():
    spec = dat.SynthSpec(num_classes=3, per_class=4, resolution=16, seed=0, noise=0.0)
    a = dat.synth_image(spec, 1, 0)
    b = dat.synth_image(spec, 1, 3)
    np.testing.assert_array_equal(a.pixels, b.pixels)


def test_synth_classes_decorrelated():
    spec = dat.SynthSpec(num_classes=4, per_class=6, resolution=32, seed=4)
    means = []
    for c in range(4):
        imgs = [dat.synth_image(spec, c, s).pixels[:, :, 0].astype(np.float64) for s in range(6)]
        means.append(np.mean(imgs, axis=0).ravel())
    within = []
    for c in range(4):
        a = dat.synth_image(spec, c, 0).pixels[:, :, 0].astype(np.float64).ravel()
        within.append(np.corrcoef(a, means[c])[0, 1])
    between = [
        np.corrcoef(means[i], means[j])[0, 1] for i in range(4) for j in range(4) if i != j
    ]
    assert min(within) > max(between)


def fft_peak_radius(img: ImageU8) -> float:
    plane = img.pixels[:, :, 0].astype(np.float64)
    power = np.abs(np.fft.fft2(plane - plane.mean()))
    fy, fx = np.unravel_index(np.argmax(power), power.shape)
    r = plane.shape[0]
    fy = fy if fy <= r // 2 else fy - r
    fx = fx if fx <= r // 2 else fx - r
    return float(np.hypot(fy, fx))


def test_synth_class_patterns_survive_hflip():
    # orientation alone cannot carry the label: flipping maps angle theta
    # to pi - theta, pairing up classes; the per-class frequency is flip
    # invariant and stays distinct across classes
    spec = dat.SynthSpec(num_classes=4, per_class=4, resolution=32, seed=8, noise=0.0)
    radii = []
    for c in range(4):
        img = dat.synth_image(spec, c, 0)
        radius = fft_peak_radius(img)
        assert abs(fft_peak_radius(hflip(img)) - radius) < 1e-9
        radii.append(round(radius, 6))
    assert len(set(radii)) == 4


def test_synth_grayscale_channels():
    spec = dat.SynthSpec(num_classes=2, per_class=2, resolution=8, seed=1)
    img = dat.synth_image(spec, 0, 0)
    np.testing.assert_array_equal(img.pixels[:, :, 0], img.pixels[:, :, 1])
    np.testing.assert_array_equal(img.pixels[:, :, 0], img.pixels[:, :, 2])


def test_synth_spec_validation():
    with pytest.raises(ParameterError):
        dat.SynthSpec(num_classes=1, per_class=4, resolution=16, seed=0)
    with pytest.raises(ParameterError):
        dat.SynthSpec(num_classes=2, per_class=0, resolution=16, seed=0)
    with pytest.raises(ParameterError):
        dat.SynthSpec(num_classes=2, per_class=1, resolution=2, seed=0)
    with pytest.raises(ParameterError):
        dat.SynthSpec(num_classes=2, per_class=1, resolution=16, seed=0, noise=-1.0)


def test_synth_dataset_writes_loadable_tree(tmp_path):
    spec = dat.SynthSpec(num_classes=3, per_class=2, resolution=8, seed=2)
    manifest = dat.synth_dataset(spec, tmp_path / "ds")
    assert len(manifest) == 6
    back = dat.load_manifest(tmp_path / "ds" / "manifest.tsv")
    assert back.entries == manifest.entries
    assert back.num_classes == 3
    img = dat.load_image(back.image_path(0))
    np.testing.assert_array_equal(img.pixels, dat.synth_image(spec, 0, 0).pixels)
    labels = [manifest.label(i) for i in range(6)]
    assert labels == [0, 0, 1, 1, 2, 2]


def test_synth_dataset_reproducible_bytes(tmp_path):
    spec = dat.SynthSpec(num_classes=2, per_class=2, resolution=8, seed=3)
    m1 = dat.synth_dataset(spec, tmp_path / "one")
    m2 = dat.synth_dataset(spec, tmp_path / "two")
    for i in range(len(m1)):
        assert m1.image_path(i).read_bytes() == m2.image_path(i).read_bytes()


# -- standardization -------------------------------------------------------------------


def test_normalize_shape_dtype_and_values():
    img = ImageU8(np.full((4, 6, 3), 255, dtype=np.uint8))
    out = dat.normalize(img)
    assert out.shape == (3, 4, 6)
    assert out.dtype == np.float32
    expected = (1.0 - dat.IMAGENET_MEAN) / dat.IMAGENET_STD
    np.testing.assert_allclose(out[:, 0, 0], expected.astype(np.float32), rtol=1e-6)


def test_normalize_denormalize_round_trip_all_bytes():
    ramp = np.arange(256, dtype=np.uint8)
    px = np.stack([ramp, ramp[::-1], np.roll(ramp, 7)], axis=1).reshape(16, 16, 3)
    img = ImageU8(px)
    back = dat.denormalize(dat.normalize(img))
    np.testing.assert_array_equal(back.pixels, img.pixels)
