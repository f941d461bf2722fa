"""Dataset formats, deterministic seeding, batch sampling, synthetic data.

Images travel in the IMG1 container (raw RGB bytes behind a fixed
header) and datasets are a flat manifest of (relative path, label)
lines. Every random choice derives from the global seed through tagged
splitmix64 chains, so worker count and iteration order can never leak
into results.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import ClassVar, List, Tuple, Union

import numpy as np

from .augment import ImageU8
from .errors import FormatError, ParameterError
from .rng import Rng, derive_seed

# domain tags keeping unrelated seed chains apart
TAG_SAMPLE = 0x53414D50  # sample augmentation
TAG_REPEAT = 0x52455054  # repeated-aug sub-draws
TAG_SHUFFLE = 0x53485546  # epoch permutation
TAG_INIT = 0x494E4954  # parameter init
TAG_MIX = 0x4D495842  # per-batch mixup/cutmix draws
TAG_DROP = 0x44524F50  # stochastic depth masks
TAG_SYNTH = 0x53594E54  # synthetic dataset generation

_MAGIC = b"IMG1"

IMAGENET_MEAN = np.array([0.485, 0.456, 0.406], dtype=np.float64)
IMAGENET_STD = np.array([0.229, 0.224, 0.225], dtype=np.float64)


# -- IMG1 files -------------------------------------------------------------


def save_image(img: ImageU8, path) -> None:
    header = _MAGIC + struct.pack("<III", img.width, img.height, 3)
    Path(path).write_bytes(header + img.pixels.tobytes())


def load_image(path) -> ImageU8:
    raw = Path(path).read_bytes()
    if len(raw) < 16 or raw[:4] != _MAGIC:
        raise FormatError(f"{path}: not an IMG1 file")
    width, height, channels = struct.unpack("<III", raw[4:16])
    if channels != 3:
        raise FormatError(f"{path}: unsupported channel count {channels}")
    expected = width * height * 3
    payload = raw[16:]
    if len(payload) != expected:
        raise FormatError(
            f"{path}: payload is {len(payload)} bytes, header promises {expected}"
        )
    pixels = np.frombuffer(payload, dtype=np.uint8).reshape(height, width, 3)
    return ImageU8(pixels.copy())


# -- manifests ----------------------------------------------------------------


@dataclass(frozen=True)
class DatasetManifest:
    root: Path
    entries: Tuple[Tuple[str, int], ...]
    num_classes: int

    def __len__(self) -> int:
        return len(self.entries)

    def image_path(self, index: int) -> Path:
        return self.root / self.entries[index][0]

    def label(self, index: int) -> int:
        return self.entries[index][1]


def save_manifest(manifest: DatasetManifest, path) -> None:
    lines = [f"classes\t{manifest.num_classes}"]
    lines += [f"{rel}\t{label}" for rel, label in manifest.entries]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_manifest(path) -> DatasetManifest:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: manifest is not valid UTF-8") from exc
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise FormatError(f"{path}: empty manifest")
    head = lines[0].split("\t")
    if len(head) != 2 or head[0] != "classes":
        raise FormatError(f"{path}: first line must be 'classes<TAB>K'")
    try:
        num_classes = int(head[1])
    except ValueError as exc:
        raise FormatError(f"{path}: bad class count {head[1]!r}") from exc
    if num_classes < 1:
        raise FormatError(f"{path}: class count must be at least 1")
    entries = []
    for ln in lines[1:]:
        parts = ln.split("\t")
        if len(parts) != 2:
            raise FormatError(f"{path}: malformed entry {ln!r}")
        try:
            label = int(parts[1])
        except ValueError as exc:
            raise FormatError(f"{path}: bad label in {ln!r}") from exc
        if not 0 <= label < num_classes:
            raise FormatError(f"{path}: label {label} outside [0, {num_classes})")
        entries.append((parts[0], label))
    return DatasetManifest(root=path.parent, entries=tuple(entries), num_classes=num_classes)


# -- seeding -------------------------------------------------------------------


def per_sample_seed(global_seed: int, epoch: int, sample_index: int) -> int:
    """64-bit seed for one sample's augmentation stream.

    Pure function of the tuple; worker identity never enters, so any
    loader parallelism reproduces the single-threaded stream.
    """
    return derive_seed(global_seed, TAG_SAMPLE, epoch, sample_index)


def repeat_seed(sample_seed: int, repeat_index: int) -> int:
    """Sub-seed for the k-th repeated-augmentation copy of a sample."""
    return derive_seed(sample_seed, TAG_REPEAT, repeat_index)


# -- batch sampling --------------------------------------------------------------


@dataclass(frozen=True)
class PlainSampler:
    batch_size: int
    seed: int


@dataclass(frozen=True)
class RepeatedAugSampler:
    batch_size: int
    seed: int
    repeats: ClassVar[int] = 3  # the recipe's copies per image


def batches(
    manifest: DatasetManifest,
    sampler: Union[PlainSampler, RepeatedAugSampler],
    epoch: int,
) -> List[List[int]]:
    """Index lists for one epoch.

    Plain mode: seeded permutation cut into consecutive chunks (trailing
    partial batch kept). Repeated mode: each batch takes
    ceil(batch_size/repeats) distinct samples from the permutation and
    repeats each one, truncating the tail to batch_size; the epoch ends
    when too few distinct samples remain for a full batch.
    """
    n = len(manifest)
    if n == 0:
        raise ParameterError("batches: empty manifest")
    b = sampler.batch_size
    if b < 1:
        raise ParameterError(f"batches: batch_size must be at least 1, got {b}")
    order = list(range(n))
    Rng(derive_seed(sampler.seed, TAG_SHUFFLE, epoch)).shuffle(order)
    if isinstance(sampler, RepeatedAugSampler):
        m = sampler.repeats
        group = math.ceil(b / m)
        out = []
        for start in range(0, n - group + 1, group):
            batch = [idx for idx in order[start : start + group] for _ in range(m)]
            out.append(batch[:b])
        return out
    return [order[start : start + b] for start in range(0, n, b)]


# -- synthetic dataset -------------------------------------------------------------


@dataclass(frozen=True)
class SynthSpec:
    num_classes: int
    per_class: int
    resolution: int
    seed: int
    noise: float = 16.0
    cycles: ClassVar[float] = 2.0  # grating cycles per image for class 0

    def __post_init__(self):
        if self.num_classes < 2 or self.per_class < 1 or self.resolution < 4:
            raise ParameterError("SynthSpec needs >= 2 classes, >= 1 sample, resolution >= 4")
        if self.noise < 0:
            raise ParameterError("noise amplitude must be non-negative")


def synth_image(spec: SynthSpec, class_index: int, sample_index: int) -> ImageU8:
    """One grating image: orientation and spatial frequency jointly encode
    the class, uniform noise makes samples distinct. Pure function of
    (spec, indices).

    Frequency must vary per class, not just angle: a horizontal flip maps
    angle theta to pi - theta, so pure-orientation classes would collide in
    pairs under flip augmentation."""
    r = spec.resolution
    theta = class_index * math.pi / spec.num_classes
    cycles = spec.cycles * (1.0 + class_index)
    yy, xx = np.meshgrid(
        np.arange(r, dtype=np.float64), np.arange(r, dtype=np.float64), indexing="ij"
    )
    coord = (xx * math.cos(theta) + yy * math.sin(theta)) / r
    wave = np.sin(2.0 * math.pi * cycles * coord)
    canvas = 127.5 + 100.0 * wave
    if spec.noise > 0:
        rng = Rng(derive_seed(spec.seed, TAG_SYNTH, class_index, sample_index))
        canvas = canvas + rng.uniform_array(r * r, -spec.noise, spec.noise).reshape(r, r)
    byte = np.clip(np.floor(canvas + 0.5), 0.0, 255.0).astype(np.uint8)
    return ImageU8(np.repeat(byte[:, :, None], 3, axis=2))


def synth_dataset(spec: SynthSpec, out_dir) -> DatasetManifest:
    """Write the full grating dataset (IMG1 files + manifest.tsv) under
    out_dir and return its manifest."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    entries = []
    for c in range(spec.num_classes):
        for s in range(spec.per_class):
            rel = f"c{c:03d}_s{s:05d}.img1"
            save_image(synth_image(spec, c, s), out_dir / rel)
            entries.append((rel, c))
    manifest = DatasetManifest(root=out_dir, entries=tuple(entries), num_classes=spec.num_classes)
    save_manifest(manifest, out_dir / "manifest.tsv")
    return manifest


# -- standardization ------------------------------------------------------------------


def normalize(img: ImageU8) -> np.ndarray:
    """(H, W, 3) bytes -> (3, H, W) float32, ImageNet-standardized."""
    x = img.pixels.astype(np.float64) / 255.0
    x = (x - IMAGENET_MEAN) / IMAGENET_STD
    return np.ascontiguousarray(x.transpose(2, 0, 1)).astype(np.float32)


def denormalize(chw: np.ndarray) -> ImageU8:
    """Inverse of normalize, rounding back to bytes."""
    x = chw.astype(np.float64).transpose(1, 2, 0)
    x = (x * IMAGENET_STD + IMAGENET_MEAN) * 255.0
    return ImageU8(np.clip(np.floor(x + 0.5), 0.0, 255.0).astype(np.uint8))
