"""The three benchmark workloads, each driving vitrecipe through its public
functions: set-up, a timed closed loop with one caller, and output checks.

A workload counts the units it attempted (training steps, eval batches or
augmented samples) and the units that failed a check. When a tracer is
given, odd-numbered units run with the tracer's wrappers installed and
even-numbered ones without, so the traced run measures its own overhead.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import resource
import statistics
from dataclasses import replace
from pathlib import Path

import numpy as np

import vitrecipe
from vitrecipe import augment as aug
from vitrecipe import checkpoint as ckpt
from vitrecipe import config as cfg
from vitrecipe import data as dat
from vitrecipe import model as mdl
from vitrecipe import optim as opt
from vitrecipe import training as trn
from vitrecipe.numerics import Tensor
from vitrecipe.rng import Rng, derive_seed

from tracer import now

BATCH = 64

# Timed-phase times are reported scaled by REFERENCE_S / (the median time of
# `calibrate()`, a fixed numpy and interpreter workload that runs no vitrecipe
# code). On a machine shared with other tenants the speed of both drifts
# together by 20-40% over minutes, and the ratio cancels most of that drift.
# The calibration runs in blocks between units of work, before and after
# every eval or augment batch and every training step; a unit's calibration
# is the mean of the two blocks either side of it. Within `train()` the
# blocks run in the patched `optim.cosine_lr` (their time is left out of the
# step): blocks only around the whole `train()` call tracked its speed
# poorly, 0.15 IQR/median over five seeds against 0.12 unscaled. Set-up is
# not scaled: there, blocks around it spread more than its wall time did.
# The calibration writes into preallocated arrays, so the heap the program
# leaves behind does not change what it measures. After an eval pass the
# first reading ran 20% slow and the second 3%, with cold caches; later ones
# matched readings taken after a block.
REFERENCE_S = 0.00175  # about the calibrate() median on the 2-vCPU VM it was defined on
UNIT_CALIBRATION = 6  # calibrate() calls in a block between two units
WARM_READINGS = 2  # of those, dropped: they refill the caches the unit evicted
_CAL_X = np.linspace(0.0, 1.0, 1 << 16).reshape(256, 256)
_CAL_Y = np.empty_like(_CAL_X)
_CAL_Z = np.empty((64, 64))


def calibrate() -> float:
    """Seconds taken by the calibration workload."""
    t = now()
    for _ in range(12):
        np.negative(_CAL_X, out=_CAL_Y)
        np.exp(_CAL_Y, out=_CAL_Y)
        np.multiply(_CAL_Y, _CAL_X, out=_CAL_Y)
        np.add(_CAL_Y, 0.5, out=_CAL_Y)
        np.matmul(_CAL_Y[:64], _CAL_Y[:, :64], out=_CAL_Z)
        sum(float(v) for v in _CAL_Z[0])
    return now() - t


def code_digest() -> str:
    """SHA-256 of the package's sources and the numpy version: same-seed
    checkpoints are bit-identical only for one version of the arithmetic."""
    digest = hashlib.sha256(np.__version__.encode())
    for path in sorted(Path(vitrecipe.__file__).parent.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def begin_unit(tracer, unit: int) -> bool:
    """Trace odd units; run even ones with the original functions in place."""
    if tracer is None:
        return False
    traced = unit % 2 == 1
    tracer.unit = unit if traced else None
    if traced:
        tracer.install()
    else:
        tracer.uninstall()
    return traced


def end_units(tracer) -> None:
    if tracer is not None:
        tracer.unit = None
        tracer.uninstall()


class Workload:
    """Shared bookkeeping; subclasses provide `setup`, `measure` and `check`."""

    items_per_unit = 1  # per-layer figures are per step, per batch or per sample
    names = ()  # what images_per_s and unit_ms_p50 are called for this workload
    phases: set = set()

    def __init__(self, seed: int, seconds: float, work: Path, state: Path):
        self.seed = seed
        self.seconds = seconds
        self.work = work  # this run's scratch directory, removed afterwards
        self.state = state  # kept across runs in one checkout
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.info = []
        self.report = {}  # figures printed beside the end-to-end metrics
        self.images = 0  # images stepped, evaluated or augmented in the timed loop
        self.blocks = []  # (seconds, unit) of the work holding the images
        self.latencies = []  # (seconds, unit) behind unit_ms_p50
        self.calibrations = []  # every calibrate() reading of the timed phase
        self.unit_cals = []  # median calibration before each unit, and after the last
        self.traced = {}  # unit -> wall seconds, for traced units
        self.untraced = []  # wall seconds of the other units
        self.peak_rss = 0.0

    def fail(self, units: int, message: str) -> None:
        self.failed = min(self.failed + units, self.attempted)
        self.errors.append(message)

    def calibrate_unit(self) -> None:
        readings = [calibrate() for _ in range(UNIT_CALIBRATION)][WARM_READINGS:]
        self.calibrations += readings
        self.unit_cals.append(statistics.median(readings))

    def unit_cal(self, unit: int) -> float:
        """A unit's calibration: the mean of the blocks either side of it."""
        return (self.unit_cals[unit] + self.unit_cals[unit + 1]) / 2

    def record_unit(self, unit: int, traced: bool, seconds: float) -> None:
        if traced:
            self.traced[unit] = seconds
        else:
            self.untraced.append(seconds)


# -- toy-train ---------------------------------------------------------------------------


def read_losses(metrics_path):
    """{epoch: [train_loss, ...]} from metrics.csv, by column name."""
    with open(metrics_path, encoding="utf-8") as f:
        rows = csv.DictReader(line for line in f if not line.startswith("#"))
        losses = {}
        for row in rows:
            losses.setdefault(int(row["epoch"]), []).append(float(row["train_loss"]))
    return losses


class ToyTrain(Workload):
    """`training.train` on the acceptance toy with per-epoch eval, as the CLI
    runs it, once per run whatever the time budget (6 epochs take about 23 s
    on 2 cores). Units are optimizer steps, delimited by the one
    `optim.cosine_lr` call each step makes; the last step ends when `train`
    returns. The step clock runs a calibration block before each step starts
    and leaves it out of every interval."""

    name = "toy-train"
    names = ("train_images_per_s", "train_step_ms_p50")
    epochs = 6  # the in1k warmup is 5 epochs, so one epoch runs past it
    per_class = 64  # 4 classes: 11 steps of 64 per epoch under repeated aug
    phases = {
        "training.data_wait", "model.forward_train", "optim.loss", "numerics.backward",
        "optim.grad_clip", "optim.lamb_step", "training.evaluate", "checkpoint.save",
    }

    def setup(self) -> None:
        spec = dat.SynthSpec(
            num_classes=4, per_class=self.per_class, resolution=32, seed=self.seed
        )
        self.manifest = dat.synth_dataset(spec, self.work / "toy")
        self.recipe = replace(
            cfg.preset("in1k"), batch_size=BATCH, epochs=self.epochs, train_resolution=32,
            eval_resolution=32, seed=self.seed, loss="bce", layerscale_init=1.0,
        )
        self.config = mdl.ViTConfig(
            patch_size=4, embed_dim=64, depth=4, num_heads=4, image_size=32,
            num_classes=4, layerscale_init=1.0,
        )

    def measure(self, tracer) -> None:
        ends, starts, flags = [], [], []
        original = opt.cosine_lr

        def step_clock(schedule, step):
            ends.append(now())  # the previous step, or train's preamble, ends here
            self.calibrate_unit()
            starts.append(now())
            flags.append(begin_unit(tracer, len(starts) - 1))
            if flags[-1]:
                tracer.step_start = starts[-1]
            return original(schedule, step)

        self.result = None
        opt.cosine_lr = step_clock
        try:
            t0 = now()
            self.result = trn.train(self.recipe, self.manifest, self.config, self.work / "train")
            ends.append(now())
            self.calibrate_unit()
        except Exception as exc:  # report the failure, do not crash
            self.attempted = max(len(starts), 1)
            self.fail(self.attempted, f"train raised {exc!r}")
            return
        finally:
            opt.cosine_lr = original
            end_units(tracer)
        self.peak_rss = peak_rss_mib()
        self.attempted = self.result.steps
        if len(starts) != self.result.steps:
            self.fail(self.result.steps, f"step clock saw {len(starts)} steps")
            return
        # train()'s wall time without the calibrations: its preamble, then each step
        self.blocks.append((ends[0] - t0, 0))
        for unit, start in enumerate(starts):
            seconds = ends[unit + 1] - start
            self.record_unit(unit, flags[unit], seconds)
            self.blocks.append((seconds, unit))
        self.latencies = self.blocks[1:]
        self.images = self.result.steps * BATCH

    def check(self) -> None:
        result = self.result
        if result is None:
            return
        losses = read_losses(result.metrics_path)
        flat = [x for epoch in losses.values() for x in epoch]
        first, last = losses[min(losses)], losses[max(losses)]
        loss_end = sum(last) / len(last)
        self.report["train_loss_end"] = (loss_end, "1")
        if len(losses) != self.epochs or not all(math.isfinite(x) for x in flat):
            self.fail(result.steps, "metrics.csv lacks an epoch or holds a non-finite loss")
        elif not loss_end < sum(first) / len(first):
            self.fail(result.steps, "last-epoch mean loss is not below the first epoch's")
        config, params, state, block = trn.load_model(result.checkpoint_path)
        resaved = self.work / "resaved.ckpt"
        ckpt.save_checkpoint(resaved, block, ckpt.pack_training_state(params, state))
        if config != self.config or resaved.read_bytes() != result.checkpoint_path.read_bytes():
            self.fail(result.steps, "checkpoint does not reload to the same config and bytes")
        # same seed and same code must give the same checkpoint, run after run
        sha = hashlib.sha256(result.checkpoint_path.read_bytes()).hexdigest()
        key = f"seed {self.seed} code {code_digest()}"
        self.info.append(f"checkpoint sha256 {sha} ({key})")
        record = self.state / "toy-train-checkpoint-sha256.json"
        known = json.loads(record.read_text(encoding="utf-8")) if record.exists() else {}
        if known.setdefault(key, sha) != sha:
            self.fail(self.attempted, f"checkpoint sha256 {sha}, an earlier run of {key} had "
                                      f"{known[key]}")
        else:
            tmp = record.with_suffix(".tmp")
            tmp.write_text(json.dumps(known, indent=1, sort_keys=True), encoding="utf-8")
            os.replace(tmp, record)


# -- eval-vit-t-96 ---------------------------------------------------------------------------


class EvalVitT96(Workload):
    """`training.evaluate` with no cache on a random-init ViT-T at 96 px with
    identity LayerScale gates, reloaded from its checkpoint, as `vitrecipe
    eval` runs it. The manifest holds one batch, so a unit is one `evaluate`
    call."""

    name = "eval-vit-t-96"
    names = ("eval_images_per_s", "eval_batch_ms_p50")
    resolution = 96
    classes = 8
    probe_images = 16
    probe_atol = 1e-5  # f32 against f64 logits: measured 5e-7; f16 GELU gives 2e-4
    phases = {"data.load_image", "augment.eval_preprocess", "data.normalize", "model.forward_eval"}

    def setup(self) -> None:
        spec = dat.SynthSpec(
            num_classes=self.classes, per_class=BATCH // self.classes,
            resolution=self.resolution, seed=self.seed,
        )
        self.manifest = dat.synth_dataset(spec, self.work / "eval")
        # identity branch gates, so every block's arithmetic reaches the probe's logits
        config = replace(
            mdl.preset_config("vit-t", image_size=self.resolution, num_classes=self.classes),
            layerscale_init=1.0,
        )
        params = mdl.init(config, Rng(derive_seed(self.seed, dat.TAG_INIT)))
        path = self.work / "vit-t-96.ckpt"
        block = {f"model.{k}": v for k, v in trn.mdl_config_dict(config).items()}
        ckpt.save_checkpoint(path, block, ckpt.pack_training_state(params))
        self.config, self.params, _, _ = trn.load_model(path)
        self.accuracy = trn.evaluate(self.config, self.params, self.manifest)

    def measure(self, tracer) -> None:
        t_start = now()
        while len(self.blocks) < 2 or now() - t_start < self.seconds:  # a traced run needs 2
            unit = len(self.blocks)
            self.calibrate_unit()
            traced = begin_unit(tracer, unit)
            t0 = now()
            accuracy = trn.evaluate(self.config, self.params, self.manifest)
            seconds = now() - t0
            self.record_unit(unit, traced, seconds)
            self.blocks.append((seconds, unit))
            self.attempted += 1
            if accuracy != self.accuracy:
                self.fail(1, f"batch {unit}: accuracy {accuracy} != warm pass {self.accuracy}")
        end_units(tracer)
        self.calibrate_unit()
        self.peak_rss = peak_rss_mib()
        self.images = len(self.blocks) * BATCH
        self.latencies = self.blocks

    def check(self) -> None:
        images = np.stack([
            dat.normalize(aug.eval_preprocess(
                dat.load_image(self.manifest.image_path(i)), self.resolution, 1.0
            ))
            for i in range(self.probe_images)
        ])
        logits = mdl.forward(self.config, self.params, Tensor(images), mode="eval").data
        params64 = {k: Tensor(p.data, dtype=np.float64) for k, p in self.params.items()}
        reference = mdl.forward(
            self.config, params64, Tensor(images, dtype=np.float64), mode="eval"
        ).data
        gap = float(np.abs(logits.astype(np.float64) - reference).max())
        self.info.append(f"probe logits: max |f32 - f64| = {gap:.3g} (tolerance {self.probe_atol})")
        if logits.dtype != np.float32 or not gap <= self.probe_atol:
            self.fail(self.attempted, f"f32 probe logits differ from f64 by {gap}")


# -- augment-224 ---------------------------------------------------------------------------------


class Augment224(Workload):
    """The in1k train-time input path at 224 px from 256 px IMG1 files, no
    model: per sample `data.load_image`, `training.augment_train_sample`
    (RRC and 3-Augment) and `data.normalize`; per batch of 64, the
    mixup/cutmix dispatch. A unit is one batch."""

    name = "augment-224"
    names = ("aug_samples_per_s", "aug_sample_ms_p50")
    items_per_unit = BATCH
    sources = 32
    phases = {"data.load_image", "training.augment_train_sample", "data.normalize", "augment.mix"}

    def __init__(self, *args):
        super().__init__(*args)
        self.probe_shas = set()  # one per set-up; all must equal the recorded one

    def setup(self) -> None:
        self.recipe = replace(cfg.preset("in1k"), seed=self.seed)
        self.policy = trn.policy_from_recipe(self.recipe)
        spec = dat.SynthSpec(num_classes=4, per_class=self.sources // 4, resolution=256,
                             seed=self.seed)
        self.manifest = dat.synth_dataset(spec, self.work / "aug")
        # the warm pass is the byte-exact probe: fixed inputs, fixed seed
        probe_spec = dat.SynthSpec(num_classes=4, per_class=4, resolution=256, seed=0)
        probe = dat.synth_dataset(probe_spec, self.work / "probe")
        digest = hashlib.sha256()
        for i in range(BATCH):
            img = dat.load_image(probe.image_path(i % len(probe)))
            out = trn.augment_train_sample(
                img, self.policy, True, Rng(dat.per_sample_seed(0, 0, i))
            )
            dat.normalize(out)
            digest.update(out.pixels.tobytes())
        self.probe_shas.add(digest.hexdigest())

    def sample(self, index: int):
        img = dat.load_image(self.manifest.image_path(index % len(self.manifest)))
        rng = Rng(dat.per_sample_seed(self.seed, 0, index))
        out = trn.augment_train_sample(img, self.policy, self.recipe.three_augment, rng)
        return out, dat.normalize(out), self.manifest.label(index % len(self.manifest))

    def measure(self, tracer) -> None:
        res = self.policy.train_resolution
        batches = 0
        t_start = now()
        while batches < 2 or now() - t_start < self.seconds:
            self.calibrate_unit()
            traced = begin_unit(tracer, batches)
            t0 = now()
            images = np.empty((BATCH, 3, res, res), dtype=np.float32)
            labels = np.empty(BATCH, dtype=np.int64)
            bad = 0
            for row in range(BATCH):
                ts = now()
                out, images[row], labels[row] = self.sample(batches * BATCH + row)
                self.latencies.append((now() - ts, batches))
                bad += out.pixels.shape != (res, res, 3)
            targets = trn.one_hot(labels, self.manifest.num_classes)
            rng = Rng(derive_seed(self.seed, dat.TAG_MIX, 0, batches))
            kind = aug.mix_dispatch(self.policy, rng)
            mix = aug.mixup if kind == "mixup" else aug.cutmix
            alpha = self.policy.mixup_alpha if kind == "mixup" else self.policy.cutmix_alpha
            images, targets = mix(images, images[::-1].copy(), targets, targets[::-1].copy(),
                                  alpha, rng)
            seconds = now() - t0
            self.record_unit(batches, traced, seconds)
            self.blocks.append((seconds, batches))
            batches += 1
            self.attempted += BATCH
            if bad or not (np.isfinite(images).all() and np.allclose(targets.sum(axis=1), 1.0)):
                self.fail(BATCH, f"batch {batches - 1}: bad crop size or non-finite mix")
        end_units(tracer)
        self.calibrate_unit()
        self.peak_rss = peak_rss_mib()
        self.images = len(self.latencies)
        sample_s = [seconds for seconds, _ in self.latencies]
        self.report["aug_sample_ms_p99"] = (1e3 * float(np.percentile(sample_s, 99)), "ms")
        self.info.append(f"{len(sample_s)} samples timed, {len(sample_s) // 100} beyond p99")

    def check(self) -> None:
        recorded = json.loads((Path(__file__).parent / "expected.json").read_text(encoding="utf-8"))
        expected = recorded["augment-224"]["probe_sha256"]
        self.info.append(f"augment probe sha256 {' '.join(sorted(self.probe_shas))}")
        if self.probe_shas != {expected}:
            self.fail(self.attempted, f"probe sha256 {sorted(self.probe_shas)} != {expected}")


WORKLOADS = {w.name: w for w in (ToyTrain, EvalVitT96, Augment224)}
