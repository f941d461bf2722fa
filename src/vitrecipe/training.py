"""Training, finetuning, and evaluation flows.

One function per flow, all deterministic given (recipe, manifest, seed):
the parameter init, every augmentation draw, the per-batch mix choice,
and the stochastic-depth masks each derive from the global seed through
their own tagged chain, so two runs produce byte-identical checkpoints.

Metrics go to a CSV ("epoch,step,lr,train_loss,train_acc,val_acc,
wall_seconds"). The effective run, as `resolve_run` returns it, is recorded
once by `run_record`: as '#' comment lines above the CSV header and as the
checkpoint's config block. A non-finite loss aborts the run naming the step.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Dict, Optional, Tuple, Union, get_type_hints

import numpy as np

from . import augment as aug
from . import data as dat
from . import model as mdl
from . import numerics as nm
from . import optim as opt
from .checkpoint import load_checkpoint, pack_training_state, save_checkpoint, unpack_training_state
from .config import RecipeConfig
from .errors import ContractError, FormatError, ParameterError
from .numerics import Tensor
from .rng import Rng, derive_seed

METRICS_HEADER = "epoch,step,lr,train_loss,train_acc,val_acc,wall_seconds"


@dataclass
class TrainResult:
    checkpoint_path: Path
    metrics_path: Path
    final_train_acc: Optional[float]
    final_val_acc: Optional[float]
    steps: int
    pos_grid: tuple


def policy_from_recipe(recipe: RecipeConfig) -> aug.AugmentPolicy:
    return aug.AugmentPolicy(
        color_jitter_strength=recipe.color_jitter,
        hflip_prob=0.5 if recipe.hflip else 0.0,
        crop_mode=recipe.crop_mode,
        mixup_alpha=recipe.mixup_alpha,
        cutmix_alpha=recipe.cutmix_alpha,
        train_resolution=recipe.train_resolution,
    )


def train_crop(img: aug.ImageU8, policy: aug.AugmentPolicy, rng: Rng) -> aug.ImageU8:
    """Geometric crop to the train resolution, RRC or SRC by the policy."""
    crop = aug.random_resized_crop if policy.crop_mode == "rrc" else aug.simple_random_crop
    return crop(img, policy.train_resolution, rng)


def augment_train_sample(
    img: aug.ImageU8, policy: aug.AugmentPolicy, use_three_augment: bool, rng: Rng
) -> aug.ImageU8:
    """Geometric crop to the train resolution, then the photometric stack
    (which also owns the horizontal flip)."""
    out = train_crop(img, policy, rng)
    if use_three_augment:
        return aug.three_augment(out, policy, rng)
    if rng.uniform() < policy.hflip_prob:
        out = aug.hflip(out)
    return out


class _ImageCache:
    """Decoded-image cache; datasets here are desk-scale, so unbounded."""

    def __init__(self, manifest: dat.DatasetManifest):
        self.manifest = manifest
        self._images: Dict[int, aug.ImageU8] = {}

    def image(self, index: int) -> aug.ImageU8:
        if index not in self._images:
            self._images[index] = dat.load_image(self.manifest.image_path(index))
        return self._images[index]


def one_hot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    out = np.zeros((len(labels), num_classes), dtype=np.float32)
    out[np.arange(len(labels)), labels] = 1.0
    return out


def _assemble_batch(
    cache: _ImageCache,
    indices,
    recipe: RecipeConfig,
    policy: aug.AugmentPolicy,
    epoch: int,
):
    """Augmented, standardized (B, 3, R, R) batch plus one-hot targets.

    Repeated occurrences of an index inside one batch get their own
    sub-seed, so the three repeated-aug copies differ."""
    images = np.empty(
        (len(indices), 3, recipe.train_resolution, recipe.train_resolution), dtype=np.float32
    )
    labels = np.empty(len(indices), dtype=np.int64)
    seen: Dict[int, int] = {}
    for row, idx in enumerate(indices):
        occurrence = seen.get(idx, 0)
        seen[idx] = occurrence + 1
        seed = dat.per_sample_seed(recipe.seed, epoch, idx)
        if recipe.repeated_aug:
            seed = dat.repeat_seed(seed, occurrence)
        out = augment_train_sample(
            cache.image(idx), policy, recipe.three_augment, Rng(seed)
        )
        images[row] = dat.normalize(out)
        labels[row] = cache.manifest.label(idx)
    return images, one_hot(labels, cache.manifest.num_classes)


def _apply_mix(images, targets, policy: aug.AugmentPolicy, rng: Rng):
    kind = aug.mix_dispatch(policy, rng)
    if kind == "none":
        return images, targets
    partner_images = images[::-1].copy()
    partner_targets = targets[::-1].copy()
    if kind == "mixup":
        return aug.mixup(images, partner_images, targets, partner_targets, policy.mixup_alpha, rng)
    return aug.cutmix(images, partner_images, targets, partner_targets, policy.cutmix_alpha, rng)


def _loss_fn(recipe: RecipeConfig, logits: Tensor, targets: np.ndarray) -> Tensor:
    if recipe.loss == "bce":
        return opt.bce_loss(logits, targets)
    return opt.ce_smoothed_loss(logits, targets, recipe.label_smoothing)


def resolve_run(
    recipe: RecipeConfig, base: mdl.ViTConfig
) -> Tuple[mdl.ViTConfig, RecipeConfig]:
    """The effective (model, recipe) of a run, resolved in this one place.

    `base` is the model as built: a preset or explicit config at the train
    resolution, or a loaded checkpoint at the new resolution. An explicit
    `recipe.drop_path` replaces its drop-path rate, then the long-run rule
    scales drop path and weight decay from the epoch budget. The returned
    recipe carries the scaled weight decay and agrees with the model on the
    train and eval resolutions (`evaluate` runs at the model's `image_size`)
    and the LayerScale init, so `run_record` of the pair describes the run as
    it was trained and evaluated."""
    base_drop_path = base.drop_path_rate if recipe.drop_path is None else recipe.drop_path
    drop_path, weight_decay = opt.scale_regularization(
        base_drop_path, recipe.weight_decay, recipe.epochs
    )
    config = replace(base, drop_path_rate=drop_path)
    recipe = replace(
        recipe,
        weight_decay=weight_decay,
        train_resolution=config.image_size,
        eval_resolution=config.image_size,
        layerscale_init=config.layerscale_init,
    )
    return config, recipe


def run_record(config: mdl.ViTConfig, recipe: RecipeConfig) -> Dict[str, object]:
    """`model.<field>` and `recipe.<field>` for every field of both configs."""
    record: Dict[str, object] = {f"model.{k}": v for k, v in mdl_config_dict(config).items()}
    record.update((f"recipe.{f.name}", getattr(recipe, f.name)) for f in fields(recipe))
    return record


def evaluate(
    config: mdl.ViTConfig,
    params: mdl.ViTParams,
    manifest: dat.DatasetManifest,
    crop_ratio: float = 1.0,
    batch_size: int = 64,
    cache: Optional[Dict[int, np.ndarray]] = None,
) -> float:
    """Deterministic center-crop top-1 accuracy over the manifest.

    The forward runs on an untracked view of `params` (same arrays, no
    `requires_grad`), so no op records a tape node and each intermediate is
    freed once the next op has read it. The logits are the tracked
    forward's, bit for bit."""
    if manifest.num_classes != config.num_classes:
        raise ContractError(
            f"dataset has {manifest.num_classes} classes, model expects {config.num_classes}"
        )
    n = len(manifest)
    if n == 0:
        raise ContractError("evaluate: the manifest has no entries")
    if batch_size < 1:
        raise ParameterError(f"evaluate: batch_size must be at least 1, got {batch_size}")
    view = {name: Tensor(p.data) for name, p in params.items()}
    correct = 0
    for start in range(0, n, batch_size):
        idxs = range(start, min(start + batch_size, n))
        rows = []
        for i in idxs:
            if cache is not None and i in cache:
                rows.append(cache[i])
                continue
            img = dat.load_image(manifest.image_path(i))
            prepared = dat.normalize(aug.eval_preprocess(img, config.image_size, crop_ratio))
            if cache is not None:
                cache[i] = prepared
            rows.append(prepared)
        logits = mdl.forward(config, view, Tensor(np.stack(rows)), mode="eval")
        preds = logits.data.argmax(axis=1)
        labels = np.array([manifest.label(i) for i in idxs])
        correct += int((preds == labels).sum())
    return correct / n


def _run_training(
    recipe: RecipeConfig,
    manifest: dat.DatasetManifest,
    config: mdl.ViTConfig,
    params: mdl.ViTParams,
    out_dir: Path,
    extra_header: Optional[Dict[str, object]] = None,
    val_manifest: Optional[dat.DatasetManifest] = None,
    eval_every: int = 1,
) -> TrainResult:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    metrics_path = out_dir / "metrics.csv"
    checkpoint_path = out_dir / "checkpoint.ckpt"

    if recipe.repeated_aug:
        sampler = dat.RepeatedAugSampler(batch_size=recipe.batch_size, seed=recipe.seed)
    else:
        sampler = dat.PlainSampler(batch_size=recipe.batch_size, seed=recipe.seed)
    steps_per_epoch = len(dat.batches(manifest, sampler, epoch=0))
    if steps_per_epoch == 0:
        raise ParameterError(
            "dataset too small for one full batch under the repeated-aug sampler"
        )
    schedule = opt.ScheduleConfig(
        base_lr=recipe.lr,
        warmup_epochs=recipe.warmup_epochs,
        total_epochs=recipe.epochs,
        steps_per_epoch=steps_per_epoch,
    )
    policy = policy_from_recipe(recipe)
    state = opt.init_lamb_state(params)
    cache = _ImageCache(manifest)
    eval_cache: Dict[int, np.ndarray] = {}
    val_cache: Dict[int, np.ndarray] = {}
    record = run_record(config, recipe)
    header_info = dict(record, steps_per_epoch=steps_per_epoch, **(extra_header or {}))

    start_time = time.monotonic()
    final_train_acc: Optional[float] = None
    final_val_acc: Optional[float] = None
    with metrics_path.open("w", encoding="utf-8") as metrics:
        for key, value in header_info.items():
            metrics.write(f"# {key}={value}\n")
        metrics.write(METRICS_HEADER + "\n")
        global_step = 0
        for epoch in range(recipe.epochs):
            epoch_batches = dat.batches(manifest, sampler, epoch)
            for step, indices in enumerate(epoch_batches):
                lr = opt.cosine_lr(schedule, global_step)
                images, targets = _assemble_batch(cache, indices, recipe, policy, epoch)
                mix_rng = Rng(derive_seed(recipe.seed, dat.TAG_MIX, epoch, step))
                images, targets = _apply_mix(images, targets, policy, mix_rng)
                drop_rng = Rng(derive_seed(recipe.seed, dat.TAG_DROP, epoch, step))
                logits = mdl.forward(config, params, Tensor(images), mode="train", rng=drop_rng)
                loss = _loss_fn(recipe, logits, targets)
                loss_value = float(loss.data)
                if not np.isfinite(loss_value):
                    raise ContractError(
                        f"non-finite loss at epoch {epoch} step {step} "
                        f"(global step {global_step}); aborting"
                    )
                nm.backward(loss)
                grads = {
                    name: (p.grad if p.grad is not None else np.zeros_like(p.data))
                    for name, p in params.items()
                }
                grads = opt.grad_clip_global_norm(grads, recipe.grad_clip)
                opt.lamb_step(params, grads, state, lr, recipe.weight_decay)
                for p in params.values():
                    p.zero_grad()

                last_of_epoch = step == len(epoch_batches) - 1
                train_acc_s = ""
                val_acc_s = ""
                if last_of_epoch and eval_every > 0 and (epoch + 1) % eval_every == 0:
                    final_train_acc = evaluate(
                        config, params, manifest, recipe.test_crop_ratio, cache=eval_cache
                    )
                    train_acc_s = repr(final_train_acc)
                    if val_manifest is not None:
                        final_val_acc = evaluate(
                            config, params, val_manifest, recipe.test_crop_ratio, cache=val_cache
                        )
                        val_acc_s = repr(final_val_acc)
                wall = time.monotonic() - start_time
                metrics.write(
                    f"{epoch},{global_step},{lr!r},{loss_value!r},"
                    f"{train_acc_s},{val_acc_s},{wall:.3f}\n"
                )
                global_step += 1

    save_checkpoint(checkpoint_path, record, pack_training_state(params, state))
    return TrainResult(
        checkpoint_path=checkpoint_path,
        metrics_path=metrics_path,
        final_train_acc=final_train_acc,
        final_val_acc=final_val_acc,
        steps=recipe.epochs * steps_per_epoch,
        pos_grid=(config.grid, config.grid),
    )


def mdl_config_dict(config: mdl.ViTConfig) -> Dict[str, object]:
    return {f.name: getattr(config, f.name) for f in fields(config)}


def config_from_block(block: Dict[str, str]) -> mdl.ViTConfig:
    types = get_type_hints(mdl.ViTConfig)
    values = {}
    for f in fields(mdl.ViTConfig):
        key = f"model.{f.name}"
        try:
            values[f.name] = types[f.name](block[key])
        except KeyError:
            raise FormatError(f"checkpoint config block missing {key!r}") from None
        except ValueError as exc:
            raise FormatError(f"checkpoint config block: malformed {key}={block[key]!r}") from exc
    return mdl.ViTConfig(**values)


def load_model(path):
    """Checkpoint -> (ViTConfig, params, optional LambState, config block)."""
    block, arrays = load_checkpoint(path)
    config = config_from_block(block)
    params, state = unpack_training_state(arrays)
    return config, params, state, block


def train(
    recipe: RecipeConfig,
    manifest: dat.DatasetManifest,
    model: Union[str, mdl.ViTConfig],
    out_dir,
    val_manifest: Optional[dat.DatasetManifest] = None,
    eval_every: int = 1,
) -> TrainResult:
    """From-scratch training; `model` is a preset name or explicit config."""
    if isinstance(model, str):
        model = mdl.preset_config(model, dataset=recipe.dataset)
    # the branch-gate init is a recipe knob; "off" means gates start at identity
    base = replace(
        model,
        image_size=recipe.train_resolution,
        num_classes=manifest.num_classes,
        layerscale_init=recipe.layerscale_init if recipe.layerscale else 1.0,
    )
    config, recipe = resolve_run(recipe, base)
    params = mdl.init(config, Rng(derive_seed(recipe.seed, dat.TAG_INIT)))
    return _run_training(
        recipe, manifest, config, params, out_dir, val_manifest=val_manifest, eval_every=eval_every
    )


def finetune(
    checkpoint_path,
    recipe: RecipeConfig,
    manifest: dat.DatasetManifest,
    new_resolution: int,
    out_dir,
    val_manifest: Optional[dat.DatasetManifest] = None,
    eval_every: int = 1,
) -> TrainResult:
    """Resume from a checkpoint at a new resolution: the positional grid
    is bicubically resampled, the optimizer starts fresh, and training
    proceeds under the given recipe at new_resolution."""
    loaded_config, params, _, _ = load_model(checkpoint_path)
    if manifest.num_classes != loaded_config.num_classes:
        raise FormatError(
            f"checkpoint head has {loaded_config.num_classes} classes, "
            f"dataset has {manifest.num_classes}"
        )
    params = mdl.interpolate_pos_embed(params, new_resolution, loaded_config.patch_size)
    config, recipe = resolve_run(recipe, replace(loaded_config, image_size=new_resolution))
    grids = f"{loaded_config.grid}x{loaded_config.grid}->{config.grid}x{config.grid}"
    return _run_training(
        recipe,
        manifest,
        config,
        params,
        out_dir,
        extra_header={"pos_grid": grids},
        val_manifest=val_manifest,
        eval_every=eval_every,
    )
