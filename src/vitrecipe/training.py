"""Training, finetuning, and evaluation flows.

One function per flow, all deterministic given (recipe, manifest, seed):
the parameter init, every augmentation draw, the per-batch mix choice,
and the stochastic-depth masks each derive from the global seed through
their own tagged chain, so two runs produce byte-identical checkpoints.

Metrics go to a CSV ("epoch,step,lr,train_loss,train_acc,val_acc,
wall_seconds"). The effective run, as `resolve_run` returns it, is recorded
once by `run_record`: as '#' comment lines above the CSV header and as the
checkpoint's config block. Each step is one `train_step`, and LAMB's count
is the run's step. A non-finite loss aborts the run naming the step.

One loader process per run builds the batches, one step ahead of the
optimizer; every batch is a pure function of (seed, epoch, step), so the
bytes are those of the single-process stream.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import multiprocessing as mp
import platform
import signal
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
from .checkpoint import load_checkpoint, pack_training_state, save_checkpoint
from .checkpoint import unpack_training_state
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


def policy_from_recipe(recipe: RecipeConfig) -> RecipeConfig:
    """The recipe itself: the augmentation functions read it. Kept only for
    the benchmark in perfbench/, which still calls it."""
    return recipe


def schedule_from_recipe(recipe: RecipeConfig, steps_per_epoch: int) -> opt.ScheduleConfig:
    return opt.ScheduleConfig(
        base_lr=recipe.lr,
        warmup_epochs=recipe.warmup_epochs,
        total_epochs=recipe.epochs,
        steps_per_epoch=steps_per_epoch,
    )


def augment_seed(recipe: RecipeConfig, epoch: int, idx: int, occurrence: int = 0) -> int:
    """Augmentation seed of the `occurrence`-th copy of sample `idx` in a batch of
    `epoch`; with repeated aug on, each copy gets its own, so the copies differ."""
    seed = dat.per_sample_seed(recipe.seed, epoch, idx)
    return dat.repeat_seed(seed, occurrence) if recipe.repeated_aug else seed


def augment_train_sample_traced(
    img: aug.ImageU8, recipe: RecipeConfig, use_three_augment: bool, rng: Rng
) -> Tuple[aug.ImageU8, Optional[int]]:
    """Geometric crop to the train resolution (RRC or SRC by the recipe), then
    3-Augment when on, then the horizontal flip, which is drawn here alone,
    also when `recipe.hflip` is off; also the 3-Augment branch that fired,
    None with 3-Augment off."""
    crop = aug.random_resized_crop if recipe.crop_mode == "rrc" else aug.simple_random_crop
    out, branch = crop(img, recipe.train_resolution, rng), None
    if use_three_augment:
        out, branch = aug.three_augment_traced(out, recipe, rng)
    if rng.uniform() < RecipeConfig.hflip_prob and recipe.hflip:
        out = aug.hflip(out)
    return out, branch


def augment_train_sample(
    img: aug.ImageU8, recipe: RecipeConfig, use_three_augment: bool, rng: Rng
) -> aug.ImageU8:
    return augment_train_sample_traced(img, recipe, use_three_augment, rng)[0]


def one_hot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    out = np.zeros((len(labels), num_classes), dtype=np.float32)
    out[np.arange(len(labels)), labels] = 1.0
    return out


def _assemble_batch(manifest: dat.DatasetManifest, indices, recipe: RecipeConfig, epoch: int):
    """Augmented, standardized (B, 3, R, R) batch plus one-hot targets.

    Each occurrence of an index inside one batch is seeded by
    `augment_seed`. Each distinct index is decoded once, its copies share
    that image, and no decoded image outlives the batch."""
    r = recipe.train_resolution
    images = np.empty((len(indices), 3, r, r), dtype=np.float32)
    labels = np.empty(len(indices), dtype=np.int64)
    seen: Dict[int, int] = {}
    decoded: Dict[int, aug.ImageU8] = {}
    for row, idx in enumerate(indices):
        occurrence = seen.get(idx, 0)
        seen[idx] = occurrence + 1
        if idx not in decoded:
            decoded[idx] = dat.load_image(manifest.image_path(idx))
        rng = Rng(augment_seed(recipe, epoch, idx, occurrence))
        out = augment_train_sample(decoded[idx], recipe, recipe.three_augment, rng)
        dat.normalize(out, images[row])
        labels[row] = manifest.label(idx)
    return images, one_hot(labels, manifest.num_classes)


def _apply_mix(images, targets, recipe: RecipeConfig, rng: Rng):
    kind = aug.mix_dispatch(recipe, rng)
    if kind == "none":
        return images, targets
    # each sample's partner is its mirror, a view: both mixes accept it
    partner_images, partner_targets = images[::-1], targets[::-1]
    if kind == "mixup":
        return aug.mixup(images, partner_images, targets, partner_targets, recipe.mixup_alpha, rng)
    return aug.cutmix(images, partner_images, targets, partner_targets, recipe.cutmix_alpha, rng)


def _load_batches(sender, receiver, manifest, recipe: RecipeConfig) -> None:
    """The loader process: every step's mixed targets and then its images, in
    (epoch, step) order, sent to the trainer; an exception is sent in their
    place. The images go as their own bytes (`send_bytes`), not pickled, and
    each batch is dropped before the next is made, so the loader holds one.

    A blocking send holds at most one finished batch, so the loader runs
    one step ahead. It closes its copy of the trainer's end, so a trainer
    that dies fails the send instead of leaving it blocked, and ignores
    SIGINT: the trainer ends this process on every exit path."""
    receiver.close()
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    try:
        for epoch in range(recipe.epochs):
            epoch_batches = dat.batches(
                manifest, recipe.batch_size, recipe.seed, epoch, recipe.repeated_aug
            )
            for step, indices in enumerate(epoch_batches):
                images, targets = _assemble_batch(manifest, indices, recipe, epoch)
                mix_rng = Rng(derive_seed(recipe.seed, dat.TAG_MIX, epoch, step))
                images, targets = _apply_mix(images, targets, recipe, mix_rng)
                sender.send(targets)
                sender.send_bytes(images)
                del images, targets
    except Exception as exc:
        sender.send(exc)


@contextlib.contextmanager
def _batch_loader(manifest, recipe: RecipeConfig):
    """Start the loader process and yield `receive(epoch, step)`, which
    returns that step's batch or raises there what stopped the loader. The
    images are a read-only view of the bytes received. The process is ended
    on every exit path."""
    if mp.current_process().daemon:
        raise ContractError(
            "the batch loader process cannot start under a daemonic parent process "
            "(such as a multiprocessing.Pool worker); run train or finetune outside one"
        )
    receiver, sender = mp.Pipe(duplex=False)
    loader = mp.Process(
        target=_load_batches, args=(sender, receiver, manifest, recipe),
        name="vitrecipe-loader",
    )
    loader.start()
    sender.close()  # else a loader that dies leaves `recv` waiting on this copy

    def receive(epoch: int, step: int):
        def read(recv):
            try:
                return recv()
            except EOFError:
                loader.join()
                raise ContractError(
                    f"the batch loader exited with code {loader.exitcode} before sending "
                    f"epoch {epoch} step {step}"
                ) from None

        targets = read(receiver.recv)
        if isinstance(targets, Exception):
            raise targets
        images = np.frombuffer(read(receiver.recv_bytes), np.float32)
        r = recipe.train_resolution
        return images.reshape(len(targets), 3, r, r), targets

    try:
        yield receive
    finally:
        loader.terminate()
        loader.join()
        receiver.close()


def _loss_fn(recipe: RecipeConfig, logits: Tensor, targets: np.ndarray) -> Tensor:
    if recipe.loss == "bce":
        return opt.bce_loss(logits, targets)
    return opt.ce_smoothed_loss(logits, targets, recipe.label_smoothing)


def resolve_run(
    recipe: RecipeConfig, base: mdl.ViTConfig
) -> Tuple[mdl.ViTConfig, RecipeConfig]:
    """The effective (model, recipe) of a run, resolved in this one place.

    `base` is the model as built at `recipe.train_resolution`: a preset or
    explicit config, or a loaded checkpoint. An explicit `recipe.drop_path`
    replaces its drop-path rate, then the long-run rule scales drop path and
    weight decay from the epoch budget. The returned recipe carries the
    unscaled drop-path rate and the scaled weight decay, and agrees with the
    model on the eval resolution (`evaluate` runs at the model's
    `image_size`) and the LayerScale init, so `run_record` of the pair
    describes the run as it was trained and evaluated."""
    base_drop_path = base.drop_path_rate if recipe.drop_path is None else recipe.drop_path
    drop_path, weight_decay = opt.scale_regularization(
        base_drop_path, recipe.weight_decay, recipe.epochs
    )
    config = replace(base, drop_path_rate=drop_path)
    recipe = replace(
        recipe,
        drop_path=base_drop_path,
        weight_decay=weight_decay,
        eval_resolution=config.image_size,
        layerscale_init=config.layerscale_init,
    )
    return config, recipe


def run_record(config: mdl.ViTConfig, recipe: RecipeConfig) -> Dict[str, object]:
    """`model.<field>` and `recipe.<field>` for every field of both configs."""
    record: Dict[str, object] = {f"model.{k}": v for k, v in mdl_config_dict(config).items()}
    record.update((f"recipe.{f.name}", getattr(recipe, f.name)) for f in fields(recipe))
    return record


def _check_eval_manifest(config: mdl.ViTConfig, manifest: dat.DatasetManifest) -> None:
    if manifest.num_classes != config.num_classes:
        raise ContractError(
            f"dataset has {manifest.num_classes} classes, model expects {config.num_classes}"
        )
    if len(manifest) == 0:
        raise ContractError("evaluate: the manifest has no entries")


def evaluate(
    config: mdl.ViTConfig,
    params: mdl.ViTParams,
    manifest: dat.DatasetManifest,
    crop_ratio: float = 1.0,
    batch_size: int = 64,
) -> float:
    """Deterministic center-crop top-1 accuracy over the manifest.

    Each batch's images are loaded and standardized into it when it runs,
    and nothing is kept between batches or calls, so memory is bounded by the
    model and one batch, whatever the manifest's length. The forward runs
    on an untracked view of `params` (same arrays, no `requires_grad`), so
    no op records a tape node and each intermediate is freed once the next
    op has read it. The logits are the tracked forward's, bit for bit.
    Like `train`, it keeps freed memory in the process (`_keep_freed_memory`),
    so each batch reuses the last one's pages instead of faulting in new ones."""
    _check_eval_manifest(config, manifest)
    n = len(manifest)
    if batch_size < 1:
        raise ParameterError(f"evaluate: batch_size must be at least 1, got {batch_size}")
    if not 0.0 < crop_ratio <= 1.0:
        raise ParameterError(f"evaluate: crop_ratio must lie in (0, 1], got {crop_ratio}")
    _keep_freed_memory()
    view = {name: Tensor(p.data) for name, p in params.items()}
    correct = 0
    for start in range(0, n, batch_size):
        idxs = range(start, min(start + batch_size, n))
        images = np.empty((len(idxs), 3, config.image_size, config.image_size), dtype=np.float32)
        for row, i in enumerate(idxs):
            img = dat.load_image(manifest.image_path(i))
            dat.normalize(aug.eval_preprocess(img, config.image_size, crop_ratio), images[row])
        logits = mdl.forward(config, view, Tensor(images), mode="eval")
        preds = logits.data.argmax(axis=1)
        labels = np.array([manifest.label(i) for i in idxs])
        correct += int((preds == labels).sum())
    return correct / n


# glibc's M_TRIM_THRESHOLD and M_MMAP_THRESHOLD (<malloc.h>), both set to 1 GiB:
# above every array of a ViT-S/16 step at 224 px and batch 64 (the largest is 77 MB)
_MALLOPT_PARAMS, _KEEP_FREED_BYTES = (-1, -3), 1 << 30


@functools.cache
def _keep_freed_memory() -> None:
    """Keep the memory each backward or batch frees in this process for the
    next forward; at glibc's defaults it goes back to the OS and is faulted
    in again. Only this process's allocator changes (a forked loader inherits
    it, a spawned one does not), once per process. Elsewhere than glibc this
    does nothing."""
    if platform.libc_ver()[0] != "glibc":
        return
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    for param in _MALLOPT_PARAMS:
        mallopt(param, _KEEP_FREED_BYTES)


def train_step(
    config: mdl.ViTConfig, recipe: RecipeConfig, params: mdl.ViTParams, state: opt.LambState,
    images: np.ndarray, targets: np.ndarray, lr: float, rng: Rng,
) -> float:
    """One recipe step on one batch, in place on params and state: the train
    forward with drop path from `rng`, the loss, backward, the clip and LAMB
    at `lr`. Returns the loss. A non-finite loss raises `ContractError`, naming
    the step, before anything changes."""
    logits = mdl.forward(config, params, Tensor(images), mode="train", rng=rng)
    loss = _loss_fn(recipe, logits, targets)
    loss_value = float(loss.data)
    if not np.isfinite(loss_value):
        raise ContractError(f"non-finite loss at step {state.step}; aborting")
    nm.backward(loss)  # frees the tape: logits and loss keep their values alone
    grads = {name: p.grad for name, p in params.items() if p.grad is not None}
    for p in params.values():
        p.zero_grad()
    grads = opt.grad_clip_global_norm(grads, recipe.grad_clip)
    opt.lamb_step(params, grads, state, lr, recipe.weight_decay)
    return loss_value


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
    if eval_every < 0:
        raise ParameterError(f"eval_every must be at least 0 (0: never), got {eval_every}")
    if val_manifest is not None:
        _check_eval_manifest(config, val_manifest)
    steps_per_epoch = dat.epoch_steps(len(manifest), recipe.batch_size, recipe.repeated_aug)
    if steps_per_epoch == 0:
        raise ParameterError(
            f"dataset too small for one batch of {recipe.batch_size}: {len(manifest)} images"
        )
    schedule = schedule_from_recipe(recipe, steps_per_epoch)
    _keep_freed_memory()
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    metrics_path = out_dir / "metrics.csv"
    checkpoint_path = out_dir / "checkpoint.ckpt"
    state = opt.init_lamb_state(params)
    record = run_record(config, recipe)
    header_info = dict(record, steps_per_epoch=steps_per_epoch, **(extra_header or {}))

    start_time = time.monotonic()
    final_train_acc: Optional[float] = None
    final_val_acc: Optional[float] = None
    with (
        _batch_loader(manifest, recipe) as receive,
        metrics_path.open("w", encoding="utf-8") as metrics,
    ):
        for key, value in header_info.items():
            metrics.write(f"# {key}={value}\n")
        metrics.write(METRICS_HEADER + "\n")
        for epoch in range(recipe.epochs):
            # each eval_every-th epoch and the last: the final accuracy is the final model's
            last = epoch == recipe.epochs - 1
            evaluates = eval_every > 0 and ((epoch + 1) % eval_every == 0 or last)
            for step in range(steps_per_epoch):
                lr = opt.cosine_lr(schedule, state.step)
                images, targets = receive(epoch, step)
                drop_rng = Rng(derive_seed(recipe.seed, dat.TAG_DROP, epoch, step))
                loss = train_step(config, recipe, params, state, images, targets, lr, drop_rng)
                train_acc_s = val_acc_s = ""
                if evaluates and step == steps_per_epoch - 1:
                    final_train_acc = evaluate(config, params, manifest, recipe.test_crop_ratio)
                    train_acc_s = repr(final_train_acc)
                    if val_manifest is not None:
                        final_val_acc = evaluate(
                            config, params, val_manifest, recipe.test_crop_ratio
                        )
                        val_acc_s = repr(final_val_acc)
                wall = time.monotonic() - start_time
                metrics.write(
                    f"{epoch},{state.step - 1},{lr!r},{loss!r},"  # LAMB counted this step
                    f"{train_acc_s},{val_acc_s},{wall:.3f}\n"
                )

    save_checkpoint(checkpoint_path, record, pack_training_state(params, state))
    return TrainResult(
        checkpoint_path=checkpoint_path,
        metrics_path=metrics_path,
        final_train_acc=final_train_acc,
        final_val_acc=final_val_acc,
        steps=state.step,
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
    # blocks written while the MLP ratio was a field record it; it must be the fixed one
    fixed = str(mdl.ViTConfig.mlp_ratio)
    if block.get("model.mlp_ratio", fixed) != fixed:
        raise FormatError(f"checkpoint config block: model.mlp_ratio={block['model.mlp_ratio']!r}, "
                          f"the model fixes {fixed}")
    try:
        return mdl.ViTConfig(**values)
    except ParameterError as exc:
        raise FormatError(f"checkpoint config block describes no valid model: {exc}") from exc


def load_model(path):
    """Checkpoint -> (ViTConfig, params, optional LambState, config block).

    The block must describe a valid model and the tensors must be exactly
    that model's, by `model.param_layout`; else FormatError names the
    checkpoint and the key or tensor at fault."""
    block, arrays = load_checkpoint(path)
    try:
        config = config_from_block(block)
        layout = mdl.param_layout(config)
        params, state = unpack_training_state(arrays, {n: s for n, (s, _) in layout.items()})
    except FormatError as exc:
        raise FormatError(f"{path}: {exc}") from exc
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
    base = replace(
        model,
        image_size=recipe.train_resolution,
        num_classes=manifest.num_classes,
        layerscale_init=recipe.layerscale_init,
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
    out_dir,
    val_manifest: Optional[dat.DatasetManifest] = None,
    eval_every: int = 1,
) -> TrainResult:
    """Resume from a checkpoint at `recipe.train_resolution`: the positional
    grid is bicubically resampled, the optimizer starts fresh, and training
    proceeds under the given recipe. With no `recipe.drop_path`, the base
    rate is the checkpoint's recorded `recipe.drop_path`, which the
    long-run rule then scales for this run."""
    loaded_config, params, _, block = load_model(checkpoint_path)
    if manifest.num_classes != loaded_config.num_classes:
        raise FormatError(
            f"checkpoint head has {loaded_config.num_classes} classes, "
            f"dataset has {manifest.num_classes}"
        )
    if recipe.drop_path is None:
        text = block.get("recipe.drop_path")
        try:
            recipe = replace(recipe, drop_path=float(text))
        except (TypeError, ValueError) as exc:  # ParameterError: outside [0, 1)
            raise FormatError(
                f"checkpoint config block: missing or malformed recipe.drop_path={text!r}"
            ) from exc
    params = mdl.interpolate_pos_embed(params, recipe.train_resolution, loaded_config.patch_size)
    config, recipe = resolve_run(recipe, replace(loaded_config, image_size=recipe.train_resolution))
    grids = f"{loaded_config.grid}x{loaded_config.grid}->{config.grid}x{config.grid}"
    return _run_training(
        recipe, manifest, config, params, out_dir, extra_header={"pos_grid": grids},
        val_manifest=val_manifest, eval_every=eval_every,
    )
