"""Command-line entry points.

Subcommands: train, finetune, eval, augment-preview, schedule-dump,
flops, synth-data. Recipes come from --preset / --config / repeated
--override key=value flags (later wins).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from . import data as dat
from . import model as mdl
from . import optim as opt
from . import training as trn
from .config import PRESET_NAMES, RecipeConfig, load_recipe
from .errors import ParameterError
from .rng import Rng


def _recipe_from_args(args) -> RecipeConfig:
    recipe = load_recipe(
        config_path=args.config, preset_name=args.preset, overrides=args.override
    )
    if args.seed is not None:
        recipe = replace(recipe, seed=args.seed)
    return recipe


def _add_recipe_flags(p: argparse.ArgumentParser, default_preset=None):
    p.add_argument("--config", type=Path, default=None, help="flat key=value recipe file")
    p.add_argument(
        "--preset", choices=PRESET_NAMES, default=default_preset, help="named recipe preset"
    )
    p.add_argument(
        "--override",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override one recipe key (repeatable)",
    )
    p.add_argument("--seed", type=int, default=None, help="global seed (overrides recipe)")


def _cmd_train(args) -> int:
    recipe = _recipe_from_args(args)
    manifest = dat.load_manifest(args.data)
    result = trn.train(recipe, manifest, args.model, args.out)
    print(f"checkpoint: {result.checkpoint_path}")
    print(f"metrics: {result.metrics_path}")
    if result.final_train_acc is not None:
        print(f"final_train_acc: {result.final_train_acc:.4f}")
    return 0


def _cmd_finetune(args) -> int:
    recipe = replace(_recipe_from_args(args), train_resolution=args.resolution)
    manifest = dat.load_manifest(args.data)
    result = trn.finetune(args.checkpoint, recipe, manifest, args.out)
    print(f"pos_grid: {result.pos_grid[0]}x{result.pos_grid[1]}")
    print(f"checkpoint: {result.checkpoint_path}")
    print(f"metrics: {result.metrics_path}")
    if result.final_train_acc is not None:
        print(f"final_train_acc: {result.final_train_acc:.4f}")
    return 0


def _cmd_eval(args) -> int:
    config, params, _, _ = trn.load_model(args.checkpoint)
    manifest = dat.load_manifest(args.data)
    acc = trn.evaluate(config, params, manifest, crop_ratio=args.crop_ratio)
    print(f"top1_accuracy={acc:.6f} n={len(manifest)} crop_ratio={args.crop_ratio}")
    return 0


def _cmd_augment_preview(args) -> int:
    if args.count < 1:
        raise ParameterError(f"--count must be at least 1, got {args.count}")
    recipe = _recipe_from_args(args)
    manifest = dat.load_manifest(args.data)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    count = min(args.count, len(manifest))
    for i in range(count):
        img = dat.load_image(manifest.image_path(i))
        rng = Rng(trn.augment_seed(recipe, 0, i))
        out, branch = trn.augment_train_sample_traced(img, recipe, recipe.three_augment, rng)
        suffix = "" if branch is None else f"_branch{branch}"
        name = f"sample{i:04d}_seed{recipe.seed:016x}{suffix}.img1"
        dat.save_image(out, out_dir / name)
        print(name)
    return 0


def _cmd_schedule_dump(args) -> int:
    recipe = _recipe_from_args(args)
    # with no --model the base drop-path rate is 0.0
    base = mdl.preset_config(
        args.model or "vit-t", drop_path_rate=None if args.model else 0.0, dataset=recipe.dataset
    )
    config, recipe = trn.resolve_run(recipe, base)
    schedule = trn.schedule_from_recipe(recipe, args.steps_per_epoch)
    lines = ["step,lr,drop_path,weight_decay"]
    for step in range(schedule.total_steps):
        lr = opt.cosine_lr(schedule, step)
        lines.append(f"{step},{lr!r},{config.drop_path_rate!r},{recipe.weight_decay!r}")
    text = "\n".join(lines) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        Path(args.out).write_text(text, encoding="utf-8")
        print(f"wrote {schedule.total_steps} rows to {args.out}")
    return 0


def _cmd_flops(args) -> int:
    config = mdl.preset_config(args.model, image_size=args.resolution, num_classes=args.classes)
    params = mdl.count_params(config)
    macs = mdl.count_flops(config, args.resolution)
    print(
        f"model={mdl.canonical_preset(args.model)} resolution={args.resolution} "
        f"params={params} ({params / 1e6:.1f}M) flops={macs} ({macs / 1e9:.2f}G MACs)"
    )
    return 0


def _cmd_synth_data(args) -> int:
    spec = dat.SynthSpec(
        num_classes=args.classes,
        per_class=args.per_class,
        resolution=args.resolution,
        seed=args.seed,
        noise=args.noise,
    )
    manifest = dat.synth_dataset(spec, args.out)
    print(f"wrote {len(manifest)} images in {manifest.num_classes} classes to {args.out}")
    print(f"manifest: {Path(args.out) / 'manifest.tsv'}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vitrecipe", description="Desk-scale supervised ViT training recipe"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train from scratch")
    _add_recipe_flags(p, default_preset="in1k")
    p.add_argument("--data", type=Path, required=True, help="dataset manifest")
    p.add_argument("--out", type=Path, required=True, help="output directory")
    p.add_argument("--model", required=True, help="model preset (vit-t/s/b/l/h)")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("finetune", help="finetune a checkpoint at a new resolution")
    _add_recipe_flags(p, default_preset="fixres_finetune")
    p.add_argument("--checkpoint", type=Path, required=True)
    p.add_argument("--data", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--resolution", type=int, required=True, help="target resolution (px)")
    p.set_defaults(func=_cmd_finetune)

    p = sub.add_parser("eval", help="evaluate a checkpoint")
    p.add_argument("--checkpoint", type=Path, required=True)
    p.add_argument("--data", type=Path, required=True)
    p.add_argument("--crop-ratio", type=float, default=1.0)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("augment-preview", help="write augmented samples as IMG1 files")
    _add_recipe_flags(p)
    p.add_argument("--data", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--count", type=int, default=12)
    p.set_defaults(func=_cmd_augment_preview)

    p = sub.add_parser("schedule-dump", help="print the per-step schedule as CSV")
    _add_recipe_flags(p)
    p.add_argument("--steps-per-epoch", type=int, default=1)
    p.add_argument("--model", default=None, help="model preset for the drop-path default")
    p.add_argument("--out", type=Path, default=None, help="CSV path (default stdout)")
    p.set_defaults(func=_cmd_schedule_dump)

    p = sub.add_parser("flops", help="print parameter and FLOPs counts")
    p.add_argument("--model", required=True)
    p.add_argument("--resolution", type=int, default=224)
    p.add_argument("--classes", type=int, default=1000)
    p.set_defaults(func=_cmd_flops)

    p = sub.add_parser("synth-data", help="generate the synthetic grating dataset")
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--classes", type=int, default=4)
    p.add_argument("--per-class", type=int, default=64)
    p.add_argument("--resolution", type=int, default=32)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--noise", type=float, default=16.0)
    p.set_defaults(func=_cmd_synth_data)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
