"""End-to-end command-line flows on a miniature dataset."""

import typing
from dataclasses import replace

import numpy as np
import pytest

from vitrecipe import checkpoint as ckpt
from vitrecipe import cli
from vitrecipe import config as cfg
from vitrecipe import data as dat
from vitrecipe import model as mdl
from vitrecipe import optim as opt
from vitrecipe import training as trn


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli") / "ds"
    code = cli.main(
        [
            "synth-data", "--out", str(root),
            "--classes", "2", "--per-class", "6",
            "--resolution", "16", "--seed", "3",
        ]
    )
    assert code == 0
    return root / "manifest.tsv"


TRAIN_OVERRIDES = [
    "--override", "batch_size=6",
    "--override", "epochs=2",
    "--override", "warmup_epochs=1",
    "--override", "train_resolution=16",
    "--override", "eval_resolution=16",
    "--override", "repeated_aug=off",
]


@pytest.fixture(scope="module")
def trained(tmp_path_factory, dataset):
    out = tmp_path_factory.mktemp("cli") / "run"
    code = cli.main(
        ["train", "--data", str(dataset), "--out", str(out), "--model", "vit-t", "--seed", "1"]
        + TRAIN_OVERRIDES
    )
    assert code == 0
    return out


def test_synth_data_writes_dataset(dataset, capsys):
    manifest = dat.load_manifest(dataset)
    assert len(manifest) == 12
    assert manifest.num_classes == 2
    img = dat.load_image(manifest.image_path(0))
    assert img.pixels.shape == (16, 16, 3)


def test_train_writes_artifacts(trained, capsys):
    assert (trained / "checkpoint.ckpt").exists()
    lines = (trained / "metrics.csv").read_text().splitlines()
    assert any("recipe.seed=1" in ln for ln in lines if ln.startswith("#"))


def test_eval_prints_accuracy(trained, dataset, capsys):
    code = cli.main(
        ["eval", "--checkpoint", str(trained / "checkpoint.ckpt"), "--data", str(dataset)]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "top1_accuracy=" in out and "n=12" in out
    acc = float(out.split("top1_accuracy=")[1].split()[0])
    assert 0.0 <= acc <= 1.0


def test_finetune_at_doubled_resolution(trained, dataset, tmp_path, capsys):
    out = tmp_path / "ft"
    code = cli.main(
        [
            "finetune",
            "--checkpoint", str(trained / "checkpoint.ckpt"),
            "--data", str(dataset),
            "--out", str(out),
            "--resolution", "32",
            "--override", "batch_size=6",
            "--override", "epochs=1",
            "--override", "eval_resolution=32",
        ]
    )
    assert code == 0
    text = capsys.readouterr().out
    assert "pos_grid: 2x2" in text
    assert (out / "checkpoint.ckpt").exists()


def test_schedule_dump_reproduces_cosine(capsys):
    code = cli.main(
        [
            "schedule-dump",
            "--preset", "in1k",
            "--steps-per-epoch", "2",
            "--override", "epochs=10",
            "--override", "warmup_epochs=2",
            "--model", "vit-b",
        ]
    )
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "step,lr,drop_path,weight_decay"
    rows = [ln.split(",") for ln in lines[1:]]
    assert len(rows) == 20
    schedule = opt.ScheduleConfig(
        base_lr=3e-3, warmup_epochs=2, total_epochs=10, steps_per_epoch=2
    )
    for row in rows:
        assert float(row[1]) == opt.cosine_lr(schedule, int(row[0]))
        assert float(row[2]) == 0.1  # ViT-B in1k stochastic-depth default
        assert float(row[3]) == 0.02


@pytest.mark.parametrize(
    "model,drop_path", [(["--model", "vit-b"], 0.2), ([], 0.1)]  # no model: base rate 0.0
)
def test_schedule_dump_applies_the_long_run_rule(capsys, model, drop_path):
    code = cli.main(["schedule-dump", "--preset", "in1k", "--override", "epochs=800"] + model)
    assert code == 0
    rows = [ln.split(",") for ln in capsys.readouterr().out.strip().splitlines()[1:]]
    assert len(rows) == 800
    assert {(r[2], r[3]) for r in rows} == {(rows[0][2], rows[0][3])}
    # +0.05 drop path per 200 epochs past 400, weight decay pinned to 0.05
    assert float(rows[0][2]) == pytest.approx(drop_path)
    assert float(rows[0][3]) == 0.05
    if model:
        recipe = replace(cfg.preset("in1k"), epochs=800)
        config, recipe = trn.resolve_run(recipe, mdl.preset_config("vit-b"))
        assert (repr(config.drop_path_rate), repr(recipe.weight_decay)) == (rows[0][2], rows[0][3])


def test_flops_reports_published_scale(capsys):
    code = cli.main(["flops", "--model", "vit-s", "--resolution", "224"])
    assert code == 0
    out = capsys.readouterr().out
    assert "22.1M" in out or "22.0M" in out
    assert "4.60G MACs" in out


def test_augment_preview_writes_img1(dataset, tmp_path, capsys):
    out = tmp_path / "aug"
    code = cli.main(
        [
            "augment-preview",
            "--data", str(dataset),
            "--out", str(out),
            "--count", "5",
            "--override", "train_resolution=16",
            "--seed", "9",
        ]
    )
    assert code == 0
    files = sorted(out.glob("*.img1"))
    assert len(files) == 5
    for f in files:
        img = dat.load_image(f)
        assert img.pixels.shape == (16, 16, 3)
        assert "_branch" in f.name and f.name.split("_branch")[1][0] in "012"


@pytest.mark.parametrize("count", ["0", "-3"])
def test_augment_preview_of_no_samples_exits_2(dataset, tmp_path, capsys, count):
    out = tmp_path / "aug"
    code = cli.main(
        ["augment-preview", "--data", str(dataset), "--out", str(out), "--count", count]
    )
    assert code == 2
    assert "--count" in capsys.readouterr().err
    assert not out.exists()


def test_cli_type_hints_resolve():
    assert typing.get_type_hints(cli._recipe_from_args)["return"] is cfg.RecipeConfig


@pytest.mark.parametrize(
    "overrides",
    [["crop_mode=rrc"], ["crop_mode=src"], ["three_augment=false"], ["repeated_aug=off"]],
    ids=["rrc", "src", "no_three_augment", "no_repeated_aug"],
)
def test_augment_preview_matches_train_augmentation(dataset, tmp_path, overrides):
    # sample i's preview is the loader's first copy of i in epoch 0; with
    # repeated aug on (the default) that copy has its own sub-seed
    out = tmp_path / "aug"
    overrides = ["train_resolution=16"] + overrides
    code = cli.main(
        ["augment-preview", "--data", str(dataset), "--out", str(out), "--count", "4",
         "--seed", "9"] + [arg for o in overrides for arg in ("--override", o)]
    )
    assert code == 0
    manifest = dat.load_manifest(dataset)
    recipe = replace(cfg.load_recipe(overrides=overrides), seed=9)
    files = sorted(out.glob("*.img1"))
    assert len(files) == 4
    for i, f in enumerate(files):
        assert ("_branch" in f.name) == recipe.three_augment
        loader_images, _ = trn._assemble_batch(manifest, [i], recipe, 0)
        np.testing.assert_array_equal(dat.normalize(dat.load_image(f)), loader_images[0])


def test_cli_maps_value_errors_to_exit_2(dataset, tmp_path, capsys):
    code = cli.main(
        [
            "train",
            "--data", str(dataset),
            "--out", str(tmp_path / "x"),
            "--model", "vit-t",
            "--override", "learning_rate=1",
        ]
    )
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_eval_of_an_empty_manifest_exits_2(trained, tmp_path, capsys):
    empty = tmp_path / "empty.tsv"
    empty.write_text("classes\t2\n", encoding="utf-8")
    code = cli.main(
        ["eval", "--checkpoint", str(trained / "checkpoint.ckpt"), "--data", str(empty)]
    )
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_eval_of_a_checkpoint_missing_a_tensor_exits_2(trained, dataset, tmp_path, capsys):
    block, arrays = ckpt.load_checkpoint(trained / "checkpoint.ckpt")
    del arrays["head.bias"]
    path = tmp_path / "no-head-bias.ckpt"
    ckpt.save_checkpoint(path, block, arrays)
    code = cli.main(["eval", "--checkpoint", str(path), "--data", str(dataset)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(path) in err and "'head.bias'" in err


def test_cli_rejects_unknown_preset(dataset, tmp_path):
    with pytest.raises(SystemExit):
        cli.main(
            ["train", "--data", str(dataset), "--out", str(tmp_path / "y"),
             "--model", "vit-t", "--preset", "in22k"]
        )


def test_missing_data_file_is_reported(tmp_path, capsys):
    code = cli.main(
        ["eval", "--checkpoint", str(tmp_path / "no.ckpt"), "--data", str(tmp_path / "no.tsv")]
    )
    assert code == 2
