"""Recipe presets (key-by-key snapshots) and config file parsing."""

import ast
import dataclasses
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

import vitrecipe
from vitrecipe import config as cfg
from vitrecipe.errors import ParameterError

# the recipe's fixed values: class constants, read with getattr like the keys
FIXED = {
    "optimizer": "lamb", "lr_decay": "cosine", "dropout": 0.0, "erasing": False,
    "solarize_threshold": 128, "blur_sigma_range": (0.1, 2.0), "rrc_scale": (0.08, 1.0),
    "rrc_ratio": (3.0 / 4.0, 4.0 / 3.0), "hflip_prob": 0.5,
}

IN1K_SNAPSHOT = {
    **FIXED,
    "batch_size": 2048,
    "lr": 3e-3,
    "weight_decay": 0.02,
    "warmup_epochs": 5,
    "label_smoothing": 0.0,
    "drop_path": None,
    "repeated_aug": True,
    "grad_clip": 1.0,
    "hflip": True,
    "crop_mode": "rrc",
    "three_augment": True,
    "layerscale_init": 1e-4,
    "mixup_alpha": 0.8,
    "cutmix_alpha": 1.0,
    "color_jitter": 0.3,
    "test_crop_ratio": 1.0,
    "loss": "bce",
    "epochs": 400,
    "train_resolution": 224,
    "eval_resolution": 224,
    "seed": 0,
    "dataset": "in1k",
}

IN21K_PRETRAIN_SNAPSHOT = {
    **IN1K_SNAPSHOT,
    "crop_mode": "src",
    "repeated_aug": False,
    "mixup_alpha": 0.0,
    "label_smoothing": 0.1,
    "loss": "ce",
    "epochs": 90,
    "dataset": "in21k",
}

IN21K_FINETUNE_SNAPSHOT = {
    **IN21K_PRETRAIN_SNAPSHOT,
    "lr": 3e-4,
    "epochs": 50,
}

FIXRES_FINETUNE_SNAPSHOT = {
    **IN1K_SNAPSHOT,
    "lr": 1e-5,
    "batch_size": 512,
    "epochs": 20,
    "weight_decay": 0.1,
    "repeated_aug": False,
    "warmup_epochs": 0,
}

SNAPSHOTS = {
    "in1k": IN1K_SNAPSHOT,
    "in21k_pretrain": IN21K_PRETRAIN_SNAPSHOT,
    "in21k_finetune": IN21K_FINETUNE_SNAPSHOT,
    "fixres_finetune": FIXRES_FINETUNE_SNAPSHOT,
}


@pytest.mark.parametrize("name", cfg.PRESET_NAMES)
def test_preset_snapshot_key_by_key(name):
    recipe = cfg.preset(name)
    expected = SNAPSHOTS[name]
    assert set(dataclasses.asdict(recipe)) == set(expected) - set(FIXED)
    for key in expected:
        got = getattr(recipe, key)
        assert got == expected[key], f"{name}.{key}: {got!r} != {expected[key]!r}"


def test_unknown_preset():
    with pytest.raises(ParameterError):
        cfg.preset("in22k")


README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_preset_table_lists_every_preset():
    section = README.read_text(encoding="utf-8").split("## Recipe presets", 1)[1]
    section = section.split("\n## ", 1)[0]
    rows = [line for line in section.splitlines() if line.startswith("| `")]
    assert tuple(row.split("`")[1] for row in rows) == cfg.PRESET_NAMES


def test_readme_fixed_values_name_package_attributes():
    """Each `Class.attr` or `Class.a/b` in README's list of fixed values is
    an attribute of a class the package defines."""
    classes = {}
    for info in pkgutil.iter_modules(vitrecipe.__path__):
        if info.name != "__main__":
            module = importlib.import_module(f"vitrecipe.{info.name}")
            classes.update((name, c) for name, c in vars(module).items()
                           if inspect.isclass(c) and c.__module__ == module.__name__)
    text = README.read_text(encoding="utf-8")
    section = text.split("Some values of the recipe are fixed", 1)[1].split("\n\n")[1]
    named = re.findall(r"`([A-Z]\w*)\.(\w+(?:/\w+)*)`", section)
    assert len(named) >= 5, section
    missing = [f"{cls}.{attr}" for cls, attrs in named for attr in attrs.split("/")
               if not hasattr(classes.get(cls), attr)]
    assert not missing, missing


def test_coupling_rule_combinations_are_constructible():
    # violating Table 1 couplings by hand is allowed; presets stay clean
    cfg.RecipeConfig(loss="bce", label_smoothing=0.1)
    cfg.RecipeConfig(crop_mode="src", repeated_aug=True)


# ROADMAP item 6: `resolve_run` overwrites it and `evaluate` runs at the model's size
UNREAD_KEYS = {"eval_resolution"}


def test_every_recipe_key_is_read_outside_config():
    """A knob must have an effect: each key is read as `recipe.<key>` in some
    package module other than config.py (checked on the syntax tree)."""
    read = set()
    for path in Path(cfg.__file__).parent.glob("*.py"):
        if path.name == "config.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                    and isinstance(node.value, ast.Name) and node.value.id == "recipe"):
                read.add(node.attr)
    keys = {f.name for f in dataclasses.fields(cfg.RecipeConfig)}
    assert keys - read == UNREAD_KEYS


@pytest.mark.parametrize(
    "kwargs",
    [
        {"optimizer": "adamw"},
        {"lr_decay": "linear"},
        {"dropout": 0.1},
        {"erasing": True},
        {"crop_mode": "center"},
        {"loss": "mse"},
        {"label_smoothing": 1.0},
        {"label_smoothing": -0.1},
        {"test_crop_ratio": 0.0},
        {"test_crop_ratio": 1.5},
        {"warmup_epochs": 400},
        {"batch_size": 0},
        {"epochs": 0, "warmup_epochs": 0},
        {"drop_path": 1.0},
        {"drop_path": -0.2},
        {"mixup_alpha": -1.0},
        {"cutmix_alpha": -0.5},
        {"dataset": "jft"},
        {"warmup_epochs": -2, "epochs": 4},
        {"weight_decay": -0.1},
        {"lr": 0.0},
        {"grad_clip": 0.0},
        {"grad_clip": -1.0},
        {"color_jitter": 1.0},
        {"color_jitter": -0.1},
        {"lr": "nan"},
        {"weight_decay": "nan"},
        {"grad_clip": "nan"},
        {"mixup_alpha": "nan"},
        {"cutmix_alpha": "nan"},
        {"crop_mode": "RRC"},  # one spelling
    ],
)
def test_recipe_validation_rejects(kwargs):
    # the fixed values (the first four cases) are no keys, so naming one fails;
    # a NaN fails every comparison, so the checks are written to refuse it
    with pytest.raises(ParameterError):
        cfg.load_recipe(overrides=[f"{key}={value}" for key, value in kwargs.items()])


# -- config files ----------------------------------------------------------------


def test_parse_config_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# full-line comment\n"
        "lr = 0.001\n"
        "\n"
        "batch_size=128  # trailing comment\n"
        "crop_mode = src\n",
        encoding="utf-8",
    )
    raw = cfg.parse_config_file(path)
    assert raw == {"lr": "0.001", "batch_size": "128", "crop_mode": "src"}


def test_parse_config_file_rejects_non_utf8(tmp_path):
    path = tmp_path / "latin1.cfg"
    path.write_bytes(b"lr = 1e-3 # \xff\n")
    with pytest.raises(ParameterError) as excinfo:
        cfg.parse_config_file(path)
    assert str(path) in str(excinfo.value)


@pytest.mark.parametrize("key", [*FIXED, "layerscale"])
def test_fixed_values_are_unknown_keys(tmp_path, key):
    with pytest.raises(ParameterError, match="unknown config key"):
        cfg.load_recipe(overrides=[f"{key}=0"])
    path = tmp_path / "run.cfg"
    path.write_text(f"{key} = 0\n", encoding="utf-8")
    with pytest.raises(ParameterError, match="unknown config key"):
        cfg.load_recipe(config_path=path)


def test_parse_config_file_malformed_line(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("lr 0.001\n", encoding="utf-8")
    with pytest.raises(ParameterError) as excinfo:
        cfg.parse_config_file(path)
    assert ":1:" in str(excinfo.value)


def test_apply_overrides_types():
    base = cfg.preset("in1k")
    out = cfg.apply_overrides(
        base,
        {
            "lr": "5e-4",
            "epochs": "30",
            "repeated_aug": "off",
            "hflip": "TRUE",
            "drop_path": "0.2",
            "loss": "ce",
        },
    )
    assert out.lr == 5e-4
    assert out.epochs == 30
    assert out.repeated_aug is False
    assert out.hflip is True
    assert out.drop_path == 0.2
    assert out.loss == "ce"


def test_apply_overrides_optional_none():
    base = cfg.apply_overrides(cfg.preset("in1k"), {"drop_path": "0.3"})
    assert base.drop_path == 0.3
    cleared = cfg.apply_overrides(base, {"drop_path": "none"})
    assert cleared.drop_path is None
    auto = cfg.apply_overrides(base, {"drop_path": "auto"})
    assert auto.drop_path is None


def test_apply_overrides_unknown_key():
    with pytest.raises(ParameterError):
        cfg.apply_overrides(cfg.preset("in1k"), {"learning_rate": "1e-3"})


def test_apply_overrides_bad_values():
    base = cfg.preset("in1k")
    with pytest.raises(ParameterError):
        cfg.apply_overrides(base, {"lr": "fast"})
    with pytest.raises(ParameterError):
        cfg.apply_overrides(base, {"repeated_aug": "maybe"})
    with pytest.raises(ParameterError):
        cfg.apply_overrides(base, {"epochs": "3.5"})


def test_apply_overrides_revalidates():
    with pytest.raises(ParameterError):
        cfg.apply_overrides(cfg.preset("in1k"), {"loss": "mse"})


def test_load_recipe_layering(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text("lr = 1e-3\nepochs = 100\n", encoding="utf-8")
    out = cfg.load_recipe(config_path=path, preset_name="in1k", overrides=["lr=2e-3", "seed=7"])
    assert out.lr == 2e-3  # CLI override beats the file
    assert out.epochs == 100  # file beats the preset
    assert out.seed == 7
    assert out.crop_mode == "rrc"  # everything else from the preset


def test_load_recipe_defaults_to_in1k_values():
    assert cfg.load_recipe() == cfg.RecipeConfig()


def test_load_recipe_bad_override_format():
    with pytest.raises(ParameterError):
        cfg.load_recipe(overrides=["lr:1e-3"])
