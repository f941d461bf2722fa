"""Recipe configuration: every training knob as an explicit key.

Four named presets cover the supervised flows (ImageNet-1k from
scratch, the 21k pretrain/finetune pair, and the low-resolution
pretrain -> target-resolution finetune). Config files are flat
"key = value" text with '#' comments; unknown keys are errors so typos
in recipe experiments surface immediately.
"""

from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import ClassVar, Optional, get_args, get_origin, get_type_hints

from .errors import ParameterError


@dataclass(frozen=True)
class RecipeConfig:
    batch_size: int = 2048
    lr: float = 3e-3
    weight_decay: float = 0.02
    warmup_epochs: int = 5
    label_smoothing: float = 0.0
    drop_path: Optional[float] = None  # None: use the model preset's rate
    repeated_aug: bool = True
    grad_clip: float = 1.0
    hflip: bool = True
    crop_mode: str = "rrc"
    three_augment: bool = True
    layerscale_init: float = 1e-4  # 1.0: branch gates start at identity
    mixup_alpha: float = 0.8
    cutmix_alpha: float = 1.0
    color_jitter: float = 0.3
    test_crop_ratio: float = 1.0
    loss: str = "bce"
    epochs: int = 400
    train_resolution: int = 224
    eval_resolution: int = 224  # recorded, never read: resolve_run overwrites it
    seed: int = 0
    dataset: str = "in1k"  # corpus tag steering per-model drop-path defaults
    # the recipe's fixed choices: LAMB, cosine decay, no dropout, no random erasing
    optimizer: ClassVar[str] = "lamb"
    lr_decay: ClassVar[str] = "cosine"
    dropout: ClassVar[float] = 0.0
    erasing: ClassVar[bool] = False

    def __post_init__(self):
        if self.crop_mode not in ("rrc", "src"):
            raise ParameterError(f"crop_mode must be rrc or src, got {self.crop_mode!r}")
        if self.loss not in ("bce", "ce"):
            raise ParameterError(f"loss must be bce or ce, got {self.loss!r}")
        if not 0.0 <= self.label_smoothing < 1.0:
            raise ParameterError("label_smoothing must lie in [0, 1)")
        if not 0.0 < self.test_crop_ratio <= 1.0:
            raise ParameterError("test_crop_ratio must lie in (0, 1]")
        if not 0 <= self.warmup_epochs < self.epochs:
            raise ParameterError("warmup_epochs must lie in [0, epochs)")
        if not self.lr > 0:
            raise ParameterError("lr must be positive")
        if not self.weight_decay >= 0:
            raise ParameterError("weight_decay must be non-negative")
        if not self.grad_clip > 0:
            raise ParameterError("grad_clip must be positive")
        if not 0.0 <= self.color_jitter < 1.0:
            raise ParameterError("color_jitter must lie in [0, 1)")
        if self.batch_size < 1 or self.epochs < 1:
            raise ParameterError("batch_size and epochs must be at least 1")
        if self.drop_path is not None and not 0.0 <= self.drop_path < 1.0:
            raise ParameterError("drop_path must lie in [0, 1)")
        if not (self.mixup_alpha >= 0 and self.cutmix_alpha >= 0):
            raise ParameterError("mixing alphas must be non-negative")
        if self.dataset not in ("in1k", "in21k"):
            raise ParameterError(f"dataset must be in1k or in21k, got {self.dataset!r}")


# 21k pretraining: SRC cropping, CE with smoothing 0.1, no repeated aug, no mixup, 90 epochs
_IN21K_PRETRAIN = dict(
    crop_mode="src", repeated_aug=False, mixup_alpha=0.0, label_smoothing=0.1, loss="ce",
    epochs=90, dataset="in21k",
)

# preset name -> its keys over RecipeConfig's defaults, the ImageNet-1k from-scratch run
PRESET_KEYS = {
    "in1k": {},
    "in21k_pretrain": _IN21K_PRETRAIN,
    # the 21k finetune lowers lr to 3e-4 and runs 50 epochs
    "in21k_finetune": {**_IN21K_PRETRAIN, "lr": 3e-4, "epochs": 50},
    # the resolution finetune: 20 epochs at lr 1e-5, batch 512, wd 0.1, no warmup, no repeated aug
    "fixres_finetune": dict(
        lr=1e-5, batch_size=512, epochs=20, weight_decay=0.1, repeated_aug=False, warmup_epochs=0,
    ),
}
PRESET_NAMES = tuple(PRESET_KEYS)


def preset(name: str) -> RecipeConfig:
    if name not in PRESET_KEYS:
        raise ParameterError(f"unknown preset {name!r}; choose from {PRESET_NAMES}")
    return RecipeConfig(**PRESET_KEYS[name])


def parse_config_file(path) -> dict:
    """Flat "key = value" lines; '#' starts a comment anywhere."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParameterError(f"{path}: config file is not valid UTF-8") from exc
    raw = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ParameterError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, value = stripped.split("=", 1)
        raw[key.strip()] = value.strip()
    return raw


_TRUE = {"true", "1", "yes", "on"}
_FALSE = {"false", "0", "no", "off"}


def _convert(name: str, text: str, hint):
    if get_origin(hint) is not None:  # Optional[float]
        args = [a for a in get_args(hint) if a is not type(None)]
        if text.lower() in ("none", "auto"):
            return None
        hint = args[0]
    try:
        if hint is bool:
            low = text.lower()
            if low in _TRUE:
                return True
            if low in _FALSE:
                return False
            raise ValueError(text)
        if hint is int:
            return int(text)
        if hint is float:
            return float(text)
        return text
    except ValueError as exc:
        raise ParameterError(f"config key {name!r}: cannot parse {text!r}") from exc


def apply_overrides(config: RecipeConfig, raw: dict) -> RecipeConfig:
    hints = get_type_hints(RecipeConfig)
    known = {f.name for f in fields(RecipeConfig)}
    parsed = {}
    for key, value in raw.items():
        if key not in known:
            raise ParameterError(f"unknown config key {key!r}")
        parsed[key] = value if not isinstance(value, str) else _convert(key, value, hints[key])
    return replace(config, **parsed)


def load_recipe(
    config_path=None, preset_name: Optional[str] = None, overrides: Optional[list] = None
) -> RecipeConfig:
    """Combine preset, config file, and CLI overrides (later wins)."""
    config = preset(preset_name) if preset_name else RecipeConfig()
    if config_path is not None:
        config = apply_overrides(config, parse_config_file(config_path))
    if overrides:
        raw = {}
        for item in overrides:
            if "=" not in item:
                raise ParameterError(f"override must be key=value, got {item!r}")
            key, value = item.split("=", 1)
            raw[key.strip()] = value.strip()
        config = apply_overrides(config, raw)
    return config
