"""Desk-scale supervised ViT training recipe, self-contained on numpy."""

from .augment import (
    AugmentPolicy,
    ImageU8,
    color_jitter,
    cutmix,
    eval_preprocess,
    gaussian_blur,
    grayscale,
    mix_dispatch,
    mixup,
    random_resized_crop,
    simple_random_crop,
    solarize,
    three_augment,
)
from .config import PRESET_NAMES, RecipeConfig, load_recipe, preset
from .data import (
    DatasetManifest,
    PlainSampler,
    RepeatedAugSampler,
    SynthSpec,
    load_image,
    load_manifest,
    normalize,
    per_sample_seed,
    save_image,
    synth_dataset,
)
from .errors import ContractError, DimensionError, FormatError, ParameterError
from .model import (
    PRESETS,
    ViTConfig,
    count_flops,
    count_params,
    forward,
    init,
    interpolate_pos_embed,
    preset_config,
)
from .numerics import Tensor, backward
from .optim import (
    LambState,
    ScheduleConfig,
    bce_loss,
    ce_smoothed_loss,
    cosine_lr,
    grad_clip_global_norm,
    init_lamb_state,
    lamb_step,
    scale_regularization,
)
from .rng import Rng
from .training import TrainResult, evaluate, finetune, train

__version__ = "0.1.0"
