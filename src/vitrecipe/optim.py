"""Losses, the LAMB optimizer, and the schedule rules.

Loss functions build on the autodiff ops and return scalar Tensors.
LAMB keeps its moments in plain numpy arrays keyed by parameter name;
the trust ratio can be disabled, which reduces the update to AdamW
(useful for ablation and as an independent cross-check).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar, Dict, Tuple

import numpy as np

from . import numerics as nm
from .errors import ContractError, DimensionError, ParameterError
from .numerics import Tensor

GradDict = Dict[str, np.ndarray]


# -- losses -----------------------------------------------------------------


def _target_array(targets, like: Tensor) -> np.ndarray:
    data = targets.data if isinstance(targets, Tensor) else np.asarray(targets)
    return data.astype(like.data.dtype, copy=False)


def bce_loss(logits: Tensor, targets) -> Tensor:
    """Mean over batch and classes of per-class binary cross-entropy.

    Targets are arbitrary values in [0, 1] (mixup/cutmix outputs are used
    as-is, no re-thresholding). Computed from log-sigmoid in log-sum-exp
    form, so extreme logits stay finite.
    """
    t = _target_array(targets, logits)
    if t.shape != tuple(logits.shape):
        raise DimensionError(f"bce_loss: target shape {t.shape} != logits {tuple(logits.shape)}")
    if t.size == 0:
        raise DimensionError(f"bce_loss: no logits to average, shape {t.shape}")
    if not (t.min() >= 0.0 and t.max() <= 1.0):
        raise ContractError("bce_loss: targets must lie in [0, 1]")
    pos = nm.log_sigmoid(logits)
    neg = nm.log_sigmoid(nm.neg(logits))
    weighted = nm.add(nm.mul(pos, Tensor(t)), nm.mul(neg, Tensor(1.0 - t)))
    return nm.scale(nm.tensor_sum(weighted), -1.0 / logits.data.size)


def ce_smoothed_loss(logits: Tensor, targets, epsilon: float = 0.0) -> Tensor:
    """Cross-entropy against label-smoothed targets, mean over the batch."""
    if not 0.0 <= epsilon < 1.0:
        raise ParameterError(f"smoothing epsilon must lie in [0, 1), got {epsilon}")
    t = _target_array(targets, logits)
    if t.shape != tuple(logits.shape):
        raise DimensionError(
            f"ce_smoothed_loss: target shape {t.shape} != logits {tuple(logits.shape)}"
        )
    if t.size == 0:
        raise DimensionError(f"ce_smoothed_loss: no logits to average, shape {t.shape}")
    b, k = logits.shape
    smoothed = (1.0 - epsilon) * t + epsilon / k
    log_probs = nm.log_softmax(logits)
    return nm.scale(nm.tensor_sum(nm.mul(log_probs, Tensor(smoothed))), -1.0 / b)


# -- gradient clipping --------------------------------------------------------


def global_grad_norm(grads: GradDict) -> float:
    total = 0.0
    for g in grads.values():
        total += float((g.astype(np.float64) ** 2).sum())
    return math.sqrt(total)


def grad_clip_global_norm(grads: GradDict, max_norm: float) -> GradDict:
    """Scale all gradients by max_norm/norm when the global L2 norm
    exceeds max_norm; otherwise, a NaN norm included, hand back the input
    unchanged, so a non-finite gradient stays on its own tensor."""
    if not max_norm > 0:
        raise ParameterError(f"max_norm must be positive, got {max_norm}")
    norm = global_grad_norm(grads)
    if not norm > max_norm:
        return grads
    factor = max_norm / norm
    return {name: g * factor for name, g in grads.items()}


# -- LAMB ----------------------------------------------------------------------


@dataclass
class LambState:
    m: GradDict
    v: GradDict
    step: int = 0
    # the recipe's fixed LAMB hyperparameters
    beta1: ClassVar[float] = 0.9
    beta2: ClassVar[float] = 0.999
    eps: ClassVar[float] = 1e-6


def init_lamb_state(params: Dict[str, Tensor]) -> LambState:
    m = {name: np.zeros_like(p.data) for name, p in params.items()}
    v = {name: np.zeros_like(p.data) for name, p in params.items()}
    return LambState(m=m, v=v)


def decays_weight(name: str, param: Tensor) -> bool:
    """Weight decay hits matrices only: LayerScale vectors, biases, norm
    gains, the class token, and positional embeddings are exempt."""
    return name.endswith(".weight") and param.data.ndim >= 2


def lamb_step(
    params: Dict[str, Tensor],
    grads: GradDict,
    state: LambState,
    lr: float,
    weight_decay: float,
    use_trust_ratio: bool = True,
) -> None:
    """One LAMB update, in place on params and state.

    Per tensor: Adam moments with bias correction, r = m_hat/(sqrt(v_hat)+eps),
    u = r + wd*w, then w -= lr * (|w|/|u|) * u with the trust ratio replaced
    by 1 when either norm vanishes. With use_trust_ratio=False the ratio is
    pinned to 1 and the rule is exactly AdamW. A missing or non-finite
    gradient raises `ContractError` before anything is updated.
    """
    if not lr >= 0:
        raise ParameterError(f"lr must be non-negative, got {lr}")
    for name in params:
        if name not in grads:
            raise ContractError(f"lamb_step: missing gradient for '{name}'")
        if not np.all(np.isfinite(grads[name])):
            raise ContractError(
                f"lamb_step: non-finite gradient for '{name}' at step {state.step}"
            )
    state.step += 1
    bc1 = 1.0 - state.beta1**state.step
    bc2 = 1.0 - state.beta2**state.step
    for name, param in params.items():
        g = grads[name]
        m = state.m[name]
        v = state.v[name]
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * (g * g)
        update = (m / bc1) / (np.sqrt(v / bc2) + state.eps)
        if weight_decay != 0.0 and decays_weight(name, param):
            update = update + weight_decay * param.data
        if use_trust_ratio:
            w_norm = float(np.linalg.norm(param.data.astype(np.float64)))
            u_norm = float(np.linalg.norm(update.astype(np.float64)))
            trust = w_norm / u_norm if w_norm > 0.0 and u_norm > 0.0 else 1.0
        else:
            trust = 1.0
        param.data -= (lr * trust) * update.astype(param.data.dtype, copy=False)


# -- schedules -------------------------------------------------------------------


@dataclass(frozen=True)
class ScheduleConfig:
    base_lr: float
    warmup_epochs: int
    total_epochs: int
    steps_per_epoch: int
    # the recipe's fixed schedule endpoints
    min_lr: ClassVar[float] = 1e-6
    warmup_start_lr: ClassVar[float] = 1e-6

    def __post_init__(self):
        if self.warmup_epochs >= self.total_epochs:
            raise ParameterError("warmup_epochs must be smaller than total_epochs")
        if not self.min_lr <= self.base_lr:
            raise ParameterError("min_lr must not exceed base_lr")
        if self.steps_per_epoch < 1:
            raise ParameterError("steps_per_epoch must be at least 1")

    @property
    def total_steps(self) -> int:
        return self.total_epochs * self.steps_per_epoch

    @property
    def warmup_steps(self) -> int:
        return self.warmup_epochs * self.steps_per_epoch


def cosine_lr(schedule: ScheduleConfig, step: int) -> float:
    """Per-step rate: linear warmup, then a cosine arc ending at min_lr.

    The endpoints are pinned literally (warmup end -> base_lr, last step
    -> min_lr) rather than trusted to float arithmetic.
    """
    total = schedule.total_steps
    if not 0 <= step < total:
        raise ParameterError(f"step {step} outside [0, {total})")
    ws = schedule.warmup_steps
    if step < ws:
        return schedule.warmup_start_lr + (schedule.base_lr - schedule.warmup_start_lr) * (
            step / ws
        )
    if step == ws:
        return schedule.base_lr
    if step == total - 1:
        return schedule.min_lr
    progress = (step - ws) / (total - 1 - ws)
    return schedule.min_lr + 0.5 * (schedule.base_lr - schedule.min_lr) * (
        1.0 + math.cos(math.pi * progress)
    )


def scale_regularization(
    base_drop_path: float, base_weight_decay: float, epochs: int
) -> Tuple[float, float]:
    """Long-run scaling: past 400 epochs, raise drop-path by 0.05 per
    extra 200 epochs and pin weight decay to 0.05."""
    if epochs < 1:
        raise ParameterError("epochs must be at least 1")
    if epochs <= 400:
        return base_drop_path, base_weight_decay
    drop = base_drop_path + 0.05 * ((epochs - 400) // 200)
    if drop >= 1.0:
        raise ParameterError(f"scaled drop-path rate {drop} is not a valid probability")
    return drop, 0.05
