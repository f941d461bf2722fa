"""Optimizer, loss, and schedule oracles.

The LAMB check re-implements AdamW from scratch (explicit per-element
loops, no shared code) and compares against lamb_step with the trust
ratio pinned to 1.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vitrecipe import numerics as nm
from vitrecipe import optim as opt
from vitrecipe.errors import ContractError, DimensionError, ParameterError
from vitrecipe.numerics import Tensor


def make_params(shapes, seed=0):
    rng = np.random.default_rng(seed)
    return {
        name: Tensor(rng.normal(size=shape), requires_grad=True, dtype=np.float64)
        for name, shape in shapes.items()
    }


# -- independent AdamW oracle -----------------------------------------------------


class LoopAdamW:
    """Textbook AdamW written as scalar loops over flattened tensors."""

    def __init__(self, beta1=0.9, beta2=0.999, eps=1e-6):
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.m = {}
        self.v = {}
        self.t = 0

    def step(self, weights, grads, lr, weight_decay, decay_names):
        self.t += 1
        for name, w in weights.items():
            g = grads[name]
            m = self.m.setdefault(name, [0.0] * w.size)
            v = self.v.setdefault(name, [0.0] * w.size)
            flat_w = w.reshape(-1)
            flat_g = g.reshape(-1)
            wd = weight_decay if name in decay_names else 0.0
            for i in range(w.size):
                m[i] = self.beta1 * m[i] + (1.0 - self.beta1) * flat_g[i]
                v[i] = self.beta2 * v[i] + (1.0 - self.beta2) * flat_g[i] ** 2
                m_hat = m[i] / (1.0 - self.beta1**self.t)
                v_hat = v[i] / (1.0 - self.beta2**self.t)
                flat_w[i] -= lr * (m_hat / (math.sqrt(v_hat) + self.eps) + wd * flat_w[i])


def test_lamb_without_trust_matches_loop_adamw():
    shapes = {"a.weight": (3, 4), "b.bias": (4,), "c.weight": (2, 2, 3)}
    params = make_params(shapes, seed=1)
    mirror = {name: p.data.copy() for name, p in params.items()}
    decay_names = {name for name, p in params.items() if opt.decays_weight(name, p)}
    assert decay_names == {"a.weight", "c.weight"}

    state = opt.init_lamb_state(params)
    oracle = LoopAdamW()
    rng = np.random.default_rng(2)
    for step in range(100):
        grads = {name: rng.normal(size=shape) for name, shape in shapes.items()}
        opt.lamb_step(params, grads, state, lr=3e-3, weight_decay=0.05, use_trust_ratio=False)
        oracle.step(mirror, {n: g.copy() for n, g in grads.items()}, 3e-3, 0.05, decay_names)
        for name in shapes:
            a = params[name].data
            b = mirror[name]
            rel = np.abs(a - b) / np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-12)
            assert rel.max() < 1e-12, (name, step, rel.max())


def test_trust_ratio_relative_step_is_lr():
    shapes = {"w.weight": (6, 5), "gain": (7,)}
    params = make_params(shapes, seed=3)
    state = opt.init_lamb_state(params)
    rng = np.random.default_rng(4)
    lr = 2.5e-3
    for _ in range(100):
        before = {name: p.data.copy() for name, p in params.items()}
        grads = {name: rng.normal(size=shape) for name, shape in shapes.items()}
        opt.lamb_step(params, grads, state, lr=lr, weight_decay=0.0)
        for name, p in params.items():
            moved = np.linalg.norm(p.data - before[name])
            expected = lr * np.linalg.norm(before[name])
            assert abs(moved - expected) < 1e-10 * max(1.0, expected)


def test_trust_ratio_zero_norm_falls_back_to_unit():
    params = {"z.weight": Tensor(np.zeros((3, 3)), requires_grad=True, dtype=np.float64)}
    state = opt.init_lamb_state(params)
    grads = {"z.weight": np.ones((3, 3))}
    opt.lamb_step(params, grads, state, lr=1e-2, weight_decay=0.0)
    # trust pinned to 1: the step equals lr * adam direction (all-ones grad
    # at step 1 gives m_hat/sqrt(v_hat) close to 1 per element)
    expected = 1e-2 * (1.0 / (1.0 + state.eps))
    np.testing.assert_allclose(params["z.weight"].data, -expected, rtol=1e-12)


def test_lamb_state_counts_steps_and_is_deterministic():
    shapes = {"p.weight": (4, 4)}
    a = make_params(shapes, seed=5)
    b = make_params(shapes, seed=5)
    sa, sb = opt.init_lamb_state(a), opt.init_lamb_state(b)
    g = {"p.weight": np.full((4, 4), 0.3)}
    for _ in range(3):
        opt.lamb_step(a, g, sa, lr=1e-3, weight_decay=0.01)
        opt.lamb_step(b, g, sb, lr=1e-3, weight_decay=0.01)
    assert sa.step == 3
    np.testing.assert_array_equal(a["p.weight"].data, b["p.weight"].data)


def test_lamb_step_error_contracts():
    params = make_params({"a.weight": (2, 2)}, seed=6)
    state = opt.init_lamb_state(params)
    with pytest.raises(ContractError):
        opt.lamb_step(params, {}, state, lr=1e-3, weight_decay=0.0)
    with pytest.raises(ContractError):
        opt.lamb_step(
            params, {"a.weight": np.array([[np.nan, 0.0], [0.0, 0.0]])}, state,
            lr=1e-3, weight_decay=0.0,
        )
    for lr in (-1.0, np.nan):
        with pytest.raises(ParameterError):
            opt.lamb_step(params, {"a.weight": np.zeros((2, 2))}, state, lr=lr, weight_decay=0.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, None], ids=["nan", "inf", "missing"])
def test_a_refused_lamb_step_changes_nothing(bad):
    params = make_params({"a.weight": (3, 2), "b.weight": (2, 2)}, seed=7)
    state = opt.init_lamb_state(params)
    opt.lamb_step(params, {n: np.full(p.shape, 0.5) for n, p in params.items()}, state,
                  lr=1e-2, weight_decay=0.05)
    before = [(p.data.tobytes(), state.m[n].tobytes(), state.v[n].tobytes())
              for n, p in params.items()]
    grads = {"a.weight": np.full((3, 2), 0.5)}  # the first tensor's gradient is fine
    if bad is not None:
        grads["b.weight"] = np.array([[0.5, bad], [0.5, 0.5]])
    with pytest.raises(ContractError, match="'b.weight'"):
        opt.lamb_step(params, grads, state, lr=1e-2, weight_decay=0.05)
    assert state.step == 1
    assert [(p.data.tobytes(), state.m[n].tobytes(), state.v[n].tobytes())
            for n, p in params.items()] == before


def test_lamb_step_names_the_step_the_metrics_row_names():
    # state.step counts the steps taken, so the failing step is numbered
    # state.step, as train_step's non-finite loss and metrics.csv number it
    params = make_params({"a.weight": (2, 2)}, seed=8)
    state = opt.init_lamb_state(params)
    state.step = 5
    with pytest.raises(ContractError, match=r"'a.weight' at step 5$"):
        opt.lamb_step(params, {"a.weight": np.full((2, 2), np.nan)}, state,
                      lr=1e-3, weight_decay=0.0)
    assert state.step == 5


@pytest.mark.parametrize(
    "name,shape,expect",
    [
        ("head.weight", (8, 4), True),
        ("patch_embed.weight", (48, 16), True),
        ("norm.weight", (8,), False),
        ("head.bias", (4,), False),
        ("blocks.0.ls1", (8,), False),
        ("cls_token", (1, 1, 8), False),
        ("pos_embed", (1, 5, 8), False),
    ],
)
def test_decay_rules(name, shape, expect):
    param = Tensor(np.ones(shape), dtype=np.float64)
    assert opt.decays_weight(name, param) is expect


# -- gradient clipping -------------------------------------------------------------


def test_global_grad_norm_hand_value():
    grads = {"a": np.array([3.0]), "b": np.array([4.0])}
    assert opt.global_grad_norm(grads) == 5.0


def test_clip_rescales_only_above_threshold():
    grads = {"a": np.array([3.0]), "b": np.array([4.0])}
    clipped = opt.grad_clip_global_norm(grads, 1.0)
    assert abs(opt.global_grad_norm(clipped) - 1.0) < 1e-12
    np.testing.assert_allclose(clipped["a"], [0.6])
    untouched = opt.grad_clip_global_norm(grads, 10.0)
    assert untouched is grads
    for max_norm in (0.0, np.nan):
        with pytest.raises(ParameterError):
            opt.grad_clip_global_norm(grads, max_norm)


def test_a_nan_gradient_is_clipped_to_no_other_tensor():
    # a NaN norm is not above max_norm: the clip leaves every gradient as it
    # is, and LAMB names the tensor that holds the NaN, not the first one
    params = make_params({"a.weight": (3, 2), "b.weight": (2, 2)}, seed=9)
    grads = {"a.weight": np.full((3, 2), 0.5), "b.weight": np.array([[0.5, np.nan], [0.5, 0.5]])}
    clipped = opt.grad_clip_global_norm(grads, 1.0)
    assert clipped is grads
    with pytest.raises(ContractError, match="'b.weight'"):
        opt.lamb_step(params, clipped, opt.init_lamb_state(params), lr=1e-2, weight_decay=0.05)


# -- losses ---------------------------------------------------------------------------


def test_bce_zero_logits_is_log_two():
    logits = Tensor(np.zeros((2, 3)), requires_grad=True, dtype=np.float64)
    targets = np.array([[0.0, 1.0, 0.5]] * 2)
    loss = opt.bce_loss(logits, targets)
    assert abs(float(loss.data) - math.log(2.0)) < 1e-12


def test_bce_hand_value_and_gradient():
    logits = Tensor(np.array([[2.0, -1.0]]), requires_grad=True, dtype=np.float64)
    targets = np.array([[1.0, 0.0]])
    loss = opt.bce_loss(logits, targets)
    expected = (math.log(1 + math.exp(-2.0)) + math.log(1 + math.exp(-1.0))) / 2.0
    assert abs(float(loss.data) - expected) < 1e-12
    nm.backward(loss)
    # d/dz [-t log s(z) - (1-t) log(1-s(z))] / N = (s(z) - t) / N
    sig = 1.0 / (1.0 + np.exp(-logits.data))
    np.testing.assert_allclose(logits.grad, (sig - targets) / 2.0, rtol=1e-10)


def test_bce_contracts():
    logits = Tensor(np.zeros((1, 2)), dtype=np.float64)
    with pytest.raises(ContractError):
        opt.bce_loss(logits, np.array([[1.5, 0.0]]))
    with pytest.raises(ContractError):
        opt.bce_loss(logits, np.array([[np.nan, 0.0]]))
    with pytest.raises(DimensionError):
        opt.bce_loss(logits, np.array([[1.0, 0.0, 0.0]]))


@pytest.mark.parametrize("loss", [opt.bce_loss, opt.ce_smoothed_loss], ids=["bce", "ce"])
@pytest.mark.parametrize("shape", [(0, 2), (2, 0)], ids=["no-rows", "no-classes"])
def test_losses_refuse_an_empty_batch_before_recording(loss, shape, monkeypatch):
    made = []
    real_make = nm._make
    monkeypatch.setattr(nm, "_make", lambda *args: made.append(1) or real_make(*args))
    logits = Tensor(np.zeros(shape), requires_grad=True, dtype=np.float64)
    with pytest.raises(DimensionError, match="no logits"):
        loss(logits, np.zeros(shape))
    assert made == []


def test_bce_extreme_logits_finite():
    logits = Tensor(np.array([[800.0, -800.0]]), requires_grad=True, dtype=np.float64)
    loss = opt.bce_loss(logits, np.array([[0.0, 1.0]]))
    assert np.isfinite(float(loss.data))
    nm.backward(loss)
    assert np.all(np.isfinite(logits.grad))


def test_ce_unsmoothed_hand_value():
    logits = Tensor(np.array([[1.0, 0.0]]), requires_grad=True, dtype=np.float64)
    loss = opt.ce_smoothed_loss(logits, np.array([[1.0, 0.0]]), epsilon=0.0)
    assert abs(float(loss.data) - math.log(1 + math.exp(-1.0))) < 1e-12


def test_ce_smoothing_mixes_uniform():
    logits = Tensor(np.array([[0.3, -0.7, 1.1]]), requires_grad=True, dtype=np.float64)
    y = np.array([[0.0, 1.0, 0.0]])
    eps = 0.1
    loss = opt.ce_smoothed_loss(logits, y, epsilon=eps)
    lp = np.log(np.exp(logits.data) / np.exp(logits.data).sum())
    smoothed = (1 - eps) * y + eps / 3.0
    assert abs(float(loss.data) + (smoothed * lp).sum()) < 1e-12
    nm.backward(loss)
    probs = np.exp(lp)
    np.testing.assert_allclose(logits.grad, probs - smoothed, rtol=1e-10)


def test_ce_epsilon_bounds():
    logits = Tensor(np.zeros((1, 2)), dtype=np.float64)
    y = np.array([[1.0, 0.0]])
    with pytest.raises(ParameterError):
        opt.ce_smoothed_loss(logits, y, epsilon=1.0)
    with pytest.raises(ParameterError):
        opt.ce_smoothed_loss(logits, y, epsilon=-0.2)


def test_losses_accept_tensor_targets():
    logits = Tensor(np.zeros((2, 2)), dtype=np.float64)
    y = Tensor(np.array([[1.0, 0.0], [0.0, 1.0]]), dtype=np.float64)
    assert np.isfinite(float(opt.bce_loss(logits, y).data))
    assert np.isfinite(float(opt.ce_smoothed_loss(logits, y, 0.1).data))


# -- schedules -----------------------------------------------------------------------


def schedule_400():
    return opt.ScheduleConfig(base_lr=3e-3, warmup_epochs=5, total_epochs=400, steps_per_epoch=40)


def test_cosine_endpoints_are_literal():
    sched = schedule_400()
    assert opt.cosine_lr(sched, 0) == sched.warmup_start_lr
    assert opt.cosine_lr(sched, sched.warmup_steps) == 3e-3
    assert opt.cosine_lr(sched, sched.total_steps - 1) == sched.min_lr


def test_cosine_midpoint_is_mean_of_extremes():
    # decay span total-1-ws = 50 is even, so the midpoint lands on a step
    sched = opt.ScheduleConfig(base_lr=1e-2, warmup_epochs=1, total_epochs=2, steps_per_epoch=51)
    ws = sched.warmup_steps
    mid = ws + (sched.total_steps - 1 - ws) // 2
    assert abs(opt.cosine_lr(sched, mid) - (1e-2 + sched.min_lr) / 2) < 1e-15


def test_cosine_monotone_rise_then_fall():
    sched = schedule_400()
    values = [opt.cosine_lr(sched, s) for s in range(sched.total_steps)]
    ws = sched.warmup_steps
    assert all(values[i] < values[i + 1] for i in range(ws - 1))
    assert all(values[i] >= values[i + 1] for i in range(ws, sched.total_steps - 1))
    assert min(values) >= sched.min_lr - 1e-18
    assert max(values) == 3e-3


def test_cosine_step_bounds():
    sched = schedule_400()
    with pytest.raises(ParameterError):
        opt.cosine_lr(sched, -1)
    with pytest.raises(ParameterError):
        opt.cosine_lr(sched, sched.total_steps)


def test_schedule_validation():
    with pytest.raises(ParameterError):
        opt.ScheduleConfig(base_lr=1e-3, warmup_epochs=5, total_epochs=5, steps_per_epoch=10)
    for base_lr in (1e-7, np.nan):
        with pytest.raises(ParameterError):
            opt.ScheduleConfig(base_lr=base_lr, warmup_epochs=1, total_epochs=2, steps_per_epoch=10)
    with pytest.raises(ParameterError):
        opt.ScheduleConfig(base_lr=1e-3, warmup_epochs=1, total_epochs=2, steps_per_epoch=0)


@pytest.mark.parametrize(
    "epochs,drop,wd",
    [
        (400, 0.2, 0.02),
        (599, 0.2, 0.05),
        (600, 0.25, 0.05),
        (800, 0.30, 0.05),
        (1000, 0.35, 0.05),
    ],
)
def test_long_run_regularization_rule(epochs, drop, wd):
    got_drop, got_wd = opt.scale_regularization(0.2, 0.02, epochs)
    assert abs(got_drop - drop) < 1e-12
    assert got_wd == wd


def test_regularization_guards():
    with pytest.raises(ParameterError):
        opt.scale_regularization(0.9, 0.02, 1000)
    with pytest.raises(ParameterError):
        opt.scale_regularization(0.9, 0.02, 0)


# -- properties ------------------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(1e-5, 0.1))
def test_trust_step_norm_property(seed, lr):
    rng = np.random.default_rng(seed)
    params = {"x.weight": Tensor(rng.normal(size=(4, 3)) + 0.1, requires_grad=True, dtype=np.float64)}
    state = opt.init_lamb_state(params)
    before = params["x.weight"].data.copy()
    opt.lamb_step(params, {"x.weight": rng.normal(size=(4, 3))}, state, lr=lr, weight_decay=0.0)
    moved = np.linalg.norm(params["x.weight"].data - before)
    assert abs(moved - lr * np.linalg.norm(before)) < 1e-9 * max(1.0, lr)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 10), st.integers(2, 30), st.integers(1, 400))
def test_cosine_always_within_band(warmup, total, step_frac):
    if warmup >= total:
        total = warmup + 1
    sched = opt.ScheduleConfig(
        base_lr=2e-3, warmup_epochs=warmup, total_epochs=total, steps_per_epoch=13
    )
    step = step_frac % sched.total_steps
    value = opt.cosine_lr(sched, step)
    assert sched.warmup_start_lr <= value <= sched.base_lr or math.isclose(value, sched.base_lr)
