"""Model oracles: published parameter/FLOPs figures, init contracts,
forward invariants, stochastic-depth statistics, positional-grid
resampling."""

import importlib
import math
import weakref
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from vitrecipe import model as mdl
from vitrecipe import numerics as nm
from vitrecipe.errors import DimensionError, ParameterError
from vitrecipe.model import ViTConfig
from vitrecipe.numerics import Tensor
from vitrecipe.rng import Rng

TINY = ViTConfig(patch_size=4, embed_dim=32, depth=2, num_heads=2, image_size=16, num_classes=5)


def tiny_params(seed=0, dtype=np.float64, config=TINY):
    return mdl.init(config, Rng(seed), dtype=dtype)


def batch(b, config=TINY, seed=1, dtype=np.float64):
    rng = np.random.default_rng(seed)
    r = config.image_size
    return Tensor(rng.normal(size=(b, 3, r, r)), dtype=dtype)


# -- published shape figures ---------------------------------------------------

PARAM_TABLE = {  # name -> millions, 3 significant figures
    "ViT-T": 5.7,
    "ViT-S": 22.0,
    "ViT-B": 86.6,
    "ViT-L": 304.4,
    "ViT-H": 632.1,
}


@pytest.mark.parametrize("name,millions", PARAM_TABLE.items())
def test_param_counts_match_published_table(name, millions):
    config = mdl.preset_config(name, num_classes=1000)
    count = mdl.count_params(config)
    assert abs(count / 1e6 - millions) / millions < 0.005


def test_param_count_vit_h_to_four_figures():
    config = mdl.preset_config("ViT-H", num_classes=1000)
    assert round(mdl.count_params(config) / 1e6, 1) == 632.1


def test_count_params_equals_allocated_scalars():
    for config in (TINY, mdl.preset_config("ViT-S", image_size=32, num_classes=7)):
        params = mdl.init(config, Rng(3))
        allocated = sum(int(np.prod(p.shape)) for p in params.values())
        assert allocated == mdl.count_params(config)


def test_param_count_head_arithmetic():
    a = mdl.preset_config("ViT-B", num_classes=1000)
    b = mdl.preset_config("ViT-B", num_classes=2000)
    delta = mdl.count_params(b) - mdl.count_params(a)
    assert delta == a.embed_dim * 1000 + 1000


FLOP_TABLE = {  # (name, resolution) -> 1e9 multiply-accumulates
    ("ViT-S", 224): 4.6,
    ("ViT-B", 224): 17.5,
    ("ViT-L", 224): 61.6,
    ("ViT-H", 224): 167.4,
}


@pytest.mark.parametrize("key,giga", FLOP_TABLE.items())
def test_flop_counts_match_published_table(key, giga):
    name, res = key
    config = mdl.preset_config(name, image_size=res, num_classes=1000)
    count = mdl.count_flops(config, res)
    assert abs(count / 1e9 - giga) / giga < 0.015


def test_flops_increase_with_resolution_params_grow_by_pos_rows():
    config = mdl.preset_config("ViT-B", num_classes=1000)
    assert mdl.count_flops(config, 160) < mdl.count_flops(config, 224) < mdl.count_flops(config, 384)
    # only the positional table depends on resolution
    delta = mdl.count_params(
        mdl.preset_config("ViT-B", image_size=384, num_classes=1000)
    ) - mdl.count_params(config)
    extra_rows = mdl.num_patches(384, 16) - mdl.num_patches(224, 16)
    assert delta == extra_rows * config.embed_dim


ACCEPTANCE_TOY = ViTConfig(
    patch_size=4, embed_dim=64, depth=4, num_heads=4, image_size=32, num_classes=4,
    layerscale_init=1.0,
)


@pytest.mark.parametrize(
    "config,b,dtype",
    [
        (ACCEPTANCE_TOY, 64, np.float32),
        (replace(ACCEPTANCE_TOY, drop_path_rate=0.1), 64, np.float32),
        (mdl.preset_config("vit-t", image_size=96, num_classes=8), 2, np.float32),
        (replace(TINY, drop_path_rate=0.5), 3, np.float64),
    ],
    ids=["toy", "toy-drop-path", "vit-t-96", "tiny-f64"],
)
def test_activation_bytes_are_what_the_tape_holds(monkeypatch, config, b, dtype):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    tape_stats = importlib.import_module("tracer").tape_stats
    params = mdl.init(config, Rng(3), dtype=dtype)
    logits = mdl.forward(config, params, batch(b, config, dtype=dtype), mode="train", rng=Rng(4))
    _, held = tape_stats(logits)
    # backward reads every weight matrix, norm gain and LayerScale vector,
    # and no bias or embedding
    read = [p for name, p in params.items() if name.endswith((".weight", ".ls1", ".ls2"))]
    expected = mdl.count_activation_bytes(config, b, dtype)
    assert held - sum(p.data.nbytes for p in read) == expected["total"]
    assert expected["total"] == (
        expected["patch_embed"] + config.depth * expected["block"] + expected["head"]
    )


def test_backward_frees_the_arrays_the_tape_held():
    params = tiny_params(dtype=np.float32)
    logits = mdl.forward(TINY, params, batch(2, dtype=np.float32), mode="train", rng=Rng(4))
    loss = nm.tensor_sum(logits)
    saved, nodes, seen = {"deriv": [], "xhat": []}, [loss.node], set()
    while nodes:
        node = nodes.pop()
        if node is None or id(node) in seen:
            continue
        seen.add(id(node))
        rule = node.grad_fn
        for name, cell in zip(rule.__code__.co_freevars, rule.__closure__ or ()):
            if name in saved:  # GELU's derivative, layernorm's xhat
                saved[name].append(weakref.ref(cell.cell_contents))
        nodes.extend(t.node for t in node.inputs)
    # one GELU and two layernorms per block, and the final norm
    assert (len(saved["deriv"]), len(saved["xhat"])) == (TINY.depth, 2 * TINY.depth + 1)
    nm.backward(loss)
    assert sum(ref() is not None for refs in saved.values() for ref in refs) == 0
    assert logits.data.shape == (2, TINY.num_classes) and np.isfinite(loss.data).all()


def perfbench_tracer(monkeypatch):
    """perfbench's `Tracer` class, once the submodules it looks up are loaded."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    for name in ("numerics", "model", "checkpoint", "training"):
        importlib.import_module(f"vitrecipe.{name}")
    return importlib.import_module("tracer").Tracer


def test_traced_forward_macs_equal_count_flops(monkeypatch):
    # perfbench's exact MAC check counts `nm.matmul` calls, so it sees the
    # two attention products only because `nm.attention` makes them there
    tracer = perfbench_tracer(monkeypatch)()
    b = 64
    params = mdl.init(ACCEPTANCE_TOY, Rng(3))
    images = batch(b, ACCEPTANCE_TOY, dtype=np.float32)
    tracer.install()
    try:
        mdl.forward(ACCEPTANCE_TOY, params, images, mode="train", rng=Rng(4))
    finally:
        tracer.uninstall()
    [(_, macs, expected, _, _)] = tracer.forwards
    assert macs == expected == mdl.count_flops(ACCEPTANCE_TOY, 32) * b


def test_traced_forward_records_the_same_spans_with_one_part_and_two(monkeypatch):
    # the helper thread runs raw numpy only, so a split adds no span and no MAC
    tracer_class = perfbench_tracer(monkeypatch)
    b = 64
    params = mdl.init(ACCEPTANCE_TOY, Rng(3))
    images = batch(b, ACCEPTANCE_TOY, dtype=np.float32)
    spans, forwards = [], []
    for parts in (1, 2):
        monkeypatch.setattr(nm, "_PARTS", parts)
        tracer = tracer_class()
        tracer.install()
        try:
            logits = mdl.forward(ACCEPTANCE_TOY, params, images, mode="train", rng=Rng(4))
            nm.backward(nm.tensor_sum(logits))
        finally:
            tracer.uninstall()
        spans.append(Counter(name for name, *_ in tracer.spans))
        forwards.append(tracer.forwards)
    assert spans[0] == spans[1]
    # per block: qkv, attention's two products, proj, fc1 and fc2; then patch and head
    assert spans[0]["numerics.matmul"] == 6 * ACCEPTANCE_TOY.depth + 2
    for [(_, macs, expected, _, _)] in forwards:
        assert macs == expected == mdl.count_flops(ACCEPTANCE_TOY, 32) * b


def test_untracked_images_skip_their_gradient_and_keep_the_parameter_bytes():
    # the patch projection computes no g·Wᵀ for images that take no gradient;
    # every parameter gradient has the bytes of a backward that computes it
    params = mdl.init(ACCEPTANCE_TOY, Rng(3))
    grads = []
    for images_need_grad in (False, True):
        images = batch(64, ACCEPTANCE_TOY, dtype=np.float32)
        images.requires_grad = images_need_grad
        for p in params.values():
            p.zero_grad()
        logits = mdl.forward(ACCEPTANCE_TOY, params, images, mode="train", rng=Rng(4))
        nm.backward(nm.tensor_sum(logits))
        assert (images.grad is not None) == images_need_grad
        grads.append({name: p.grad.tobytes() for name, p in params.items()})
    assert grads[0] == grads[1]
    w = Tensor(np.ones((3, 4), np.float32), requires_grad=True)
    ga, gw = nm.matmul(Tensor(np.ones((2, 5, 3))), w).node.grad_fn(np.ones((2, 5, 4), np.float32))
    assert ga is None and gw.shape == (3, 4)


def test_token_counts_160_vs_224():
    assert mdl.num_patches(160, 16) == 100
    assert mdl.num_patches(224, 16) == 196


def test_preset_name_normalization():
    assert mdl.canonical_preset("vit_b") == "ViT-B"
    assert mdl.canonical_preset(" s ") == "ViT-S"
    assert mdl.preset_config("ViT-H").patch_size == 14
    with pytest.raises(ParameterError):
        mdl.canonical_preset("vit-xxl")


DROP_PATH_TABLE = {  # (preset, pretraining corpus) -> stochastic-depth rate
    ("ViT-T", "in1k"): 0.0, ("ViT-T", "in21k"): 0.0,
    ("ViT-S", "in1k"): 0.0, ("ViT-S", "in21k"): 0.0,
    ("ViT-B", "in1k"): 0.1, ("ViT-B", "in21k"): 0.1,
    ("ViT-L", "in1k"): 0.4, ("ViT-L", "in21k"): 0.3,
    ("ViT-H", "in1k"): 0.5, ("ViT-H", "in21k"): 0.5,
}


def test_preset_drop_path_by_corpus():
    assert {key[0] for key in DROP_PATH_TABLE} == set(mdl.PRESETS)
    for (name, corpus), rate in DROP_PATH_TABLE.items():
        assert mdl.preset_drop_path(name, corpus) == rate, (name, corpus)
        assert mdl.preset_config(name, dataset=corpus).drop_path_rate == rate, (name, corpus)
    with pytest.raises(ParameterError):
        mdl.preset_drop_path("ViT-B", "jft")


# -- init contracts -------------------------------------------------------------


def test_init_layerscale_exact_and_biases_zero():
    params = tiny_params()
    for i in range(TINY.depth):
        assert np.all(params[f"blocks.{i}.ls1"].data == TINY.layerscale_init)
        assert np.all(params[f"blocks.{i}.ls2"].data == TINY.layerscale_init)
    for name, p in params.items():
        if name.endswith(".bias"):
            assert np.all(p.data == 0.0), name
    assert np.all(params["norm.weight"].data == 1.0)


def test_init_truncation_bound():
    params = tiny_params(seed=7)
    for name, p in params.items():
        if name.endswith(".weight") and p.data.ndim >= 2 or name in ("cls_token", "pos_embed"):
            assert np.abs(p.data).max() <= 2.0 * 0.02 + 1e-12, name


def test_init_same_seed_identical_bytes():
    a = mdl.init(TINY, Rng(11))
    b = mdl.init(TINY, Rng(11))
    assert set(a) == set(b)
    for name in a:
        assert np.array_equal(a[name].data, b[name].data), name
    c = mdl.init(TINY, Rng(12))
    assert any(not np.array_equal(a[n].data, c[n].data) for n in a)


def test_pos_embed_row_count():
    params = tiny_params()
    tokens = mdl.num_patches(TINY.image_size, TINY.patch_size) + 1
    assert params["pos_embed"].shape == (1, tokens, TINY.embed_dim)


# -- forward invariants -----------------------------------------------------------


def test_forward_shape_and_eval_determinism():
    params = tiny_params()
    x = batch(3)
    a = mdl.forward(TINY, params, x, mode="eval").data
    b = mdl.forward(TINY, params, x, mode="eval").data
    assert a.shape == (3, TINY.num_classes)
    np.testing.assert_array_equal(a, b)


def test_forward_train_equals_eval_without_drop():
    params = tiny_params()
    x = batch(2)
    train = mdl.forward(TINY, params, x, mode="train", rng=Rng(0)).data
    ev = mdl.forward(TINY, params, x, mode="eval").data
    np.testing.assert_array_equal(train, ev)


def test_forward_batch_permutation_equivariance():
    params = tiny_params()
    x = batch(4, seed=5)
    perm = np.array([2, 0, 3, 1])
    base = mdl.forward(TINY, params, x, mode="eval").data
    shuffled = mdl.forward(TINY, params, Tensor(x.data[perm]), mode="eval").data
    np.testing.assert_allclose(shuffled, base[perm], rtol=1e-12)


def test_f32_eval_logits_match_f64_forward():
    # the eval probe of the benchmark, small: identity gates let every block's
    # f32 arithmetic (GELU's approximate Φ included) reach the logits
    config = ViTConfig(
        patch_size=4, embed_dim=64, depth=2, num_heads=4, image_size=16,
        num_classes=8, layerscale_init=1.0,
    )
    params = mdl.init(config, Rng(6))
    images = batch(8, config=config, seed=7, dtype=np.float32)
    logits = mdl.forward(config, params, images, mode="eval").data
    params64 = {k: Tensor(p.data, dtype=np.float64) for k, p in params.items()}
    reference = mdl.forward(
        config, params64, Tensor(images.data, dtype=np.float64), mode="eval"
    ).data
    assert logits.dtype == np.float32
    np.testing.assert_allclose(logits, reference, rtol=0, atol=1e-5)


def test_forward_resolution_mismatch():
    params = tiny_params()
    with pytest.raises(DimensionError):
        mdl.forward(TINY, params, Tensor(np.zeros((1, 3, 8, 8))), mode="eval")


def test_zero_layerscale_blinds_the_network():
    # with both gates at zero the residual stream never sees the image
    config = ViTConfig(
        patch_size=4, embed_dim=32, depth=2, num_heads=2, image_size=16,
        num_classes=5, layerscale_init=0.0,
    )
    params = mdl.init(config, Rng(2), dtype=np.float64)
    a = mdl.forward(config, params, batch(2, seed=8), mode="eval").data
    b = mdl.forward(config, params, batch(2, seed=9), mode="eval").data
    np.testing.assert_allclose(a, b, atol=1e-12)
    np.testing.assert_allclose(a[0], a[1], atol=1e-12)


def test_drop_path_mask_statistics():
    config = ViTConfig(
        patch_size=4, embed_dim=16, depth=2, num_heads=2, image_size=8,
        num_classes=3, drop_path_rate=0.5,
    )
    params = mdl.init(config, Rng(4), dtype=np.float64)
    recorded = []
    original = nm.drop_path_scale

    def spy(x, keep_mask, scale_factor):
        recorded.append(np.asarray(keep_mask).copy())
        return original(x, keep_mask, scale_factor)

    mdl.nm.drop_path_scale = spy
    try:
        rng = Rng(99)
        x = batch(100, config=config, seed=10)
        for _ in range(25):
            mdl.forward(config, params, x, mode="train", rng=rng)
    finally:
        mdl.nm.drop_path_scale = original

    decisions = np.concatenate(recorded)
    n = decisions.size
    assert n == 25 * 100 * config.depth * 2
    drop_rate = 1.0 - decisions.mean()
    sigma = math.sqrt(0.5 * 0.5 / n)
    assert abs(drop_rate - 0.5) < 3 * sigma


@pytest.mark.parametrize("depth", [1, 3])
def test_drop_path_masks_are_one_draw_in_block_order(monkeypatch, depth):
    # one uniform_array call per train forward, whose masks are the
    # successive per-branch draws: block by block, attention before MLP
    config = ViTConfig(
        patch_size=4, embed_dim=16, depth=depth, num_heads=2, image_size=8,
        num_classes=3, drop_path_rate=0.3,
    )
    params = mdl.init(config, Rng(4), dtype=np.float64)
    x = batch(5, config=config, seed=12)
    reference = Rng(21)
    expected = [reference.uniform_array(5) >= 0.3 for _ in range(2 * depth)]
    masks, draws = [], []
    scale, draw = nm.drop_path_scale, Rng.uniform_array
    monkeypatch.setattr(
        mdl.nm, "drop_path_scale",
        lambda y, keep, f: (masks.append(np.array(keep, dtype=bool)), scale(y, keep, f))[1],
    )
    monkeypatch.setattr(
        Rng, "uniform_array", lambda self, n, *a: (draws.append(n), draw(self, n, *a))[1]
    )
    rng = Rng(21)
    mdl.forward(config, params, x, mode="train", rng=rng)
    assert draws == [2 * depth * 5]
    assert rng.state == reference.state
    assert len(masks) == len(expected)
    for got, want in zip(masks, expected):
        np.testing.assert_array_equal(got, want)

    for mode, rate in (("eval", 0.3), ("train", 0.0)):
        masks.clear()
        draws.clear()
        rng = Rng(21)
        mdl.forward(replace(config, drop_path_rate=rate), params, x, mode=mode, rng=rng)
        assert (masks, draws, rng.state) == ([], [], Rng(21).state)


def test_drop_path_expectation_matches_eval():
    # averaging many train-mode passes over one sample recovers the
    # deterministic eval output (unbiasedness of the 1/(1-rate) rescale)
    config = ViTConfig(
        patch_size=4, embed_dim=16, depth=1, num_heads=2, image_size=8,
        num_classes=3, drop_path_rate=0.5,
    )
    params = mdl.init(config, Rng(6), dtype=np.float64)
    one = batch(1, config=config, seed=11)
    tiled = Tensor(np.repeat(one.data, 4000, axis=0))
    train_logits = mdl.forward(config, params, tiled, mode="train", rng=Rng(13)).data
    eval_logits = mdl.forward(config, params, one, mode="eval").data[0]
    mean = train_logits.mean(axis=0)
    se = train_logits.std(axis=0, ddof=1) / math.sqrt(train_logits.shape[0])
    assert np.all(np.abs(mean - eval_logits) < 3 * se + 1e-9)


def test_forward_train_needs_rng_when_dropping():
    config = ViTConfig(
        patch_size=4, embed_dim=16, depth=1, num_heads=2, image_size=8,
        num_classes=3, drop_path_rate=0.2,
    )
    params = mdl.init(config, Rng(1), dtype=np.float64)
    with pytest.raises(ParameterError):
        mdl.forward(config, params, batch(2, config=config), mode="train")


# -- positional-grid resampling ----------------------------------------------------


def test_interpolate_same_size_identity():
    params = tiny_params()
    out = mdl.interpolate_pos_embed(params, TINY.image_size, TINY.patch_size)
    np.testing.assert_array_equal(out["pos_embed"].data, params["pos_embed"].data)


def test_interpolate_constant_grid_stays_constant():
    params = tiny_params()
    pe = params["pos_embed"].data.copy()
    pe[0, 1:, :] = 0.625
    params["pos_embed"] = Tensor(pe, requires_grad=True, dtype=np.float64)
    out = mdl.interpolate_pos_embed(params, 32, TINY.patch_size)
    grid = out["pos_embed"].data[0, 1:, :]
    np.testing.assert_allclose(grid, 0.625, rtol=1e-12)
    # class-token row untouched
    np.testing.assert_array_equal(out["pos_embed"].data[0, 0], pe[0, 0])


def test_interpolate_row_counts_160_to_224():
    config = ViTConfig(
        patch_size=16, embed_dim=32, depth=1, num_heads=2, image_size=160, num_classes=2
    )
    params = mdl.init(config, Rng(5), dtype=np.float64)
    assert params["pos_embed"].shape[1] == 101
    out = mdl.interpolate_pos_embed(params, 224, 16)
    assert out["pos_embed"].shape == (1, 197, 32)


SIZES = dict(patch_size=4, embed_dim=32, depth=2, num_heads=2, image_size=16, num_classes=5)


@pytest.mark.parametrize("field", SIZES)
@pytest.mark.parametrize("value", [0, -4])
def test_config_rejects_a_non_positive_size(field, value):
    with pytest.raises(ParameterError, match=field):
        ViTConfig(**{**SIZES, field: value})


@pytest.mark.parametrize("image_size,patch_size", [(32, 0), (0, 4), (32, -4)])
def test_num_patches_rejects_a_non_positive_size(image_size, patch_size):
    with pytest.raises(ParameterError):
        mdl.num_patches(image_size, patch_size)


@pytest.mark.parametrize("new_size,patch_size", [(0, 4), (8, 0), (-8, 4)])
def test_interpolate_rejects_a_non_positive_size(new_size, patch_size):
    with pytest.raises(ParameterError):
        mdl.interpolate_pos_embed(tiny_params(), new_size, patch_size)


@pytest.mark.parametrize("check", [
    lambda size: mdl.num_patches(size, TINY.patch_size),
    lambda size: replace(TINY, image_size=size),
    lambda size: mdl.count_flops(TINY, size),
    lambda size: mdl.interpolate_pos_embed(tiny_params(), size, TINY.patch_size),
], ids=["num_patches", "ViTConfig", "count_flops", "interpolate_pos_embed"])
def test_an_indivisible_size_is_refused(check):
    # 18 px does not divide into TINY's 4 px patches
    with pytest.raises(ParameterError, match="not divisible"):
        check(18)


def test_interpolated_model_still_runs():
    params = tiny_params()
    grown = mdl.interpolate_pos_embed(params, 32, TINY.patch_size)
    config = replace(TINY, image_size=32)
    logits = mdl.forward(config, grown, batch(2, config=config, seed=12), mode="eval")
    assert logits.shape == (2, TINY.num_classes)


# -- gradient spot check (full suite runs in the acceptance tests) -------------------


def test_model_gradient_spot_check():
    params = tiny_params(dtype=np.float64)
    x = batch(2, seed=14)
    y = np.zeros((2, TINY.num_classes))
    y[0, 1] = y[1, 3] = 1.0

    def loss_value(ps):
        logits = mdl.forward(TINY, ps, x, mode="eval")
        lp = nm.log_softmax(logits)
        return nm.scale(nm.tensor_sum(nm.mul(lp, Tensor(y, dtype=np.float64))), -0.5)

    loss = loss_value(params)
    nm.backward(loss)

    h = 1e-5
    for name in ("blocks.0.ls1", "head.bias", "patch_embed.weight"):
        p = params[name]
        flat_index = 3 % p.data.size
        idx = np.unravel_index(flat_index, p.data.shape)
        analytic = p.grad[idx]
        orig = p.data[idx]
        p.data[idx] = orig + h
        up = float(loss_value(params).data)
        p.data[idx] = orig - h
        down = float(loss_value(params).data)
        p.data[idx] = orig
        numeric = (up - down) / (2 * h)
        denom = max(abs(analytic), abs(numeric), 1e-6)
        assert abs(analytic - numeric) / denom < 1e-4, name
