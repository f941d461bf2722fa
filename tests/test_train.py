"""Training loop: determinism, metrics format, checkpoint container,
finetune wiring, abort contract, the loader process."""

import contextlib
import ctypes
import gc
import multiprocessing
import os
import pickle
import platform
import re
import signal
import struct
import subprocess
import sys
import tracemalloc
import weakref
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from vitrecipe import augment as aug
from vitrecipe import checkpoint as ckpt
from vitrecipe import config as cfg
from vitrecipe import data as dat
from vitrecipe import model as mdl
from vitrecipe import numerics as nm
from vitrecipe import optim as opt
from vitrecipe import training as trn
from vitrecipe.errors import ContractError, FormatError, ParameterError
from vitrecipe.numerics import Tensor
from vitrecipe.rng import Rng, derive_seed


@pytest.fixture(scope="module")
def synth_root(tmp_path_factory):
    root = tmp_path_factory.mktemp("toy")
    spec = dat.SynthSpec(num_classes=2, per_class=8, resolution=16, seed=5)
    manifest = dat.synth_dataset(spec, root)
    return manifest


def toy_recipe(**kwargs):
    base = dict(
        batch_size=8,
        epochs=2,
        warmup_epochs=1,
        lr=1e-3,
        train_resolution=16,
        eval_resolution=16,
        seed=4,
        layerscale_init=1.0,
    )
    base.update(kwargs)
    return replace(cfg.preset("in1k"), **base)


def toy_model(image_size=16, num_classes=2):
    return mdl.ViTConfig(
        patch_size=4, embed_dim=16, depth=1, num_heads=2,
        image_size=image_size, num_classes=num_classes,
    )


# -- checkpoint container -----------------------------------------------------


def test_checkpoint_round_trip(tmp_path):
    path = tmp_path / "x.ckpt"
    arrays = {
        "a": np.arange(6, dtype=np.float32).reshape(2, 3),
        "b.weight": np.array([1.5], dtype=np.float32),
        "scalarish": np.float32(7).reshape(()),
    }
    ckpt.save_checkpoint(path, {"k": "v", "n": 3}, arrays)
    block, back = ckpt.load_checkpoint(path)
    assert block == {"k": "v", "n": "3"}
    assert set(back) == set(arrays)
    for name in arrays:
        np.testing.assert_array_equal(back[name], arrays[name])
        assert back[name].dtype == np.float32


def test_checkpoint_rejects_garbage(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"NOTACKPT")
    with pytest.raises(FormatError):
        ckpt.load_checkpoint(path)
    path.write_bytes(b"VITCKPT1" + b"\xff\xff\xff\xff")
    with pytest.raises(FormatError):
        ckpt.load_checkpoint(path)


def test_checkpoint_truncated_record(tmp_path):
    path = tmp_path / "t.ckpt"
    ckpt.save_checkpoint(path, {}, {"w": np.ones(4, dtype=np.float32)})
    raw = path.read_bytes()
    path.write_bytes(raw[:-3])
    with pytest.raises(FormatError):
        ckpt.load_checkpoint(path)


@pytest.mark.parametrize(
    "extents",
    [(2**63,), (2**64 - 1,), (2**32, 2**32), (0, 2**63), (2**62, 2**62, 0)],
    ids=["2^63", "2^64-1", "2^32x2^32", "0x2^63", "2^62x2^62x0"],
)
def test_checkpoint_rejects_oversized_extents(tmp_path, extents):
    # the first three claim more values than the file holds (the element
    # count overflows int64); the last two hold no values but cannot be arrays
    path = tmp_path / "big.ckpt"
    record = struct.pack("<I", 1) + b"w" + struct.pack(f"<I{len(extents)}Q", len(extents), *extents)
    path.write_bytes(b"VITCKPT1" + struct.pack("<I", 0) + record + b"\0" * 16)
    with pytest.raises(FormatError):
        ckpt.load_checkpoint(path)


@pytest.mark.parametrize(
    "tail",
    [struct.pack("<I", 3) + b"k=\xff", struct.pack("<I", 0) + struct.pack("<I", 1) + b"\xff"],
    ids=["config-block", "tensor-name"],
)
def test_checkpoint_rejects_non_utf8_text(tmp_path, tail):
    path = tmp_path / "u.ckpt"
    path.write_bytes(b"VITCKPT1" + tail)
    with pytest.raises(FormatError):
        ckpt.load_checkpoint(path)


def test_checkpoint_rejects_a_tensor_named_twice(tmp_path):
    path = tmp_path / "twice.ckpt"
    ckpt.save_checkpoint(path, {}, {"w": np.ones(2, dtype=np.float32)})
    record = path.read_bytes()[len(b"VITCKPT1") + 4 :]
    path.write_bytes(path.read_bytes() + record)
    with pytest.raises(FormatError, match="'w' appears twice"):
        ckpt.load_checkpoint(path)


def _joined_checkpoint_bytes(config, arrays):
    """The VITCKPT1 bytes as the join-based writer made them: every tensor
    copied with `tobytes`, then the whole file joined in memory."""
    block = "".join(f"{k}={v}\n" for k, v in config.items()).encode("utf-8")
    chunks = [b"VITCKPT1", struct.pack("<I", len(block)), block]
    for name, arr in arrays.items():
        data = np.ascontiguousarray(arr, dtype="<f4")
        encoded = name.encode("utf-8")
        chunks.append(struct.pack("<I", len(encoded)))
        chunks.append(encoded)
        chunks.append(struct.pack("<I", data.ndim))
        chunks.append(struct.pack(f"<{data.ndim}Q", *data.shape))
        chunks.append(data.tobytes())
    return b"".join(chunks)


EDGE_TENSORS = {
    "f32": np.arange(12, dtype=np.float32).reshape(3, 4) / 7,
    "f64": np.linspace(-1.0, 1.0, 10, dtype=np.float64) / 3,
    "big-endian-f4": (np.arange(6, dtype=np.float32) - 2.5).astype(">f4").reshape(2, 3),
    "0-d": np.float32(-7.25).reshape(()),
    "empty-0x4": np.zeros((0, 4), dtype=np.float32),
}


@pytest.mark.parametrize("which", [*EDGE_TENSORS, "all"])
def test_checkpoint_bytes_equal_the_joined_writer_and_round_trip(tmp_path, which):
    arrays = dict(EDGE_TENSORS) if which == "all" else {which: EDGE_TENSORS[which]}
    config = {"model.depth": 2, "note": "ünïcode"}
    path = tmp_path / "edge.ckpt"
    ckpt.save_checkpoint(path, config, arrays)
    assert path.read_bytes() == _joined_checkpoint_bytes(config, arrays)
    block, back = ckpt.load_checkpoint(path)
    assert block == {k: str(v) for k, v in config.items()}
    assert list(back) == list(arrays)
    for name, arr in arrays.items():
        # the format has always stored a 0-d tensor as one value of rank 1
        assert back[name].shape == (arr.shape or (1,))
        assert back[name].dtype == np.dtype("<f4")
        np.testing.assert_array_equal(back[name], arr.astype(np.float32).reshape(back[name].shape))


class _FailsToConvert:
    def __array__(self, dtype=None, copy=None):
        raise RuntimeError("disk gone")


def test_a_failed_save_leaves_the_old_checkpoint_and_no_temp_file(tmp_path):
    path = tmp_path / "run.ckpt"
    ckpt.save_checkpoint(path, {"k": 1}, {"w": np.ones(4, dtype=np.float32)})
    old = path.read_bytes()
    # the first tensor is written before the second one's write raises
    arrays = {"w": np.zeros(4096, dtype=np.float32), "x": _FailsToConvert()}
    with pytest.raises(RuntimeError, match="disk gone"):
        ckpt.save_checkpoint(path, {"k": 2}, arrays)
    assert path.read_bytes() == old
    assert os.listdir(tmp_path) == ["run.ckpt"]


@pytest.mark.parametrize(
    "config",
    [{"a=b": 1}, {"note": "x\ny=2"}, {"k": "v\r"}, {"k\n": 1}, {"k": "v\u2028w"}],
    ids=["=-in-key", "newline-in-value", "cr-in-value", "newline-in-key", "line-separator"],
)
def test_save_refuses_a_config_that_loads_back_wrong(tmp_path, config):
    # a missing directory: a save that opened any file would fail otherwise
    path = tmp_path / "missing" / "x.ckpt"
    with pytest.raises(ParameterError, match="would not load back"):
        ckpt.save_checkpoint(path, config, {"w": np.ones(2, dtype=np.float32)})
    assert list(tmp_path.iterdir()) == []


def _traced_peak_above_start(fn):
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        result = fn()
        return tracemalloc.get_traced_memory()[1] - start, result
    finally:
        tracemalloc.stop()


def test_save_and_load_hold_one_copy_of_the_state(tmp_path):
    tensor_bytes = 1 << 20
    arrays = {f"t{i}": np.full(tensor_bytes // 4, i, dtype=np.float32) for i in range(8)}
    arrays["f64"] = np.full(tensor_bytes // 4, 0.5, dtype=np.float64)  # converted on the way
    path = tmp_path / "big.ckpt"
    saved, _ = _traced_peak_above_start(lambda: ckpt.save_checkpoint(path, {"k": 1}, arrays))
    # at most the one converted tensor above the live arrays
    assert saved <= tensor_bytes + (16 << 10), saved
    loaded, (_, back) = _traced_peak_above_start(lambda: ckpt.load_checkpoint(path))
    # the loaded arrays and a few KiB of headers, no second copy of the file
    assert loaded <= sum(a.nbytes for a in back.values()) + (16 << 10), loaded
    assert len(back) == 9


def test_pack_unpack_training_state():
    params = {
        "w.weight": Tensor(np.ones((2, 2)), requires_grad=True),
        "b.bias": Tensor(np.zeros(2), requires_grad=True),
    }
    state = opt.init_lamb_state(params)
    state.step = 9
    state.m["w.weight"][:] = 0.25
    arrays = ckpt.pack_training_state(params, state)
    assert "opt.m.w.weight" in arrays and "opt.step" in arrays
    back_params, back_state = ckpt.unpack_training_state(
        arrays, {name: p.shape for name, p in params.items()}
    )
    assert back_state.step == 9
    np.testing.assert_array_equal(back_state.m["w.weight"], 0.25)
    np.testing.assert_array_equal(back_params["w.weight"].data, params["w.weight"].data)


def test_unpack_takes_the_loaded_arrays_without_a_copy(tmp_path):
    params = {"w": Tensor(np.ones((2, 3), np.float32), requires_grad=True)}
    state = opt.init_lamb_state(params)
    ckpt.save_checkpoint(tmp_path / "c.ckpt", {}, ckpt.pack_training_state(params, state))
    _, arrays = ckpt.load_checkpoint(tmp_path / "c.ckpt")
    back, back_state = ckpt.unpack_training_state(dict(arrays), {"w": (2, 3)})
    assert np.shares_memory(back["w"].data, arrays["w"])
    assert np.shares_memory(back_state.m["w"], arrays["opt.m.w"])
    assert np.shares_memory(back_state.v["w"], arrays["opt.v.w"])


def test_unpack_without_moments_gives_none():
    params = {"w": Tensor(np.ones(3))}
    arrays = ckpt.pack_training_state(params, None)
    back, state = ckpt.unpack_training_state(arrays, {"w": (3,)})
    assert state is None
    assert set(back) == {"w"}


@pytest.mark.parametrize(
    "step", [[], [float("nan")], [2.5], [-1.0], [1.0, 2.0]],
    ids=["empty", "nan", "fractional", "negative", "two-values"],
)
def test_unpack_rejects_a_step_that_is_not_one_integer(step):
    params = {"w": Tensor(np.ones(2), requires_grad=True)}
    arrays = ckpt.pack_training_state(params, opt.init_lamb_state(params))
    arrays["opt.step"] = np.array(step, dtype=np.float32)
    with pytest.raises(FormatError, match="opt.step"):
        ckpt.unpack_training_state(arrays, {"w": (2,)})


def test_unpack_incomplete_moments_is_rejected():
    arrays = {
        "w": np.ones(2, dtype=np.float32),
        "x": np.ones(2, dtype=np.float32),
        "opt.m.w": np.zeros(2, dtype=np.float32),
        "opt.v.w": np.zeros(2, dtype=np.float32),
        "opt.step": np.array([1.0], dtype=np.float32),
    }
    with pytest.raises(FormatError):
        ckpt.unpack_training_state(arrays, {"w": (2,), "x": (2,)})


# -- training loop -------------------------------------------------------------


def test_train_same_seed_bit_identical(tmp_path, synth_root):
    recipe = toy_recipe()
    a = trn.train(recipe, synth_root, toy_model(), tmp_path / "a")
    b = trn.train(recipe, synth_root, toy_model(), tmp_path / "b")
    assert a.checkpoint_path.read_bytes() == b.checkpoint_path.read_bytes()

    def without_wall_seconds(result):
        lines = result.metrics_path.read_text().splitlines()
        header_at = next(i for i, ln in enumerate(lines) if not ln.startswith("#"))
        wall = lines[header_at].split(",").index("wall_seconds")
        rows = [ln.split(",") for ln in lines[header_at:]]
        return lines[:header_at] + [",".join(r[:wall] + r[wall + 1 :]) for r in rows]

    assert without_wall_seconds(a) == without_wall_seconds(b)
    c = trn.train(replace(recipe, seed=99), synth_root, toy_model(), tmp_path / "c")
    assert a.checkpoint_path.read_bytes() != c.checkpoint_path.read_bytes()


def test_metrics_csv_shape_and_lr_column(tmp_path, synth_root):
    recipe = toy_recipe(epochs=3)
    result = trn.train(recipe, synth_root, toy_model(), tmp_path / "m")
    lines = result.metrics_path.read_text().splitlines()
    comments = [ln for ln in lines if ln.startswith("#")]
    assert any("recipe.lr=0.001" in ln for ln in comments)
    assert any(ln.startswith("# steps_per_epoch=") for ln in comments)
    header_at = next(i for i, ln in enumerate(lines) if not ln.startswith("#"))
    assert lines[header_at] == trn.METRICS_HEADER

    rows = [ln.split(",") for ln in lines[header_at + 1 :]]
    steps_per_epoch = int(
        next(ln for ln in comments if "steps_per_epoch=" in ln).split("=")[1]
    )
    assert result.steps == recipe.epochs * steps_per_epoch
    assert len(rows) == result.steps
    schedule = opt.ScheduleConfig(
        base_lr=recipe.lr,
        warmup_epochs=recipe.warmup_epochs,
        total_epochs=recipe.epochs,
        steps_per_epoch=steps_per_epoch,
    )
    previous = (-1, -1)
    for row in rows:
        epoch, step = int(row[0]), int(row[1])
        assert (epoch, step) > previous
        previous = (epoch, step)
        assert float(row[2]) == opt.cosine_lr(schedule, step)  # repr round-trips
        assert np.isfinite(float(row[3]))
    # epoch-end rows carry the train accuracy
    eval_rows = [r for r in rows if r[4] != ""]
    assert len(eval_rows) == recipe.epochs
    assert all(0.0 <= float(r[4]) <= 1.0 for r in eval_rows)
    walls = [float(r[6]) for r in rows]
    assert walls == sorted(walls)


def test_val_manifest_fills_val_acc_on_epoch_end_rows(tmp_path, synth_root):
    val = dat.synth_dataset(
        dat.SynthSpec(num_classes=2, per_class=4, resolution=16, seed=6), tmp_path / "val"
    )
    recipe = toy_recipe()
    result = trn.train(recipe, synth_root, toy_model(), tmp_path / "v", val_manifest=val)
    lines = result.metrics_path.read_text().splitlines()
    rows = [ln.split(",") for ln in lines if not ln.startswith(("#", "epoch,"))]
    epoch_ends = {max(i for i, r in enumerate(rows) if r[0] == e) for e in {r[0] for r in rows}}
    assert len(epoch_ends) == recipe.epochs
    assert {i for i, r in enumerate(rows) if r[5] != ""} == epoch_ends
    assert rows[-1][5] == repr(result.final_val_acc)
    config, params, _, _ = trn.load_model(result.checkpoint_path)
    assert result.final_val_acc == trn.evaluate(config, params, val, recipe.test_crop_ratio)


def test_train_repeated_aug_steps(tmp_path, synth_root):
    # 16 imgs, batch 8 at m=3: ceil(8/3)=3 distinct per batch, floor(16/3)=5 steps
    result = trn.train(toy_recipe(epochs=2), synth_root, toy_model(), tmp_path / "ra")
    assert result.steps == 2 * 5
    plain = trn.train(
        toy_recipe(epochs=2, repeated_aug=False), synth_root, toy_model(), tmp_path / "pl"
    )
    assert plain.steps == 2 * 2


def test_checkpoint_carries_model_and_state(tmp_path, synth_root):
    result = trn.train(toy_recipe(), synth_root, toy_model(), tmp_path / "s")
    config, params, state, block = trn.load_model(result.checkpoint_path)
    assert config == replace(toy_model(), layerscale_init=1.0)
    assert state is not None
    assert state.step == result.steps
    assert block["recipe.loss"] == "bce"
    assert set(params) == set(mdl.init(toy_model(), Rng(0)))


def test_layerscale_flag_off_means_identity_init(tmp_path, synth_root):
    # LayerScale off is layerscale_init=1.0: the gates start at identity
    for init in (1e-4, 1.0):
        result = trn.train(
            toy_recipe(layerscale_init=init), synth_root, toy_model(), tmp_path / f"ls{init}"
        )
        config, _, _, _ = trn.load_model(result.checkpoint_path)
        assert config.layerscale_init == init


def test_abort_on_nonfinite_loss(tmp_path, synth_root, monkeypatch):
    calls = {"n": 0}
    real = trn._loss_fn

    def poisoned(recipe, logits, targets):
        calls["n"] += 1
        if calls["n"] == 3:
            return Tensor(np.array(np.inf, dtype=np.float64))
        return real(recipe, logits, targets)

    monkeypatch.setattr(trn, "_loss_fn", poisoned)
    with pytest.raises(ContractError) as excinfo:
        trn.train(toy_recipe(), synth_root, toy_model(), tmp_path / "nf")
    assert "step" in str(excinfo.value)
    assert multiprocessing.active_children() == []


# -- the step -----------------------------------------------------------------


def _step_inputs(seed=0):
    """A drop-path toy config, its params and LAMB state after one step, and
    a fresh batch."""
    config = replace(toy_model(), drop_path_rate=0.1)
    params = mdl.init(config, Rng(seed))
    state = opt.init_lamb_state(params)
    rng = np.random.default_rng(seed)
    images = rng.standard_normal((4, 3, 16, 16)).astype(np.float32)
    targets = trn.one_hot(np.array([0, 1, 1, 0]), 2)
    trn.train_step(config, toy_recipe(), params, state, images, targets, 1e-3, Rng(1))
    return config, params, state, images, targets


def _step_bytes(params, state):
    return (
        {k: p.data.tobytes() for k, p in params.items()},
        {k: m.tobytes() for k, m in state.m.items()},
        {k: v.tobytes() for k, v in state.v.items()},
        state.step,
    )


def test_train_step_refuses_a_non_finite_loss_naming_the_step(monkeypatch):
    config, params, state, images, targets = _step_inputs()
    before = _step_bytes(params, state)
    monkeypatch.setattr(trn, "_loss_fn", lambda *args: Tensor(np.array(np.nan, np.float32)))
    with pytest.raises(ContractError, match=r"non-finite loss at step 1\b"):
        trn.train_step(config, toy_recipe(), params, state, images, targets, 1e-3, Rng(2))
    assert _step_bytes(params, state) == before


def test_train_step_leaves_a_param_the_forward_never_reads_to_lamb_refusal():
    config, params, _, images, targets = _step_inputs()
    params["unread.weight"] = Tensor(np.ones((3, 2), np.float32), requires_grad=True)
    state = opt.init_lamb_state(params)
    before = _step_bytes(params, state)
    with pytest.raises(ContractError, match="missing gradient for 'unread.weight'"):
        trn.train_step(config, toy_recipe(), params, state, images, targets, 1e-3, Rng(2))
    assert _step_bytes(params, state) == before
    assert all(p.grad is None for p in params.values())


def test_cosine_lr_is_called_once_per_step_before_its_forward(tmp_path, synth_root, monkeypatch):
    # profilers delimit steps by this call, so it opens each step, once
    events, real_cosine_lr, real_forward = [], opt.cosine_lr, mdl.forward

    def cosine_lr(schedule, step):
        events.append(("lr", step))
        return real_cosine_lr(schedule, step)

    def forward(config, params, images, mode="eval", rng=None):
        if mode == "train":
            events.append(("forward", None))
        return real_forward(config, params, images, mode=mode, rng=rng)

    monkeypatch.setattr(opt, "cosine_lr", cosine_lr)
    monkeypatch.setattr(mdl, "forward", forward)
    result = trn.train(toy_recipe(epochs=2), synth_root, toy_model(), tmp_path / "clock")
    assert result.steps == 10
    assert events == [e for n in range(result.steps) for e in (("lr", n), ("forward", None))]


# -- the loader process -------------------------------------------------------


def step_rows(metrics_path):
    lines = metrics_path.read_text().splitlines() if metrics_path.exists() else []
    return [ln for ln in lines if not ln.startswith(("#", "epoch,"))]


@contextlib.contextmanager
def deadline(seconds):
    """Turn a hang into a failure."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_loader_stream_is_the_in_process_stream(tmp_path, synth_root, monkeypatch):
    # per_sample_seed and the tagged mix seeds make each batch a pure function
    # of (seed, epoch, step), so a loader in another process gives the bytes
    # the single-process loop gives
    recipe = toy_recipe(epochs=2)
    received = []
    real_forward, real_loss = mdl.forward, trn._loss_fn

    def forward(config, params, images, mode="eval", rng=None):
        if mode == "train":
            received.append([images.data.tobytes()])
        return real_forward(config, params, images, mode=mode, rng=rng)

    def loss_fn(recipe, logits, targets):
        received[-1].append(targets.tobytes())
        return real_loss(recipe, logits, targets)

    monkeypatch.setattr(mdl, "forward", forward)
    monkeypatch.setattr(trn, "_loss_fn", loss_fn)
    trn.train(recipe, synth_root, toy_model(), tmp_path / "stream")

    assert recipe.repeated_aug
    expected, kinds = [], set()
    for epoch in range(recipe.epochs):
        epoch_batches = dat.batches(synth_root, recipe.batch_size, recipe.seed, epoch, True)
        for step, indices in enumerate(epoch_batches):
            images, targets = trn._assemble_batch(synth_root, indices, recipe, epoch)
            mix_seed = derive_seed(recipe.seed, dat.TAG_MIX, epoch, step)
            kinds.add(aug.mix_dispatch(recipe, Rng(mix_seed)))
            images, targets = trn._apply_mix(images, targets, recipe, Rng(mix_seed))
            expected.append([images.tobytes(), targets.tobytes()])
    assert kinds == {"mixup", "cutmix"}
    assert len(received) == len(expected) == 10
    assert received == expected


def test_assemble_batch_decodes_each_distinct_index_once(tmp_path, monkeypatch):
    # the toy's repeated-aug batch: 64 rows from 22 distinct images
    manifest = dat.synth_dataset(
        dat.SynthSpec(num_classes=4, per_class=8, resolution=16, seed=1), tmp_path
    )
    recipe = toy_recipe(batch_size=64)
    indices = next(dat.batches(manifest, recipe.batch_size, recipe.seed, 0, True))
    assert len(indices) == 64 and len(set(indices)) == 22
    real_load, loads = dat.load_image, []

    def load_image(path):
        loads.append(path)
        return real_load(path)

    monkeypatch.setattr(dat, "load_image", load_image)
    trn._assemble_batch(manifest, indices, recipe, 0)
    assert sorted(loads) == sorted(manifest.image_path(i) for i in set(indices))


class _StopLoader(BaseException):
    """Ends an in-process `_load_batches`; not an `Exception`, so the loader
    does not catch it and send it on."""


def _loader_heap_in_epoch_1(manifest, monkeypatch):
    """The traced heap of `_load_batches`, run in this process on stub pipe
    ends, when it sends the first batch of epoch 1."""
    recipe = toy_recipe(epochs=2)
    steps = dat.epoch_steps(len(manifest), recipe.batch_size, recipe.repeated_aug)
    readings = []

    class Sender:
        sent = 0

        def send(self, item):
            if isinstance(item, Exception):
                raise item

        def send_bytes(self, images):
            if self.sent == steps:
                gc.collect()
                readings.append(tracemalloc.get_traced_memory()[0])
                raise _StopLoader
            self.sent += 1

    class Receiver:
        def close(self):
            pass

    # the loader ignores SIGINT; here that would be pytest's own handler
    monkeypatch.setattr(trn.signal, "signal", lambda *args: None)
    tracemalloc.start()
    try:
        with pytest.raises(_StopLoader):
            trn._load_batches(Sender(), Receiver(), manifest, recipe)
    finally:
        tracemalloc.stop()
    return readings[0]


def test_loader_memory_does_not_grow_with_the_manifest(tmp_path, monkeypatch):
    heaps = []
    # the first run also takes the process's one-time allocations
    for run, per_class in enumerate((32, 32, 128)):
        spec = dat.SynthSpec(num_classes=2, per_class=per_class, resolution=32, seed=5)
        manifest = dat.synth_dataset(spec, tmp_path / f"ds{run}")
        heaps.append(_loader_heap_in_epoch_1(manifest, monkeypatch))
    # kept decoded images would add 192 (32, 32, 3) uint8 images
    extra_images_bytes = 192 * 32 * 32 * 3
    assert heaps[2] - heaps[1] < extra_images_bytes / 10, heaps


def _apply_mix_with_copied_partners(images, targets, recipe, rng):
    """`training._apply_mix` as it was when it copied each mirrored partner."""
    kind = aug.mix_dispatch(recipe, rng)
    if kind == "none":
        return images, targets
    partner_images, partner_targets = images[::-1].copy(), targets[::-1].copy()
    if kind == "mixup":
        return aug.mixup(images, partner_images, targets, partner_targets, recipe.mixup_alpha, rng)
    return aug.cutmix(images, partner_images, targets, partner_targets, recipe.cutmix_alpha, rng)


@pytest.mark.parametrize("batch", [6, 7], ids=["even", "odd"])
def test_apply_mix_pins_the_call_with_copied_partners(batch):
    # an odd batch pairs its middle sample with itself
    recipe = cfg.RecipeConfig(train_resolution=16)
    gen = np.random.default_rng(batch)
    kinds = set()
    for seed in range(8):
        images = gen.normal(size=(batch, 3, 16, 16)).astype(np.float32)
        targets = trn.one_hot(gen.integers(0, 4, batch), 4)
        before = images.copy(), targets.copy()
        kinds.add(aug.mix_dispatch(recipe, Rng(seed)))
        got = trn._apply_mix(images, targets, recipe, Rng(seed))
        # the images are mixed in place; the reference mixes copies of the inputs
        expected = _apply_mix_with_copied_partners(
            before[0].copy(), before[1].copy(), recipe, Rng(seed)
        )
        assert got[0] is images
        assert [a.tobytes() for a in got] == [a.tobytes() for a in expected]
        assert [a.dtype for a in got] == [a.dtype for a in expected]
        assert targets.tobytes() == before[1].tobytes()
    assert kinds == {"mixup", "cutmix"}


@pytest.mark.parametrize("kind", ["mixup", "cutmix"])
def test_apply_mix_keeps_its_scratch_below_a_quarter_batch(kind):
    recipe = cfg.RecipeConfig(
        mixup_alpha=0.8 if kind == "mixup" else 0.0, cutmix_alpha=1.0 if kind == "cutmix" else 0.0
    )
    gen = np.random.default_rng(3)
    images = gen.normal(size=(32, 3, 64, 64)).astype(np.float32)
    targets = trn.one_hot(gen.integers(0, 4, 32), 4)
    trn._apply_mix(images, targets, recipe, Rng(0))  # first-call set-up is not the mix's
    tracemalloc.start()
    try:
        trn._apply_mix(images, targets, recipe, Rng(1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < images.nbytes / 4, (peak, images.nbytes)


def test_the_loader_holds_one_batch_and_sends_its_own_buffer(tmp_path, monkeypatch):
    """An in-process `_load_batches` on stub pipe ends: from the first batch's
    send to the second's, the traced heap peaks below 1.5 batches, so the
    first batch is gone before the second is made and no send copies it."""
    recipe = toy_recipe(batch_size=64, train_resolution=64, epochs=1, warmup_epochs=0)
    manifest = dat.synth_dataset(
        dat.SynthSpec(num_classes=2, per_class=64, resolution=64, seed=5), tmp_path
    )
    assert dat.epoch_steps(len(manifest), recipe.batch_size, recipe.repeated_aug) >= 2
    batch_bytes = recipe.batch_size * 3 * 64 * 64 * 4
    real_mix, mixed, peaks = trn._apply_mix, [], []

    def apply_mix(*args):
        images, targets = real_mix(*args)
        mixed.append(weakref.ref(images))  # a reference would keep the batch alive
        return images, targets

    class Sender:
        def send(self, item):
            if isinstance(item, Exception):
                raise item
            pickle.dumps(item)  # what a pipe's `send` makes

        def send_bytes(self, images):
            assert np.shares_memory(images, mixed[-1]())
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.reset_peak()
            if len(peaks) == 2:
                raise _StopLoader

    class Receiver:
        def close(self):
            pass

    monkeypatch.setattr(trn, "_apply_mix", apply_mix)
    monkeypatch.setattr(trn.signal, "signal", lambda *args: None)
    tracemalloc.start()
    try:
        with pytest.raises(_StopLoader):
            trn._load_batches(Sender(), Receiver(), manifest, recipe)
    finally:
        tracemalloc.stop()
    assert peaks[1] < 1.5 * batch_bytes, (peaks, batch_bytes)


def _send_targets_then_exit(sender, receiver, manifest, recipe):
    receiver.close()
    sender.send(trn.one_hot(np.zeros(recipe.batch_size, np.int64), manifest.num_classes))


def test_a_loader_that_exits_between_targets_and_images_fails_typed(synth_root, monkeypatch):
    monkeypatch.setattr(trn, "_load_batches", _send_targets_then_exit)
    with deadline(60), trn._batch_loader(synth_root, toy_recipe()) as receive:
        with pytest.raises(ContractError, match=r"code 0 .*epoch 2 step 5$"):
            receive(2, 5)
    assert multiprocessing.active_children() == []


def test_spawned_loader_gives_the_same_checkpoint(tmp_path, synth_root, monkeypatch):
    recipe = toy_recipe(epochs=2)
    default = trn.train(recipe, synth_root, toy_model(), tmp_path / "default")
    spawn = multiprocessing.get_context("spawn")
    assert trn.mp.get_start_method() != "spawn"
    monkeypatch.setattr(trn, "mp", spawn)
    spawned = trn.train(recipe, synth_root, toy_model(), tmp_path / "spawned")
    assert spawned.checkpoint_path.read_bytes() == default.checkpoint_path.read_bytes()


# A short train of a depth-2 toy at drop path 0.1 in a fresh process, so that
# the environment it is given holds as numpy loads. It prints how many
# threads the process had once numpy had loaded, OpenBLAS's pool included.
_TRAIN_IN_CHILD = """
import os, sys
from dataclasses import replace
from vitrecipe import config as cfg, data as dat, model as mdl, training as trn
tasks = len(os.listdir("/proc/self/task")) if os.path.isdir("/proc/self/task") else 0
recipe = replace(
    cfg.preset("in1k"), batch_size=16, epochs=2, warmup_epochs=1, train_resolution=32,
    eval_resolution=32, seed=7, drop_path=0.1, layerscale_init=1.0,
)
model = mdl.ViTConfig(
    patch_size=4, embed_dim=64, depth=2, num_heads=4, image_size=32, num_classes=4
)
trn.train(recipe, dat.load_manifest(sys.argv[1]), model, sys.argv[2])
print(tasks)
"""

_BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def test_the_checkpoint_does_not_depend_on_the_number_of_cpus(tmp_path):
    # OpenBLAS's default thread count is the number of CPUs; its threaded
    # weight gradients differ from its one-thread ones in the last bits
    manifest = dat.synth_dataset(
        dat.SynthSpec(num_classes=4, per_class=8, resolution=32, seed=11), tmp_path / "ds"
    )
    src = str(Path(trn.__file__).resolve().parents[1])
    base = {k: v for k, v in os.environ.items() if k not in _BLAS_THREADS}
    base["PYTHONPATH"] = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    checkpoints, tasks = [], []
    for name, env in [("one", dict(base, **dict.fromkeys(_BLAS_THREADS, "1"))), ("default", base)]:
        out = tmp_path / name
        result = subprocess.run(
            [sys.executable, "-c", _TRAIN_IN_CHILD, str(manifest.root / "manifest.tsv"), str(out)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert result.returncode == 0, result.stderr
        tasks.append(int(result.stdout.split()[-1]))
        checkpoints.append((out / "checkpoint.ckpt").read_bytes())
    assert checkpoints[0] == checkpoints[1]
    assert tasks[0] == tasks[1]  # the default is one BLAS thread


def test_train_in_a_daemonic_process_fails_typed(tmp_path, synth_root):
    pool = multiprocessing.get_context("spawn").Pool(1)  # its worker is daemonic
    try:
        run = pool.apply_async(trn.train, (toy_recipe(), synth_root, toy_model(), tmp_path / "run"))
        with pytest.raises(ContractError, match="daemonic parent"):
            run.get(timeout=60)
    finally:
        pool.terminate()
        pool.join()


def test_a_truncated_image_fails_the_run_naming_its_path(tmp_path):
    manifest = dat.synth_dataset(
        dat.SynthSpec(num_classes=2, per_class=8, resolution=16, seed=5), tmp_path / "toy"
    )
    recipe = toy_recipe()
    first = next(dat.batches(manifest, recipe.batch_size, recipe.seed, 0, recipe.repeated_aug))[0]
    path = manifest.image_path(first)
    path.write_bytes(path.read_bytes()[:-5])
    with deadline(60), pytest.raises(FormatError, match=re.escape(str(path))):
        trn.train(recipe, manifest, toy_model(), tmp_path / "run")
    # raised by the loader at step 0, not by the epoch-end evaluate
    assert step_rows(tmp_path / "run" / "metrics.csv") == []
    assert multiprocessing.active_children() == []


def test_a_loader_that_dies_fails_the_step_that_needed_its_batch(tmp_path, synth_root, monkeypatch):
    calls = []  # counted in the loader process
    real = trn._assemble_batch

    def dying(*args):
        calls.append(1)
        if len(calls) == 2:
            os._exit(3)
        return real(*args)

    monkeypatch.setattr(trn, "_assemble_batch", dying)
    with deadline(60), pytest.raises(ContractError, match=r"code 3 .*epoch 0 step 1$"):
        trn.train(toy_recipe(), synth_root, toy_model(), tmp_path / "dead")
    assert len(step_rows(tmp_path / "dead" / "metrics.csv")) == 1
    assert multiprocessing.active_children() == []


def test_an_interrupt_leaves_no_loader_running(tmp_path, synth_root, monkeypatch):
    real = trn._loss_fn
    calls = []

    def interrupted(recipe, logits, targets):
        calls.append(1)
        if len(calls) == 2:
            raise KeyboardInterrupt
        return real(recipe, logits, targets)

    monkeypatch.setattr(trn, "_loss_fn", interrupted)
    with pytest.raises(KeyboardInterrupt):
        trn.train(toy_recipe(), synth_root, toy_model(), tmp_path / "int")
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("kind", ["three-classes", "empty"])
def test_a_bad_val_manifest_fails_before_the_first_step(tmp_path, synth_root, monkeypatch, kind):
    if kind == "empty":
        val = dat.DatasetManifest(root=synth_root.root, entries=(), num_classes=2)
        message = "no entries"
    else:
        val = dat.synth_dataset(
            dat.SynthSpec(num_classes=3, per_class=2, resolution=16, seed=6), tmp_path / "val"
        )
        message = "dataset has 3 classes, model expects 2"
    forwards = []
    real_forward = mdl.forward

    def forward(*args, **kwargs):
        forwards.append(1)
        return real_forward(*args, **kwargs)

    monkeypatch.setattr(mdl, "forward", forward)
    with pytest.raises(ContractError, match=message):
        trn.train(toy_recipe(), synth_root, toy_model(), tmp_path / "run", val_manifest=val)
    assert forwards == []
    assert step_rows(tmp_path / "run" / "metrics.csv") == []


def test_evaluate_class_count_contract(synth_root):
    config = toy_model(num_classes=5)
    params = mdl.init(config, Rng(0))
    with pytest.raises(ContractError):
        trn.evaluate(config, params, synth_root)


def test_config_from_block_missing_key():
    with pytest.raises(FormatError):
        trn.config_from_block({"model.patch_size": "4"})


def test_config_from_block_names_the_malformed_key():
    block = {f"model.{k}": str(v) for k, v in trn.mdl_config_dict(toy_model()).items()}
    block["model.depth"] = "x"
    with pytest.raises(FormatError, match="model.depth"):
        trn.config_from_block(block)


def test_evaluate_rejects_empty_manifest_and_bad_batch_size(synth_root):
    config = toy_model()
    params = mdl.init(config, Rng(0))
    empty = dat.DatasetManifest(root=synth_root.root, entries=(), num_classes=2)
    with pytest.raises(ContractError, match="no entries"):
        trn.evaluate(config, params, empty)
    for batch_size in (0, -1):
        with pytest.raises(ParameterError, match="batch_size"):
            trn.evaluate(config, params, synth_root, batch_size=batch_size)


# -- untracked evaluation -------------------------------------------------------------


def test_evaluate_builds_no_tape(synth_root, monkeypatch):
    made = []

    class CountingNode(nm.TapeNode):
        __slots__ = ()

        def __init__(self, *args):
            made.append(args[-1])
            super().__init__(*args)

    monkeypatch.setattr(nm, "TapeNode", CountingNode)
    config = toy_model()
    params = mdl.init(config, Rng(0))
    images = Tensor(np.zeros((1, 3, 16, 16), dtype=np.float32))
    mdl.forward(config, params, images, mode="eval")
    assert made, "the counting node must see a tracked forward"
    made.clear()
    trn.evaluate(config, params, synth_root, batch_size=5)
    assert made == []
    assert all(p.requires_grad and p.grad is None for p in params.values())


def test_evaluate_logits_match_the_tracked_forward(synth_root, monkeypatch):
    real_forward = mdl.forward
    calls = []

    def recording(config, params, images, mode="eval", rng=None):
        out = real_forward(config, params, images, mode=mode, rng=rng)
        calls.append((params, images.data, out))
        return out

    monkeypatch.setattr(mdl, "forward", recording)
    # eval mode never draws drop path, so the rate needs no reset before evaluating
    config = replace(toy_model(), drop_path_rate=0.3)
    params = mdl.init(config, Rng(1))
    trn.evaluate(config, params, synth_root, batch_size=6)
    assert len(calls) == 3  # 16 images in batches of 6
    no_drop = replace(config, drop_path_rate=0.0)
    for view, images, out in calls:
        assert out.node is None and not out.requires_grad
        assert all(view[k].data is p.data for k, p in params.items())
        tracked = real_forward(no_drop, params, Tensor(images), mode="eval")
        assert tracked.node is not None
        assert np.array_equal(out.data, tracked.data)


def _traced_heaps_at_step_starts(recipe, manifest, out_dir, monkeypatch):
    """The trainer's traced heap at each step's start, and the run's result."""
    real_cosine_lr, readings = opt.cosine_lr, []

    def cosine_lr(schedule, step):
        gc.collect()  # garbage awaiting the cyclic collector is not held memory
        readings.append(tracemalloc.get_traced_memory()[0])
        return real_cosine_lr(schedule, step)

    monkeypatch.setattr(opt, "cosine_lr", cosine_lr)
    tracemalloc.start()
    try:
        result = trn.train(recipe, manifest, toy_model(), out_dir)
    finally:
        tracemalloc.stop()
    return readings, result


def _traced_heap_in_epoch_1(manifest, out_dir, monkeypatch):
    """The trainer's traced heap at the first step of epoch 1, after epoch
    0's eval of the whole manifest."""
    recipe = toy_recipe(epochs=2)
    readings, result = _traced_heaps_at_step_starts(recipe, manifest, out_dir, monkeypatch)
    return readings[result.steps // recipe.epochs]


def test_trainer_memory_does_not_grow_with_the_manifest(tmp_path, monkeypatch):
    heaps = []
    # the first run also takes the process's one-time allocations
    for run, per_class in enumerate((16, 16, 64)):
        spec = dat.SynthSpec(num_classes=2, per_class=per_class, resolution=16, seed=5)
        manifest = dat.synth_dataset(spec, tmp_path / f"ds{per_class}")
        heaps.append(_traced_heap_in_epoch_1(manifest, tmp_path / f"run{run}", monkeypatch))
    # kept per-image eval inputs would add 96 prepared (3, 16, 16) f32 images
    extra_images_bytes = 96 * 3 * 16 * 16 * 4
    assert heaps[2] - heaps[1] < extra_images_bytes / 10, heaps


def test_trainer_holds_no_tape_at_a_step_start(tmp_path, synth_root, monkeypatch):
    recipe = toy_recipe(epochs=2)
    readings, result = _traced_heaps_at_step_starts(recipe, synth_root, tmp_path, monkeypatch)
    assert len(readings) == result.steps > 2
    base = replace(toy_model(), layerscale_init=recipe.layerscale_init)
    config, _ = trn.resolve_run(recipe, base)
    one_tape = mdl.count_activation_bytes(config, recipe.batch_size)["total"]
    # a step that kept the last one's tape would hold it here, on top of step 0
    excess = [r - readings[0] for r in readings[1:]]
    assert max(excess) < one_tape, (excess, one_tape)


def test_train_sets_the_allocator_only_on_glibc(tmp_path, synth_root, monkeypatch):
    recipe = toy_recipe(epochs=1, warmup_epochs=0)
    real_cdll, opened = ctypes.CDLL, []

    def cdll(*args, **kwargs):
        opened.append(args)
        return real_cdll(*args, **kwargs)

    monkeypatch.setattr(ctypes, "CDLL", cdll)
    # the setting is made once per process; each half starts as a new process
    trn._keep_freed_memory.cache_clear()
    with monkeypatch.context() as m:
        m.setattr(platform, "libc_ver", lambda *args, **kwargs: ("musl", "1.2"))
        other = trn.train(recipe, synth_root, toy_model(), tmp_path / "other")
    assert opened == []
    trn._keep_freed_memory.cache_clear()
    glibc = trn.train(recipe, synth_root, toy_model(), tmp_path / "glibc")
    assert opened == ([(None,)] if platform.libc_ver()[0] == "glibc" else [])
    assert other.checkpoint_path.read_bytes() == glibc.checkpoint_path.read_bytes()


def test_evaluate_sets_the_allocator_only_once_its_arguments_pass(tmp_path, monkeypatch):
    config = toy_model()
    params = mdl.init(config, Rng(3))
    side_effects = []
    monkeypatch.setattr(trn, "_keep_freed_memory", lambda: side_effects.append("allocator"))
    empty = dat.DatasetManifest(root=tmp_path, entries=(), num_classes=2)
    with pytest.raises(ContractError, match="no entries"):
        trn.evaluate(config, params, empty)
    manifest = dat.synth_dataset(
        dat.SynthSpec(num_classes=2, per_class=2, resolution=16, seed=1), tmp_path / "ds"
    )
    with pytest.raises(ParameterError, match="batch_size"):
        trn.evaluate(config, params, manifest, batch_size=0)
    for crop_ratio in (0.0, float("nan")):
        with pytest.raises(ParameterError, match="crop_ratio"):
            trn.evaluate(config, params, manifest, crop_ratio=crop_ratio)
    assert side_effects == []
    trn.evaluate(config, params, manifest)
    assert side_effects == ["allocator"]


# -- the effective run -----------------------------------------------------------


def header_record(metrics_path):
    lines = metrics_path.read_text().splitlines()
    return dict(ln[2:].split("=", 1) for ln in lines if ln.startswith("# "))


def test_resolve_run_long_schedule_scales_drop_path_and_pins_weight_decay():
    recipe = replace(cfg.preset("in1k"), epochs=800)
    config, resolved = trn.resolve_run(recipe, mdl.preset_config("vit-b"))
    assert config.drop_path_rate == pytest.approx(0.2)
    assert resolved.weight_decay == 0.05
    config, resolved = trn.resolve_run(replace(recipe, epochs=400), mdl.preset_config("vit-b"))
    assert (config.drop_path_rate, resolved.weight_decay) == (0.1, 0.02)


@pytest.mark.parametrize(
    "base", [mdl.preset_config("vit-l"), replace(toy_model(), drop_path_rate=0.3)]
)
def test_resolve_run_explicit_drop_path_wins(base):
    config, resolved = trn.resolve_run(toy_recipe(drop_path=0.05), base)
    assert config.drop_path_rate == 0.05
    assert resolved.drop_path == 0.05


def test_train_and_finetune_apply_the_long_run_rule(tmp_path):
    manifest = dat.synth_dataset(
        dat.SynthSpec(num_classes=2, per_class=1, resolution=8, seed=0), tmp_path / "ds"
    )
    recipe = toy_recipe(
        batch_size=2, epochs=601, train_resolution=8, eval_resolution=8, repeated_aug=False
    )
    pre = trn.train(recipe, manifest, toy_model(image_size=8), tmp_path / "pre", eval_every=0)
    header = header_record(pre.metrics_path)
    assert header["model.drop_path_rate"] == "0.05"  # 0.0 + 0.05 per 200 epochs past 400
    assert header["recipe.weight_decay"] == "0.05"  # pinned, from 0.02
    fin = trn.finetune(
        pre.checkpoint_path, replace(recipe, drop_path=0.1, weight_decay=0.1, train_resolution=12),
        manifest, tmp_path / "fin", eval_every=0,
    )
    header = header_record(fin.metrics_path)
    assert float(header["model.drop_path_rate"]) == pytest.approx(0.15)
    assert header["recipe.drop_path"] == "0.1"  # the base rate, before scaling
    assert header["recipe.weight_decay"] == "0.05"
    # evaluate ran at the finetune's 12 px, not the recipe's eval_resolution=8
    block = trn.load_model(fin.checkpoint_path)[3]
    assert header["recipe.eval_resolution"] == block["recipe.eval_resolution"] == "12"


def test_finetune_scales_the_recorded_base_rate_once(tmp_path):
    manifest = dat.synth_dataset(
        dat.SynthSpec(num_classes=2, per_class=1, resolution=8, seed=0), tmp_path / "ds"
    )
    recipe = toy_recipe(
        batch_size=2, epochs=601, train_resolution=8, eval_resolution=8, repeated_aug=False
    )
    pre = trn.train(recipe, manifest, toy_model(image_size=8), tmp_path / "pre", eval_every=0)
    assert trn.load_model(pre.checkpoint_path)[3]["recipe.drop_path"] == "0.0"
    fin = trn.finetune(
        pre.checkpoint_path, replace(recipe, train_resolution=12), manifest, tmp_path / "fin",
        eval_every=0,
    )
    header = header_record(fin.metrics_path)
    # the checkpoint's base 0.0, scaled once for 601 epochs; not its scaled 0.05 again
    assert (header["model.drop_path_rate"], header["recipe.drop_path"]) == ("0.05", "0.0")


@pytest.mark.parametrize(
    "recorded", [None, "None", "0.5x", "1.5"], ids=["missing", "none", "garbled", "above_one"]
)
def test_finetune_rejects_a_bad_recorded_drop_path(tmp_path, synth_root, recorded):
    pre = trn.train(toy_recipe(epochs=1, warmup_epochs=0), synth_root, toy_model(), tmp_path)
    block, arrays = ckpt.load_checkpoint(pre.checkpoint_path)
    if recorded is None:
        del block["recipe.drop_path"]
    else:
        block["recipe.drop_path"] = recorded
    ckpt.save_checkpoint(pre.checkpoint_path, block, arrays)
    with pytest.raises(FormatError, match="recipe.drop_path"):
        trn.finetune(pre.checkpoint_path, toy_recipe(), synth_root, tmp_path / "fin")
    # an explicit rate needs no recorded one
    trn.finetune(
        pre.checkpoint_path, toy_recipe(drop_path=0.1, epochs=1, warmup_epochs=0), synth_root,
        tmp_path / "fin",
    )


def test_header_and_checkpoint_record_the_same_run(tmp_path, synth_root):
    pre = trn.train(toy_recipe(), synth_root, toy_model(), tmp_path / "pre")
    recipe = replace(
        cfg.preset("fixres_finetune"), batch_size=8, epochs=2, train_resolution=24, seed=4,
        drop_path=0.1,
    )
    fin = trn.finetune(pre.checkpoint_path, recipe, synth_root, tmp_path / "fin")
    for result in (pre, fin):
        config, _, _, block = trn.load_model(result.checkpoint_path)
        header = header_record(result.metrics_path)
        assert {k: v for k, v in header.items() if k.startswith(("model.", "recipe."))} == block
        assert len(block) == len(fields(mdl.ViTConfig)) + len(fields(cfg.RecipeConfig))
        round_trip = {f"model.{k}": str(v) for k, v in trn.mdl_config_dict(config).items()}
        assert round_trip == {k: v for k, v in block.items() if k.startswith("model.")}
        # the recipe records the gates the model was built with, not a knob it ignored
        assert block["recipe.layerscale_init"] == block["model.layerscale_init"] == "1.0"
        assert block["recipe.train_resolution"] == block["model.image_size"]
        assert block["recipe.eval_resolution"] == block["model.image_size"]
    # an explicit recipe rate wins over the checkpoint's 0.0
    assert header_record(fin.metrics_path)["model.drop_path_rate"] == "0.1"


# -- finetune -------------------------------------------------------------------


def test_finetune_regrids_positions(tmp_path, synth_root):
    pre = trn.train(toy_recipe(), synth_root, toy_model(), tmp_path / "pre")
    recipe = replace(
        cfg.preset("fixres_finetune"),
        batch_size=8, epochs=2, train_resolution=24, eval_resolution=24,
        seed=4, layerscale_init=1.0,
    )
    fin = trn.finetune(pre.checkpoint_path, recipe, synth_root, tmp_path / "fin")
    assert fin.pos_grid == (6, 6)
    header = fin.metrics_path.read_text()
    assert "pos_grid=4x4->6x6" in header
    config, params, _, _ = trn.load_model(fin.checkpoint_path)
    assert config.image_size == 24
    assert params["pos_embed"].shape == (1, 37, 16)
    losses = [
        float(ln.split(",")[3])
        for ln in fin.metrics_path.read_text().splitlines()
        if ln and not ln.startswith("#") and not ln.startswith("epoch,")
    ]
    assert all(np.isfinite(v) for v in losses)


def test_finetune_rejects_class_mismatch(tmp_path, synth_root):
    pre = trn.train(toy_recipe(), synth_root, toy_model(), tmp_path / "p2")
    other_root = tmp_path / "other"
    other = dat.synth_dataset(
        dat.SynthSpec(num_classes=3, per_class=2, resolution=16, seed=0), other_root
    )
    recipe = replace(cfg.preset("fixres_finetune"), batch_size=4, epochs=1, train_resolution=16)
    with pytest.raises(FormatError):
        trn.finetune(pre.checkpoint_path, recipe, other, tmp_path / "f2")


def test_finetune_rejects_indivisible_resolution(tmp_path, synth_root):
    pre = trn.train(toy_recipe(), synth_root, toy_model(), tmp_path / "p3")
    recipe = replace(cfg.preset("fixres_finetune"), batch_size=8, epochs=1, train_resolution=18)
    with pytest.raises(ParameterError):
        trn.finetune(pre.checkpoint_path, recipe, synth_root, tmp_path / "f3")


def test_a_checkpoint_recording_the_mlp_ratio_loads_and_finetunes(tmp_path, synth_root):
    # every checkpoint written while the MLP ratio was a ViTConfig field records it
    recipe = toy_recipe(epochs=1, warmup_epochs=0)
    pre = trn.train(recipe, synth_root, toy_model(), tmp_path / "pre")
    block, arrays = ckpt.load_checkpoint(pre.checkpoint_path)
    assert "model.mlp_ratio" not in block
    old_style = {}
    for key, value in block.items():
        old_style[key] = value
        if key == "model.num_classes":  # where the field stood
            old_style["model.mlp_ratio"] = "4.0"
    ckpt.save_checkpoint(pre.checkpoint_path, old_style, arrays)
    assert trn.load_model(pre.checkpoint_path)[0] == trn.config_from_block(block)
    fin = trn.finetune(pre.checkpoint_path, replace(recipe, train_resolution=24), synth_root,
                       tmp_path / "fin")
    config, _, _, fin_block = trn.load_model(fin.checkpoint_path)
    assert config.mlp_hidden == 4 * config.embed_dim and "model.mlp_ratio" not in fin_block
    # another ratio is another model, which this code cannot build
    ckpt.save_checkpoint(pre.checkpoint_path, {**old_style, "model.mlp_ratio": "2.0"}, arrays)
    with pytest.raises(FormatError, match="mlp_ratio"):
        trn.load_model(pre.checkpoint_path)


def depth2_checkpoint_arrays():
    """The config block and tensors `train` writes for a depth-2 toy model."""
    config = replace(toy_model(), depth=2)
    params = mdl.init(config, Rng(0))
    state = opt.init_lamb_state(params)
    state.step = 7
    block = {f"model.{k}": str(v) for k, v in trn.mdl_config_dict(config).items()}
    return block, ckpt.pack_training_state(params, state)


def _set(mapping, key, value):
    mapping[key] = value


# each case edits (block, arrays); the error must name what it names
DISAGREEING_CHECKPOINTS = {
    "missing-tensor": (lambda b, a: a.pop("head.bias"), "'head.bias'"),
    "depth-above-the-tensors": (
        lambda b, a: _set(b, "model.depth", "3"), "'blocks.2.norm1.weight'"
    ),
    "head-shape": (
        lambda b, a: _set(a, "head.weight", np.zeros((16, 3), np.float32)), "'head.weight'"
    ),
    "moment-shape": (
        lambda b, a: _set(a, "opt.v.pos_embed", np.zeros((1, 16, 16), np.float32)),
        "'opt.v.pos_embed'",
    ),
    "unexpected-tensor": (
        lambda b, a: _set(a, "blocks.2.ls1", np.zeros(16, np.float32)), "'blocks.2.ls1'"
    ),
    "empty-step": (lambda b, a: _set(a, "opt.step", np.zeros(0, np.float32)), "opt.step"),
    "nan-step": (lambda b, a: _set(a, "opt.step", np.array([np.nan], np.float32)), "opt.step"),
    "fractional-step": (lambda b, a: _set(a, "opt.step", np.array([2.5], np.float32)), "opt.step"),
    "depth-zero": (lambda b, a: _set(b, "model.depth", "0"), "depth must be at least 1"),
    "moments-without-step": (
        lambda b, a: a.pop("opt.step"), "'opt.m.patch_embed.weight' is not in the model"
    ),
    "step-without-a-moment": (
        lambda b, a: a.pop("opt.v.head.bias"), "lacks tensor 'opt.v.head.bias'"
    ),
}


@pytest.mark.parametrize("case", DISAGREEING_CHECKPOINTS)
def test_load_model_rejects_tensors_that_disagree_with_the_block(tmp_path, case):
    edit, named = DISAGREEING_CHECKPOINTS[case]
    block, arrays = depth2_checkpoint_arrays()
    path = tmp_path / "ok.ckpt"
    ckpt.save_checkpoint(path, block, arrays)
    assert trn.load_model(path)[2].step == 7
    edit(block, arrays)
    path = tmp_path / "bad.ckpt"
    ckpt.save_checkpoint(path, block, arrays)
    with pytest.raises(FormatError) as info:
        trn.load_model(path)
    assert str(path) in str(info.value) and named in str(info.value)


def test_the_trainer_sizes_an_epoch_without_building_one(tmp_path, synth_root, monkeypatch):
    # the loader is a forked child, so its own calls do not reach `calls`
    calls, real_batches = [], dat.batches
    monkeypatch.setattr(dat, "batches", lambda *args: calls.append(args) or real_batches(*args))
    recipe = toy_recipe(epochs=1, warmup_epochs=0)
    result = trn.train(recipe, synth_root, toy_model(), tmp_path / "run", eval_every=0)
    assert calls == []
    assert result.steps == dat.epoch_steps(len(synth_root), recipe.batch_size, recipe.repeated_aug)


@pytest.mark.parametrize("entry", ["train", "finetune"])
def test_a_negative_eval_every_is_refused_before_the_loader_starts(tmp_path, synth_root, entry):
    config, recipe = trn.resolve_run(toy_recipe(), toy_model())
    with pytest.raises(ParameterError, match=r"eval_every .*got -3"):
        if entry == "train":
            trn.train(recipe, synth_root, config, tmp_path / "run", eval_every=-3)
        else:
            pre = tmp_path / "pre.ckpt"
            arrays = ckpt.pack_training_state(mdl.init(config, Rng(0)))
            ckpt.save_checkpoint(pre, trn.run_record(config, recipe), arrays)
            trn.finetune(pre, recipe, synth_root, tmp_path / "run", eval_every=-3)
    assert not (tmp_path / "run").exists()
    assert multiprocessing.active_children() == []


def test_the_last_row_carries_the_final_models_train_acc(tmp_path, synth_root):
    recipe = toy_recipe(epochs=3)
    result = trn.train(recipe, synth_root, toy_model(), tmp_path / "run", eval_every=2)
    rows = [r.split(",") for r in step_rows(result.metrics_path)]
    assert [r[0] for r in rows if r[4] != ""] == ["1", "2"]
    config, params, _, _ = trn.load_model(result.checkpoint_path)
    final = trn.evaluate(config, params, synth_root, recipe.test_crop_ratio)
    assert rows[-1][4] == repr(final) and result.final_train_acc == final


@pytest.mark.parametrize("case", ["too-small-for-a-batch", "lr-below-min-lr"])
def test_a_refused_run_leaves_nothing_behind(tmp_path, synth_root, monkeypatch, case):
    recipe = toy_recipe(batch_size=64) if case == "too-small-for-a-batch" else toy_recipe(lr=5e-7)
    side_effects = []
    monkeypatch.setattr(trn, "_keep_freed_memory", lambda: side_effects.append("allocator"))
    monkeypatch.setattr(trn, "_batch_loader", lambda *args: side_effects.append("loader"))
    with pytest.raises(ParameterError):
        trn.train(recipe, synth_root, toy_model(), tmp_path / "run")
    assert side_effects == []
    assert not (tmp_path / "run").exists()


def test_train_too_small_dataset_for_sampler(tmp_path):
    tiny_root = tmp_path / "mini"
    manifest = dat.synth_dataset(
        dat.SynthSpec(num_classes=2, per_class=1, resolution=16, seed=1), tiny_root
    )
    with pytest.raises(ParameterError):
        trn.train(toy_recipe(batch_size=64), manifest, toy_model(), tmp_path / "x")


def test_train_on_an_empty_manifest_fails_typed(tmp_path):
    manifest = dat.DatasetManifest(root=tmp_path, entries=(), num_classes=2)
    with pytest.raises(ParameterError, match="too small for one batch of 8: 0 images"):
        trn.train(toy_recipe(repeated_aug=False), manifest, toy_model(), tmp_path / "x")
