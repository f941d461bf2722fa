"""VITCKPT1 checkpoint container.

Layout: magic "VITCKPT1"; u32-LE byte length of a UTF-8 key=value config
block (one pair per line); then one record per tensor until EOF. Each
record is u32-LE name length, the UTF-8 name, u32-LE rank, the extents
as u64-LE, and the values as little-endian f32. Reload is bit-exact.

Both directions stream one tensor at a time: save writes each tensor's
values from its own buffer, and load reads each into its final array, so
neither holds a second copy of the state. Save writes a temp file next to
the target and renames it over the target, so a failed save leaves the
old file as it was.

Optimizer moments ride along under the "opt." name prefix ("opt.m.x",
"opt.v.x") plus a one-element "opt.step" tensor.
"""

from __future__ import annotations

import math
import os
import struct
from pathlib import Path
from typing import Dict, Optional, Tuple

import numpy as np

from .errors import FormatError, ParameterError
from .numerics import Tensor
from .optim import LambState

_MAGIC = b"VITCKPT1"

OPT_PREFIX = "opt."


def save_checkpoint(path, config: Dict[str, object], arrays: Dict[str, np.ndarray]) -> None:
    """Write `config` and `arrays` to `path` as a VITCKPT1 file, atomically.

    A config pair whose key holds "=" or whose `key=value` is not exactly
    one line would load back as other pairs: it raises `ParameterError`
    before any file is opened. Each tensor is written as f32, converted
    first when it is not little-endian f32 already."""
    lines = [f"{k}={v}" for k, v in config.items()]
    for key, line in zip(config, lines):
        if "=" in str(key) or line.splitlines() != [line]:
            raise ParameterError(f"checkpoint config pair {line!r} would not load back as itself")
    block = "".join(line + "\n" for line in lines).encode("utf-8")
    path = Path(path)
    temp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with temp.open("wb") as f:
            f.write(_MAGIC + struct.pack("<I", len(block)) + block)
            for name, arr in arrays.items():
                data = np.ascontiguousarray(arr, dtype="<f4")
                encoded = name.encode("utf-8")
                f.write(struct.pack(f"<I{len(encoded)}sI", len(encoded), encoded, data.ndim))
                f.write(struct.pack(f"<{data.ndim}Q", *data.shape))
                f.write(data)
        os.replace(temp, path)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise


def load_checkpoint(path) -> Tuple[Dict[str, str], Dict[str, np.ndarray]]:
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        head = f.read(len(_MAGIC) + 4)
        if len(head) < len(_MAGIC) + 4 or head[: len(_MAGIC)] != _MAGIC:
            raise FormatError(f"{path}: not a VITCKPT1 checkpoint")

        def check(n: int, what: str) -> None:
            if f.tell() + n > size:
                raise FormatError(f"{path}: truncated while reading {what}")

        def take(n: int, what: str) -> bytes:
            check(n, what)
            piece = f.read(n)
            if len(piece) < n:
                raise FormatError(f"{path}: truncated while reading {what}")
            return piece

        def text(n: int, what: str) -> str:
            try:
                return take(n, what).decode("utf-8")
            except UnicodeDecodeError as exc:
                raise FormatError(f"{path}: {what} is not valid UTF-8") from exc

        (block_len,) = struct.unpack("<I", head[len(_MAGIC) :])
        config: Dict[str, str] = {}
        for line in text(block_len, "config block").splitlines():
            if not line:
                continue
            if "=" not in line:
                raise FormatError(f"{path}: malformed config line {line!r}")
            key, value = line.split("=", 1)
            config[key] = value

        arrays: Dict[str, np.ndarray] = {}
        while f.tell() < size:
            (name_len,) = struct.unpack("<I", take(4, "name length"))
            name = text(name_len, "tensor name")
            if name in arrays:
                raise FormatError(f"{path}: tensor {name!r} appears twice")
            (rank,) = struct.unpack("<I", take(4, "rank"))
            shape = struct.unpack(f"<{rank}Q", take(8 * rank, "extents"))
            # Python ints: u64 extents can overflow int64 alone or in a product
            what = f"values of {name}"
            check(4 * math.prod(shape), what)
            try:
                data = np.empty(shape, dtype="<f4")
            except ValueError as exc:  # no values, but an extent numpy cannot hold
                raise FormatError(f"{path}: extents {shape} of {name} are too large") from exc
            if f.readinto(data) < data.nbytes:
                raise FormatError(f"{path}: truncated while reading {what}")
            arrays[name] = data
    return config, arrays


# -- parameter/optimizer bundling ----------------------------------------------


def pack_training_state(
    params: Dict[str, Tensor], opt: Optional[LambState] = None
) -> Dict[str, np.ndarray]:
    arrays: Dict[str, np.ndarray] = {name: p.data for name, p in params.items()}
    if opt is not None:
        for name, m in opt.m.items():
            arrays[OPT_PREFIX + "m." + name] = m
        for name, v in opt.v.items():
            arrays[OPT_PREFIX + "v." + name] = v
        arrays[OPT_PREFIX + "step"] = np.array([opt.step], dtype=np.float32)
    return arrays


def unpack_training_state(arrays: Dict[str, np.ndarray], shapes: Dict[str, Tuple[int, ...]]):
    """Trainable f32 parameter Tensors and, when the checkpoint carries an
    `opt.step`, a LambState, taken from `arrays` by the names `shapes` gives.

    The parameters are taken in `shapes`' order, then with a step their two
    moments and the one-value step, each checked as it is taken. FormatError
    names the first that is missing or of another shape, a step that is not
    one integer >= 0, or else a tensor that was not taken.

    Takes ownership of `arrays`: each tensor is taken as f32, with no copy
    when it is f32 already, so the caller must not reuse them."""
    left = dict(arrays)

    def take(name: str, shape: Tuple[int, ...]) -> np.ndarray:
        if name not in left:
            raise FormatError(f"checkpoint lacks tensor {name!r}")
        arr = left.pop(name)
        if arr.shape != shape:
            raise FormatError(f"checkpoint tensor {name!r}: shape {arr.shape}, not {shape}")
        return arr.astype(np.float32, copy=False)

    params = {name: Tensor(take(name, shape), requires_grad=True) for name, shape in shapes.items()}
    state = None
    if OPT_PREFIX + "step" in left:
        m, v = ({n: take(f"{OPT_PREFIX}{k}.{n}", s) for n, s in shapes.items()} for k in "mv")
        (step,) = take(OPT_PREFIX + "step", (1,)).tolist()
        if not (step.is_integer() and step >= 0):
            raise FormatError(f"checkpoint opt.step must be one integer >= 0, got {[step]}")
        state = LambState(m=m, v=v, step=int(step))
    if left:
        raise FormatError(f"checkpoint tensor {next(iter(left))!r} is not in the model")
    return params, state
