"""VITCKPT1 checkpoint container.

Layout: magic "VITCKPT1"; u32-LE byte length of a UTF-8 key=value config
block (one pair per line); then one record per tensor until EOF. Each
record is u32-LE name length, the UTF-8 name, u32-LE rank, the extents
as u64-LE, and the values as little-endian f32. Reload is bit-exact.

Optimizer moments ride along under the "opt." name prefix ("opt.m.x",
"opt.v.x") plus a one-element "opt.step" tensor.
"""

from __future__ import annotations

import math
import struct
from pathlib import Path
from typing import Dict, Optional, Tuple

import numpy as np

from .errors import FormatError
from .numerics import Tensor
from .optim import LambState

_MAGIC = b"VITCKPT1"

OPT_PREFIX = "opt."


def save_checkpoint(path, config: Dict[str, object], arrays: Dict[str, np.ndarray]) -> None:
    block = "".join(f"{k}={v}\n" for k, v in config.items()).encode("utf-8")
    chunks = [_MAGIC, struct.pack("<I", len(block)), block]
    for name, arr in arrays.items():
        data = np.ascontiguousarray(arr, dtype="<f4")
        encoded = name.encode("utf-8")
        chunks.append(struct.pack("<I", len(encoded)))
        chunks.append(encoded)
        chunks.append(struct.pack("<I", data.ndim))
        chunks.append(struct.pack(f"<{data.ndim}Q", *data.shape))
        chunks.append(data.tobytes())
    Path(path).write_bytes(b"".join(chunks))


def load_checkpoint(path) -> Tuple[Dict[str, str], Dict[str, np.ndarray]]:
    raw = Path(path).read_bytes()
    if len(raw) < len(_MAGIC) + 4 or raw[: len(_MAGIC)] != _MAGIC:
        raise FormatError(f"{path}: not a VITCKPT1 checkpoint")
    pos = len(_MAGIC)

    def take(n: int, what: str) -> bytes:
        nonlocal pos
        if pos + n > len(raw):
            raise FormatError(f"{path}: truncated while reading {what}")
        piece = raw[pos : pos + n]
        pos += n
        return piece

    def text(n: int, what: str) -> str:
        try:
            return take(n, what).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(f"{path}: {what} is not valid UTF-8") from exc

    (block_len,) = struct.unpack("<I", take(4, "config length"))
    config: Dict[str, str] = {}
    for line in text(block_len, "config block").splitlines():
        if not line:
            continue
        if "=" not in line:
            raise FormatError(f"{path}: malformed config line {line!r}")
        key, value = line.split("=", 1)
        config[key] = value

    arrays: Dict[str, np.ndarray] = {}
    while pos < len(raw):
        (name_len,) = struct.unpack("<I", take(4, "name length"))
        name = text(name_len, "tensor name")
        if name in arrays:
            raise FormatError(f"{path}: tensor {name!r} appears twice")
        (rank,) = struct.unpack("<I", take(4, "rank"))
        shape = struct.unpack(f"<{rank}Q", take(8 * rank, "extents"))
        # Python ints: u64 extents can overflow int64 alone or in a product
        data = np.frombuffer(take(4 * math.prod(shape), f"values of {name}"), dtype="<f4")
        try:
            arrays[name] = data.reshape(shape).copy()
        except ValueError as exc:  # no values, but an extent numpy cannot hold
            raise FormatError(f"{path}: extents {shape} of {name} are too large") from exc
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
