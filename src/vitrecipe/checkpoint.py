"""VITCKPT1 checkpoint container.

Layout: magic "VITCKPT1"; u32-LE byte length of a UTF-8 key=value config
block (one pair per line); then one record per tensor until EOF. Each
record is u32-LE name length, the UTF-8 name, u32-LE rank, the extents
as u64-LE, and the values as little-endian f32. Reload is bit-exact.

Optimizer moments ride along under the "opt." name prefix ("opt.m.x",
"opt.v.x") plus a one-element "opt.step" tensor.
"""

from __future__ import annotations

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
        (rank,) = struct.unpack("<I", take(4, "rank"))
        shape = struct.unpack(f"<{rank}Q", take(8 * rank, "extents"))
        count = int(np.prod(shape, dtype=np.int64)) if rank else 1
        data = np.frombuffer(take(4 * count, f"values of {name}"), dtype="<f4")
        arrays[name] = data.reshape(shape).copy()
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


def unpack_training_state(arrays: Dict[str, np.ndarray]):
    """Split a loaded array dict into trainable f32 parameter Tensors and,
    when the checkpoint carries them, a LambState."""
    params = {
        name: Tensor(arr, requires_grad=True, dtype=np.float32)
        for name, arr in arrays.items()
        if not name.startswith(OPT_PREFIX)
    }
    if OPT_PREFIX + "step" not in arrays:
        return params, None
    m = {}
    v = {}
    for key, arr in arrays.items():
        if key.startswith(OPT_PREFIX + "m."):
            m[key[len(OPT_PREFIX) + 2 :]] = arr.astype(np.float32)
        elif key.startswith(OPT_PREFIX + "v."):
            v[key[len(OPT_PREFIX) + 2 :]] = arr.astype(np.float32)
    step = int(arrays[OPT_PREFIX + "step"][0])
    if set(m) != set(params) or set(v) != set(params):
        raise FormatError("checkpoint optimizer moments do not cover the parameters")
    return params, LambState(m=m, v=v, step=step)
