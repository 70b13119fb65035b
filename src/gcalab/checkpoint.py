"""Binary checkpoints for parameter stores.

Layout: 4-byte magic ``GCKP``, uint32 format version, uint64 header length,
a UTF-8 JSON header listing each parameter's name, shape, and element offset,
then one contiguous little-endian float64 payload. Loading checks the file,
then the store's atomic ``load_state`` validates the state against it exactly,
so a checkpoint only restores into a model built from the matching config.
"""

from __future__ import annotations

import json
import math
import struct

import numpy as np

from .errors import CheckpointError, ContractError
from .files import write_atomic
from .tensor import ParameterStore

MAGIC = b"GCKP"
FORMAT_VERSION = 1


def save_checkpoint(store: ParameterStore, path: str) -> None:
    entries = []
    chunks = []
    offset = 0
    for param in store.parameters():
        data = np.ascontiguousarray(param.tensor.data, dtype="<f8")
        entries.append({"name": param.name, "shape": list(data.shape), "offset": offset})
        chunks.append(data.tobytes())
        offset += data.size
    header = json.dumps({"format": FORMAT_VERSION, "params": entries}).encode("utf-8")
    write_atomic(path, b"".join([MAGIC, struct.pack("<IQ", FORMAT_VERSION, len(header)), header, *chunks]))


def load_checkpoint(store: ParameterStore, path: str) -> None:
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    if len(raw) < 16 or raw[:4] != MAGIC:
        raise CheckpointError(f"{path} is not a checkpoint (bad magic)")
    version = struct.unpack_from("<I", raw, 4)[0]
    if version != FORMAT_VERSION:
        raise CheckpointError(f"{path}: unsupported format version {version}")
    header_len = struct.unpack_from("<Q", raw, 8)[0]
    header_end = 16 + header_len
    if header_end > len(raw):
        raise CheckpointError(f"{path}: truncated header")
    try:
        manifest = json.loads(raw[16:header_end].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"{path}: corrupt header: {exc}") from exc

    if (len(raw) - header_end) % 8:
        raise CheckpointError(f"{path}: payload of {len(raw) - header_end} bytes is not whole float64 values")
    payload = np.frombuffer(raw[header_end:], dtype="<f8")
    try:
        listed = manifest["params"]
        entries = {entry["name"]: entry for entry in listed}
    except (KeyError, TypeError) as exc:
        raise CheckpointError(f"{path}: malformed manifest: {exc!r}") from exc
    if len(entries) != len(listed):
        raise CheckpointError(f"{path}: malformed manifest: a parameter is listed twice")
    state = {}
    for name, entry in entries.items():
        try:
            shape = tuple(entry["shape"])
            start = entry["offset"]
        except (KeyError, TypeError) as exc:
            raise CheckpointError(f"{path}: malformed entry for {name}: {exc!r}") from exc
        if not all(isinstance(n, int) and n >= 0 for n in shape):
            raise CheckpointError(f"{path}: bad shape {entry['shape']!r} for {name}")
        if not isinstance(start, int) or start < 0:
            raise CheckpointError(f"{path}: bad offset {start!r} for {name}")
        size = math.prod(shape)
        if start + size > payload.size:
            raise CheckpointError(f"{path}: truncated payload at {name}")
        try:
            state[name] = payload[start : start + size].reshape(shape)
        except ValueError as exc:  # more dimensions than NumPy allows
            raise CheckpointError(f"{path}: bad shape {entry['shape']!r} for {name}: {exc}") from exc
    try:
        store.load_state(state)
    except ContractError as exc:
        raise CheckpointError(f"{path}: {exc}") from exc
