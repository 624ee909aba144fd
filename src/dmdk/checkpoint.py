"""Versioned binary checkpoint container.

Byte layout (all integers little-endian):

    offset 0   magic bytes  b"DMDK"
    offset 4   uint32       format version (currently 2)
    offset 8   uint64       header length H in bytes
    offset 16  H bytes      UTF-8 JSON header
    offset 16+H             payload: tensors concatenated, row-major float64 LE

The JSON header is ``{"meta": {...}, "tensors": [{"name", "rows", "cols",
"offset"}, ...]}`` where each ``offset`` is relative to the payload start.
Serialization is canonical (sorted keys, fixed separators), so identical
models produce byte-identical files. Version 1 files named per-head attention
weights (``dec.0.self.h0.wq``) and are refused with a request to retrain.
"""

from __future__ import annotations

import json
import os
import struct
from pathlib import Path

import numpy as np

from .text import decode_utf8, parse_json

MAGIC = b"DMDK"
VERSION = 2


def save_checkpoint(
    path: str | Path, tensors: list[tuple[str, np.ndarray]], meta: dict
) -> None:
    manifest = []
    offset = 0
    blobs = []
    seen = set()
    for name, arr in tensors:
        if name in seen:
            raise ValueError(f"duplicate tensor name {name!r}")
        seen.add(name)
        arr = np.ascontiguousarray(arr, dtype="<f8")
        if arr.ndim != 2:
            raise ValueError(f"tensor {name!r} must be 2-D, got ndim={arr.ndim}")
        manifest.append(
            {"name": name, "rows": int(arr.shape[0]), "cols": int(arr.shape[1]), "offset": offset}
        )
        blobs.append(arr.tobytes())
        offset += len(blobs[-1])
    header = json.dumps(
        {"meta": meta, "tensors": manifest}, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", VERSION))
        fh.write(struct.pack("<Q", len(header)))
        fh.write(header)
        for blob in blobs:
            fh.write(blob)


def load_checkpoint(path: str | Path) -> tuple[dict[str, np.ndarray], dict]:
    """Read a checkpoint; any malformed content raises ValueError naming ``path``.

    The header is checked in full before any tensor is read, and each tensor is
    read straight from the file into its own array.
    """
    path = Path(path)
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        prefix = fh.read(16)
        if len(prefix) < 16 or prefix[:4] != MAGIC:
            raise ValueError(f"{path}: not a checkpoint file (bad magic)")
        (version,) = struct.unpack_from("<I", prefix, 4)
        if version == 1:
            raise ValueError(
                f"{path}: checkpoint version 1 stores per-head attention weights; "
                f"retrain the model to write version {VERSION}"
            )
        if version != VERSION:
            raise ValueError(f"{path}: unsupported checkpoint version {version}")
        (header_len,) = struct.unpack_from("<Q", prefix, 8)
        header_end = 16 + header_len
        if header_end > size:
            raise ValueError(f"{path}: truncated header")
        where = f"{path}: checkpoint header"
        header = parse_json(decode_utf8(fh.read(header_len), where), where)
        meta, entries = _checked_header(path, header, size - header_end)
        tensors: dict[str, np.ndarray] = {}
        for name, rows, cols, offset in entries:
            try:
                arr = np.empty((rows, cols), dtype="<f8")
            except ValueError as e:  # an empty tensor with an impossible dimension
                raise ValueError(f"{path}: tensor {name!r} has shape {rows}x{cols}: {e}") from None
            fh.seek(header_end + offset)
            if fh.readinto(memoryview(arr).cast("B")) != arr.nbytes:
                raise ValueError(f"{path}: tensor {name!r} extends past end of file")
            tensors[name] = arr.astype(np.float64, copy=False)
    return tensors, meta


def _checked_header(path: Path, header, payload_len: int):
    """(meta, [(name, rows, cols, offset)]) once the tensors are known to tile
    the payload of ``payload_len`` bytes exactly, without overlap."""
    if not isinstance(header, dict) or set(header) != {"meta", "tensors"}:
        raise ValueError(f"{path}: checkpoint header must be an object with 'meta' and 'tensors'")
    meta, items = header["meta"], header["tensors"]
    if not isinstance(meta, dict):
        raise ValueError(f"{path}: checkpoint 'meta' must be an object")
    if not isinstance(items, list):
        raise ValueError(f"{path}: checkpoint 'tensors' must be a list")
    entries, names = [], set()
    for k, item in enumerate(items):
        if not (
            isinstance(item, dict)
            and set(item) == {"name", "rows", "cols", "offset"}
            and isinstance(item["name"], str)
            and all(type(item[key]) is int and item[key] >= 0 for key in ("rows", "cols", "offset"))
        ):
            raise ValueError(
                f"{path}: tensors[{k}] must be {{name: string, rows, cols, offset: "
                f"non-negative integers}}, got {item!r}"
            )
        name, rows, cols, offset = item["name"], item["rows"], item["cols"], item["offset"]
        if name in names:
            raise ValueError(f"{path}: duplicate tensor name {name!r}")
        names.add(name)
        if offset + rows * cols * 8 > payload_len:
            raise ValueError(f"{path}: tensor {name!r} extends past end of file")
        entries.append((name, rows, cols, offset))
    end = used = 0
    for name, rows, cols, offset in sorted(entries, key=lambda e: (e[3], e[1] * e[2])):
        if offset < end:
            raise ValueError(f"{path}: tensor {name!r} overlaps the tensor before it")
        end = max(end, offset + rows * cols * 8)
        used += rows * cols * 8
    if used != payload_len:
        raise ValueError(f"{path}: payload is {payload_len} bytes, tensors account for {used}")
    return meta, entries
