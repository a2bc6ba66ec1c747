"""Flat tensor archive: the one binary file format gradvoc writes.

Model checkpoints (``train.save_state``) and ``.mel`` conditioning files
(``dsp.save_mel``) are both tensor archives; they differ only in the entries
and metadata they carry.

Layout: an ASCII magic line, an 8-byte little-endian manifest length, a JSON
manifest, then the raw tensor payloads concatenated in manifest order.  Each
manifest entry records name, dtype, shape, offset and byte count; the
manifest also carries a SHA-256 checksum of the payload blob, verified on
read.  All payloads are little-endian.  Any malformed archive raises
``CheckpointError`` on read.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import os
import stat
import struct

import numpy as np

__all__ = ["save_tensors", "load_tensors", "CheckpointError"]

_MAGIC = b"GVMODEL1\n"
_HEAD = len(_MAGIC) + 8  # the magic line and the manifest length
_ALIGN = 64
_DTYPES = {"<f4": np.dtype("<f4"), "<f8": np.dtype("<f8"), "<i8": np.dtype("<i8")}


class CheckpointError(ValueError):
    """Malformed or corrupted checkpoint archive."""


def save_tensors(path, tensors: dict[str, np.ndarray], meta: dict | None = None):
    """Write named arrays (and optional string-valued metadata) to ``path``."""
    entries = []
    blobs = []
    offset = 0
    for name, arr in tensors.items():
        arr = np.asarray(arr)
        le = arr.astype(arr.dtype.newbyteorder("<"), copy=False)
        raw = np.ascontiguousarray(le).tobytes()
        dtype_code = le.dtype.str
        if dtype_code not in _DTYPES:
            raise CheckpointError(f"unsupported dtype {arr.dtype} for {name!r}")
        entries.append(
            {
                "name": name,
                "dtype": dtype_code,
                "shape": list(arr.shape),
                "offset": offset,
                "nbytes": len(raw),
            }
        )
        blobs.append(raw)
        offset += len(raw)
    payload = b"".join(blobs)
    manifest = {
        "entries": entries,
        "sha256": hashlib.sha256(payload).hexdigest(),
        "meta": meta or {},
    }
    manifest_raw = json.dumps(manifest).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<Q", len(manifest_raw)))
        fh.write(manifest_raw)
        fh.write(payload)


def _is_count(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def load_tensors(path) -> tuple[dict[str, np.ndarray], dict]:
    """Read a tensor archive, verifying the manifest checksum and bounds.

    The payload is read into one buffer that starts 64-byte aligned, and each
    array is a view into it, so every array of an archive keeps the whole
    buffer alive.  An entry is copied only where a view cannot serve: a byte
    order other than the machine's, or an offset that is not a multiple of
    its item size.  A source that is not a regular file, such as a pipe, is
    read whole first and then copied into that buffer.
    """
    with open(path, "rb") as file:
        fh, info = file, os.fstat(file.fileno())
        size = info.st_size
        if not stat.S_ISREG(info.st_mode):  # a pipe has no size: read it whole first
            fh = io.BytesIO(file.read())
            size = len(fh.getbuffer())
        header = fh.read(_HEAD)
        if header[: len(_MAGIC)] != _MAGIC:
            raise CheckpointError(f"{path}: not a tensor archive (bad magic)")
        if len(header) < _HEAD:
            raise CheckpointError(f"{path}: truncated header")
        (mlen,) = struct.unpack("<Q", header[len(_MAGIC) :])
        if mlen > size - _HEAD:
            raise CheckpointError(f"{path}: truncated manifest")
        manifest_raw = fh.read(mlen)
        payload = _aligned_bytes(size - _HEAD - mlen)
        if len(manifest_raw) != mlen or fh.readinto(payload) != len(payload):
            raise CheckpointError(f"{path}: archive changed while it was read")
    try:
        manifest = json.loads(manifest_raw.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        raise CheckpointError(f"{path}: corrupt manifest: {exc}") from exc
    if not isinstance(manifest, dict) or not isinstance(manifest.get("entries"), list):
        raise CheckpointError(f"{path}: corrupt manifest: no entry list")
    meta = manifest.get("meta", {})
    if not isinstance(meta, dict):
        raise CheckpointError(f"{path}: corrupt manifest: meta is not a mapping")
    if hashlib.sha256(payload).hexdigest() != manifest.get("sha256"):
        raise CheckpointError(f"{path}: payload checksum mismatch")
    tensors = {}
    for i, entry in enumerate(manifest["entries"]):
        name = entry.get("name") if isinstance(entry, dict) else None
        if not isinstance(name, str) or name in tensors:
            raise CheckpointError(f"{path}: manifest entry {i} has a bad or repeated name")
        tensors[name] = _entry_array(f"{path}: {name!r}", entry, payload)
    return tensors, meta


def _aligned_bytes(n: int) -> np.ndarray:
    """An uninitialised (n,) uint8 array whose first byte is 64-byte aligned."""
    raw = np.empty(n + _ALIGN, dtype=np.uint8)
    start = -raw.ctypes.data % _ALIGN
    return raw[start : start + n]


def _entry_array(where: str, entry: dict, payload: np.ndarray) -> np.ndarray:
    code, shape = entry.get("dtype"), entry.get("shape")
    offset, nbytes = entry.get("offset"), entry.get("nbytes")
    dtype = _DTYPES.get(code) if isinstance(code, str) else None
    if dtype is None:
        raise CheckpointError(f"{where}: unknown dtype {code!r}")
    if not (isinstance(shape, list) and all(_is_count(d) for d in shape)):
        raise CheckpointError(f"{where}: bad shape {shape!r}")
    if not (_is_count(offset) and _is_count(nbytes)) or offset + nbytes > len(payload):
        raise CheckpointError(f"{where}: entry lies outside the payload")
    if nbytes != math.prod(shape) * dtype.itemsize:
        raise CheckpointError(f"{where}: {nbytes} bytes cannot hold shape {shape}")
    try:
        arr = payload[offset : offset + nbytes].view(dtype).reshape(shape)
    except ValueError as exc:  # zero-size arrays with out-of-range dimensions
        raise CheckpointError(f"{where}: bad shape {shape!r}: {exc}") from exc
    if dtype.isnative and offset % dtype.itemsize == 0:
        return arr
    return arr.astype(dtype.newbyteorder("="))
