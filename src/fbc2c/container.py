"""Bit-exact binary container for named float64 arrays plus metadata.

Layout: 6-byte magic ``FBC2C1``, a little-endian uint32 header length, a
UTF-8 JSON header describing the arrays (name, dtype, shape, byte offset)
and free-form metadata, then the payload of concatenated row-major
little-endian float64 arrays.  The declared offsets must exactly tile the
payload, and read(write(x)) is a bitwise identity on the arrays.
"""

from __future__ import annotations

import json
import struct

import numpy as np

from .errors import ConfigurationError, DataError

MAGIC = b"FBC2C1"
_DTYPE = "<f8"


def write_container(path, arrays: dict, meta: dict | None = None) -> None:
    """Write named arrays and JSON-serializable metadata to ``path``."""
    if not arrays:
        raise ConfigurationError("container needs at least one array")
    entries = []
    blobs = []
    offset = 0
    for name, arr in arrays.items():
        arr = np.ascontiguousarray(np.asarray(arr, dtype=np.float64), dtype=_DTYPE)
        blob = arr.tobytes()
        entries.append({
            "name": str(name),
            "dtype": _DTYPE,
            "shape": list(arr.shape),
            "offset": offset,
        })
        blobs.append(blob)
        offset += len(blob)
    header = json.dumps({"arrays": entries, "meta": meta or {}},
                        sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", len(header)))
        fh.write(header)
        for blob in blobs:
            fh.write(blob)


def _is_count(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def _check_entry(entry, path) -> None:
    """Refuse an array entry that is not {name: str, dtype, shape: [counts], offset: count}."""
    if not (isinstance(entry, dict) and {"name", "dtype", "shape", "offset"} <= entry.keys()
            and isinstance(entry["name"], str) and isinstance(entry["shape"], list)
            and all(_is_count(n) for n in entry["shape"]) and _is_count(entry["offset"])):
        raise DataError(f"malformed array entry {entry!r} in {path}")


def read_container(path) -> tuple[dict, dict]:
    """Read a container; returns (arrays, meta).  Validates the payload tiling."""
    with open(path, "rb") as fh:
        magic = fh.read(len(MAGIC))
        if magic != MAGIC:
            raise DataError(f"bad container magic {magic!r} in {path}")
        length = fh.read(4)
        if len(length) != 4:
            raise DataError(f"truncated container header length in {path}")
        (header_len,) = struct.unpack("<I", length)
        header_raw = fh.read(header_len)
        if len(header_raw) != header_len:
            raise DataError(f"truncated container header in {path}")
        try:
            header = json.loads(header_raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise DataError(f"unreadable container header in {path}: {exc}") from exc
        payload = fh.read()

    if not isinstance(header, dict):
        raise DataError(f"container header is not an object in {path}")
    entries = header.get("arrays")
    if not isinstance(entries, list) or not entries:
        raise DataError(f"container header lists no arrays in {path}")
    for entry in entries:
        _check_entry(entry, path)
    expected_offset = 0
    arrays = {}
    for entry in sorted(entries, key=lambda e: e["offset"]):
        if entry["dtype"] != _DTYPE:
            raise DataError(f"unsupported dtype {entry['dtype']!r} in {path}")
        shape = tuple(entry["shape"])
        nbytes = int(np.prod(shape, dtype=np.int64)) * 8
        if entry["offset"] != expected_offset:
            raise DataError(
                f"array {entry['name']!r} at offset {entry['offset']} does not tile "
                f"the payload (expected {expected_offset})"
            )
        chunk = payload[expected_offset: expected_offset + nbytes]
        if len(chunk) != nbytes:
            raise DataError(f"payload truncated for array {entry['name']!r} in {path}")
        arrays[entry["name"]] = np.frombuffer(chunk, dtype=_DTYPE).reshape(shape).copy()
        expected_offset += nbytes
    if expected_offset != len(payload):
        raise DataError(
            f"payload has {len(payload)} bytes, arrays tile only {expected_offset}"
        )
    meta = header.get("meta", {})
    if not isinstance(meta, dict):
        raise DataError(f"container header meta is not an object in {path}")
    return arrays, meta
