"""Container for named float64 arrays plus metadata: an ``.npz`` file.

Each array is a little-endian float64 member of the zip; the metadata is
JSON in a 0-d string member ``__meta__``.  read(write(x)) is a bitwise
identity on the arrays, and the same input writes the same bytes.
"""

from __future__ import annotations

import json
import zipfile

import numpy as np

from .errors import ConfigurationError, DataError

_DTYPE = np.dtype("<f8")
_META = "__meta__"
# names np.savez takes as its own arguments, and the metadata member
_RESERVED = {_META, "file", "allow_pickle"}


def write_container(path, arrays: dict, meta: dict | None = None) -> None:
    """Write named arrays and JSON-serializable metadata to ``path``."""
    if not arrays:
        raise ConfigurationError("container needs at least one array")
    members = {str(name): np.ascontiguousarray(arr, dtype=_DTYPE) for name, arr in arrays.items()}
    if _RESERVED & members.keys():
        raise ConfigurationError(f"container array names {sorted(_RESERVED & members.keys())} "
                                 f"are reserved")
    members[_META] = np.array(json.dumps(meta or {}, sort_keys=True))
    # an open file keeps its name: np.savez would add ".npz" to a path
    with open(path, "wb") as fh:
        np.savez(fh, **members)


def read_container(path) -> tuple[dict, dict]:
    """Read a container; returns (arrays, meta).  A malformed file raises ``DataError``."""
    with open(path, "rb") as fh:  # a missing file fails here, as an OSError
        try:
            loaded = np.load(fh, allow_pickle=False)
            # a .npy file loads as one bare array, so it has no metadata member
            arrays = {} if isinstance(loaded, np.ndarray) else {k: loaded[k] for k in loaded.files}
        except (ValueError, EOFError, OSError, RuntimeError, zipfile.BadZipFile) as exc:
            # np.load and zipfile raise each of these on some damaged file
            raise DataError(f"unreadable container {path}: {exc}") from exc
    meta = arrays.pop(_META, None)
    if not (isinstance(meta, np.ndarray) and meta.shape == () and meta.dtype.kind == "U"):
        raise DataError(f"{path} is not a container: it has no {_META} string")
    try:
        meta = json.loads(meta.item())
    except ValueError:
        meta = None
    if not isinstance(meta, dict):
        raise DataError(f"{_META} in {path} is not a JSON object")
    if not arrays:
        raise DataError(f"container {path} holds no arrays")
    for name, arr in arrays.items():
        if not isinstance(arr, np.ndarray) or arr.dtype != _DTYPE:
            raise DataError(f"array {name!r} in {path} is not {_DTYPE.str}")
    return arrays, meta
