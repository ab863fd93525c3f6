import json
import struct

import numpy as np
import pytest

from fbc2c.cli import main
from fbc2c.container import MAGIC, read_container, write_container
from fbc2c.errors import ConfigurationError, DataError


def test_round_trip_is_bitwise(tmp_path):
    rng = np.random.default_rng(0)
    arrays = {
        "a": rng.standard_normal((3, 5)),
        "b": rng.standard_normal(7),
        "c": rng.standard_normal((2, 2, 2)),
    }
    meta = {"seed": 7, "labels": ["x", "y"], "nested": {"tol": 1e-10}}
    path = tmp_path / "x.fbc"
    write_container(path, arrays, meta)
    got_arrays, got_meta = read_container(path)
    assert got_meta == meta
    for name, arr in arrays.items():
        assert got_arrays[name].tobytes() == arr.tobytes()
        assert got_arrays[name].shape == arr.shape
    # writing again produces identical bytes
    path2 = tmp_path / "y.fbc"
    write_container(path2, arrays, meta)
    assert path.read_bytes() == path2.read_bytes()


def test_casts_to_little_endian_float64(tmp_path):
    path = tmp_path / "x.fbc"
    write_container(path, {"ints": np.arange(4), "f32": np.ones(3, dtype=np.float32)})
    arrays, _ = read_container(path)
    assert arrays["ints"].dtype == np.dtype("<f8")
    assert arrays["ints"] == pytest.approx([0.0, 1.0, 2.0, 3.0])


def test_header_layout(tmp_path):
    path = tmp_path / "x.fbc"
    write_container(path, {"v": np.ones(2)}, {"k": 1})
    raw = path.read_bytes()
    assert raw[:6] == MAGIC
    (header_len,) = struct.unpack("<I", raw[6:10])
    header = json.loads(raw[10:10 + header_len])
    assert header["arrays"][0]["name"] == "v"
    assert header["arrays"][0]["dtype"] == "<f8"
    assert header["arrays"][0]["offset"] == 0
    assert len(raw) == 10 + header_len + 16


def test_rejects_bad_magic(tmp_path):
    path = tmp_path / "x.fbc"
    path.write_bytes(b"NOTFBC" + b"\x00" * 20)
    with pytest.raises(DataError):
        read_container(path)


def test_rejects_gapped_offsets(tmp_path):
    path = tmp_path / "x.fbc"
    header = json.dumps({
        "arrays": [{"name": "v", "dtype": "<f8", "shape": [1], "offset": 8}],
        "meta": {},
    }).encode()
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", len(header)))
        fh.write(header)
        fh.write(b"\x00" * 16)
    with pytest.raises(DataError):
        read_container(path)


def test_rejects_truncated_payload(tmp_path):
    path = tmp_path / "x.fbc"
    write_container(path, {"v": np.ones(4)})
    raw = path.read_bytes()
    path.write_bytes(raw[:-8])
    with pytest.raises(DataError):
        read_container(path)


def test_rejects_trailing_garbage(tmp_path):
    path = tmp_path / "x.fbc"
    write_container(path, {"v": np.ones(2)})
    path.write_bytes(path.read_bytes() + b"extra!!!")
    with pytest.raises(DataError):
        read_container(path)


def test_requires_at_least_one_array(tmp_path):
    with pytest.raises(ConfigurationError):
        write_container(tmp_path / "x.fbc", {})


def test_missing_file_raises_oserror(tmp_path):
    with pytest.raises(FileNotFoundError):
        read_container(tmp_path / "absent.fbc")


def _header_bytes(header) -> bytes:
    raw = json.dumps(header).encode()
    return MAGIC + struct.pack("<I", len(raw)) + raw + b"\x00" * 8


_ENTRY = {"name": "v", "dtype": "<f8", "shape": [1], "offset": 0}


@pytest.mark.parametrize("raw", [
    MAGIC + b"\x01\x00",
    _header_bytes(["arrays"]),
    _header_bytes({"arrays": [[0, 1]], "meta": {}}),
    _header_bytes({"arrays": [dict(_ENTRY, name=None)]}),
    _header_bytes({"arrays": [{k: v for k, v in _ENTRY.items() if k != "name"}]}),
    _header_bytes({"arrays": [dict(_ENTRY, shape=[1.5])]}),
    _header_bytes({"arrays": [dict(_ENTRY, shape=3)]}),
    _header_bytes({"arrays": [dict(_ENTRY, offset="0")]}),
    _header_bytes({"arrays": [_ENTRY], "meta": [1, 2]}),
], ids=["short_length", "header_list", "entry_list", "name_null", "no_name",
        "float_shape", "scalar_shape", "string_offset", "meta_list"])
def test_malformed_header_raises_data_error(tmp_path, capsys, raw):
    path = tmp_path / "x.fbc"
    path.write_bytes(raw)
    with pytest.raises(DataError):
        read_container(path)
    assert main(["diagnose", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error code=2")
