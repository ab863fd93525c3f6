import io
import json
import zipfile

import numpy as np
import pytest

from fbc2c.cli import main
from fbc2c.container import read_container, write_container
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


def test_file_is_an_npz_with_a_json_meta_member(tmp_path):
    path = tmp_path / "x.fbc"
    write_container(path, {"v": np.ones(2)}, {"k": 1})
    assert not (tmp_path / "x.fbc.npz").exists()
    with np.load(path, allow_pickle=False) as npz:
        assert npz.files == ["v", "__meta__"]
        assert npz["v"].dtype == np.dtype("<f8")
        assert json.loads(npz["__meta__"].item()) == {"k": 1}


def test_round_trip_keeps_empty_and_big_endian_arrays(tmp_path):
    path = tmp_path / "x.fbc"
    big = np.arange(6.0).reshape(2, 3).astype(">f8")
    write_container(path, {"big": big, "empty": np.zeros((0, 4))})
    arrays, meta = read_container(path)
    assert meta == {}
    assert arrays["big"].dtype == np.dtype("<f8") and np.array_equal(arrays["big"], big)
    assert arrays["empty"].shape == (0, 4)


@pytest.mark.parametrize("name", ["__meta__", "file", "allow_pickle"])
def test_refuses_a_reserved_array_name(tmp_path, name):
    with pytest.raises(ConfigurationError, match="reserved"):
        write_container(tmp_path / "x.fbc", {"v": np.ones(2), name: np.ones(1)})
    assert not (tmp_path / "x.fbc").exists()


def test_rejects_bad_magic(tmp_path):
    path = tmp_path / "x.fbc"
    path.write_bytes(b"NOTFBC" + b"\x00" * 20)
    with pytest.raises(DataError):
        read_container(path)


def test_rejects_truncated_payload(tmp_path):
    path = tmp_path / "x.fbc"
    write_container(path, {"v": np.ones(4)})
    raw = path.read_bytes()
    path.write_bytes(raw[:-8])
    with pytest.raises(DataError):
        read_container(path)


def test_requires_at_least_one_array(tmp_path):
    with pytest.raises(ConfigurationError):
        write_container(tmp_path / "x.fbc", {})


def test_missing_file_raises_oserror(tmp_path):
    with pytest.raises(FileNotFoundError):
        read_container(tmp_path / "absent.fbc")


def _npz(**members) -> bytes:
    buf = io.BytesIO()
    np.savez(buf, **members)
    return buf.getvalue()


def _old_format() -> bytes:
    header = json.dumps({"arrays": [{"name": "v", "dtype": "<f8", "shape": [1], "offset": 0}],
                         "meta": {}}).encode()
    return b"FBC2C1" + len(header).to_bytes(4, "little") + header + b"\x00" * 8


def _npy() -> bytes:
    buf = io.BytesIO()
    np.save(buf, np.ones(3))
    return buf.getvalue()


def _with_text_member(raw: bytes) -> bytes:
    buf = io.BytesIO(raw)
    with zipfile.ZipFile(buf, "a") as zf:
        zf.writestr("w", b"not an array")
    return buf.getvalue()


def _patched(raw: bytes, record: bytes, offset: int, value: bytes) -> bytes:
    """``raw`` with ``value`` written ``offset`` bytes into its first zip ``record``."""
    at = raw.index(record) + offset
    return raw[:at] + value + raw[at + len(value):]


_META = np.array("{}")
_GOOD = _npz(v=np.ones(4), __meta__=_META)


@pytest.mark.parametrize("raw", [
    _GOOD[:-8],
    b"not a zip file\n",
    b"",
    _npy(),
    _old_format(),
    _npz(v=np.array([{"a": 1}], dtype=object), __meta__=_META),
    _npz(v=np.ones(4)),
    _npz(v=np.ones(4), __meta__=np.array([1.0])),
    _npz(v=np.ones(4), __meta__=np.array("[1, 2]")),
    _npz(v=np.ones(4), __meta__=np.array("{")),
    _npz(__meta__=_META),
    _npz(v=np.arange(4), __meta__=_META),
    _with_text_member(_GOOD),
    _patched(_GOOD, b"PK\x01\x02", 10, b"\x63\x00"),
    _patched(_GOOD, b"PK\x05\x06", 16, b"\xff\xff\xff\x7f"),
], ids=["truncated", "not_zip", "empty", "npy", "old_fbc2c1", "object_array",
        "no_meta", "meta_not_string", "meta_not_object", "meta_not_json", "no_arrays",
        "int_array", "not_an_array", "unknown_compression", "directory_offset"])
def test_malformed_file_raises_data_error(tmp_path, capsys, raw):
    path = tmp_path / "x.fbc"
    path.write_bytes(raw)
    with pytest.raises(DataError, match="x.fbc"):
        read_container(path)
    assert main(["diagnose", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error code=2")
