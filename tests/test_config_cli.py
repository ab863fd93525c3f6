import json
import re

import numpy as np
import pytest

from fbc2c.cli import main
from fbc2c.config import (BasisSpec, DatasetSpec, EncodeSpec, ExperimentConfig,
                          NetSpec, config_from_dict, config_hash,
                          config_to_dict, dump_config, load_config)
from fbc2c.container import read_container, write_container
from fbc2c.errors import ConfigurationError
from fbc2c.neuralop import TrainConfig


def _tiny_config_dict():
    return {
        "dataset": {"kind": "darcy1d", "n": 80, "m_train": 6, "m_test": 4, "seed": 3},
        "input_basis": {"kind": "rfm", "partitions": [2], "features_per_partition": 8,
                        "range_bound": 3.0, "seed": 1, "bounds": [[0.0, 1.0]]},
        "output_basis": {"kind": "rfm", "partitions": [2], "features_per_partition": 4,
                         "range_bound": 3.0, "seed": 2, "bounds": [[0.0, 1.0]]},
        "input_encode": {"method": "tsvd", "cut": 1e-2},
        "output_encode": {"method": "tsvd", "cut": 1e-8},
        "net": {"hidden": 16, "seed": 5},
        "train": {"epochs": 40, "seed": 6, "eval_interval": 20},
    }


def test_config_round_trip():
    cfg = config_from_dict(_tiny_config_dict())
    assert isinstance(cfg, ExperimentConfig)
    assert cfg.dataset.kind == "darcy1d"
    assert cfg.net.hidden == 16
    again = config_from_dict(config_to_dict(cfg))
    assert config_to_dict(again) == config_to_dict(cfg)
    assert config_hash(again) == config_hash(cfg)


def test_config_rejects_unknown_key_with_path():
    data = _tiny_config_dict()
    data["dataset"]["wat"] = 1
    with pytest.raises(ConfigurationError, match=r"config\.dataset\.wat"):
        config_from_dict(data)
    data = _tiny_config_dict()
    data["frobnicate"] = True
    with pytest.raises(ConfigurationError, match=r"config\.frobnicate"):
        config_from_dict(data)


def test_config_rejects_missing_required():
    data = _tiny_config_dict()
    del data["train"]
    with pytest.raises(ConfigurationError, match="train"):
        config_from_dict(data)
    data = _tiny_config_dict()
    del data["dataset"]["n"]
    with pytest.raises(ConfigurationError):
        config_from_dict(data)


def test_config_requires_input_basis_unless_p2c():
    data = _tiny_config_dict()
    del data["input_basis"]
    with pytest.raises(ConfigurationError):
        config_from_dict(data)
    data["p2c"] = True
    cfg = config_from_dict(data)
    assert cfg.p2c


def test_config_file_round_trip(tmp_path):
    cfg = config_from_dict(_tiny_config_dict())
    path = tmp_path / "run.json"
    dump_config(cfg, path)
    loaded = load_config(path)
    assert config_to_dict(loaded) == config_to_dict(cfg)


def test_basis_spec_builds():
    spec = BasisSpec(kind="rfm", partitions=[2, 2], features_per_partition=3,
                     range_bound=1.0, seed=4)
    basis = spec.build()
    assert basis.size == 12
    fem = BasisSpec(kind="fem", n_nodes=7).build()
    assert fem.size == 7
    with pytest.raises(ConfigurationError):
        BasisSpec(kind="rfm")
    with pytest.raises(ConfigurationError):
        BasisSpec(kind="wavelet", n_nodes=5)


def test_dataset_spec_validation():
    with pytest.raises(ConfigurationError):
        DatasetSpec(kind="darcy1d", n=100)
    with pytest.raises(ConfigurationError):
        DatasetSpec(kind="highd_poisson", n_points=10)
    with pytest.raises(ConfigurationError):
        DatasetSpec(kind="nope", n=10, m_train=1, m_test=1)
    with pytest.raises(ConfigurationError, match=r"dataset\.m_test: must be >= 1, got 0"):
        DatasetSpec(kind="darcy1d", n=10, m_train=1, m_test=0)
    with pytest.raises(ConfigurationError, match=r"dataset\.n_points"):
        DatasetSpec(kind="highd_poisson", d=3, n_points=0)
    # a field the kind does not read is not checked
    DatasetSpec(kind="highd_poisson", d=3, n_points=5, m_train=0)


def test_config_accepts_an_int_for_a_float_field():
    data = _tiny_config_dict()
    data["train"]["lr_start"] = 1
    assert config_from_dict(data).train.lr_start == 1


# ---------------------------------------------------------------------------
# CLI


def test_cli_gen_round_trip(tmp_path, capsys):
    out = tmp_path / "data.fbc"
    code = main(["gen", "--problem", "darcy1d", "--n", "60", "--train", "4",
                 "--test", "2", "--seed", "1", "-o", str(out)])
    assert code == 0
    arrays, meta = read_container(out)
    assert meta["m_train"] == 4 and meta["m_test"] == 2
    assert arrays["inputs_train"].shape == (4, 60)
    # regeneration is bitwise identical
    out2 = tmp_path / "data2.fbc"
    main(["gen", "--problem", "darcy1d", "--n", "60", "--train", "4",
          "--test", "2", "--seed", "1", "-o", str(out2)])
    assert out.read_bytes() == out2.read_bytes()
    # highd_poisson writes its extrapolation split as well
    highd = tmp_path / "highd.fbc"
    assert main(["gen", "--problem", "highd_poisson", "--n", "30", "--dim", "3",
                 "-o", str(highd)]) == 0
    arrays, meta = read_container(highd)
    assert (meta["m_train"], meta["m_test"], meta["m_gen2"]) == (8, 2, 10)
    assert arrays["inputs_gen2"].shape == (10, 30)
    assert meta["provenance_gen2"]["split"] == "gen2"
    capsys.readouterr()
    assert main(["gen", "--problem", "darcy1d", "--n", "60", "--train", "0",
                 "-o", str(tmp_path / "empty.fbc")]) == 2
    assert "dataset.m_train" in capsys.readouterr().err


def test_cli_encode_and_diagnose(tmp_path, capsys):
    data = tmp_path / "data.fbc"
    main(["gen", "--problem", "darcy1d", "--n", "60", "--train", "4", "--test", "2",
          "--seed", "1", "-o", str(data)])
    coeffs = tmp_path / "coeffs.fbc"
    code = main(["encode", str(data), "--partitions", "2", "--features", "8",
                 "--basis-seed", "3", "--cut", "1e-2", "-o", str(coeffs)])
    assert code == 0
    arrays, meta = read_container(coeffs)
    assert arrays["coefficients"].shape == (6, 16)
    assert meta["erank"] >= 1.0
    code = main(["diagnose", str(coeffs)])
    assert code == 0
    assert "erank" in capsys.readouterr().out


def test_cli_encode_on_2d_data(tmp_path, capsys):
    data = tmp_path / "data.fbc"
    main(["gen", "--problem", "poisson2d", "--n", "5", "--train", "3", "--test", "2",
          "--seed", "1", "-o", str(data)])
    args = ["encode", str(data), "--partitions", "2,2", "--features", "3"]
    # the default --bounds 0,1 is one lo,hi pair for both dimensions
    assert main(args + ["-o", str(tmp_path / "one_pair.fbc")]) == 0
    assert main(args + ["--bounds", "0,1,0,1", "-o", str(tmp_path / "per_dim.fbc")]) == 0
    one_pair, _ = read_container(tmp_path / "one_pair.fbc")
    per_dim, _ = read_container(tmp_path / "per_dim.fbc")
    assert one_pair["coefficients"].shape == (5, 12)
    assert np.array_equal(one_pair["coefficients"], per_dim["coefficients"])
    capsys.readouterr()
    assert main(args + ["--bounds", "0,1,0", "-o", str(tmp_path / "bad.fbc")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error code=2") and "bounds" in err


def test_cli_diagnose_rank_one(tmp_path, capsys):
    path = tmp_path / "rank1.fbc"
    row = np.linspace(1, 2, 6)
    write_container(path, {"coefficients": np.outer([1.0, 2.0, 3.0], row)})
    assert main(["diagnose", str(path)]) == 0
    out = capsys.readouterr().out
    assert "erank = 1.000" in out


def test_cli_exit_codes(tmp_path, capsys):
    # missing file -> 3
    assert main(["diagnose", str(tmp_path / "missing.fbc")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error code=3")
    # bad configuration -> 2 (2-d partitions for 1-d data)
    data = tmp_path / "data.fbc"
    main(["gen", "--problem", "darcy1d", "--n", "50", "--train", "3", "--test", "2",
          "--seed", "1", "-o", str(data)])
    code = main(["encode", str(data), "--partitions", "2,2", "-o", str(tmp_path / "c.fbc")])
    assert code == 2
    assert capsys.readouterr().err.startswith("error code=2")
    # numerical failure -> 4 (unregularized ridge on an underdetermined system)
    code = main(["encode", str(data), "--partitions", "4", "--features", "32",
                 "--method", "ridge", "--lam", "0", "-o", str(tmp_path / "c.fbc")])
    assert code == 4
    assert capsys.readouterr().err.startswith("error code=4")


def test_cli_eval_prints_report(tmp_path, capsys):
    cfg = _tiny_config_dict()
    path = tmp_path / "run.json"
    with open(path, "w") as fh:
        json.dump(cfg, fh)
    code = main(["eval", "-c", str(path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "final_test_relative_error" in out
    assert "mean_projection_error" in out


def test_cli_sweep_prints_table(tmp_path, capsys):
    cfg = _tiny_config_dict()
    cfg["train"]["epochs"] = 0
    path = tmp_path / "run.json"
    with open(path, "w") as fh:
        json.dump(cfg, fh)
    csv_out = tmp_path / "table.csv"
    code = main(["sweep", "-c", str(path), "--cuts", "1e-6,1e-2", "-o", str(csv_out)])
    assert code == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "cut,erank,variance_entropy,final_test_error"
    assert csv_out.exists()


def test_cli_train_writes_artifacts(tmp_path):
    cfg = _tiny_config_dict()
    path = tmp_path / "run.json"
    with open(path, "w") as fh:
        json.dump(cfg, fh)
    outdir = tmp_path / "artifacts"
    code = main(["train", "-c", str(path), "-o", str(outdir)])
    assert code == 0
    for name in ("report.txt", "traces.csv", "diagnostics.csv",
                 "checkpoint.fbc", "config.json"):
        assert (outdir / name).exists()


@pytest.mark.parametrize("section, key, value, field", [
    ("train", "epochs", "3", r"config\.train\.epochs: expected int"),
    ("dataset", "n", "50", r"config\.dataset\.n: expected int \| None"),
    ("dataset", "m_test", 0, r"dataset\.m_test: must be >= 1"),
    ("net", "hidden", True, r"config\.net\.hidden: expected int, got bool"),
    ("train", "lr_start", False, r"config\.train\.lr_start: expected float, got bool"),
], ids=["string_epochs", "string_n", "zero_m_test", "bool_hidden", "bool_lr"])
def test_cli_refuses_bad_config_values(tmp_path, capsys, section, key, value, field):
    cfg = _tiny_config_dict()
    cfg[section][key] = value
    path = tmp_path / "run.json"
    with open(path, "w") as fh:
        json.dump(cfg, fh)
    assert main(["train", "-c", str(path), "-o", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error code=2") and re.search(field, err)
    assert not (tmp_path / "out").exists()
