import json
import re
import shutil

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


@pytest.mark.parametrize("command, flag, value", [
    ("encode", "--partitions", "x"),
    ("encode", "--bounds", "0,y"),
    ("sweep", "--cuts", "1e-2,z"),
    ("eval", "--resolutions", "40,1.5"),
], ids=["partitions", "bounds", "cuts", "resolutions"])
def test_cli_refuses_malformed_comma_lists(tmp_path, capsys, command, flag, value):
    if command == "encode":
        source = tmp_path / "data.fbc"
        main(["gen", "--problem", "darcy1d", "--n", "30", "--train", "3", "--test", "2",
              "-o", str(source)])
        args = ["encode", str(source), "-o", str(tmp_path / "c.fbc")]
    elif command == "sweep":
        source = tmp_path / "run.json"
        with open(source, "w") as fh:
            json.dump(_tiny_config_dict(), fh)
        args = [command, "-c", str(source)]
    else:
        # the list is refused before the run directory is read
        args = [command, str(tmp_path / "run")]
    capsys.readouterr()
    assert main(args + [flag, value]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error code=2") and flag in err and repr(value) in err


@pytest.fixture(scope="module")
def trained_run(tmp_path_factory):
    """A run directory written by ``fbc2c train`` on the tiny config."""
    path = tmp_path_factory.mktemp("cfg") / "run.json"
    with open(path, "w") as fh:
        json.dump(_tiny_config_dict(), fh)
    outdir = tmp_path_factory.mktemp("run") / "artifacts"
    assert main(["train", "-c", str(path), "-o", str(outdir)]) == 0
    return outdir


def _copy_run(trained_run, tmp_path):
    outdir = tmp_path / "run"
    shutil.copytree(trained_run, outdir)
    return outdir


def test_cli_eval_trains_nothing(trained_run, tmp_path, capsys, monkeypatch):
    def no_training(*args, **kwargs):
        raise AssertionError("eval must not train")

    monkeypatch.setattr("fbc2c.experiment.train", no_training)
    capsys.readouterr()
    assert main(["eval", str(trained_run), "--resolutions", "40,120"]) == 0
    out = capsys.readouterr().out.splitlines()
    reported = [line for line in (trained_run / "report.txt").read_text().splitlines()
                if line.startswith("final_test_relative_error = ")]
    assert len(reported) == 1 and out[0] == reported[0]
    assert [line.split(":")[0] for line in out[1:]] == ["resolution 40", "resolution 120"]


@pytest.mark.parametrize("drop_array, meta_edit, key", [
    (True, {}, "parameters"),
    (False, {"input_dim": None}, "input_dim"),
    (False, {"hidden_dim": 16.0}, "hidden_dim"),
    (False, {"output_dim": True}, "output_dim"),
], ids=["no_parameters", "no_input_dim", "float_hidden_dim", "bool_output_dim"])
def test_cli_eval_refuses_malformed_checkpoint(trained_run, tmp_path, capsys,
                                               drop_array, meta_edit, key):
    outdir = _copy_run(trained_run, tmp_path)
    arrays, meta = read_container(outdir / "checkpoint.fbc")
    if drop_array:
        arrays = {"weights": arrays.pop("parameters")}
    for name, value in meta_edit.items():
        if value is None:
            del meta[name]
        else:
            meta[name] = value
    write_container(outdir / "checkpoint.fbc", arrays, meta)
    capsys.readouterr()
    assert main(["eval", str(outdir)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error code=2") and key in err


def test_cli_eval_refuses_a_config_edited_after_training(trained_run, tmp_path, capsys):
    outdir = _copy_run(trained_run, tmp_path)
    trained_hash = read_container(outdir / "checkpoint.fbc")[1]["config_hash"]
    config = load_config(outdir / "config.json")
    config.train.epochs += 1
    dump_config(config, outdir / "config.json")
    capsys.readouterr()
    assert main(["eval", str(outdir)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error code=2")
    assert trained_hash in err and config_hash(config) in err


@pytest.mark.parametrize("missing", ["directory", "not_a_directory", "config.json",
                                     "checkpoint.fbc"])
def test_cli_eval_missing_run_files_exit_3(trained_run, tmp_path, capsys, missing):
    outdir = _copy_run(trained_run, tmp_path)
    if missing == "directory":
        shutil.rmtree(outdir)
    elif missing == "not_a_directory":
        outdir = outdir / "report.txt"
    else:
        (outdir / missing).unlink()
    capsys.readouterr()
    assert main(["eval", str(outdir)]) == 3
    assert capsys.readouterr().err.startswith("error code=3")


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


@pytest.fixture
def no_data_generation(monkeypatch):
    """Fails the test if a command generates data: bad settings are refused first."""
    def no_data(*args, **kwargs):
        raise AssertionError("a bad setting must be refused before any data is generated")

    monkeypatch.setattr("fbc2c.experiment.prepare_data", no_data)


@pytest.mark.parametrize("section, key, value, field", [
    ("train", "epochs", "3", r"config\.train\.epochs: expected int"),
    ("dataset", "n", "50", r"config\.dataset\.n: expected int \| None"),
    ("dataset", "m_test", 0, r"dataset\.m_test: must be >= 1"),
    ("net", "hidden", True, r"config\.net\.hidden: expected int, got bool"),
    ("train", "lr_start", False, r"config\.train\.lr_start: expected float, got bool"),
    ("input_basis", "window", "bogus", r"config\.input_basis\.window: unknown window"),
    ("output_basis", "activation", "bogus", r"config\.output_basis\.activation: unknown"),
    ("output_encode", "cut_mode", "bogus", r"config\.output_encode\.cut_mode: unknown"),
], ids=["string_epochs", "string_n", "zero_m_test", "bool_hidden", "bool_lr",
        "bogus_window", "bogus_activation", "bogus_cut_mode"])
def test_cli_refuses_bad_config_values(tmp_path, capsys, no_data_generation, section, key,
                                       value, field):
    cfg = _tiny_config_dict()
    cfg[section][key] = value
    path = tmp_path / "run.json"
    with open(path, "w") as fh:
        json.dump(cfg, fh)
    assert main(["train", "-c", str(path), "-o", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error code=2") and re.search(field, err)
    assert not (tmp_path / "out").exists()


def test_config_hash_of_a_literal_config_is_pinned():
    # recorded before EncodeSpec moved into fbc2c.encoder; old run directories
    # load only while the hash of an unchanged config stays the same
    assert config_hash(config_from_dict(_tiny_config_dict())) == "b3ccc303697b0c3c"


@pytest.mark.parametrize("key, value, field", [
    ("method", "bogus", "method"),
    ("cut_mode", "bogus", "cut_mode"),
    ("lam", -1, "lam"),
    ("lam", float("nan"), "lam"),
    ("cut", float("nan"), "cut"),
    ("cut", float("inf"), "cut"),
], ids=["bogus_method", "bogus_cut_mode", "negative_lam", "nan_lam", "nan_cut", "inf_cut"])
def test_load_config_refuses_bad_encode_settings(tmp_path, key, value, field):
    cfg = _tiny_config_dict()
    cfg["input_encode"][key] = value
    path = tmp_path / "run.json"
    with open(path, "w") as fh:
        json.dump(cfg, fh, allow_nan=True)
    with pytest.raises(ConfigurationError, match=rf"^config\.input_encode\.{field}: "):
        load_config(path)


def test_cli_sweep_refuses_a_bad_cut_before_generating_data(tmp_path, capsys,
                                                            no_data_generation):
    path = tmp_path / "run.json"
    with open(path, "w") as fh:
        json.dump(_tiny_config_dict(), fh)
    assert main(["sweep", "-c", str(path), "--cuts", "1e-2,nan"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error code=2") and "cut: must be finite" in err


@pytest.mark.parametrize("field", ["window", "activation"])
def test_basis_spec_refuses_an_unknown_kind_by_field(field):
    with pytest.raises(ConfigurationError, match=rf"^{field}: unknown {field} 'bogus'"):
        BasisSpec(kind="rfm", partitions=[2], features_per_partition=3, **{field: "bogus"})


def test_cli_encode_refuses_a_nan_cut(tmp_path, capsys):
    data = tmp_path / "data.fbc"
    main(["gen", "--problem", "darcy1d", "--n", "30", "--train", "3", "--test", "2",
          "-o", str(data)])
    capsys.readouterr()
    assert main(["encode", str(data), "--cut", "nan", "-o", str(tmp_path / "c.fbc")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error code=2") and "cut: must be finite" in err
    assert not (tmp_path / "c.fbc").exists()


def test_cli_encode_records_the_basis_identity(tmp_path):
    data = tmp_path / "data.fbc"
    main(["gen", "--problem", "darcy1d", "--n", "30", "--train", "3", "--test", "2",
          "-o", str(data)])
    coeffs = tmp_path / "c.fbc"
    assert main(["encode", str(data), "--partitions", "2", "--features", "4",
                 "--basis-seed", "7", "-o", str(coeffs)]) == 0
    basis = BasisSpec(kind="rfm", partitions=[2], features_per_partition=4, seed=7,
                      bounds=[0.0, 1.0]).build()
    _, meta = read_container(coeffs)
    assert meta["basis_id"] == basis.identity()
