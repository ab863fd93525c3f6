import json
import os
import pathlib
import re
import shlex
import shutil
import subprocess
import sys

import numpy as np
import pytest

import fbc2c
from fbc2c.cli import build_parser, main
from fbc2c.config import (BasisSpec, DatasetSpec, EncodeSpec, ExperimentConfig,
                          NetSpec, config_from_dict, config_hash,
                          config_to_dict, dump_config, load_config)
from fbc2c.container import read_container, write_container
from fbc2c.encoder import encode
from fbc2c.errors import ConfigurationError
from fbc2c.experiment import prepare_data
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


def _write_config(tmp_path, cfg, name="run.json"):
    path = tmp_path / name
    with open(path, "w") as fh:
        json.dump(cfg, fh, allow_nan=True)
    return path


def _gen(tmp_path, cfg, name="data"):
    """(config path, dataset path) of ``fbc2c gen`` run on ``cfg``."""
    path = _write_config(tmp_path, cfg, f"{name}.json")
    data = tmp_path / f"{name}.fbc"
    assert main(["gen", "-c", str(path), "-o", str(data)]) == 0
    return path, data


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


def test_config_requires_input_basis():
    data = _tiny_config_dict()
    del data["input_basis"]
    with pytest.raises(ConfigurationError, match=r"config\.input_basis: required key missing"):
        config_from_dict(data)
    data["input_basis"] = None
    with pytest.raises(ConfigurationError, match=r"config\.input_basis: expected BasisSpec"):
        config_from_dict(data)


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


def test_config_re_exports_the_specs_of_its_sections():
    from fbc2c import basis, datagen

    assert DatasetSpec is datagen.DatasetSpec
    assert BasisSpec is basis.BasisSpec


def test_dataset_spec_validation():
    with pytest.raises(ConfigurationError):
        DatasetSpec(kind="darcy1d", n=100)
    with pytest.raises(ConfigurationError, match=r"^kind: unknown kind 'highd_poisson'"):
        DatasetSpec(kind="highd_poisson", n=10, m_train=1, m_test=1)
    with pytest.raises(ConfigurationError):
        DatasetSpec(kind="nope", n=10, m_train=1, m_test=1)
    with pytest.raises(ConfigurationError, match=r"^m_test: must be >= 1, got 0"):
        DatasetSpec(kind="darcy1d", n=10, m_train=1, m_test=0)
    with pytest.raises(ConfigurationError, match=r"^modes: must be >= 1"):
        DatasetSpec(kind="poisson2d", n=3, m_train=1, m_test=1, modes=0)
    # a field the kind does not read is not checked
    DatasetSpec(kind="poisson2d", n=3, m_train=1, m_test=1, length_scale=0.0, amplitude=-1.0)


@pytest.mark.parametrize("cls, kwargs, field", [
    (TrainConfig, {"epochs": 2.5}, "epochs"),
    (TrainConfig, {"epochs": 3, "batch_size": 2.5}, "batch_size"),
    (TrainConfig, {"epochs": 3, "eval_interval": True}, "eval_interval"),
    (TrainConfig, {"epochs": 3, "seed": 1.0}, "seed"),
    (NetSpec, {"hidden": 2.5}, "hidden"),
    (NetSpec, {"seed": False}, "seed"),
    (DatasetSpec, {"kind": "darcy1d", "n": 3.5, "m_train": 1, "m_test": 1}, "n"),
    (DatasetSpec, {"kind": "darcy1d", "n": 4, "m_train": True, "m_test": 1}, "m_train"),
    (DatasetSpec, {"kind": "poisson2d", "n": 4, "m_train": 1, "m_test": 1, "modes": 2.0}, "modes"),
    (DatasetSpec, {"kind": "darcy1d", "n": 4, "m_train": 1, "m_test": 1, "seed": 0.5}, "seed"),
    (BasisSpec, {"kind": "rfm", "partitions": [2], "features_per_partition": 2.7},
     "features_per_partition"),
    (BasisSpec, {"kind": "fem", "n_nodes": 2.5}, "n_nodes"),
    (BasisSpec, {"kind": "fem", "n_nodes": 3, "seed": 1.0}, "seed"),
], ids=["float_epochs", "float_batch_size", "bool_eval_interval", "float_train_seed",
        "float_hidden", "bool_net_seed", "float_n", "bool_m_train", "float_modes",
        "float_dataset_seed", "float_features", "float_n_nodes", "float_basis_seed"])
def test_integer_settings_built_in_python_refuse_floats_and_bools(cls, kwargs, field):
    with pytest.raises(ConfigurationError, match=rf"^{field}: must be an integer"):
        cls(**kwargs)


@pytest.mark.parametrize("cls, kwargs, field", [
    (BasisSpec, {"kind": "rfm", "partitions": [2], "features_per_partition": 2,
                 "range_bound": "3"}, "range_bound"),
    (BasisSpec, {"kind": "rfm", "partitions": [2], "features_per_partition": 2,
                 "range_bound": True}, "range_bound"),
    (BasisSpec, {"kind": "rfm", "partitions": 3, "features_per_partition": 2}, "partitions"),
    (DatasetSpec, {"kind": "darcy1d", "n": 4, "m_train": 1, "m_test": 1,
                   "length_scale": "0.1"}, "length_scale"),
    (DatasetSpec, {"kind": "darcy1d", "n": 4, "m_train": 1, "m_test": 1,
                   "amplitude": True}, "amplitude"),
    (EncodeSpec, {"cut": "0.1"}, "cut"),
    (EncodeSpec, {"cut": True}, "cut"),
    (TrainConfig, {"epochs": 3, "lr_start": "0.1"}, "lr_start"),
    (TrainConfig, {"epochs": 3, "lr_end": True}, "lr_end"),
], ids=["string_range_bound", "bool_range_bound", "int_partitions", "string_length_scale",
        "bool_amplitude", "string_cut", "bool_cut", "string_lr_start", "bool_lr_end"])
def test_real_settings_built_in_python_refuse_strings_and_bools(cls, kwargs, field):
    with pytest.raises(ConfigurationError, match=rf"^{field}: must be "):
        cls(**kwargs)


def test_integer_settings_take_numpy_integers():
    assert TrainConfig(epochs=np.int64(3), batch_size=np.int32(2)).epochs == 3
    assert DatasetSpec(kind="darcy1d", n=np.int64(4), m_train=1, m_test=1).n == 4


def test_config_accepts_an_int_for_a_float_field():
    data = _tiny_config_dict()
    data["train"]["lr_start"] = 1
    assert config_from_dict(data).train.lr_start == 1


# ---------------------------------------------------------------------------
# CLI


def test_cli_gen_round_trip(tmp_path, capsys):
    cfg = _tiny_config_dict()
    path, out = _gen(tmp_path, cfg)
    arrays, meta = read_container(out)
    assert meta["m_train"] == 6 and meta["m_test"] == 4
    assert arrays["inputs_train"].shape == (6, 80)
    # regeneration is bitwise identical
    out2 = tmp_path / "data2.fbc"
    assert main(["gen", "-c", str(path), "-o", str(out2)]) == 0
    assert out.read_bytes() == out2.read_bytes()
    capsys.readouterr()
    cfg["dataset"]["m_train"] = 0
    empty = tmp_path / "empty.fbc"
    assert main(["gen", "-c", str(_write_config(tmp_path, cfg)), "-o", str(empty)]) == 2
    assert "config.dataset.m_train: must be >= 1, got 0" in capsys.readouterr().err
    assert not empty.exists()


@pytest.mark.parametrize("dataset", [
    {"kind": "darcy1d", "n": 40, "m_train": 3, "m_test": 2, "seed": 4, "length_scale": 0.1},
    {"kind": "poisson2d", "n": 5, "m_train": 3, "m_test": 2, "seed": 4, "modes": 3},
    {"kind": "multi_output_1d", "n": 40, "m_train": 3, "m_test": 2, "seed": 4},
], ids=lambda dataset: dataset["kind"])
def test_cli_gen_writes_what_prepare_data_returns(tmp_path, dataset):
    cfg = _tiny_config_dict()
    cfg["dataset"] = dataset
    if dataset["kind"] == "poisson2d":
        # a config whose bases do not match its data is refused on load
        for side in ("input_basis", "output_basis"):
            cfg[side].update(partitions=[2, 2], bounds=[[0.0, 1.0]] * 2)
    _, out = _gen(tmp_path, cfg)
    arrays, meta = read_container(out)
    data = prepare_data(config_from_dict(cfg).dataset)
    expected = {"input_points": data.train.input_points,
                "output_points": data.train.output_points}
    for label, ds in (("train", data.train), ("test", data.test)):
        expected[f"inputs_{label}"] = ds.inputs
        expected[f"outputs_{label}"] = ds.outputs
        assert meta[f"m_{label}"] == ds.n_samples
        assert meta[f"provenance_{label}"] == json.loads(json.dumps(ds.provenance))
    assert sorted(arrays) == sorted(expected)
    for name, array in expected.items():
        assert arrays[name].shape == array.shape and np.array_equal(arrays[name], array)


def test_cli_encode_and_diagnose(tmp_path, capsys):
    path, data = _gen(tmp_path, _tiny_config_dict())
    coeffs = tmp_path / "coeffs.fbc"
    assert main(["encode", str(data), "-c", str(path), "-o", str(coeffs)]) == 0
    arrays, meta = read_container(coeffs)
    assert arrays["coefficients"].shape == (10, 16)
    assert meta["erank"] >= 1.0
    capsys.readouterr()
    assert main(["diagnose", str(coeffs)]) == 0
    assert "erank" in capsys.readouterr().out


def test_cli_encode_refuses_a_container_that_is_not_a_dataset(tmp_path, capsys):
    path, data = _gen(tmp_path, _tiny_config_dict())
    coeffs, out = tmp_path / "coeffs.fbc", tmp_path / "x.fbc"
    assert main(["encode", str(data), "-c", str(path), "-o", str(coeffs)]) == 0
    capsys.readouterr()
    assert main(["encode", str(coeffs), "-c", str(path), "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error code=2")
    assert f"{coeffs} is not a dataset: it has no 'input_points' array" in err
    assert not out.exists()


@pytest.mark.parametrize("side", ["input", "output"])
def test_cli_encode_matches_the_pipeline(tmp_path, side):
    cfg = _tiny_config_dict()
    path, data = _gen(tmp_path, cfg)
    coeffs = tmp_path / "coeffs.fbc"
    assert main(["encode", str(data), "-c", str(path), "--side", side, "-o", str(coeffs)]) == 0
    config = config_from_dict(cfg)
    prepared = prepare_data(config.dataset)
    values = np.concatenate([getattr(prepared.train, f"{side}s"),
                             getattr(prepared.test, f"{side}s")])
    expected = encode(getattr(config, f"{side}_basis").build(),
                      getattr(prepared.train, f"{side}_points"), values,
                      getattr(config, f"{side}_encode"))
    assert np.array_equal(read_container(coeffs)[0]["coefficients"], expected)


def test_cli_encode_on_2d_data(tmp_path, capsys):
    cfg = _tiny_config_dict()
    cfg["dataset"] = {"kind": "poisson2d", "n": 5, "m_train": 3, "m_test": 2, "seed": 1}
    cfg["input_basis"].update(partitions=[2, 2], features_per_partition=3,
                              bounds=[[0.0, 1.0], [0.0, 1.0]])
    cfg["output_basis"].update(partitions=[2, 2], bounds=[[0.0, 1.0], [0.0, 1.0]])
    path, data = _gen(tmp_path, cfg)
    assert main(["encode", str(data), "-c", str(path), "-o", str(tmp_path / "per_dim.fbc")]) == 0
    # a flat [lo, hi, lo, hi] list is the same box
    cfg["input_basis"]["bounds"] = [0.0, 1.0, 0.0, 1.0]
    flat = _write_config(tmp_path, cfg, "flat.json")
    assert main(["encode", str(data), "-c", str(flat), "-o", str(tmp_path / "flat.fbc")]) == 0
    per_dim, _ = read_container(tmp_path / "per_dim.fbc")
    flat, _ = read_container(tmp_path / "flat.fbc")
    assert per_dim["coefficients"].shape == (5, 12)
    assert np.array_equal(per_dim["coefficients"], flat["coefficients"])
    # without bounds the basis tiles [-1, 1]^2, not the unit square
    del cfg["input_basis"]["bounds"]
    wide = _write_config(tmp_path, cfg, "wide.json")
    assert main(["encode", str(data), "-c", str(wide), "-o", str(tmp_path / "wide.fbc")]) == 0
    assert not np.array_equal(read_container(tmp_path / "wide.fbc")[0]["coefficients"],
                              per_dim["coefficients"])
    capsys.readouterr()
    cfg["input_basis"]["bounds"] = [[0.0, 1.0]]
    bad = _write_config(tmp_path, cfg, "bad.json")
    assert main(["encode", str(data), "-c", str(bad), "-o", str(tmp_path / "bad.fbc")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error code=2") and "config.input_basis.bounds: must be 2" in err
    assert not (tmp_path / "bad.fbc").exists()


@pytest.mark.parametrize("mode, width", [("scalar", 2 * 8), ("vector", 8)])
def test_cli_encode_output_side_encodes_multi_component_outputs(tmp_path, mode, width):
    cfg = _tiny_config_dict()
    cfg["dataset"] = {"kind": "multi_output_1d", "n": 30, "m_train": 3, "m_test": 2}
    cfg["output_mode"] = mode
    path, data = _gen(tmp_path, cfg)
    out = tmp_path / "c.fbc"
    assert main(["encode", str(data), "-c", str(path), "--side", "output", "-o", str(out)]) == 0
    config = load_config(path)
    arrays, _ = read_container(data)
    spec = config.output_basis
    basis = spec.build(n_components=2) if mode == "vector" else spec.build()
    values = np.concatenate([arrays["outputs_train"], arrays["outputs_test"]])
    expected = encode(basis, arrays["output_points"], values, config.output_encode)
    coeffs = read_container(out)[0]["coefficients"]
    assert coeffs.shape == (5, width)
    assert np.array_equal(coeffs, expected)


def test_cli_encode_refuses_a_side_it_cannot_encode(tmp_path, capsys):
    cfg = _tiny_config_dict()
    cfg["dataset"] = {"kind": "multi_output_1d", "n": 30, "m_train": 3, "m_test": 2}
    path, data = _gen(tmp_path, cfg)
    capsys.readouterr()
    out = tmp_path / "c.fbc"
    # raw grid values are no input side: a config that asks for them is refused
    cfg["p2c"] = True
    p2c = _write_config(tmp_path, cfg, "p2c.json")
    assert main(["encode", str(data), "-c", str(p2c), "-o", str(out)]) == 2
    assert "config.p2c: unknown key" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("what", ["dataset", "checkpoint"])
def test_cli_diagnose_refuses_a_container_without_coefficients(trained_run, tmp_path, capsys,
                                                              what):
    if what == "dataset":
        _, container = _gen(tmp_path, _tiny_config_dict())
    else:
        container = trained_run / "checkpoint.fbc"
    capsys.readouterr()
    assert main(["diagnose", str(container)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error code=2")
    assert f"{container} is not a coefficient container: it has no 'coefficients' array" \
        in captured.err


def test_cli_diagnose_rank_one(tmp_path, capsys):
    path = tmp_path / "rank1.fbc"
    row = np.linspace(1, 2, 6)
    write_container(path, {"coefficients": np.outer([1.0, 2.0, 3.0], row)})
    assert main(["diagnose", str(path)]) == 0
    out = capsys.readouterr().out
    assert "erank = 1.000" in out


def test_cli_exit_codes(tmp_path, capsys):
    # missing file, or a directory where a file belongs -> 3
    assert main(["diagnose", str(tmp_path / "missing.fbc")]) == 3
    assert capsys.readouterr().err.startswith("error code=3")
    assert main(["diagnose", str(tmp_path)]) == 3
    assert capsys.readouterr().err.startswith("error code=3")
    assert main(["gen", "-c", str(tmp_path / "missing.json"), "-o", str(tmp_path / "d.fbc")]) == 3
    assert capsys.readouterr().err.startswith("error code=3")
    cfg = _tiny_config_dict()
    path, data = _gen(tmp_path, cfg)
    assert main(["encode", str(tmp_path / "missing.fbc"), "-c", str(path),
                 "-o", str(tmp_path / "c.fbc")]) == 3
    assert capsys.readouterr().err.startswith("error code=3")
    # bad configuration -> 2 (2-d partitions for 1-d data)
    cfg["input_basis"].update(partitions=[2, 2], bounds=[[0.0, 1.0], [0.0, 1.0]])
    two_d = _write_config(tmp_path, cfg, "two_d.json")
    assert main(["encode", str(data), "-c", str(two_d), "-o", str(tmp_path / "c.fbc")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error code=2")
    assert "config.input_basis.partitions: 2 counts for 1-dimensional data" in err
    # numerical failure -> 4 (a learning rate that makes the loss overflow)
    cfg = _tiny_config_dict()
    cfg["train"].update(lr_start=1e300, lr_end=1e299)
    diverges = _write_config(tmp_path, cfg, "diverges.json")
    assert main(["train", "-c", str(diverges), "-o", str(tmp_path / "out")]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error code=4")
    assert "training loss became non-finite at epoch 1" in err


@pytest.mark.parametrize("command, flag, value", [
    ("sweep", "--cuts", "1e-2,z"),
    ("eval", "--resolutions", "40,1.5"),
], ids=["cuts", "resolutions"])
def test_cli_refuses_malformed_comma_lists(tmp_path, capsys, command, flag, value):
    if command == "sweep":
        args = [command, "-c", str(_write_config(tmp_path, _tiny_config_dict()))]
    else:
        # the list is refused before the run directory is read
        args = [command, str(tmp_path / "run")]
    capsys.readouterr()
    assert main(args + [flag, value]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error code=2") and flag in err and repr(value) in err


@pytest.mark.parametrize("key, value", [
    ("partitions", ["x"]),
    ("bounds", [[0.0, "y"]]),
], ids=["partitions", "bounds"])
def test_cli_encode_refuses_malformed_basis_lists(tmp_path, capsys, key, value):
    cfg = _tiny_config_dict()
    cfg["input_basis"][key] = value
    path = _write_config(tmp_path, cfg)
    capsys.readouterr()
    # the config is refused before the (missing) dataset is read
    assert main(["encode", str(tmp_path / "missing.fbc"), "-c", str(path),
                 "-o", str(tmp_path / "c.fbc")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error code=2 kind=config msg=config.input_basis.{key}: must be")
    assert repr(value) in err


def test_readme_commands_parse():
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```bash\n", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line) for line in block.splitlines() if line.startswith("fbc2c ")]
    parser = build_parser()
    for command in commands:
        try:
            parser.parse_args(command[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {shlex.join(command)}")
    assert {command[1] for command in commands} == {"gen", "encode", "train", "eval",
                                                   "diagnose", "sweep"}


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


def test_cli_eval_refuses_a_grid_without_an_interior_point(trained_run, capsys):
    capsys.readouterr()
    assert main(["eval", str(trained_run), "--resolutions", "40,2"]) == 2
    out, err = capsys.readouterr()
    assert out == ""                            # refused before anything is evaluated
    assert err.startswith("error code=2") and "resolution: must be >= 3, got 2" in err


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


def test_cli_eval_refuses_a_run_directory_with_the_old_dataset_fields(trained_run, tmp_path,
                                                                     capsys):
    outdir = _copy_run(trained_run, tmp_path)
    with open(outdir / "config.json") as fh:
        config = json.load(fh)
    config["dataset"].update(d=None, n_points=None, n_train=8, n_gen1=2, n_gen2=10)
    with open(outdir / "config.json", "w") as fh:
        json.dump(config, fh)
    capsys.readouterr()
    assert main(["eval", str(outdir)]) == 2
    assert "config.dataset.d: unknown key" in capsys.readouterr().err


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
    assert sorted(p.name for p in outdir.iterdir()) == [
        "checkpoint.fbc", "config.json", "report.txt", "traces.csv"]


@pytest.fixture
def no_data_generation(monkeypatch):
    """Fails the test if a command generates data: bad settings are refused first."""
    def no_data(*args, **kwargs):
        raise AssertionError("a bad setting must be refused before any data is generated")

    monkeypatch.setattr("fbc2c.experiment.prepare_data", no_data)


@pytest.mark.parametrize("section, edits, field", [
    ("train", {"epochs": "3"}, r"config\.train\.epochs: expected int"),
    ("dataset", {"n": "50"}, r"config\.dataset\.n: expected int \| None"),
    ("dataset", {"m_test": 0}, r"config\.dataset\.m_test: must be >= 1"),
    ("net", {"hidden": True}, r"config\.net\.hidden: expected int, got bool"),
    ("train", {"lr_start": False}, r"config\.train\.lr_start: expected float, got bool"),
    ("input_basis", {"window": "bogus"}, r"config\.input_basis\.window: unknown window"),
    ("output_basis", {"activation": "bogus"}, r"config\.output_basis\.activation: unknown"),
    ("dataset", {"seed": -1}, r"config\.dataset\.seed: must be >= 0, got -1"),
    ("net", {"seed": -1}, r"config\.net\.seed: must be >= 0, got -1"),
    ("train", {"seed": -1}, r"config\.train\.seed: must be >= 0, got -1"),
    ("input_basis", {"seed": -1}, r"config\.input_basis\.seed: must be >= 0, got -1"),
    ("output_basis", {"seed": -1}, r"config\.output_basis\.seed: must be >= 0, got -1"),
    ("net", {"hidden": 0}, r"config\.net\.hidden: must be >= 1, got 0"),
    ("input_basis", {"features_per_partition": 0},
     r"config\.input_basis\.features_per_partition: must be >= 1, got 0"),
    ("input_basis", {"partitions": [0]},
     r"config\.input_basis\.partitions: must be one integer count >= 1 per dimension"),
    ("output_basis", {"range_bound": -1},
     r"config\.output_basis\.range_bound: must be finite and > 0, got -1"),
    ("input_basis", {"bounds": [[1, 0]]},
     r"config\.input_basis\.bounds: must be 1 \[lo, hi\] pair\(s\) .* with hi > lo"),
    ("output_basis", {"kind": "fem", "n_nodes": 1},
     r"config\.output_basis\.n_nodes: must be >= 2, got 1"),
    ("dataset", {"n": 2}, r"config\.dataset\.n: must be >= 3, got 2"),
    ("dataset", {"kind": "poisson2d", "n": 1, "modes": 3},
     r"config\.dataset\.n: must be >= 3, got 1"),
    ("dataset", {"kind": "poisson2d", "n": 2, "modes": 3},
     r"config\.dataset\.n: must be >= 3, got 2"),
    ("output_basis", {"kind": "fem", "n_nodes": 5, "domain": [1.0, 0.0]},
     r"config\.output_basis\.domain: must be \[lo, hi\], .* with lo < hi, got \[1\.0, 0\.0\]"),
    ("output_basis", {"kind": "fem", "n_nodes": 5, "domain": [0.0]},
     r"config\.output_basis\.domain: must be \[lo, hi\], .* got \[0\.0\]"),
    ("input_basis", {"partitions": [2, 2], "bounds": [[0.0, 1.0], [0.0, 1.0]]},
     r"config\.input_basis\.partitions: 2 counts for 1-dimensional data"),
    # settings that are constants now, refused even at their old defaults
    ("train", {"beta1": 0.9}, r"config\.train\.beta1: unknown key"),
    ("train", {"beta2": 0.999}, r"config\.train\.beta2: unknown key"),
    ("train", {"eps": 1e-8}, r"config\.train\.eps: unknown key"),
    ("train", {"lr_stage_epochs": 10_000}, r"config\.train\.lr_stage_epochs: unknown key"),
    ("input_encode", {"cut_mode": "relative"}, r"config\.input_encode\.cut_mode: unknown key"),
    ("output_encode", {"cut_mode": "absolute"}, r"config\.output_encode\.cut_mode: unknown key"),
    ("dataset", {"tol": 1e-10}, r"config\.dataset\.tol: unknown key"),
], ids=["string_epochs", "string_n", "zero_m_test", "bool_hidden", "bool_lr",
        "bogus_window", "bogus_activation",
        "negative_dataset_seed", "negative_net_seed", "negative_train_seed",
        "negative_input_basis_seed", "negative_output_basis_seed", "zero_hidden",
        "zero_features", "zero_partition_count", "negative_range_bound", "inverted_bounds",
        "one_fem_node", "two_point_grid", "one_point_poisson2d_grid",
        "two_point_poisson2d_grid", "inverted_fem_domain", "one_value_fem_domain",
        "basis_of_the_wrong_dimension", "removed_beta1", "removed_beta2", "removed_eps",
        "removed_lr_stage_epochs", "removed_input_cut_mode", "removed_output_cut_mode",
        "removed_tol"])
def test_cli_refuses_bad_config_values(tmp_path, capsys, no_data_generation, section, edits,
                                       field):
    cfg = _tiny_config_dict()
    cfg[section].update(edits)
    path = tmp_path / "run.json"
    with open(path, "w") as fh:
        json.dump(cfg, fh)
    assert main(["train", "-c", str(path), "-o", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error code=2") and re.search(field, err)
    assert not (tmp_path / "out").exists()


def test_cli_refuses_a_vector_fem_output_basis(tmp_path, capsys, no_data_generation):
    cfg = _tiny_config_dict()
    cfg["dataset"] = {"kind": "multi_output_1d", "n": 30, "m_train": 3, "m_test": 2}
    cfg["output_basis"] = {"kind": "fem", "n_nodes": 6}
    cfg["output_mode"] = "vector"
    assert main(["train", "-c", str(_write_config(tmp_path, cfg)),
                 "-o", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error code=2")
    assert "config.output_basis.kind: a fem basis has no vector-valued form" in err
    assert not (tmp_path / "out").exists()
    # a scalar fem basis on each component, or a vector fem basis on
    # single-component data, is a run config like any other
    cfg["output_mode"] = "scalar"
    config_from_dict(cfg)
    cfg.update(dataset=_tiny_config_dict()["dataset"], output_mode="vector")
    config_from_dict(cfg)


def test_config_hash_of_a_literal_config_is_pinned():
    # recorded when EncodeSpec lost its lam field (972b43916034cc02 before);
    # run directories load only while the hash of an unchanged config stays
    # the same
    assert config_hash(config_from_dict(_tiny_config_dict())) == "6becbfb12b2a798c"


@pytest.mark.parametrize("key, value, message", [
    ("method", "bogus", "method: unknown method 'bogus'"),
    ("lam", -1, "lam: unknown key"),
    ("lam", float("nan"), "lam: unknown key"),
    ("cut", float("nan"), "cut: must be finite"),
    ("cut", float("inf"), "cut: must be finite"),
    ("method", "ridge", "method: unknown method 'ridge'"),
], ids=["bogus_method", "negative_lam", "nan_lam", "nan_cut", "inf_cut", "ridge_method"])
def test_load_config_refuses_bad_encode_settings(tmp_path, key, value, message):
    cfg = _tiny_config_dict()
    cfg["input_encode"][key] = value
    path = tmp_path / "run.json"
    with open(path, "w") as fh:
        json.dump(cfg, fh, allow_nan=True)
    with pytest.raises(ConfigurationError, match=rf"^config\.input_encode\.{message}"):
        load_config(path)


@pytest.mark.parametrize("key, value", [
    ("length_scale", 0), ("length_scale", float("nan")), ("length_scale", float("inf")),
    ("amplitude", -1.0), ("amplitude", float("inf")),
])
def test_load_config_refuses_bad_grf_and_solver_settings(tmp_path, key, value):
    cfg = _tiny_config_dict()
    cfg["dataset"][key] = value
    path = tmp_path / "run.json"
    with open(path, "w") as fh:
        json.dump(cfg, fh, allow_nan=True)
    with pytest.raises(ConfigurationError,
                       match=rf"^config\.dataset\.{key}: must be finite and > 0, got "):
        load_config(path)


@pytest.mark.parametrize("section, key, value, message", [
    ("dataset", "m_test", 0, "config.dataset.m_test: must be >= 1, got 0"),
    ("train", "epochs", -1, "config.train.epochs: must be >= 0, got -1"),
    ("train", "lr_start", 1e-7, "config.train.lr_start: must be >= lr_end (1e-06), got 1e-07"),
    ("train", "lr_end", 0.0, "config.train.lr_end: must be > 0, got 0.0"),
    ("train", "batch_size", 0,
     "config.train.batch_size: must be >= 1 or None for full batch, got 0"),
    ("train", "eval_interval", 0, "config.train.eval_interval: must be >= 1, got 0"),
    ("train", "lr_start", float("inf"), "config.train.lr_start: must be finite, got inf"),
    ("train", "lr_start", float("nan"), "config.train.lr_start: must be finite, got nan"),
], ids=["m_test", "epochs", "lr_start", "lr_end", "batch_size",
        "eval_interval", "inf_lr_start", "nan_lr_start"])
def test_refused_dataset_and_train_values_name_their_field(section, key, value, message):
    cfg = _tiny_config_dict()
    cfg[section][key] = value
    with pytest.raises(ConfigurationError) as info:
        config_from_dict(cfg)
    assert str(info.value) == message


def test_cli_gen_refuses_an_amplitude_whose_square_overflows(tmp_path, capsys):
    cfg = _tiny_config_dict()
    cfg["dataset"]["amplitude"] = 1e200
    out = tmp_path / "d.fbc"
    assert main(["gen", "-c", str(_write_config(tmp_path, cfg)), "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error code=2")
    assert "config.dataset.amplitude: its square must be finite, got 1e+200" in err
    assert not out.exists()


def test_cli_gen_refuses_a_length_scale_whose_inverse_square_overflows(tmp_path, capsys):
    cfg = _tiny_config_dict()
    cfg["dataset"]["length_scale"] = 1e-300
    out = tmp_path / "d.fbc"
    assert main(["gen", "-c", str(_write_config(tmp_path, cfg)), "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error code=2")
    assert ("config.dataset.length_scale: (span / length_scale)^2 must be finite, got 1e-300 "
            "over a span of 1.0") in err
    assert not out.exists()


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
    path, data = _gen(tmp_path, _tiny_config_dict())
    cfg = _tiny_config_dict()
    cfg["input_encode"]["cut"] = float("nan")
    nan_cut = _write_config(tmp_path, cfg, "nan_cut.json")
    capsys.readouterr()
    assert main(["encode", str(data), "-c", str(nan_cut), "-o", str(tmp_path / "c.fbc")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error code=2") and "config.input_encode.cut: must be finite" in err
    assert not (tmp_path / "c.fbc").exists()


@pytest.mark.parametrize("side, mode", [("input", "scalar"), ("output", "scalar"),
                                        ("output", "vector")],
                         ids=["input", "output_scalar", "output_vector"])
def test_cli_encode_metadata_rebuilds_the_basis(tmp_path, side, mode):
    cfg = _tiny_config_dict()
    cfg["input_basis"].update(features_per_partition=4, seed=7)
    if side == "output":
        cfg["dataset"] = {"kind": "multi_output_1d", "n": 30, "m_train": 3, "m_test": 2}
        cfg["output_mode"] = mode
    path, data = _gen(tmp_path, cfg)
    out = tmp_path / "c.fbc"
    assert main(["encode", str(data), "-c", str(path), "--side", side, "-o", str(out)]) == 0
    coeffs, meta = read_container(out)
    assert (meta["mode"], meta["components"]) == (mode, 2 if side == "output" else 1)
    rebuilt = BasisSpec(**meta["basis"]).build(meta["components"] if mode == "vector" else 1)
    config = load_config(path)
    spec = getattr(config, f"{side}_basis")
    used = spec.build(n_components=2) if mode == "vector" else spec.build()
    arrays, _ = read_container(data)
    points = arrays[f"{side}_points"]
    assert np.array_equal(rebuilt.design_matrix(points), used.design_matrix(points))
    values = np.concatenate([arrays[f"{side}s_train"], arrays[f"{side}s_test"]])
    assert np.array_equal(encode(rebuilt, points, values, getattr(config, f"{side}_encode")),
                          coeffs["coefficients"])


# main as the fbc2c console script runs it; under -W error a warning would be a traceback
_CLI = "import sys; from fbc2c.cli import main; sys.exit(main(sys.argv[1:]))"


def _run_cli(argv) -> subprocess.CompletedProcess:
    """``fbc2c *argv`` in a fresh interpreter under ``-W error``."""
    src = str(pathlib.Path(fbc2c.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    return subprocess.run([sys.executable, "-W", "error", "-c", _CLI, *argv], env=env,
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("command", ["encode", "diagnose", "eval"])
def test_cli_refuses_non_finite_data_in_one_line(trained_run, tmp_path, command, bad):
    if command == "encode":
        path, data = _gen(tmp_path, _tiny_config_dict())
        arrays, meta = read_container(data)
        arrays["inputs_train"][1, 5] = bad
        write_container(data, arrays, meta)
        argv = ["encode", str(data), "-c", str(path), "-o", str(tmp_path / "c.fbc")]
    elif command == "diagnose":
        coeffs = np.random.default_rng(0).standard_normal((6, 4))
        coeffs[2, 1] = bad
        write_container(tmp_path / "d.fbc", {"coefficients": coeffs}, {"kind": "coefficients"})
        argv = ["diagnose", str(tmp_path / "d.fbc")]
    else:
        outdir = _copy_run(trained_run, tmp_path)
        arrays, meta = read_container(outdir / "checkpoint.fbc")
        arrays["parameters"][3] = bad
        write_container(outdir / "checkpoint.fbc", arrays, meta)
        argv = ["eval", str(outdir)]
    done = _run_cli(argv)
    lines = done.stderr.splitlines()
    assert done.returncode == 2 and len(lines) == 1, done.stderr
    assert lines[0].startswith("error code=2") and "NaN or Inf" in lines[0]
    assert done.stdout == "" and not (tmp_path / "c.fbc").exists()


@pytest.mark.parametrize("below", [False, True], ids=["file", "path_below_a_file"])
def test_cli_train_refuses_an_output_that_cannot_be_a_directory_before_running(tmp_path,
                                                                               below):
    blocker = tmp_path / "taken"
    blocker.write_text("kept\n")
    output = blocker / "run" if below else blocker
    path = _write_config(tmp_path, _tiny_config_dict())
    done = _run_cli(["train", "-c", str(path), "-o", str(output)])
    lines = done.stderr.splitlines()
    assert done.returncode == 2 and len(lines) == 1, done.stderr
    assert lines[0] == f"error code=2 kind=config msg=--output: {blocker} exists and is not a directory"
    assert done.stdout == "" and blocker.read_text() == "kept\n"
