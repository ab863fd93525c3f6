import dataclasses
import importlib.util
import pathlib
import sys

import numpy as np
import pytest

from fbc2c import experiment, neuralop
from fbc2c.basis import RfmBasis
from fbc2c.config import (BasisSpec, DatasetSpec, EncodeSpec, ExperimentConfig,
                          NetSpec, config_to_dict)
from fbc2c.encoder import LeastSquaresEncoder
from fbc2c.errors import ConfigurationError, TrainingDiverged
from fbc2c.experiment import (compare_vector_scalar, eval_resolutions,
                              evaluate_on, load_run, prepare_data, run,
                              sweep_cutoff, write_artifacts)
from fbc2c.neuralop import TrainConfig, forward


def _darcy_config(**overrides):
    base = dict(
        dataset=DatasetSpec(kind="darcy1d", n=120, m_train=16, m_test=8, seed=3),
        input_basis=BasisSpec(kind="rfm", partitions=[4], features_per_partition=8,
                              range_bound=3.0, seed=1, bounds=[[0.0, 1.0]]),
        output_basis=BasisSpec(kind="rfm", partitions=[2], features_per_partition=6,
                               range_bound=3.0, seed=2, bounds=[[0.0, 1.0]]),
        input_encode=EncodeSpec(cut=1e-2),
        output_encode=EncodeSpec(cut=1e-8),
        net=NetSpec(hidden=24, seed=5),
        train=TrainConfig(epochs=60, seed=6, eval_interval=30),
    )
    base.update(overrides)
    return ExperimentConfig(**base)


@pytest.fixture(scope="module")
def darcy_result():
    return run(_darcy_config())


def test_run_report_fields_populated(darcy_result):
    report = darcy_result.report
    assert np.isfinite(report.final_test_error)
    assert report.test_error_per_sample.shape == (8,)
    assert np.isfinite(report.projection.mean)
    assert report.erank is not None and report.erank >= 1.0
    assert report.variance_entropy is not None
    assert report.input_dim == 32 and report.output_dim == 12
    assert report.n_parameters == darcy_result.net.n_parameters
    assert report.wall_seconds > 0
    assert len(report.config_hash) == 16


def test_run_reports_both_encoders(darcy_result, tmp_path):
    cfg, report = darcy_result.config, darcy_result.report
    train_ds = darcy_result.data.train
    design = darcy_result.input_basis.design_matrix(train_ds.input_points)
    inputs = LeastSquaresEncoder(design, cfg.input_encode)
    outputs = LeastSquaresEncoder(darcy_result.psi, cfg.output_encode)
    assert (report.input_kept_rank, report.input_condition) == (
        inputs.kept_rank, inputs.condition)
    assert (report.output_kept_rank, report.output_condition) == (
        outputs.kept_rank, outputs.condition)
    assert 0 < report.input_kept_rank < report.input_dim
    write_artifacts(darcy_result, tmp_path)
    lines = (tmp_path / "report.txt").read_text().splitlines()
    for name in ("input_kept_rank", "input_condition", "output_kept_rank", "output_condition"):
        assert f"{name} = {getattr(report, name)!r}" in lines
    # the diagnostics of the input coefficients and the floor, read back exactly
    assert f"input_coefficient_erank = {report.erank!r}" in lines
    assert f"input_variance_entropy = {report.variance_entropy!r}" in lines
    assert f"mean_projection_error = {report.projection.mean!r}" in lines


@pytest.mark.parametrize("field", ["input_points", "output_points"])
def test_run_refuses_a_test_split_on_another_grid(field):
    cfg = _darcy_config()
    data = prepare_data(cfg.dataset)
    moved = getattr(data.test, field) * 0.99
    data.test = dataclasses.replace(data.test, **{field: moved})
    with pytest.raises(ConfigurationError, match=f"test {field}.*evaluate_on"):
        run(cfg, prepared=data)
    assert data.designs == {}                   # refused before any design was built


def test_run_is_deterministic_except_wall_clock():
    r1 = run(_darcy_config())
    r2 = run(_darcy_config())
    assert r1.report.final_test_error == r2.report.final_test_error
    assert np.array_equal(r1.report.test_error_per_sample,
                          r2.report.test_error_per_sample)
    assert np.array_equal(r1.net.flat_parameters(), r2.net.flat_parameters())
    assert np.array_equal(r1.trace.train_loss, r2.trace.train_loss)


def test_run_trains_through_the_input_span_as_without_it(monkeypatch):
    calls, folds = [], []
    fold = experiment._fold_standardization

    def spy_train(*args, **kwargs):
        calls.append((args, dict(kwargs)))
        return neuralop.train(*args, **kwargs)

    def spy_fold(net, mean, scale):
        folds.append((mean, scale))
        fold(net, mean, scale)

    monkeypatch.setattr("fbc2c.experiment.train", spy_train)
    monkeypatch.setattr("fbc2c.experiment._fold_standardization", spy_fold)
    result = run(_darcy_config())
    batch = result.config.dataset.m_train       # full batch
    (args, kwargs), = calls
    m1, k = kwargs.pop("input_span").shape
    assert k == result.report.input_kept_rank and k * (m1 + batch) < batch * m1
    plain, _ = neuralop.train(*args, **kwargs)
    fold(plain, *folds[0])
    change = np.linalg.norm(result.net.parameters - plain.parameters)
    assert change <= 1e-10 * np.linalg.norm(plain.parameters)


def test_diverged_run_hands_back_a_checkpoint_on_raw_inputs(monkeypatch):
    seen = {}

    def diverging(net, inputs, *args, **kwargs):
        seen["outputs"] = forward(net, inputs)  # on the standardized coefficients
        raise TrainingDiverged("training loss became non-finite at epoch 0", epoch=0,
                               checkpoint=net.copy())

    monkeypatch.setattr("fbc2c.experiment.train", diverging)
    cfg = _darcy_config()
    data = prepare_data(cfg.dataset)
    with pytest.raises(TrainingDiverged) as info:
        run(cfg, prepared=data)
    design = cfg.input_basis.build().design_matrix(data.train.input_points)
    raw = LeastSquaresEncoder(design, cfg.input_encode).encode_values(data.train.inputs)
    got = forward(info.value.checkpoint, raw)
    assert got == pytest.approx(seen["outputs"], rel=1e-10, abs=1e-12)


def test_projection_bound_per_sample(darcy_result):
    report = darcy_result.report
    assert np.all(report.test_error_per_sample >= report.projection.per_sample - 1e-9)


def test_fem_output_at_grid_nodes_gives_zero_projection():
    cfg = _darcy_config(
        output_basis=BasisSpec(kind="fem", n_nodes=120),
        output_encode=EncodeSpec(cut=0.0),
    )
    result = run(cfg)
    assert result.report.projection.mean < 1e-10


def test_sweep_singleton_matches_run():
    cfg = _darcy_config()
    table = sweep_cutoff(cfg, [cfg.input_encode.cut])
    assert len(table.rows) == 1
    row = table.rows[0]
    single = run(cfg)
    assert row.final_test_error == single.report.final_test_error
    assert row.erank == single.report.erank


def test_sweep_reuses_dataset_and_orders_rows(tmp_path):
    cfg = _darcy_config(train=TrainConfig(epochs=0, seed=6))
    table = sweep_cutoff(cfg, [1e-6, 1e-2])
    assert [r.cut for r in table.rows] == [1e-6, 1e-2]
    csv_path = tmp_path / "sweep.csv"
    table.write_csv(csv_path)
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "cut,erank,variance_entropy,final_test_error"
    assert len(lines) == 3
    with pytest.raises(ConfigurationError):
        sweep_cutoff(cfg, [])


def _poisson_config():
    box = [[0.0, 1.0], [0.0, 1.0]]
    return ExperimentConfig(
        dataset=DatasetSpec(kind="poisson2d", n=9, m_train=12, m_test=6, seed=3),
        input_basis=BasisSpec(kind="rfm", partitions=[2, 2], features_per_partition=6,
                              range_bound=3.0, seed=1, bounds=box),
        output_basis=BasisSpec(kind="rfm", partitions=[2, 2], features_per_partition=4,
                               range_bound=3.0, seed=2, bounds=box),
        output_encode=EncodeSpec(cut=1e-8),
        net=NetSpec(hidden=16, seed=5),
        train=TrainConfig(epochs=10, seed=6, eval_interval=5),
    )


def test_sweep_factors_each_design_once_per_call(svd_calls, monkeypatch):
    design_calls = []
    design_matrix = RfmBasis.design_matrix

    def counting(self, points):
        design_calls.append(np.shape(points))
        return design_matrix(self, points)

    monkeypatch.setattr(RfmBasis, "design_matrix", counting)
    cfg = _poisson_config()
    cuts = [1e-6, 1e-4, 1e-2]
    data = prepare_data(cfg.dataset)
    table = sweep_cutoff(cfg, cuts, prepared=data)
    # the input design (train and test share the 9x9 grid), then the output design
    assert svd_calls == [(81, 24), (81, 16)]
    assert len(design_calls) == 2

    # each member run on fresh data builds and factors its own two designs
    svd_calls.clear()
    for cut, row in zip(cuts, table.rows):
        member = dataclasses.replace(cfg, input_encode=EncodeSpec(cut=cut))
        report = run(member, prepared=prepare_data(cfg.dataset)).report
        assert (row.erank, row.variance_entropy, row.final_test_error) == (
            report.erank, report.variance_entropy, report.final_test_error)
    assert len(svd_calls) == 2 * len(cuts)

    # the designs belong to the PreparedData: a second sweep on it factors nothing
    svd_calls.clear()
    design_calls.clear()
    assert sweep_cutoff(cfg, cuts, prepared=data).rows == table.rows
    assert svd_calls == [] and design_calls == []


def test_evaluate_on_reproduces_test_error(darcy_result):
    mean, per = evaluate_on(darcy_result, darcy_result.data.test)
    assert mean == pytest.approx(darcy_result.report.final_test_error, rel=1e-12)
    assert np.array_equal(per, darcy_result.report.test_error_per_sample)


def test_run_directory_evaluates_to_its_reported_error(tmp_path):
    result = run(_darcy_config(), outdir=tmp_path)
    trained = load_run(tmp_path)
    mean, per = evaluate_on(trained, prepare_data(trained.config.dataset).test)
    assert mean == result.report.final_test_error
    assert np.array_equal(per, result.report.test_error_per_sample)


def test_eval_resolutions_basic(darcy_result):
    table = eval_resolutions(darcy_result, [40, 120])
    assert set(table) == {40, 120}
    assert all(np.isfinite(v) for v in table.values())
    # evaluation at the training resolution is statistically consistent with
    # the run's own test error (fresh draws from the same distribution)
    assert table[120] == pytest.approx(darcy_result.report.final_test_error, rel=0.8)
    with pytest.raises(ConfigurationError):
        eval_resolutions(darcy_result, [])
    # a fractional grid size reaches the generator's check instead of being truncated
    with pytest.raises(ConfigurationError, match="^resolution: must be an integer, got 40.5"):
        eval_resolutions(darcy_result, [40, 40.5])


def test_artifacts_round_trip(tmp_path, darcy_result):
    outdir = tmp_path / "art"
    from fbc2c.experiment import write_artifacts
    write_artifacts(darcy_result, outdir)
    net = load_run(outdir).net
    assert np.array_equal(net.flat_parameters(), darcy_result.net.flat_parameters())
    lines = (outdir / "traces.csv").read_text().splitlines()
    assert lines[0] == "epoch,train_rel_err,test_rel_err,lr"
    assert len(lines) == 61
    from fbc2c.config import load_config
    loaded = load_config(outdir / "config.json")
    assert config_to_dict(loaded) == config_to_dict(darcy_result.config)
    report_text = (outdir / "report.txt").read_text()
    assert "final_test_relative_error" in report_text


# ---------------------------------------------------------------------------
# multi-component datasets


def _multi_config(**overrides):
    base = dict(
        dataset=DatasetSpec(kind="multi_output_1d", n=60, m_train=12, m_test=6, seed=9),
        input_basis=BasisSpec(kind="rfm", partitions=[2], features_per_partition=8,
                              range_bound=3.0, seed=1, bounds=[[0.0, 1.0]]),
        output_basis=BasisSpec(kind="rfm", partitions=[2], features_per_partition=5,
                               range_bound=3.0, seed=2, bounds=[[0.0, 1.0]]),
        input_encode=EncodeSpec(cut=1e-2),
        output_encode=EncodeSpec(cut=1e-8),
        net=NetSpec(hidden=16, seed=5),
        train=TrainConfig(epochs=40, seed=6),
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def test_vector_and_scalar_output_dims():
    scalar = run(_multi_config(output_mode="scalar"))
    vector = run(_multi_config(output_mode="vector"))
    assert scalar.report.output_dim == 20      # C * m2 coefficient blocks
    assert vector.report.output_dim == 10      # shared coefficients
    assert (scalar.net.n_parameters - vector.net.n_parameters) == 10 * 16


@pytest.mark.parametrize("mode", ["scalar", "vector"])
def test_evaluate_on_reproduces_a_multi_output_test_error(mode):
    result = run(_multi_config(output_mode=mode))
    mean, per = evaluate_on(result, result.data.test)
    assert mean == result.report.final_test_error
    assert np.array_equal(per, result.report.test_error_per_sample)


def test_compare_vector_scalar_on_multi_output():
    comparison = compare_vector_scalar(_multi_config())
    assert comparison.parameter_difference == 10 * 16
    assert comparison.scalar.report.final_test_error > 0
    assert comparison.vector.report.final_test_error > 0
    assert len(comparison.seconds_per_epoch) == 2


def test_compare_vector_scalar_shares_designs_as_fresh_runs_would():
    cfg = _multi_config()
    data = prepare_data(cfg.dataset)
    comparison = compare_vector_scalar(cfg, prepared=data)
    # one input design for both variants; a block-diagonal and a stacked output design
    assert sorted((side, mode) for side, _, mode in data.designs) == [
        ("input", "scalar"), ("output", "scalar"), ("output", "vector")]
    for member in (comparison.scalar, comparison.vector):
        fresh = run(member.config)
        assert np.array_equal(member.report.test_error_per_sample,
                              fresh.report.test_error_per_sample)
        assert np.array_equal(member.report.projection.per_sample,
                              fresh.report.projection.per_sample)
        assert np.array_equal(member.net.flat_parameters(), fresh.net.flat_parameters())


def test_compare_vector_scalar_single_component_degenerates():
    comparison = compare_vector_scalar(_darcy_config())
    assert comparison.scalar.report.final_test_error == comparison.vector.report.final_test_error
    assert comparison.parameter_difference == 0


def test_study_members_change_only_the_studied_field(monkeypatch):
    quick = TrainConfig(epochs=2, seed=6)
    odd = dict(output_encode=EncodeSpec(cut=1e-3),
               net=NetSpec(hidden=7, seed=11), train=quick)
    cfg = _darcy_config(**odd)
    members = []

    def spy_run(config, *args, **kwargs):
        members.append(config)
        return run(config, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr("fbc2c.experiment.run", spy_run)
        sweep_cutoff(cfg, [1e-6, 1e-3])
    assert members == [dataclasses.replace(cfg, input_encode=EncodeSpec(cut=cut))
                       for cut in (1e-6, 1e-3)]

    multi = _multi_config(**odd)
    comparison = compare_vector_scalar(multi)
    # single-component inputs keep their mode; the two-component outputs switch
    assert comparison.scalar.config == dataclasses.replace(multi, output_mode="scalar")
    assert comparison.vector.config == dataclasses.replace(multi, output_mode="vector")


@pytest.mark.parametrize("spec", [
    DatasetSpec(kind="darcy1d", n=30, m_train=3, m_test=2, seed=1),
    DatasetSpec(kind="poisson2d", n=4, m_train=3, m_test=2, seed=1),
    DatasetSpec(kind="multi_output_1d", n=30, m_train=3, m_test=2, seed=1),
], ids=lambda spec: spec.kind)
def test_prepare_data_gives_a_train_and_test_split_on_one_grid(spec):
    prepared = prepare_data(spec)
    assert [f.name for f in dataclasses.fields(prepared)] == ["train", "test", "designs"]
    assert (prepared.train.n_samples, prepared.test.n_samples) == (3, 2)
    for name in ("input_points", "output_points"):
        assert np.array_equal(getattr(prepared.train, name), getattr(prepared.test, name))


def _benchmark_tracer(monkeypatch):
    """``perfbench/tracer.py``, the benchmark's span recorder, loaded from its file."""
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracer)
    spec.loader.exec_module(tracer)
    return tracer


@pytest.mark.parametrize("config, spans", [
    (_darcy_config(dataset=DatasetSpec(kind="darcy1d", n=40, m_train=6, m_test=3, seed=1),
                   train=TrainConfig(epochs=2, seed=6)),
     ("datagen.make_darcy1d", "datagen.sample_grf_at", "datagen.solve_darcy_batch")),
    (dataclasses.replace(_poisson_config(), train=TrainConfig(epochs=2, seed=6)),
     ("datagen.make_poisson2d",)),
], ids=["darcy1d", "poisson2d"])
def test_benchmark_tracer_records_the_datagen_spans_of_a_run(monkeypatch, config, spans):
    # the benchmark's workloads exit when a span they list records no call,
    # so a run must reach the generators through the names the tracer replaces
    tracer = _benchmark_tracer(monkeypatch)
    recorder = tracer.Tracer()
    with recorder.installed():
        run(config)
    _, calls = tracer.layer_metrics(recorder.spans)
    assert all(calls[name] >= 1 for name in spans), dict(calls)
