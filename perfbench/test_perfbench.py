"""Tests of the benchmark's own logic: statistics, self time, counting, names."""

from __future__ import annotations

import re

import pytest

import layers
import run
import stats
import tracer
import workloads

# The result line's naming rules: a metric name is a letter or digit followed
# by [A-Za-z0-9_.-], at most 64 in all; a unit is at most 16 of [A-Za-z0-9_/%.-].
METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _span(parent, start, end):
    return tracer.Span("s", parent, start, end)


def test_covered_length_merges_overlaps_and_clips_to_the_parent():
    assert tracer.covered_length([(1, 3), (2, 5), (8, 12)], 0, 10) == 6
    assert tracer.covered_length([(2, 4), (2.5, 3)], 0, 10) == 2
    assert tracer.covered_length([(-5, -1), (11, 12)], 0, 10) == 0
    assert tracer.covered_length([], 0, 10) == 0


def test_self_time_subtracts_only_direct_children():
    spans = [_span(None, 0, 10), _span(0, 1, 4), _span(1, 2, 3), _span(0, 3, 6)]
    assert tracer.self_times(spans) == [5, 2, 1, 3]


def test_tail_percentile_keeps_ten_samples_beyond():
    assert stats.tail_percentile(range(10)) is None
    assert stats.tail_percentile(range(11)) == (9, 0)
    assert stats.tail_percentile(range(20)) == (50, 9)
    assert stats.tail_percentile(range(100)) == (90, 89)
    for n in range(11, 400):
        p, value = stats.tail_percentile(range(n))
        beyond = n - 1 - value
        assert beyond >= 10
        # one percentile higher would leave fewer than ten samples beyond
        assert n - -(-(p + 1) * n // 100) < 10


def _proc(calls=(), layers_=()):
    return {"setup_s": 1.0, "peak_rss_mb": 100.0, "import_s": 0.5, "warmup_s": 0.01,
            "prepare_s": 0.1,
            "calls": list(calls), "layers": list(layers_),
            "env": {"python": "3", "numpy": "2", "scipy": "1", "openblas": "0",
                    "OPENBLAS_NUM_THREADS": "1"}}


def _call(wall, problems=(), traced=False, err=0.5):
    return {"wall_s": wall, "traced": traced, "test_rel_err": err, "problems": list(problems)}


def test_failed_calls_count_against_attempted_and_leave_wall_time():
    procs = [_proc([_call(2.0), _call(0.1, ["raised"], err=None)]),
             _proc([_call(3.0), _call(2.5, ["below floor"])])]
    result, lines = run.summarize("darcy_train", procs, trace=0, threads=1)
    assert (result["attempted"], result["failed"], result["correct"]) == (4, 2, False)
    assert result["metrics"]["wall_s"]["value"] == 2.5
    assert "fail_frac = 0.5 ratio  (2 of 4 timed calls raised or failed a check)" in lines
    assert stats.fail_frac(0, 3) == 0.0
    with pytest.raises(ValueError):
        stats.fail_frac(0, 0)
    with pytest.raises(ValueError):
        stats.fail_frac(4, 3)


def test_setup_only_processes_add_setup_samples_but_no_memory_peak():
    setup_only = dict(_proc(), setup_s=0.2, peak_rss_mb=50.0)
    procs = [_proc([_call(2.0)]), _proc([_call(2.0)]), setup_only, dict(setup_only)]
    result, _ = run.summarize("darcy_train", procs, trace=0, threads=1)
    assert result["attempted"] == 2
    assert result["metrics"]["setup_s"]["value"] == pytest.approx(0.6)
    assert result["metrics"]["peak_rss_mb"]["value"] == 100.0


def test_traced_calls_count_and_give_the_wall_ratio():
    metrics, _ = tracer.layer_metrics([])
    procs = [_proc([_call(2.0), _call(2.2, traced=True), _call(2.0), _call(2.2, traced=True)],
                   [metrics, metrics]), _proc()]
    result, _ = run.summarize("darcy_train", procs, trace=1, threads=1)
    assert (result["attempted"], result["failed"]) == (4, 0)
    assert result["metrics"]["trace.wall_ratio"]["value"] == pytest.approx(1.1)
    assert set(result["metrics"]) == {m["name"] for m in run.BENCHMARK["per_layer"]}


def test_metric_names_and_units_are_valid_and_explained():
    for kind in ("end_to_end", "per_layer"):
        for metric in run.BENCHMARK[kind]:
            assert METRIC_NAME.fullmatch(metric["name"])
            assert UNIT.fullmatch(metric["unit"])
            assert metric["name"] in layers.NOTES
    assert not any(METRIC_NAME.fullmatch(bad) for bad in ("wall s", ".hidden", "x" * 65))


def test_workloads_match_benchmark_json():
    assert run.WORKLOADS == tuple(workloads.WORKLOADS)


def test_seeds_are_derived_from_the_workload_seed():
    assert workloads.derived_seeds(3) == workloads.derived_seeds(3)
    assert workloads.derived_seeds(3) != workloads.derived_seeds(4)
    assert len(set(workloads.derived_seeds(3).values())) == 5


def _tiny_run():
    from fbc2c import experiment
    from fbc2c.config import DatasetSpec, ExperimentConfig, NetSpec
    from fbc2c.neuralop import TrainConfig

    config = ExperimentConfig(
        dataset=DatasetSpec(kind="darcy1d", n=40, m_train=12, m_test=6, seed=1),
        input_basis=workloads._rfm([2], 4, 2), output_basis=workloads._rfm([2], 3, 3),
        net=NetSpec(hidden=8, seed=4), train=TrainConfig(epochs=2, batch_size=6, seed=5),
    )
    return experiment.run(config)


def test_tracer_wraps_the_names_callers_use_and_restores_them():
    from fbc2c import encoder, experiment

    t = tracer.Tracer()
    with t.installed():
        _tiny_run()
    metrics, calls = tracer.layer_metrics(t.spans)
    # two input encoders from experiment, one floor encoder from encoder
    assert metrics["encoder.factor_calls"] == 3
    assert metrics["neuralop.steps"] == 4
    assert calls["neuralop.relative_loss"] == 1
    assert experiment.LeastSquaresEncoder is encoder.LeastSquaresEncoder
    assert not hasattr(vars(encoder.LeastSquaresEncoder)["encode_values"], "__wrapped__")

    only_defining_module = tracer.Tracer([
        target for target in tracer.TARGETS
        if target[:2] != ("fbc2c.experiment", "LeastSquaresEncoder")])
    with only_defining_module.installed():
        _tiny_run()
    metrics, _ = tracer.layer_metrics(only_defining_module.spans)
    assert metrics["encoder.factor_calls"] == 1
