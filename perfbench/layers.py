"""What each of the benchmark's metrics means, printed beside its value.

Names, units and directions live in BENCHMARK.json.  For a per-layer metric
the note names the end-to-end metric it should move and on which workload,
written down before any optimization lands.  A per-layer metric reads 0 on a
workload whose timed call does not reach that layer.
"""

_TRANSFER = "moves wall_s and peak_rss_mb on darcy_transfer"
_SWEEP = "moves wall_s on poisson2d_sweep"
_DESIGN = "moves wall_s and peak_rss_mb on poisson2d_sweep"
_TRAIN = "moves wall_s on darcy_train, partly on poisson2d_sweep"

NOTES = {
    "setup_s": "interpreter start to first timed call: import, BLAS warm-up, "
               "workload preparation; median over all processes",
    "wall_s": "median time of one timed call",
    "test_rel_err": "relative test error the timed call delivers",
    "peak_rss_mb": "peak resident memory of a process making timed calls",
    "setup.import_s": "moves setup_s on all workloads",
    "setup.warmup_s": "moves setup_s on all workloads",
    "datagen.grf_s": _TRANSFER,
    "datagen.grf_points": _TRANSFER,
    "datagen.newton_s": _TRANSFER,
    "datagen.newton_solves": _TRANSFER,
    "datagen.self_s": _TRANSFER,
    "basis.design_s": _DESIGN,
    "basis.design_calls": _DESIGN,
    "basis.design_entries": _DESIGN,
    "basis.design_nonzero_frac": _DESIGN,
    "encoder.factor_s": _SWEEP,
    "encoder.factor_calls": _SWEEP,
    "encoder.factor_unique_frac": _SWEEP,
    "encoder.apply_s": "moves wall_s on darcy_transfer",
    "encoder.diag_s": _SWEEP,
    "encoder.floor_s": _SWEEP,
    "neuralop.workspace_s": _TRAIN,
    "neuralop.loss_grad_s": _TRAIN,
    "neuralop.steps": _TRAIN,
    "neuralop.eval_loss_s": _TRAIN,
    "neuralop.train_self_s": _TRAIN,
    "neuralop.step_us": _TRAIN,
    "neuralop.forward_s": "moves wall_s on darcy_transfer",
    "experiment.self_s": "moves wall_s on all workloads",
    "experiment.runs": "moves wall_s on all workloads",
    "container.write_s": "moves wall_s on darcy_train",
    "container.bytes": "moves wall_s on darcy_train",
    "trace.wall_ratio": "traced over untraced median wall_s; the tracing overhead is this "
                        "minus 1",
}
