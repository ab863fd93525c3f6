"""The benchmark's workloads: inputs made from a seed, one timed call, its checks.

Every dataset, basis, net and training seed of a workload is drawn from the
``--seed`` the benchmark receives.  The sizes follow the demos, trimmed so a
timed call takes a few seconds on one core.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from fbc2c import experiment
from fbc2c.config import BasisSpec, DatasetSpec, EncodeSpec, ExperimentConfig, NetSpec
from fbc2c.container import read_container
from fbc2c.neuralop import TrainConfig

DEFAULT_SEED = 0

# Demo 03 trains for 3000 epochs (~19 s); 300 keep one timed call near 2 s.
DARCY_TRAIN_EPOCHS = 300
# Demo 05 trains for 4000 epochs; set-up trains briefly before the timed eval.
TRANSFER_TRAIN_EPOCHS = 300
TRANSFER_TRAIN_N = 100
SWEEP_EPOCHS = 20
SWEEP_CUTS = (1e-6, 1e-4, 1e-2)
# The transfer workload reports the error on the finest grid.  The maximum
# over grids is set by the 40-point grid, whose error swings with the seed
# (quartile spread ~40% of the median over ten seeds, against ~15% at 2000).
TRANSFER_RESOLUTIONS = (40, 500, 1000, 2000)
# Grids at least as fine as the training grid must agree within this max/min
# ratio (they agree within 1.01 on seeds 1-40).  The 40-point grid only has to
# give a finite error: it has fewer points than the 128 input features, and
# its error is heavy-tailed in the seed (within 1.13x of the finer grids on 37
# of seeds 1-40, 1.4x and 1.6x on seeds 10 and 8, 11x on seed 25).
TRANSFER_MAX_RATIO = 1.1
# test_rel_err on DEFAULT_SEED at one BLAS thread, and how far it may drift.
REFERENCE = {
    "darcy_train": 0.62406014138434,
    "poisson2d_sweep": 8.22043725829041,
    "darcy_transfer": 0.5751322078040707,
}
# One vs two BLAS threads moves darcy_train's error by ~2e-5 relative.
REFERENCE_RTOL = 1e-3


def derived_seeds(seed: int) -> dict:
    """Independent 32-bit seeds for every random choice a workload makes."""
    names = ("dataset", "input_basis", "output_basis", "net", "train")
    state = np.random.SeedSequence(seed).generate_state(len(names))
    return dict(zip(names, (int(s) for s in state)))


def _rfm(partitions, features, seed):
    return BasisSpec(kind="rfm", partitions=list(partitions), features_per_partition=features,
                     range_bound=3.0, seed=seed, bounds=[[0.0, 1.0]] * len(partitions))


@dataclass
class Outcome:
    test_rel_err: float
    problems: list


class Workload:
    """One timed call on inputs made from a seed.

    ``spans`` lists the traced spans the call must reach; a traced run in
    which one of them records no call has wrapped the wrong name.
    """

    name: str
    spans: frozenset

    def __init__(self, seed: int):
        self.seeds = derived_seeds(seed)

    def prepare(self) -> None:
        """Work done once per process before the first timed call."""

    def call(self, outdir):
        raise NotImplementedError

    def check(self, output, outdir) -> Outcome:
        raise NotImplementedError


class DarcyTrain(Workload):
    name = "darcy_train"
    spans = frozenset({
        "experiment.run", "datagen.make_darcy1d", "datagen.sample_grf_at",
        "datagen.solve_darcy_batch", "basis.RfmBasis.design_matrix",
        "encoder.LeastSquaresEncoder", "encoder.LeastSquaresEncoder.encode_values",
        "encoder.diagnostics", "encoder.projection_error_from_design",
        "neuralop.ReconstructionLoss", "neuralop.ReconstructionLoss.loss_and_grads",
        "neuralop.ReconstructionLoss.loss", "neuralop.train", "neuralop.forward",
        "neuralop.relative_loss", "container.write_container",
    })

    def prepare(self):
        s = self.seeds
        self.config = ExperimentConfig(
            dataset=DatasetSpec(kind="darcy1d", n=500, m_train=200, m_test=80, seed=s["dataset"]),
            input_basis=_rfm([8], 16, s["input_basis"]),
            output_basis=_rfm([4], 8, s["output_basis"]),
            input_encode=EncodeSpec(method="tsvd", cut=1e-2),
            output_encode=EncodeSpec(method="tsvd", cut=1e-6),
            net=NetSpec(hidden=512, seed=s["net"]),
            train=TrainConfig(epochs=DARCY_TRAIN_EPOCHS, batch_size=50, seed=s["train"],
                              eval_interval=100),
        )

    def call(self, outdir):
        return experiment.run(self.config, outdir=outdir)

    def check(self, result, outdir):
        report = result.report
        problems = []
        errs, floor = report.test_error_per_sample, report.projection.per_sample
        if not np.all(np.isfinite(errs)):
            problems.append("non-finite per-sample test error")
        below = np.flatnonzero(errs < floor - 1e-9)
        if below.size:
            problems.append(f"test error below the projection floor at samples {below.tolist()}")
        arrays, _ = read_container(outdir / "checkpoint.fbc")
        if not np.array_equal(arrays["parameters"], result.net.flat_parameters()):
            problems.append("checkpoint does not round-trip the trained parameters")
        return Outcome(report.final_test_error, problems)


class Poisson2dSweep(Workload):
    name = "poisson2d_sweep"
    spans = frozenset({
        "experiment.sweep_cutoff", "experiment.run", "datagen.make_poisson2d",
        "basis.RfmBasis.design_matrix", "encoder.LeastSquaresEncoder",
        "encoder.LeastSquaresEncoder.encode_values", "encoder.diagnostics",
        "encoder.projection_error_from_design", "neuralop.ReconstructionLoss",
        "neuralop.ReconstructionLoss.loss_and_grads", "neuralop.ReconstructionLoss.loss",
        "neuralop.train", "neuralop.forward", "neuralop.relative_loss",
    })

    def prepare(self):
        s = self.seeds
        self.config = ExperimentConfig(
            dataset=DatasetSpec(kind="poisson2d", n=33, m_train=200, m_test=50, seed=s["dataset"]),
            input_basis=_rfm([8, 8], 16, s["input_basis"]),
            output_basis=_rfm([4, 4], 16, s["output_basis"]),
            output_encode=EncodeSpec(method="tsvd", cut=1e-6),
            net=NetSpec(hidden=256, seed=s["net"]),
            train=TrainConfig(epochs=SWEEP_EPOCHS, batch_size=50, seed=s["train"],
                              eval_interval=10),
        )

    def call(self, outdir):
        return experiment.sweep_cutoff(self.config, list(SWEEP_CUTS))

    def check(self, sweep, outdir):
        problems = []
        eranks = [row.erank for row in sweep.rows]
        if not all(a < b for a, b in zip(eranks, eranks[1:])):
            problems.append(f"effective rank does not rise with the cut: {eranks}")
        errors = [row.final_test_error for row in sweep.rows]
        if not all(math.isfinite(e) for e in errors):
            problems.append(f"non-finite sweep test error: {errors}")
        # The mean over cuts covers every member run; its quartile spread over
        # seeds 1-10 is 0.077 of the median, against 0.10 for the largest cut.
        return Outcome(sum(errors) / len(errors), problems)


class DarcyTransfer(Workload):
    name = "darcy_transfer"
    spans = frozenset({
        "experiment.eval_resolutions", "datagen.make_darcy1d_multiresolution",
        "datagen.sample_grf_at", "datagen.solve_darcy_batch",
        "basis.RfmBasis.design_matrix", "encoder.LeastSquaresEncoder",
        "encoder.LeastSquaresEncoder.encode_values", "neuralop.forward",
        "neuralop.relative_loss",
    })

    def prepare(self):
        s = self.seeds
        config = ExperimentConfig(
            dataset=DatasetSpec(kind="darcy1d", n=TRANSFER_TRAIN_N, m_train=300, m_test=100,
                                seed=s["dataset"]),
            input_basis=_rfm([8], 16, s["input_basis"]),
            output_basis=_rfm([4], 8, s["output_basis"]),
            output_encode=EncodeSpec(method="tsvd", cut=1e-6),
            net=NetSpec(hidden=512, seed=s["net"]),
            train=TrainConfig(epochs=TRANSFER_TRAIN_EPOCHS, batch_size=75, seed=s["train"],
                              eval_interval=1000),
        )
        self.trained = experiment.run(config)

    def call(self, outdir):
        return experiment.eval_resolutions(self.trained, list(TRANSFER_RESOLUTIONS))

    def check(self, table, outdir):
        problems = []
        errors = [table[r] for r in TRANSFER_RESOLUTIONS]
        fine = [table[r] for r in TRANSFER_RESOLUTIONS if r >= TRANSFER_TRAIN_N]
        if not all(math.isfinite(e) and e > 0 for e in errors):
            problems.append(f"non-finite or zero transfer error: {errors}")
        elif max(fine) > TRANSFER_MAX_RATIO * min(fine):
            problems.append(f"max/min error over grids of at least {TRANSFER_TRAIN_N} points "
                            f"above {TRANSFER_MAX_RATIO}: {errors}")
        return Outcome(table[max(TRANSFER_RESOLUTIONS)], problems)


WORKLOADS = {w.name: w for w in (DarcyTrain, Poisson2dSweep, DarcyTransfer)}
