"""End-to-end orchestration: encode, train, evaluate, and the paper-style studies.

``run`` executes one full pipeline and returns a RunResult whose report
carries the test error, the output-space projection floor, the input
coefficient diagnostics and the kept rank and condition of both encoders.
Its net maps raw input coefficients to output coefficients, as does the
checkpoint of a ``TrainingDiverged`` it raises, and the bases are rebuilt
from config seeds, so the config and net that a run directory stores
(``load_run``) are all ``evaluate_on`` needs; with ``report.txt`` and
``traces.csv`` they are all a run directory holds.  The encode sections of the
config are the ``EncodeSpec`` the encoders take.  Output components are
laid out by ``encoder.component_design`` and ``encoder.stack_components``
in training, in ``evaluate_on`` and in the projection floor alike, and
``side_basis`` builds each side's basis as ``fbc2c encode`` does.
``sweep_cutoff``, ``eval_resolutions`` and ``compare_vector_scalar`` drive
the cutoff sensitivity, resolution transfer, and scalar-vs-vector-output
studies on top of it.
"""

from __future__ import annotations

import csv
import dataclasses
import pathlib
import time
from dataclasses import dataclass, field

import numpy as np

from . import datagen
from .config import DatasetSpec, ExperimentConfig, config_hash, dump_config, load_config
from .container import read_container, write_container
from .encoder import (EncodeSpec, LeastSquaresEncoder, ProjectionError, component_design,
                      diagnostics, projection_error_from_design, stack_components)
from .errors import ConfigurationError, DataError, TrainingDiverged
from .neuralop import OperatorNet, forward, init_net, relative_loss, train


@dataclass
class PreparedData:
    """Datasets built once so sweeps can reuse them across member runs.

    ``run`` fills ``designs``, which maps what builds a design matrix on the
    training grid, ``("input" | "output", repr(basis spec), mode)``, to
    ``(design, svd)``: the runs on one PreparedData factor each design once.
    """

    train: datagen.FunctionDataset
    test: datagen.FunctionDataset
    designs: dict = field(default_factory=dict)


def prepare_data(spec: DatasetSpec) -> PreparedData:
    """The train and test splits ``spec`` describes, both on one grid."""
    return PreparedData(*spec.build())


# ---------------------------------------------------------------------------
# pipeline pieces


def side_basis(config: ExperimentConfig, side: str, components: int):
    """(basis, mode) of the "input" or "output" side; single-component sides are scalar."""
    spec = getattr(config, f"{side}_basis")
    mode = config.output_mode if components > 1 else "scalar"
    return (spec.build(n_components=components) if mode == "vector" else spec.build()), mode


def _side_encoder(config: ExperimentConfig, data: PreparedData, side: str):
    """(basis, encoder) of the "input" or "output" side on the training grid.

    The design and its SVD are built once per ``data``, in ``data.designs``.
    Inputs have one component.
    """
    components = data.train.output_components if side == "output" else 1
    points = getattr(data.train, f"{side}_points")
    basis, mode = side_basis(config, side, components)
    key = (side, repr(getattr(config, f"{side}_basis")), mode)
    design, svd = data.designs.get(key, (None, None))
    if design is None:
        design = component_design(basis, points, components)
    enc = LeastSquaresEncoder(design, getattr(config, f"{side}_encode"), svd=svd)
    data.designs[key] = (design, enc.svd)
    return basis, enc


# ---------------------------------------------------------------------------
# reports


@dataclass
class RunReport:
    final_test_error: float
    test_error_per_sample: np.ndarray
    projection: ProjectionError
    erank: float
    variance_entropy: float
    input_kept_rank: int
    input_condition: float
    output_kept_rank: int
    output_condition: float
    input_dim: int
    output_dim: int
    hidden_dim: int
    n_parameters: int
    wall_seconds: float
    config_hash: str

    def summary_lines(self) -> list:
        return [
            f"config_hash = {self.config_hash}",
            f"final_test_relative_error = {self.final_test_error!r}",
            f"mean_projection_error = {self.projection.mean!r}",
            f"input_coefficient_erank = {self.erank!r}",
            f"input_variance_entropy = {self.variance_entropy!r}",
            f"input_kept_rank = {self.input_kept_rank}",
            f"input_condition = {self.input_condition!r}",
            f"output_kept_rank = {self.output_kept_rank}",
            f"output_condition = {self.output_condition!r}",
            f"input_dim = {self.input_dim}",
            f"output_dim = {self.output_dim}",
            f"hidden_dim = {self.hidden_dim}",
            f"n_parameters = {self.n_parameters}",
            f"wall_seconds = {self.wall_seconds:.3f}",
        ]


@dataclass
class TrainedMap:
    """A config and its net, which maps raw input coefficients to output coefficients."""

    config: ExperimentConfig
    net: OperatorNet


@dataclass
class RunResult(TrainedMap):
    """A TrainedMap with its run's report, bases, training-grid ``psi`` and data."""

    report: RunReport
    trace: object
    input_basis: object
    output_basis: object
    psi: np.ndarray
    data: PreparedData


def _fold_standardization(net: OperatorNet, mean: np.ndarray, scale: np.ndarray) -> None:
    """Fold x -> (x - mean) / scale into the first layer: W' = W / scale, b' = b - W' mean."""
    net.hidden_weights /= scale
    net.hidden_biases -= net.hidden_weights @ mean


def run(config: ExperimentConfig, outdir=None, prepared: PreparedData | None = None) -> RunResult:
    """Execute one experiment: build, encode, train, evaluate, report.

    The test split must share the training grid.  Each side's design matrix
    is built and factored once per ``PreparedData`` (see its ``designs``).
    A ``TrainingDiverged`` is raised with its checkpoint folded like the
    trained net, so it too maps raw input coefficients.
    """
    started = time.perf_counter()
    data = prepared if prepared is not None else prepare_data(config.dataset)
    train_ds, test_ds = data.train, data.test
    for name in ("input_points", "output_points"):
        if not np.array_equal(getattr(train_ds, name), getattr(test_ds, name)):
            raise ConfigurationError(
                f"test {name}: the test split is not on the training grid; run encodes and "
                f"reconstructs it through the training design, use evaluate_on for another grid")

    in_basis, in_enc = _side_encoder(config, data, "input")
    out_basis, out_enc = _side_encoder(config, data, "output")
    psi_eff = out_enc.design
    m_out = psi_eff.shape[1]
    u_train = stack_components(train_ds.outputs)
    u_test = stack_components(test_ds.outputs)

    a_train = in_enc.encode_values(train_ds.inputs)
    a_test = in_enc.encode_values(test_ds.inputs)
    diag = diagnostics(a_train)                 # of the raw coefficient representation

    # Train on standardized columns (small singular values amplify coefficient
    # scales); the net handed back, trained or diverged, takes raw inputs.
    mean = a_train.mean(axis=0)
    std = a_train.std(axis=0)
    floor = 1e-12 * max(float(std.max(initial=0.0)), 1e-300)
    scale = np.where(std > floor, std, 1.0)
    # coefficient rows lie in span(V_in), so the standardized ones lie in
    # span(diag(1/scale) V_in); train steps through it when that saves work
    span = in_enc.coefficient_span / scale[:, None]
    net0 = init_net(a_train.shape[1], config.net.hidden, m_out, config.net.seed)
    try:
        net, trace = train(net0, (a_train - mean) / scale, u_train, psi_eff, config.train,
                           test_inputs=(a_test - mean) / scale, test_targets=u_test,
                           input_span=span)
    except TrainingDiverged as exc:
        if exc.checkpoint is not None:
            _fold_standardization(exc.checkpoint, mean, scale)
        raise
    _fold_standardization(net, mean, scale)

    final_err, per_sample = relative_loss(forward(net, a_test), psi_eff, u_test)
    proj = projection_error_from_design(psi_eff, u_test, config.output_encode, svd=out_enc.svd)
    report = RunReport(
        final_test_error=final_err,
        test_error_per_sample=per_sample,
        projection=proj,
        erank=diag.effective_rank,
        variance_entropy=diag.variance_entropy,
        input_kept_rank=in_enc.kept_rank,
        input_condition=in_enc.condition,
        output_kept_rank=out_enc.kept_rank,
        output_condition=out_enc.condition,
        input_dim=a_train.shape[1],
        output_dim=m_out,
        hidden_dim=config.net.hidden,
        n_parameters=net.n_parameters,
        wall_seconds=time.perf_counter() - started,
        config_hash=config_hash(config),
    )
    result = RunResult(config=config, net=net, report=report, trace=trace,
                       input_basis=in_basis, output_basis=out_basis, psi=psi_eff, data=data)
    if outdir is not None:
        write_artifacts(result, outdir)
    return result


def evaluate_on(result: TrainedMap, dataset: datagen.FunctionDataset):
    """Mean and per-sample relative error of a trained map on a dataset.

    Both bases are rebuilt from the config and evaluated at the dataset's own
    points; on a run's test split this repeats the run's evaluation bit for bit.
    """
    return _evaluate(result, dataset, *_evaluation_bases(result.config, dataset.output_components))


def _evaluation_bases(config: ExperimentConfig, components: int):
    """(input basis, output basis) that ``evaluate_on`` rebuilds."""
    return config.input_basis.build(), side_basis(config, "output", components)[0]


def _evaluate(result: TrainedMap, dataset: datagen.FunctionDataset, in_basis, out_basis):
    """``evaluate_on`` with both bases given."""
    config = result.config
    enc = LeastSquaresEncoder(in_basis.design_matrix(dataset.input_points), config.input_encode)
    psi = component_design(out_basis, dataset.output_points, dataset.output_components)
    return relative_loss(forward(result.net, enc.encode_values(dataset.inputs)), psi,
                         stack_components(dataset.outputs))


# ---------------------------------------------------------------------------
# studies


@dataclass
class SweepRow:
    cut: float
    erank: float
    variance_entropy: float
    final_test_error: float


@dataclass
class SweepResult:
    rows: list

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["cut", "erank", "variance_entropy", "final_test_error"])
            for row in self.rows:
                writer.writerow([repr(row.cut), repr(row.erank),
                                 repr(row.variance_entropy), repr(row.final_test_error)])


def sweep_cutoff(config: ExperimentConfig, cuts,
                 prepared: PreparedData | None = None) -> SweepResult:
    """One run per input-side cutoff, reusing the dataset and all seeds.

    The member runs share one PreparedData, so each design matrix is built
    and factored once: a cut only changes the filter on the input design's
    singular values.  Every cut is checked before any data is generated.
    """
    if len(cuts) < 1:
        raise ConfigurationError("sweep needs at least one cut value")
    members = [dataclasses.replace(config, input_encode=EncodeSpec(cut=float(cut)))
               for cut in cuts]
    data = prepared if prepared is not None else prepare_data(config.dataset)
    rows = []
    for cut, member in zip(cuts, members):
        report = run(member, prepared=data).report
        rows.append(SweepRow(
            cut=float(cut),
            erank=report.erank,
            variance_entropy=report.variance_entropy,
            final_test_error=report.final_test_error,
        ))
    return SweepResult(rows=rows)


def eval_resolutions(result: TrainedMap, resolutions) -> dict:
    """Test a trained Darcy map on freshly generated data at other grid sizes.

    ``result`` needs only its config and net: a ``RunResult``, or the
    ``TrainedMap`` that ``load_run`` returns, which ``fbc2c eval`` passes.
    The forcing field is drawn jointly across all the grids and the PDE is
    solved once on a fine reference grid, so the per-resolution targets are
    restrictions of the same underlying solutions.
    """
    if not resolutions:
        raise ConfigurationError("resolutions list is empty")
    config = result.config
    if config.dataset.kind != "darcy1d":
        raise ConfigurationError("resolution transfer is defined for darcy1d datasets")
    spec = config.dataset
    datasets = datagen.make_darcy1d_multiresolution(
        resolutions, spec.m_test,
        seed=[spec.seed, 0x5E5], length_scale=spec.length_scale, amplitude=spec.amplitude,
    )
    bases = _evaluation_bases(config, 1)
    return {r: _evaluate(result, ds, *bases)[0] for r, ds in sorted(datasets.items())}


@dataclass
class VectorScalarComparison:
    scalar: RunResult
    vector: RunResult

    @property
    def parameter_difference(self) -> int:
        return self.scalar.net.n_parameters - self.vector.net.n_parameters

    @property
    def seconds_per_epoch(self) -> tuple:
        eps = max(self.scalar.config.train.epochs, 1)
        epv = max(self.vector.config.train.epochs, 1)
        return (self.scalar.trace.wall_seconds / eps,
                self.vector.trace.wall_seconds / epv)


def compare_vector_scalar(config: ExperimentConfig,
                          prepared: PreparedData | None = None) -> VectorScalarComparison:
    """Scalar-valued vs vector-valued construction on identical data.

    The two differ only in the output basis.  With single-component outputs
    they coincide and the paired reports come out identical.
    """
    data = prepared if prepared is not None else prepare_data(config.dataset)
    variants = {}
    for mode in ("scalar", "vector"):
        member = dataclasses.replace(
            config, output_mode=mode if data.train.output_components > 1 else config.output_mode)
        variants[mode] = run(member, prepared=data)
    return VectorScalarComparison(scalar=variants["scalar"], vector=variants["vector"])


# ---------------------------------------------------------------------------
# artifacts


def write_artifacts(result: RunResult, outdir) -> None:
    """Per-run directory: report, traces CSV, checkpoint, config."""
    out = pathlib.Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    report, trace, config = result.report, result.trace, result.config

    with open(out / "report.txt", "w") as fh:
        fh.write("\n".join(report.summary_lines()) + "\n")

    test_at = {int(e): float(v) for e, v in zip(trace.test_epochs, trace.test_loss)}
    with open(out / "traces.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "train_rel_err", "test_rel_err", "lr"])
        for epoch in range(trace.train_loss.shape[0]):
            test_val = test_at.get(epoch, "")
            writer.writerow([epoch, repr(float(trace.train_loss[epoch])),
                             repr(test_val) if test_val != "" else "",
                             repr(float(trace.lr[epoch]))])

    write_container(out / "checkpoint.fbc",
                    arrays={"parameters": result.net.flat_parameters()},
                    meta={
                        "input_dim": result.net.input_dim,
                        "hidden_dim": result.net.hidden_dim,
                        "output_dim": result.net.output_dim,
                        "epochs": config.train.epochs,
                        "config_hash": report.config_hash,
                    })
    dump_config(config, out / "config.json")


def load_run(run_dir) -> TrainedMap:
    """A run directory's ``config.json`` and ``checkpoint.fbc``; refused unless their hashes agree.

    A checkpoint without a ``parameters`` array, with a NaN or an Inf
    parameter, or without a positive integer dimension raises ``DataError``.
    """
    run_dir = pathlib.Path(run_dir)
    config = load_config(run_dir / "config.json")
    checkpoint = run_dir / "checkpoint.fbc"
    arrays, meta = read_container(checkpoint)
    if meta.get("config_hash") != config_hash(config):
        raise ConfigurationError(
            f"config.json in {run_dir} hashes to {config_hash(config)}, but the checkpoint "
            f"was trained under config_hash {meta.get('config_hash')!r}")
    if "parameters" not in arrays:
        raise DataError(f"checkpoint {checkpoint} has no 'parameters' array")
    if not np.isfinite(arrays["parameters"]).all():
        raise DataError(f"checkpoint {checkpoint} has a NaN or Inf parameter")
    for key in ("input_dim", "hidden_dim", "output_dim"):
        value = meta.get(key)
        if not isinstance(value, int) or isinstance(value, bool) or value < 1:
            raise DataError(f"checkpoint {checkpoint}: meta {key} must be a positive integer, "
                            f"got {value!r}")
    net = OperatorNet(arrays["parameters"], meta["input_dim"], meta["hidden_dim"],
                      meta["output_dim"])
    return TrainedMap(config, net)
