"""End-to-end coefficient-to-coefficient run on 1D nonlinear Darcy flow.

Generates a random-field-forced dataset with the built-in Darcy solver (one
linear solve of the Kirchhoff-transformed problem, then a closed-form
inverse), encodes both sides against fixed random-feature bases, trains the
small coefficient-mapping network, and reports the test error next to the
output-space projection floor that lower-bounds it.

Desk-scale sizes keep this to roughly a minute.

Run:  python demos/03_darcy_end_to_end.py
"""

from fbc2c.config import (BasisSpec, DatasetSpec, EncodeSpec, ExperimentConfig,
                          NetSpec)
from fbc2c.experiment import run
from fbc2c.neuralop import TrainConfig

config = ExperimentConfig(
    dataset=DatasetSpec(kind="darcy1d", n=500, m_train=200, m_test=80, seed=1),
    input_basis=BasisSpec(kind="rfm", partitions=[8], features_per_partition=16,
                          range_bound=3.0, seed=21, bounds=[[0.0, 1.0]]),
    output_basis=BasisSpec(kind="rfm", partitions=[4], features_per_partition=8,
                           range_bound=3.0, seed=22, bounds=[[0.0, 1.0]]),
    input_encode=EncodeSpec(cut=1e-2),
    output_encode=EncodeSpec(cut=1e-6),
    net=NetSpec(hidden=512, seed=7),
    train=TrainConfig(epochs=3000, batch_size=50, seed=9, eval_interval=500),
)

result = run(config)
report = result.report
print(f"input coefficients: {report.input_dim} per sample "
      f"(effective rank {report.erank:.1f})")
print(f"network: [{report.input_dim}, {report.hidden_dim}, {report.output_dim}], "
      f"{report.n_parameters} parameters")
print("test-loss trace:", [f"{v:.3f}" for v in result.trace.test_loss])
print(f"final mean test relative error: {report.final_test_error:.3e}")
print(f"output-space projection floor:  {report.projection.mean:.3e}")
floor = report.projection.per_sample
errs = report.test_error_per_sample
print(f"per-sample bound (error >= floor) holds: {bool((errs >= floor - 1e-9).all())}")
