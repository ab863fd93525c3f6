"""Resolution transfer: train on a coarse grid, evaluate on finer and coarser ones.

Because the network sees basis coefficients instead of grid values, a model
trained at one sampling resolution evaluates at any other: inputs are
re-encoded against the same input basis and reconstructions are read off the
output basis at the new points.

Run:  python demos/05_resolution_transfer.py   (a few minutes)
"""

from fbc2c.config import (BasisSpec, DatasetSpec, EncodeSpec, ExperimentConfig,
                          NetSpec)
from fbc2c.experiment import eval_resolutions, run
from fbc2c.neuralop import TrainConfig

config = ExperimentConfig(
    dataset=DatasetSpec(kind="darcy1d", n=100, m_train=300, m_test=100, seed=8),
    input_basis=BasisSpec(kind="rfm", partitions=[8], features_per_partition=16,
                          range_bound=3.0, seed=81, bounds=[[0.0, 1.0]]),
    output_basis=BasisSpec(kind="rfm", partitions=[4], features_per_partition=8,
                           range_bound=3.0, seed=82, bounds=[[0.0, 1.0]]),
    output_encode=EncodeSpec(cut=1e-6),
    net=NetSpec(hidden=512, seed=83),
    train=TrainConfig(epochs=4000, batch_size=75, seed=84, eval_interval=1000),
)

result = run(config)
print(f"trained at n = 100: test relative error {result.report.final_test_error:.3e}")

table = eval_resolutions(result, [40, 500, 1000, 2000])
for resolution, err in table.items():
    print(f"evaluated at n = {resolution:5d}: test relative error {err:.3e}")
values = list(table.values())
print(f"max/min error ratio across resolutions: {max(values) / min(values):.2f}")
