"""Cutoff sensitivity: effective rank up, generalization error down.

Sweeps the input-side SVD cutoff on a Darcy run while reusing the dataset,
bases, and network seeds, producing the coefficient-quality table: larger
cutoffs concentrate the coefficients, raise their effective rank, and
improve the test error even though the training fits look alike.

Run:  python demos/04_cutoff_sweep.py   (a few minutes)
"""

from fbc2c.config import (BasisSpec, DatasetSpec, EncodeSpec, ExperimentConfig,
                          NetSpec)
from fbc2c.experiment import sweep_cutoff
from fbc2c.neuralop import TrainConfig

config = ExperimentConfig(
    dataset=DatasetSpec(kind="darcy1d", n=500, m_train=300, m_test=100, seed=3),
    input_basis=BasisSpec(kind="rfm", partitions=[8], features_per_partition=16,
                          range_bound=3.0, seed=61, bounds=[[0.0, 1.0]]),
    output_basis=BasisSpec(kind="rfm", partitions=[4], features_per_partition=32,
                           range_bound=3.0, seed=62, bounds=[[0.0, 1.0]]),
    output_encode=EncodeSpec(cut=1e-6),
    net=NetSpec(hidden=512, seed=63),
    train=TrainConfig(epochs=4000, batch_size=75, seed=64, eval_interval=1000),
)

table = sweep_cutoff(config, cuts=[1e-6, 1e-4, 1e-2])
print("cut        erank   variance-entropy   final test error")
for row in table.rows:
    print(f"{row.cut:8.0e}  {row.erank:6.2f}   {row.variance_entropy:13.2f}   "
          f"{row.final_test_error:12.4e}")
