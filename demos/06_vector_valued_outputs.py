"""Scalar-valued vs vector-valued output bases on a two-output problem.

The dataset maps a random forcing to the pair [solution, derivative].  The
scalar construction expands each output component in its own coefficient
block (network output size 2 * m2); the vector construction shares one
coefficient vector across components through a vector-valued basis, cutting
the output layer in half.

Run:  python demos/06_vector_valued_outputs.py   (a couple of minutes)
"""

from fbc2c.config import (BasisSpec, DatasetSpec, EncodeSpec, ExperimentConfig,
                          NetSpec)
from fbc2c.experiment import compare_vector_scalar
from fbc2c.neuralop import TrainConfig

config = ExperimentConfig(
    dataset=DatasetSpec(kind="multi_output_1d", n=257, m_train=300, m_test=100, seed=5),
    input_basis=BasisSpec(kind="rfm", partitions=[8], features_per_partition=16,
                          range_bound=3.0, seed=51, bounds=[[0.0, 1.0]]),
    output_basis=BasisSpec(kind="rfm", partitions=[4], features_per_partition=32,
                           range_bound=3.0, seed=52, bounds=[[0.0, 1.0]]),
    output_encode=EncodeSpec(cut=1e-6),
    net=NetSpec(hidden=512, seed=53),
    train=TrainConfig(epochs=3000, batch_size=75, seed=54, eval_interval=1000),
)

cmp = compare_vector_scalar(config)
for label, res in (("scalar", cmp.scalar), ("vector", cmp.vector)):
    r = res.report
    print(f"{label}: output dim {r.output_dim:4d}, parameters {r.n_parameters:6d}, "
          f"test error {r.final_test_error:.3e}")
print(f"parameter savings (vector vs scalar): {cmp.parameter_difference}")
sec_s, sec_v = cmp.seconds_per_epoch
print(f"seconds/epoch: scalar {sec_s * 1e3:.1f} ms, vector {sec_v * 1e3:.1f} ms")
