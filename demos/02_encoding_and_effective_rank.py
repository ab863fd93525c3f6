"""Encode random fields against a fixed basis and inspect coefficient quality.

The singular-value cutoff of the truncated-SVD encoder controls a trade-off:
small cutoffs keep weakly determined directions whose coefficients swing
wildly from sample to sample (low effective rank, poor balance); larger
cutoffs concentrate the representation and raise the effective rank.

Run:  python demos/02_encoding_and_effective_rank.py
"""

import numpy as np

from fbc2c.basis import BasisSpec
from fbc2c.datagen import sample_grf_at
from fbc2c.encoder import (EncodeSpec, LeastSquaresEncoder, diagnostics,
                           projection_error)

grid = np.linspace(0.0, 1.0, 600)
fields = sample_grf_at(grid, count=300, seed=11)

basis = BasisSpec(kind="rfm", partitions=[8], features_per_partition=16,
                  range_bound=3.0, seed=5, bounds=[[0.0, 1.0]]).build()
phi = basis.design_matrix(grid)
spectrum = np.linalg.svd(phi, compute_uv=False)
print("design-matrix spectrum decays fast (correlated random features):")
print("  sigma_i / sigma_1 =", np.array2string(spectrum[:24:4] / spectrum[0],
                                               precision=2))

print("\ncutoff   kept  erank   variance-entropy   fit-residual")
for cut in (1e-6, 1e-4, 1e-2, 1e-1):
    enc = LeastSquaresEncoder(phi, EncodeSpec(cut=cut))
    coeffs = enc.encode_values(fields)
    d = diagnostics(coeffs)
    kept = int(np.sum(spectrum >= cut * spectrum[0]))
    resid = projection_error(basis, grid, fields, EncodeSpec(cut=cut)).mean
    print(f"{cut:7.0e}  {kept:4d}  {d.effective_rank:6.2f}   "
          f"{d.variance_entropy:12.2f}   {resid:12.3e}")
