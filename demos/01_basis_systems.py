"""Build the two fixed basis families and check their structural properties.

Run:  python demos/01_basis_systems.py
"""

import numpy as np

from fbc2c.basis import BasisSpec

# A windowed random-feature basis: 4 partitions on [0, 1], 2 features each,
# feature parameters drawn uniformly from [-3, 3].  A BasisSpec describes a
# basis; build() makes it.
rfm = BasisSpec(kind="rfm", partitions=[4], features_per_partition=2,
                range_bound=3.0, seed=7, bounds=[[0.0, 1.0]]).build()
print(f"random-feature basis: m = {rfm.size} functions, "
      f"{rfm.partitions_per_dim[0]} partitions x {rfm.features_per_partition} features")

# The smooth windows form a partition of unity: they sum to one everywhere on
# the (closed) domain because edge windows are clamped outward.
x = np.linspace(0.0, 1.0, 2001)
total = rfm.windows(x).sum(axis=1)
print(f"partition-of-unity deviation: {np.abs(total - 1).max():.2e}")

# Window anatomy of the second partition (center 0.375, radius 0.125):
# plateau at the center, sine ramp at one radius, cutoff beyond 1.25 radii.
center, radius = 0.375, 0.125
for xi in (center, center + radius, center + 1.3 * radius):
    print(f"  window at x = {xi:.4f}: {rfm.windows([xi])[0, 1]:.4f}")

# Basis values are windowed activations, so they live in [-1, 1].
phi = rfm.design_matrix(x)
print(f"design matrix {phi.shape}, value range [{phi.min():.3f}, {phi.max():.3f}]")

# Rebuilding with the same seed reproduces the basis bit for bit; datasets
# therefore store only structural parameters plus the seed.
again = BasisSpec(kind="rfm", partitions=[4], features_per_partition=2,
                  range_bound=3.0, seed=7, bounds=[[0.0, 1.0]]).build()
print(f"deterministic rebuild: {np.array_equal(phi, again.design_matrix(x))}")

# The 1D P1 family: hat functions that interpolate nodal values exactly.
fem = BasisSpec(kind="fem", n_nodes=9).build()
nodes = fem.nodes
print(f"\nP1 basis: m = {fem.size} nodes, design at nodes is identity: "
      f"{np.array_equal(fem.design_matrix(nodes), np.eye(9))}")

# Any piecewise-linear function is reproduced exactly between its nodes.
g = np.sin(2.5 * nodes)
err = np.abs(fem.design_matrix(x) @ g - np.interp(x, nodes, g)).max()
print(f"piecewise-linear reproduction error: {err:.2e}")
