"""Fixed basis systems: windowed random-feature bases and 1D P1 nodal bases.

A basis object is immutable after construction and evaluation is pure, so
instances can be shared freely across threads.  Random-feature bases are
fully determined by their structural parameters plus a 64-bit seed; two
builds with equal arguments produce bitwise-equal weights, which is what
lets datasets serialize a basis as "parameters + seed" instead of weight
dumps.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .errors import ConfigurationError, DomainError


class WindowKind(str, Enum):
    CHARACTERISTIC = "characteristic"
    SMOOTH = "smooth"


class ActivationKind(str, Enum):
    TANH = "tanh"
    SIN = "sin"


def apply_activation(kind: ActivationKind, z: np.ndarray) -> np.ndarray:
    if kind == ActivationKind.TANH:
        return np.tanh(z)
    return np.sin(z)


# ---------------------------------------------------------------------------
# window functions


def _smooth_profile(t: np.ndarray) -> np.ndarray:
    """Piecewise sine-ramp windows of one axis on the rescaled coordinate.

    ``t`` is (n, count), one column per window of the axis.  Value 1 on
    [-3/4, 3/4), sine ramps on [-5/4, -3/4) and [3/4, 5/4), 0 elsewhere;
    breakpoints are left-closed.  The first and last windows sit at the
    edges of the tiled domain and are clamped: the outward ramp (and the
    zero region beyond it) is the constant 1, so the family sums to one on
    the closed domain.
    """
    sine = np.sin(2.0 * np.pi * t)
    up = (1.0 + sine) / 2.0
    down = (1.0 - sine) / 2.0
    w = np.select(
        [
            (t >= -1.25) & (t < -0.75),
            (t >= -0.75) & (t < 0.75),
            (t >= 0.75) & (t < 1.25),
        ],
        [up, np.ones_like(t), down],
        default=0.0,
    )
    w[t[:, 0] < -0.75, 0] = 1.0
    w[t[:, -1] >= 0.75, -1] = 1.0
    return w


def _characteristic_profile(x: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Half-open indicators of the cells [edges[i], edges[i+1]) of one axis.

    ``x`` is (n, 1).  Testing the raw coordinate against the shared edges,
    not the rescaled one against -1 and 1, keeps the test free of rounding:
    a point on an edge shared by two cells lands in exactly one of them.
    The first cell is open downward and the last upward, so the last cell
    also holds x = hi and every point of the closed box lies in one cell.
    """
    lo_ok = x >= edges[:-1]
    hi_ok = x < edges[1:]
    lo_ok[:, 0] = True
    hi_ok[:, -1] = True
    return np.where(lo_ok & hi_ok, 1.0, 0.0)


def as_points(points, dim: int) -> np.ndarray:
    """Normalize point input to an (n, dim) float array.

    A 1-D array is n points of a 1-D basis; any other shape but (n, dim) is
    refused.
    """
    pts = np.asarray(points, dtype=np.float64)
    if dim == 1 and pts.ndim == 1:
        pts = pts[:, None]
    if pts.ndim != 2 or pts.shape[1] != dim:
        raise ConfigurationError(
            f"points have shape {pts.shape}, expected (n, {dim})"
        )
    return pts


# ---------------------------------------------------------------------------
# random feature basis


@dataclass(frozen=True)
class RfmBasis:
    """Windowed random features: phi_{nj}(x) = w_n(x) * act(k_nj . x + b_nj).

    The partitions tile ``bounds`` with ``partitions_per_dim[k]`` equal cells
    along axis k, numbered in ``np.ndindex`` order; window w_n is the product
    over axes of one 1-D window per axis.  The affine feature argument uses
    the raw coordinate; only the window is expressed in the partition-local
    frame.  Weights and biases are i.i.d. uniform on [-range_bound,
    range_bound], drawn feature-by-feature from one child stream per
    partition: growing features_per_partition keeps the earlier features of
    every partition unchanged, which gives nested bases.
    """

    partitions_per_dim: tuple
    weights: tuple          # per partition: (J_n, dim)
    biases: tuple           # per partition: (J_n,)
    range_bound: float
    activation: ActivationKind
    window_kind: WindowKind
    seed: int
    bounds: np.ndarray      # (dim, 2) tiled bounding box

    @property
    def dim(self) -> int:
        return len(self.partitions_per_dim)

    @property
    def size(self) -> int:
        return sum(w.shape[0] for w in self.weights)

    @property
    def features_per_partition(self) -> tuple:
        return tuple(w.shape[0] for w in self.weights)

    def _axes(self) -> list:
        """Per axis: the window centers, their common radius and the cell edges."""
        axes = []
        for count, (lo, hi) in zip(self.partitions_per_dim, self.bounds):
            spacing = (hi - lo) / count
            centers = lo + spacing * (np.arange(count) + 0.5)
            # One edge array per axis: neighbouring cells share the same float.
            axes.append((centers, spacing / 2.0, np.linspace(lo, hi, count + 1)))
        return axes

    def identity(self) -> str:
        rounded = [np.round(centers, 15).tolist() for centers, _, _ in self._axes()]
        centers = tuple([rounded[k][i] for k, i in enumerate(idx)]
                        for idx in np.ndindex(*self.partitions_per_dim))
        h = hashlib.sha256()
        h.update(repr((
            "rfm", self.dim, self.features_per_partition, centers,
            float(self.range_bound), self.activation.value,
            self.window_kind.value, int(self.seed),
        )).encode())
        return h.hexdigest()[:16]

    def windows(self, points) -> np.ndarray:
        """The (n, P) window values, one column per partition.

        Each axis's 1-D family is evaluated once, a smooth window on the
        rescaled coordinate ``(x - center) / radius`` and a characteristic
        one as the half-open cell on the raw coordinate; the columns are
        then the products over axes, taken in axis order.
        """
        pts = as_points(points, self.dim)
        out = np.ones((len(pts), 1))
        for x, (centers, radius, edges) in zip(pts.T[:, :, None], self._axes()):
            if self.window_kind == WindowKind.SMOOTH:
                wk = _smooth_profile((x - centers) / radius)
            else:
                wk = _characteristic_profile(x, edges)
            out = (out[:, :, None] * wk[:, None, :]).reshape(len(pts), -1)
        return out

    def design_matrix(self, points) -> np.ndarray:
        pts = as_points(points, self.dim)
        cols = []
        for kw, bw, w in zip(self.weights, self.biases, self.windows(pts).T, strict=True):
            feats = apply_activation(self.activation, pts @ kw.T + bw)
            cols.append(feats * w[:, None])
        return np.concatenate(cols, axis=1)


def _draw_partition_features(rng: np.random.Generator, n_features: int,
                             dim: int, range_bound: float):
    # Feature-by-feature draw order (k_nj then b_nj) so a longer draw extends
    # a shorter one instead of reshuffling it.
    weights = np.empty((n_features, dim))
    biases = np.empty(n_features)
    for j in range(n_features):
        weights[j] = rng.uniform(-range_bound, range_bound, size=dim)
        biases[j] = rng.uniform(-range_bound, range_bound)
    return weights, biases


def build_rfm(dim: int,
              partitions_per_dim: Sequence[int],
              features_per_partition: int,
              range_bound: float,
              window_kind: WindowKind = WindowKind.SMOOTH,
              activation: ActivationKind = ActivationKind.TANH,
              seed: int = 0,
              bounds=None) -> RfmBasis:
    """Tile a bounding box with uniform partitions and draw windowed features.

    Total basis size is ``prod(partitions_per_dim) * features_per_partition``.
    ``bounds`` defaults to [-1, 1]^dim.
    """
    if dim < 1:
        raise ConfigurationError(f"dim must be >= 1, got {dim}")
    if len(partitions_per_dim) != dim:
        raise ConfigurationError(
            f"partitions_per_dim has length {len(partitions_per_dim)}, expected {dim}"
        )
    if any(int(p) < 1 for p in partitions_per_dim):
        raise ConfigurationError("partition counts must be positive")
    if int(features_per_partition) < 1:
        raise ConfigurationError("features_per_partition must be positive")
    if not range_bound > 0:
        raise ConfigurationError(f"range bound must be positive, got {range_bound}")
    window_kind = WindowKind(window_kind)
    activation = ActivationKind(activation)
    if bounds is None:
        bounds = np.column_stack([-np.ones(dim), np.ones(dim)])
    bounds = np.asarray(bounds, dtype=np.float64)
    if bounds.size != 2 * dim:
        raise ConfigurationError(
            f"bounds: got {bounds.size} values for a {dim}-dimensional box, expected {2 * dim}")
    bounds = bounds.reshape(dim, 2)
    if not np.all(bounds[:, 1] > bounds[:, 0]):
        raise ConfigurationError("bounding box must have hi > lo in every dimension")

    partitions_per_dim = tuple(int(p) for p in partitions_per_dim)
    children = np.random.SeedSequence(seed).spawn(math.prod(partitions_per_dim))
    weights, biases = [], []
    for child in children:
        rng = np.random.default_rng(child)
        w, b = _draw_partition_features(rng, int(features_per_partition), dim, range_bound)
        weights.append(w)
        biases.append(b)
    return RfmBasis(
        partitions_per_dim=partitions_per_dim,
        weights=tuple(weights),
        biases=tuple(biases),
        range_bound=float(range_bound),
        activation=activation,
        window_kind=window_kind,
        seed=int(seed),
        bounds=bounds,
    )


# ---------------------------------------------------------------------------
# 1D P1 nodal basis


@dataclass(frozen=True)
class FemBasis1D:
    """Piecewise-linear hat functions on strictly increasing nodes.

    phi_j(x_i) = delta_ij, each hat supported on [x_{j-1}, x_{j+1}], and the
    family sums to one on [x_1, x_N].
    """

    nodes: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=np.float64).ravel()
        if nodes.size < 2:
            raise ConfigurationError("FEM basis needs at least two nodes")
        if not np.all(np.diff(nodes) > 0):
            raise ConfigurationError("FEM nodes must be strictly increasing")
        object.__setattr__(self, "nodes", nodes)

    dim = 1

    @property
    def size(self) -> int:
        return self.nodes.shape[0]

    def identity(self) -> str:
        h = hashlib.sha256()
        h.update(b"fem1d")
        h.update(self.nodes.tobytes())
        return h.hexdigest()[:16]

    def design_matrix(self, points) -> np.ndarray:
        pts = as_points(points, 1)[:, 0]
        nodes = self.nodes
        if np.any(pts < nodes[0]) or np.any(pts > nodes[-1]):
            bad = pts[(pts < nodes[0]) | (pts > nodes[-1])][0]
            raise DomainError(
                f"point {bad!r} outside FEM domain [{nodes[0]}, {nodes[-1]}]"
            )
        # Segment index such that nodes[i] <= x < nodes[i+1]; right endpoint
        # folds into the last segment.
        seg = np.clip(np.searchsorted(nodes, pts, side="right") - 1, 0, nodes.size - 2)
        left = nodes[seg]
        width = nodes[seg + 1] - left
        frac = (pts - left) / width
        phi = np.zeros((pts.size, nodes.size))
        rows = np.arange(pts.size)
        phi[rows, seg] = 1.0 - frac
        phi[rows, seg + 1] += frac
        return phi


def uniform_fem_basis(n_nodes: int, lo: float = 0.0, hi: float = 1.0) -> FemBasis1D:
    if n_nodes < 2:
        raise ConfigurationError("FEM basis needs at least two nodes")
    return FemBasis1D(np.linspace(lo, hi, n_nodes))


# ---------------------------------------------------------------------------
# vector-valued basis


@dataclass(frozen=True)
class VectorBasis:
    """C-vector-valued basis sharing one coefficient per basis index.

    Component c holds its own scalar family of common size m; evaluating
    basis j at a point yields the C-vector of the per-component features.
    The design matrix stacks component blocks in component-major order,
    shape (C*n, m).
    """

    components: tuple

    def __post_init__(self):
        if len(self.components) < 1:
            raise ConfigurationError("vector basis needs at least one component")
        sizes = {b.size for b in self.components}
        if len(sizes) != 1:
            raise ConfigurationError(f"component basis sizes differ: {sorted(sizes)}")
        dims = {b.dim for b in self.components}
        if len(dims) != 1:
            raise ConfigurationError("component basis dimensions differ")

    @property
    def n_components(self) -> int:
        return len(self.components)

    @property
    def size(self) -> int:
        return self.components[0].size

    @property
    def dim(self) -> int:
        return self.components[0].dim

    def identity(self) -> str:
        h = hashlib.sha256()
        h.update(b"vector")
        for b in self.components:
            h.update(b.identity().encode())
        return h.hexdigest()[:16]

    def design_matrix(self, points) -> np.ndarray:
        """The (C*n, m) component-major stack of the component design matrices."""
        return np.concatenate([b.design_matrix(points) for b in self.components], axis=0)


def build_vector_rfm(n_components: int,
                     dim: int,
                     partitions_per_dim: Sequence[int],
                     features_per_partition: int,
                     range_bound: float,
                     window_kind: WindowKind = WindowKind.SMOOTH,
                     activation: ActivationKind = ActivationKind.TANH,
                     seed: int = 0,
                     bounds=None) -> VectorBasis:
    """Independent feature draw per component, from child seeds of ``seed``."""
    if n_components < 1:
        raise ConfigurationError("n_components must be >= 1")
    children = np.random.SeedSequence(seed).spawn(n_components)
    comps = []
    for child in children:
        child_seed = int(child.generate_state(1, dtype=np.uint64)[0])
        comps.append(
            build_rfm(dim, partitions_per_dim, features_per_partition, range_bound,
                      window_kind, activation, seed=child_seed, bounds=bounds)
        )
    return VectorBasis(tuple(comps))
