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
from dataclasses import dataclass, field
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
# partitions and window functions


@dataclass(frozen=True)
class Partition:
    """One partition-of-unity window: a center, per-dimension radii, a kind.

    The rescaled coordinate ``t = (x - center) / radius`` maps the nominal
    support onto [-1, 1] per dimension.  ``clamp_lo``/``clamp_hi`` mark
    dimensions where the window sits at the edge of the tiled domain and is
    held at 1 on its outward side, so that the family still sums to one on
    the closed domain.

    ``lo``/``hi`` are the per-dimension cell edges, default
    ``center -/+ radius``.  A characteristic window is the half-open cell
    ``lo <= x < hi`` on the raw coordinate, open outward on a clamped side.
    Tiled partitions take their edges from one ``np.linspace`` per axis, so
    neighbouring cells share the very same float edge and every point of the
    closed box lies in exactly one cell.
    """

    center: np.ndarray
    radius: np.ndarray
    window_kind: WindowKind
    clamp_lo: np.ndarray = field(default=None)  # type: ignore[assignment]
    clamp_hi: np.ndarray = field(default=None)  # type: ignore[assignment]
    lo: np.ndarray = field(default=None)  # type: ignore[assignment]
    hi: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        center = np.atleast_1d(np.asarray(self.center, dtype=np.float64))
        radius = np.atleast_1d(np.asarray(self.radius, dtype=np.float64))
        if center.shape != radius.shape:
            raise ConfigurationError("partition center and radius dimensions differ")
        if not np.all(radius > 0):
            raise ConfigurationError("partition radii must be strictly positive")
        clamp_lo = self.clamp_lo
        clamp_hi = self.clamp_hi
        clamp_lo = np.zeros(center.shape, bool) if clamp_lo is None else np.asarray(clamp_lo, bool)
        clamp_hi = np.zeros(center.shape, bool) if clamp_hi is None else np.asarray(clamp_hi, bool)
        lo = center - radius if self.lo is None else np.asarray(self.lo, dtype=np.float64).reshape(center.shape)
        hi = center + radius if self.hi is None else np.asarray(self.hi, dtype=np.float64).reshape(center.shape)
        if not np.all(hi > lo):
            raise ConfigurationError("partition cell edges must have hi > lo")
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "radius", radius)
        object.__setattr__(self, "clamp_lo", clamp_lo)
        object.__setattr__(self, "clamp_hi", clamp_hi)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def dim(self) -> int:
        return self.center.shape[0]

    def local_coords(self, points: np.ndarray) -> np.ndarray:
        pts = as_points(points, self.dim)
        return (pts - self.center) / self.radius


def _smooth_profile(t: np.ndarray, clamp_lo: bool, clamp_hi: bool) -> np.ndarray:
    """Piecewise sine-ramp window on the rescaled coordinate.

    Value 1 on [-3/4, 3/4), sine ramps on [-5/4, -3/4) and [3/4, 5/4),
    0 elsewhere; breakpoints are left-closed.  A clamped side replaces the
    ramp (and the zero region beyond it) with the constant 1.
    """
    up = (1.0 + np.sin(2.0 * np.pi * t)) / 2.0
    down = (1.0 - np.sin(2.0 * np.pi * t)) / 2.0
    w = np.select(
        [
            (t >= -1.25) & (t < -0.75),
            (t >= -0.75) & (t < 0.75),
            (t >= 0.75) & (t < 1.25),
        ],
        [up, np.ones_like(t), down],
        default=0.0,
    )
    if clamp_lo:
        w = np.where(t < -0.75, 1.0, w)
    if clamp_hi:
        w = np.where(t >= 0.75, 1.0, w)
    return w


def _characteristic_profile(x: np.ndarray, lo: float, hi: float,
                            clamp_lo: bool, clamp_hi: bool) -> np.ndarray:
    """Half-open indicator of the cell [lo, hi) on the raw coordinate.

    Testing the raw coordinate against the stored edges, not the rescaled
    one against -1 and 1, keeps the test free of rounding: a point on an
    edge shared by two tiled cells lands in exactly one of them.  A clamped
    side skips its edge test, so the last tiled cell also holds x = hi.
    """
    lo_ok = np.ones_like(x, dtype=bool) if clamp_lo else (x >= lo)
    hi_ok = np.ones_like(x, dtype=bool) if clamp_hi else (x < hi)
    return np.where(lo_ok & hi_ok, 1.0, 0.0)


def window_values(partition: Partition, points: np.ndarray) -> np.ndarray:
    """Evaluate the window at many points; product over dimensions.

    A smooth window is evaluated on the rescaled coordinate, a
    characteristic one as the half-open cell [lo, hi) on the raw coordinate.
    """
    smooth = partition.window_kind == WindowKind.SMOOTH
    x = partition.local_coords(points) if smooth else as_points(points, partition.dim)
    out = np.ones(x.shape[0], dtype=np.float64)
    for k in range(partition.dim):
        if smooth:
            wk = _smooth_profile(x[:, k], partition.clamp_lo[k], partition.clamp_hi[k])
        else:
            wk = _characteristic_profile(x[:, k], partition.lo[k], partition.hi[k],
                                         partition.clamp_lo[k], partition.clamp_hi[k])
        out *= wk
    return out


def eval_window(partition: Partition, x) -> float:
    """Window value at a single point."""
    return float(window_values(partition, np.atleast_2d(np.asarray(x, dtype=np.float64)))[0])


def as_points(points, dim: int) -> np.ndarray:
    """Normalize point input to an (n, dim) float array."""
    pts = np.asarray(points, dtype=np.float64)
    if dim == 1 and pts.ndim == 1:
        pts = pts[:, None]
    if pts.ndim == 1:
        pts = pts[None, :]
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

    The affine feature argument uses the raw coordinate; only the window is
    expressed in the partition-local frame.  Weights and biases are i.i.d.
    uniform on [-range_bound, range_bound], drawn feature-by-feature from one
    child stream per partition: growing features_per_partition keeps the
    earlier features of every partition unchanged, which gives nested bases.
    """

    dim: int
    partitions: tuple
    weights: tuple          # per partition: (J_n, dim)
    biases: tuple           # per partition: (J_n,)
    range_bound: float
    activation: ActivationKind
    window_kind: WindowKind
    seed: int
    bounds: np.ndarray      # (dim, 2) tiled bounding box

    @property
    def size(self) -> int:
        return sum(w.shape[0] for w in self.weights)

    @property
    def features_per_partition(self) -> tuple:
        return tuple(w.shape[0] for w in self.weights)

    def identity(self) -> str:
        h = hashlib.sha256()
        h.update(repr((
            "rfm", self.dim, self.features_per_partition,
            tuple(np.round(p.center, 15).tolist() for p in self.partitions),
            float(self.range_bound), self.activation.value,
            self.window_kind.value, int(self.seed),
        )).encode())
        return h.hexdigest()[:16]

    def design_matrix(self, points) -> np.ndarray:
        pts = as_points(points, self.dim)
        cols = []
        for part, kw, bw in zip(self.partitions, self.weights, self.biases):
            w = window_values(part, pts)
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


def _tile_partitions(dim: int, partitions_per_dim: Sequence[int],
                     window_kind: WindowKind, bounds: np.ndarray):
    axes = []
    for k in range(dim):
        count = partitions_per_dim[k]
        lo, hi = bounds[k]
        spacing = (hi - lo) / count
        centers = lo + spacing * (np.arange(count) + 0.5)
        # One edge array per axis: neighbouring cells share the same float.
        edges = np.linspace(lo, hi, count + 1)
        axes.append((centers, spacing / 2.0, edges))
    parts = []
    for idx in np.ndindex(*[len(a[0]) for a in axes]):
        center = np.array([axes[k][0][idx[k]] for k in range(dim)])
        radius = np.array([axes[k][1] for k in range(dim)])
        cell_lo = np.array([axes[k][2][idx[k]] for k in range(dim)])
        cell_hi = np.array([axes[k][2][idx[k] + 1] for k in range(dim)])
        # Edge windows hold value 1 outward so the family sums to one on the
        # whole closed box: this closes the last characteristic cell at hi.
        clamp_lo = np.array([idx[k] == 0 for k in range(dim)])
        clamp_hi = np.array([idx[k] == partitions_per_dim[k] - 1 for k in range(dim)])
        parts.append(Partition(center, radius, window_kind, clamp_lo, clamp_hi,
                               cell_lo, cell_hi))
    return tuple(parts)


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

    parts = _tile_partitions(dim, [int(p) for p in partitions_per_dim], window_kind, bounds)
    children = np.random.SeedSequence(seed).spawn(len(parts))
    weights, biases = [], []
    for child in children:
        rng = np.random.default_rng(child)
        w, b = _draw_partition_features(rng, int(features_per_partition), dim, range_bound)
        weights.append(w)
        biases.append(b)
    return RfmBasis(
        dim=dim,
        partitions=parts,
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
