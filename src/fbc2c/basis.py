"""Fixed basis systems: windowed random-feature bases and 1D P1 nodal bases.

``BasisSpec`` is the one description of a basis and ``BasisSpec.build`` the
one way to make one; it is also the ``input_basis``/``output_basis`` section
of a run config (``fbc2c.config``), so every setting is checked once, where
the spec is made.  A basis object is immutable after construction and
evaluation is pure, so instances can be shared freely across threads.
Random-feature bases are fully determined by their structural parameters
plus a 64-bit seed; two builds of equal specs produce bitwise-equal weights,
which is what lets datasets serialize a basis as "parameters + seed" instead
of weight dumps.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, DomainError, check_int, check_real, is_int


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
    activation: str         # "tanh" or "sin"
    window_kind: str        # "smooth" or "characteristic"
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
            float(self.range_bound), self.activation,
            self.window_kind, int(self.seed),
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
            if self.window_kind == "smooth":
                wk = _smooth_profile((x - centers) / radius)
            else:
                wk = _characteristic_profile(x, edges)
            out = (out[:, :, None] * wk[:, None, :]).reshape(len(pts), -1)
        return out

    def design_matrix(self, points) -> np.ndarray:
        pts = as_points(points, self.dim)
        act = np.tanh if self.activation == "tanh" else np.sin
        out = np.empty((len(pts), self.size))
        hi = 0
        for kw, bw, w in zip(self.weights, self.biases, self.windows(pts).T, strict=True):
            lo, hi = hi, hi + kw.shape[0]
            feats = act(pts @ kw.T + bw)
            np.multiply(feats, w[:, None], out=out[:, lo:hi])
        return out


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


# ---------------------------------------------------------------------------
# the basis description


_WINDOWS = ("characteristic", "smooth")
_ACTIVATIONS = ("tanh", "sin")


def _is_box(value, dim: int) -> bool:
    """Whether ``value`` is ``dim`` [lo, hi] pairs of finite numbers with hi > lo."""
    try:
        box = np.asarray(value, dtype=np.float64).reshape(dim, 2)
    except (TypeError, ValueError):
        return False
    return bool(np.all(np.isfinite(box)) and np.all(box[:, 1] > box[:, 0]))


@dataclass
class BasisSpec:
    """Structural description of a basis; building it is deterministic.

    "rfm" tiles ``bounds`` with ``partitions`` equal cells per dimension and
    draws ``features_per_partition`` windowed features in each (see
    ``RfmBasis``); "fem" is the hat basis on ``n_nodes`` equispaced nodes of
    ``domain``.  The fields the kind reads are checked on construction, so a
    spec that exists builds; an error names the field.
    """

    kind: str                       # "rfm" or "fem"
    partitions: list | None = None  # rfm: counts per dimension
    features_per_partition: int | None = None
    range_bound: float = 3.0
    window: str = "smooth"
    activation: str = "tanh"
    seed: int = 0
    bounds: list | None = None      # [[lo, hi], ...]; None means [-1, 1]^d
    n_nodes: int | None = None      # fem
    domain: list = field(default_factory=lambda: [0.0, 1.0])

    def __post_init__(self):
        if self.kind not in ("rfm", "fem"):
            raise ConfigurationError(f"kind: unknown kind {self.kind!r}, expected 'rfm' or 'fem'")
        for name, choices in (("window", _WINDOWS), ("activation", _ACTIVATIONS)):
            if getattr(self, name) not in choices:
                raise ConfigurationError(
                    f"{name}: unknown {name} {getattr(self, name)!r}, expected one of {choices}")
        check_int("seed", self.seed, 0)
        if self.kind == "fem":
            if self.n_nodes is None:
                raise ConfigurationError("n_nodes: fem needs n_nodes")
            check_int("n_nodes", self.n_nodes, 2)
            if not _is_box(self.domain, 1):
                raise ConfigurationError(
                    f"domain: must be [lo, hi], two finite numbers with lo < hi, "
                    f"got {self.domain!r}")
            return
        if self.partitions is None or self.features_per_partition is None:
            raise ConfigurationError("partitions: rfm needs partitions and features_per_partition")
        if not (isinstance(self.partitions, (list, tuple)) and self.partitions
                and all(is_int(p) and p >= 1 for p in self.partitions)):
            raise ConfigurationError(
                f"partitions: must be one integer count >= 1 per dimension, got {self.partitions!r}")
        check_int("features_per_partition", self.features_per_partition, 1)
        check_real("range_bound", self.range_bound)
        if not (math.isfinite(self.range_bound) and self.range_bound > 0):
            raise ConfigurationError(f"range_bound: must be finite and > 0, got {self.range_bound!r}")
        if self.bounds is not None and not _is_box(self.bounds, self.dim):
            raise ConfigurationError(
                f"bounds: must be {self.dim} [lo, hi] pair(s) of finite numbers with hi > lo, "
                f"one per partition count, got {self.bounds!r}")

    @property
    def dim(self) -> int:
        """The dimension of the points the basis is evaluated at."""
        return 1 if self.kind == "fem" else len(self.partitions)

    def check_dim(self, dim: int, path: str) -> None:
        """Refuse ``dim``-dimensional data unless it is the basis's; ``path`` names the spec."""
        if self.dim != dim:
            what = f"partitions: {self.dim} counts" if self.kind == "rfm" else "kind: a 1-D fem basis"
            raise ConfigurationError(f"{path}.{what} for {dim}-dimensional data")

    def build(self, n_components: int = 1):
        """The basis: a ``FemBasis1D``, an ``RfmBasis``, or for ``n_components`` > 1 a
        ``VectorBasis`` whose rfm components draw from child seeds of ``seed``."""
        check_int("n_components", n_components, 1)
        if self.kind == "fem":
            if n_components != 1:
                raise ConfigurationError("vector-valued FEM bases are not supported")
            return FemBasis1D(np.linspace(self.domain[0], self.domain[1], self.n_nodes))
        if n_components == 1:
            return _draw_rfm(self, self.seed)
        children = np.random.SeedSequence(self.seed).spawn(n_components)
        return VectorBasis(tuple(
            _draw_rfm(self, int(child.generate_state(1, dtype=np.uint64)[0]))
            for child in children))


def _draw_rfm(spec: BasisSpec, seed: int) -> RfmBasis:
    """The rfm basis of a checked ``spec``, drawn from ``seed``.

    One child stream of ``SeedSequence(seed)`` per partition, drawn feature
    by feature (k_nj then b_nj), so a longer draw extends a shorter one.
    """
    partitions = tuple(int(p) for p in spec.partitions)
    dim, n_features, bound = len(partitions), int(spec.features_per_partition), spec.range_bound
    weights, biases = [], []
    for child in np.random.SeedSequence(seed).spawn(math.prod(partitions)):
        rng = np.random.default_rng(child)
        w, b = np.empty((n_features, dim)), np.empty(n_features)
        for j in range(n_features):
            w[j] = rng.uniform(-bound, bound, size=dim)
            b[j] = rng.uniform(-bound, bound)
        weights.append(w)
        biases.append(b)
    bounds = (np.column_stack([-np.ones(dim), np.ones(dim)]) if spec.bounds is None
              else np.asarray(spec.bounds, dtype=np.float64).reshape(dim, 2))
    return RfmBasis(partitions_per_dim=partitions, weights=tuple(weights),
                    biases=tuple(biases), range_bound=float(bound),
                    activation=spec.activation, window_kind=spec.window,
                    seed=int(seed), bounds=bounds)
