"""Coefficient estimation against a fixed basis, plus quality diagnostics.

``encode`` is the one entry point for sampled functions, on a scalar or a
vector-valued basis; ``projection_error`` takes the same inputs.  This
module owns the layout of C sampled components: ``component_design``
builds their design matrix and ``stack_components`` their sample rows, and
``experiment`` builds through the same two.  The projection floor is
``neuralop.relative_loss`` of the encoded targets, so it refuses the
targets training refuses.

One SVD, one filter: every design matrix is factored once by a thin SVD,
and the truncated SVD applies 1/s to the singular values an ``EncodeSpec``
keeps and 0 to the rest (Hansen, *Rank-Deficient and Discrete Ill-Posed
Problems*, 1998).  The filtered factors are applied to all samples of a
batch by matrix multiplication.  ``EncodeSpec`` is also the run config's
encode section (``fbc2c.config``), so a spec is checked once, where it is
made.

An encoder exposes its factors as ``svd``; passing them to another encoder
on the same design (``LeastSquaresEncoder(design, spec, svd=enc.svd)``)
re-filters them for a new cut without factoring again.  The caller owns
that reuse: ``experiment.run`` keeps one factorization per design matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basis import VectorBasis
from .errors import ConfigurationError, check_real
from .neuralop import check_finite_rows, check_targets, relative_loss


@dataclass
class EncodeSpec:
    """How sampled functions are projected onto a basis: the truncated SVD and its cut.

    The encoding is the pseudo-inverse of the design matrix Phi that drops
    every singular value below ``cut * sigma_1``, and every zero one, so a
    cut means the same at any scale of the design and the kept condition
    sigma_1 / sigma_min_kept is at most 1 / cut for cut > 0; a near-singular
    design is cut, not refused.

    ``method`` must be "tsvd".  The field stays only while the benchmark's
    workloads pass ``method="tsvd"``; once they drop the argument it can go.
    Every field is checked on construction; an error names the field.
    """

    method: str = "tsvd"
    cut: float = 1e-2

    def __post_init__(self):
        if self.method != "tsvd":
            raise ConfigurationError(f"method: unknown method {self.method!r}, expected 'tsvd'")
        check_real("cut", self.cut)
        if not (math.isfinite(self.cut) and self.cut >= 0):
            raise ConfigurationError(f"cut: must be finite and >= 0, got {self.cut!r}")


# rows per product in encode_values; every batch is cut into tiles of this height
_TILE_ROWS = 64


class LeastSquaresEncoder:
    """Holds one factorization of a design matrix and encodes sample batches.

    ``svd`` is the thin SVD ``(u, s, vt)`` of ``design``, computed here when
    not given; it is exposed as ``svd`` for other encoders on the same design.

    ``kept_rank``, ``sigma_max``, ``sigma_min_kept`` and ``condition``
    describe the filter: a singular value is kept where its filter factor is
    nonzero, which is where it is positive and at or above the cut.
    """

    def __init__(self, design: np.ndarray, spec: EncodeSpec, svd=None):
        design = np.asarray(design, dtype=np.float64)
        if design.ndim != 2 or design.size == 0:
            raise ConfigurationError(f"design matrix must be 2-D and nonempty, got shape {design.shape}")
        if not isinstance(spec, EncodeSpec):
            raise ConfigurationError(f"expected an EncodeSpec, got {spec!r}")
        self.design = design
        if svd is None:
            svd = np.linalg.svd(design, full_matrices=False)
        u, s, vt = svd
        if u.shape[0] != design.shape[0] or vt.shape[1] != design.shape[1]:
            raise ConfigurationError(
                f"svd factors {u.shape}, {vt.shape} do not fit a design matrix of shape {design.shape}")
        self.svd = (u, s, vt)
        # s descends, so the kept values are a prefix of it, and the columns
        # past that prefix, whose filter factor is 0, add nothing to an encoding
        self._filt = 1.0 / s[(s >= spec.cut * s[0]) & (s > 0)]

    @property
    def kept_rank(self) -> int:
        """Number of singular values with a nonzero filter factor."""
        return self._filt.size

    @property
    def sigma_max(self) -> float:
        return float(self.svd[1][0])

    @property
    def sigma_min_kept(self) -> float:
        """Smallest kept singular value; 0.0 when none is kept."""
        k = self.kept_rank
        return float(self.svd[1][k - 1]) if k else 0.0

    @property
    def condition(self) -> float:
        """sigma_max / sigma_min_kept; inf when no singular value is kept."""
        low = self.sigma_min_kept
        return self.sigma_max / low if low > 0.0 else np.inf

    def encode_values(self, values: np.ndarray) -> np.ndarray:
        """Encode a batch of sampled functions, shape (M, n) -> (M, m).

        Both products run through the kept singular vectors only, on
        zero-padded tiles of ``_TILE_ROWS`` rows, one matrix multiply each,
        so a row encodes to the same bits alone, in any batch and in any
        order on a BLAS that picks its kernel by operand shape (OpenBLAS
        does); no BLAS promises it.
        """
        values = np.asarray(values, dtype=np.float64)
        squeeze = values.ndim == 1
        if squeeze:
            values = values[None, :]
        if values.shape[1] != self.design.shape[0]:
            raise ConfigurationError(
                f"sample vectors have {values.shape[1]} entries, design matrix has "
                f"{self.design.shape[0]} rows"
            )
        k = self.kept_rank
        u, vt = self.svd[0][:, :k], self.svd[2][:k]
        rows = values.shape[0]
        padded = np.zeros((-(-rows // _TILE_ROWS) * _TILE_ROWS, values.shape[1]))
        padded[:rows] = values
        inner = np.empty((padded.shape[0], k))
        coeffs = np.empty((padded.shape[0], vt.shape[1]))
        for start in range(0, rows, _TILE_ROWS):
            tile = slice(start, start + _TILE_ROWS)
            np.matmul(padded[tile], u, out=inner[tile])
            inner[tile] *= self._filt
            np.matmul(inner[tile], vt, out=coeffs[tile])
        return coeffs[0] if squeeze else coeffs[:rows]


def component_design(basis, points, components: int) -> np.ndarray:
    """The design matrix of ``components`` output components sampled at ``points``.

    A VectorBasis shares one coefficient vector across its components, so
    its design is its own (C*n, m) stack; a scalar basis gives each of C > 1
    components its own coefficient block, a (C*n, C*m) block diagonal.
    Rows are component-major, as ``stack_components`` lays out samples.
    """
    design = basis.design_matrix(points)
    if components == 1 or isinstance(basis, VectorBasis):
        return design
    import scipy.linalg     # here, not at the top: it is most of `import fbc2c`

    return scipy.linalg.block_diag(*([design] * components))


def stack_components(values: np.ndarray) -> np.ndarray:
    """(M, C, n) samples -> (M, C*n) rows, component-major; other shapes pass through."""
    return values.reshape(values.shape[0], -1) if values.ndim == 3 else values


def _design_and_rows(basis, points, values):
    """(``component_design`` at ``points``, ``stack_components`` rows) of sampled functions.

    A VectorBasis of C components takes (M, C, n) or (C, n) samples; a
    scalar basis takes (M, n) or (n,) samples of one component, or (M, C, n)
    samples of C, each component encoded in its own coefficient block.
    A sample with a NaN or an Inf raises ``DataError``.
    """
    values = np.asarray(values, dtype=np.float64)
    if isinstance(basis, VectorBasis):
        if values.ndim == 2:
            values = values[None, :, :]
        if values.ndim != 3 or values.shape[1] != basis.n_components:
            raise ConfigurationError(
                f"expected values of shape (M, {basis.n_components}, n), got {values.shape}")
    elif values.ndim not in (1, 2, 3) or values.ndim == 3 and values.shape[1] == 0:
        raise ConfigurationError(
            f"expected values of shape (n,), (M, n) or (M, C, n), got {values.shape}")
    components = values.shape[1] if values.ndim == 3 else 1
    rows = stack_components(values)
    check_finite_rows(rows, "samples")
    design = component_design(basis, points, components)
    n = design.shape[0] // components
    if values.ndim == 3 and values.shape[2] != n:
        raise ConfigurationError(
            f"samples have {values.shape[2]} points per component, design matrix has {n}"
        )
    return design, rows


def encode(basis, points, values, spec: EncodeSpec) -> np.ndarray:
    """Project sampled functions onto a scalar or a vector-valued basis.

    values: (M, n) or (n,) function samples at ``points`` for a scalar
    basis, or (M, C, n) for C components, each encoded in its own block of
    m coefficients; (M, C, n) or (C, n) for a VectorBasis of C components,
    whose solve runs on the stacked design.  Returns the (M, m) or (M, C*m)
    coefficients, one row per sample in basis order, component-major.
    """
    design, rows = _design_and_rows(basis, points, values)
    enc = LeastSquaresEncoder(design, spec)
    return np.atleast_2d(enc.encode_values(rows))


# ---------------------------------------------------------------------------
# diagnostics


@dataclass
class CoefficientDiagnostics:
    effective_rank: float
    singular_values: np.ndarray
    per_basis_variance: np.ndarray
    variance_entropy: float
    degenerate: bool = False


def effective_rank_of_singular_values(s: np.ndarray) -> float:
    """exp of the Shannon entropy of the L1-normalized singular values."""
    s = np.asarray(s, dtype=np.float64)
    total = s.sum()
    if total <= 0:
        return 1.0
    p = s / total
    p = p[p > 0]
    return float(np.exp(-np.sum(p * np.log(p))))


def diagnostics(coeffs: np.ndarray) -> CoefficientDiagnostics:
    """Effective rank, spectrum, and variance balance of a coefficient matrix.

    The variance entropy is an implementer's proxy for how evenly the
    coefficient variation spreads across basis functions: exp of the entropy
    of the normalized per-column sample variances.  A row with a NaN or an
    Inf raises ``DataError``.
    """
    a = np.atleast_2d(np.asarray(coeffs, dtype=np.float64))
    if a.size == 0:
        raise ConfigurationError("coefficient matrix is empty")
    check_finite_rows(a, "coefficient rows")
    s = np.linalg.svd(a, compute_uv=False)
    degenerate = bool(np.all(s == 0))
    erank = 1.0 if degenerate else effective_rank_of_singular_values(s)
    if a.shape[0] >= 2:
        variances = a.var(axis=0, ddof=1)
    else:
        variances = np.zeros(a.shape[1])
    return CoefficientDiagnostics(
        effective_rank=erank,
        singular_values=s,
        per_basis_variance=variances,
        variance_entropy=effective_rank_of_singular_values(variances),
        degenerate=degenerate,
    )


# ---------------------------------------------------------------------------
# projection error


@dataclass
class ProjectionError:
    """Per-sample relative L2 distance from targets to their best basis fit, and its mean."""

    per_sample: np.ndarray
    mean: float


def projection_error_from_design(design: np.ndarray, targets: np.ndarray, spec: EncodeSpec,
                                 svd=None) -> ProjectionError:
    """``relative_loss`` of the encoded targets through ``design``; ``svd`` is its thin SVD if known.

    Like training, it refuses a target with a NaN, an Inf or zero norm,
    before the encode, whose products would warn on a NaN or an Inf.
    """
    _, targets, _ = check_targets(design, targets)
    enc = LeastSquaresEncoder(design, spec, svd=svd)
    mean, per_sample = relative_loss(enc.encode_values(targets), design, targets)
    return ProjectionError(per_sample=per_sample, mean=mean)


def projection_error(basis, points, targets, spec: EncodeSpec) -> ProjectionError:
    """Relative L2 error of the truncated best fit in the basis span.

    Targets take the shapes ``encode`` takes; for C components the norm
    runs over the stacked component values.
    """
    design, rows = _design_and_rows(basis, points, targets)
    return projection_error_from_design(design, rows, spec)

