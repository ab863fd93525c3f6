"""Coefficient estimation against a fixed basis, plus quality diagnostics.

``encode`` is the one entry point for sampled functions, on a scalar or a
vector-valued basis; ``projection_error`` takes the same inputs.

One SVD, two filters: every design matrix is factored once by a thin SVD,
and an ``EncodeSpec`` only chooses the filter applied to its singular
values (Hansen, *Rank-Deficient and Discrete Ill-Posed Problems*, 1998).
Ridge is the Tikhonov filter s / (s^2 + lam * n); the truncated SVD is 1/s
on the kept values and 0 elsewhere.  The filtered factors are applied to all
samples of a batch by matrix multiplication.  ``EncodeSpec`` is also the
run config's encode section (``fbc2c.config``), so a spec is checked once,
where it is made.

An encoder exposes its factors as ``svd``; passing them to another encoder
on the same design (``LeastSquaresEncoder(design, spec, svd=enc.svd)``)
re-filters them for a new spec without factoring again.  The caller owns
that reuse: ``experiment.run`` keeps one factorization per design matrix.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .basis import VectorBasis
from .errors import ConfigurationError, DataError, RankDeficiencyError


@dataclass
class EncodeSpec:
    """How sampled functions are projected onto a basis: the SVD filter and its setting.

    ``method`` "ridge" is penalized least squares with penalty weight ``lam``
    on ||a||^2.  The data term carries a 1/n factor, so the minimizer is
    a = (Phi^T Phi + lam * n * I)^{-1} Phi^T f with n the number of sample
    points, which keeps a given lam meaningful across grid sizes.  It is
    computed as a filter on the SVD Phi = U diag(s) V^T, never by forming
    Phi^T Phi: a = V diag(s / (s^2 + lam * n)) U^T f.

    ``method`` "tsvd" is the pseudo-inverse that discards singular values
    below ``cut * sigma_1``, a threshold relative to the largest one, so a
    cut means the same at any scale of the design.

    Every field is checked on construction; an error names the field.
    """

    method: str = "tsvd"
    lam: float = 0.0
    cut: float = 1e-2

    def __post_init__(self):
        if self.method not in ("ridge", "tsvd"):
            raise ConfigurationError(
                f"method: unknown method {self.method!r}, expected 'ridge' or 'tsvd'")
        for name in ("lam", "cut"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ConfigurationError(f"{name}: must be finite and >= 0, got {value!r}")

    @property
    def cut_or_lambda(self) -> float:
        return self.lam if self.method == "ridge" else self.cut


# condition estimate beyond which an unregularized solve is refused
_COND_LIMIT = 1.0 / (100.0 * np.finfo(np.float64).eps)

# rows per product in encode_values; every batch is cut into tiles of this height
_TILE_ROWS = 64


class LeastSquaresEncoder:
    """Holds one factorization of a design matrix and encodes sample batches.

    ``n_points`` is the number of spatial sample points; for a stacked
    vector-valued design matrix this is rows / n_components, and it is what
    scales the ridge penalty.

    ``svd`` is the thin SVD ``(u, s, vt)`` of ``design``, computed here when
    not given; it is exposed as ``svd`` for other encoders on the same design.

    ``kept_rank``, ``sigma_max``, ``sigma_min_kept`` and ``condition``
    describe the filter: a singular value is kept where its filter factor is
    nonzero (every positive one for a ridge, those at or above the threshold
    for a cut).
    """

    def __init__(self, design: np.ndarray, spec: EncodeSpec, n_points: int | None = None,
                 svd=None):
        design = np.asarray(design, dtype=np.float64)
        if design.ndim != 2 or design.size == 0:
            raise ConfigurationError(f"design matrix must be 2-D and nonempty, got shape {design.shape}")
        if not isinstance(spec, EncodeSpec):
            raise ConfigurationError(f"expected an EncodeSpec, got {spec!r}")
        self.design = design
        self.spec = spec
        self.n_points = int(n_points) if n_points is not None else design.shape[0]
        if svd is None:
            svd = np.linalg.svd(design, full_matrices=False)
        u, s, vt = svd
        if u.shape[0] != design.shape[0] or vt.shape[1] != design.shape[1]:
            raise ConfigurationError(
                f"svd factors {u.shape}, {vt.shape} do not fit a design matrix of shape {design.shape}")
        if spec.method == "ridge":
            if spec.lam == 0.0:
                # cond(Phi); fewer nonzero singular values than columns is inf
                full_rank = s.size == design.shape[1] and s[-1] > 0.0
                cond = s[0] / s[-1] if full_rank else np.inf
                if cond > _COND_LIMIT:
                    raise RankDeficiencyError(
                        f"design matrix singular without regularization "
                        f"(condition estimate {cond:.3e}); increase lam or use a cut",
                        condition_estimate=float(cond),
                    )
            filt = s / (s * s + spec.lam * self.n_points)
        else:
            filt = np.zeros_like(s)
            keep = (s >= spec.cut * s[0]) & (s > 0)
            filt[keep] = 1.0 / s[keep]
        self.svd = (u, s, vt)
        self._filt = filt

    @property
    def kept_rank(self) -> int:
        """Number of singular values with a nonzero filter factor."""
        return int(np.count_nonzero(self._filt))

    @property
    def coefficient_span(self) -> np.ndarray:
        """The (m, kept_rank) right singular vectors with a nonzero filter factor.

        Every row ``encode_values`` returns is a combination of them, since
        the other filter factors are exact zeros.
        """
        return self.svd[2][self._filt != 0.0].T

    @property
    def sigma_max(self) -> float:
        return float(self.svd[1][0])

    @property
    def sigma_min_kept(self) -> float:
        """Smallest kept singular value; 0.0 when none is kept."""
        kept = self.svd[1][self._filt != 0.0]
        return float(kept[-1]) if kept.size else 0.0

    @property
    def condition(self) -> float:
        """sigma_max / sigma_min_kept; inf when no singular value is kept."""
        low = self.sigma_min_kept
        return self.sigma_max / low if low > 0.0 else np.inf

    def encode_values(self, values: np.ndarray) -> np.ndarray:
        """Encode a batch of sampled functions, shape (M, n) -> (M, m).

        Both products run on zero-padded tiles of ``_TILE_ROWS`` rows, one
        matrix multiply each, so a row encodes to the same bits alone, in any
        batch and in any order on a BLAS that picks its kernel by operand
        shape (OpenBLAS does); no BLAS promises it.
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
        u, _, vt = self.svd
        rows = values.shape[0]
        padded = np.zeros((-(-rows // _TILE_ROWS) * _TILE_ROWS, values.shape[1]))
        padded[:rows] = values
        inner = np.empty((padded.shape[0], u.shape[1]))
        coeffs = np.empty((padded.shape[0], vt.shape[1]))
        for start in range(0, rows, _TILE_ROWS):
            tile = slice(start, start + _TILE_ROWS)
            np.matmul(padded[tile], u, out=inner[tile])
            inner[tile] *= self._filt
            np.matmul(inner[tile], vt, out=coeffs[tile])
        return coeffs[0] if squeeze else coeffs[:rows]


def _design_and_rows(basis, points, values):
    """(design matrix at ``points``, points per component, sample rows).

    A VectorBasis stacks its C component blocks into a (C*n, m) design, and
    its (M, C, n) or (C, n) samples are stacked component-major into rows of
    C*n values to match; the points per component is n.  A scalar basis
    takes (M, n) or (n,) samples as they are.
    """
    design = basis.design_matrix(points)
    values = np.asarray(values, dtype=np.float64)
    if not isinstance(basis, VectorBasis):
        return design, design.shape[0], values
    if values.ndim == 2:
        values = values[None, :, :]
    if values.ndim != 3 or values.shape[1] != basis.n_components:
        raise ConfigurationError(
            f"expected values of shape (M, {basis.n_components}, n), got {values.shape}"
        )
    n = design.shape[0] // basis.n_components
    if values.shape[2] != n:
        raise ConfigurationError(
            f"samples have {values.shape[2]} points per component, design matrix has {n}"
        )
    return design, n, values.reshape(values.shape[0], -1)


def encode(basis, points, values, spec: EncodeSpec) -> np.ndarray:
    """Project sampled functions onto a scalar or a vector-valued basis.

    values: (M, n) or (n,) function samples at ``points`` for a scalar
    basis; (M, C, n) or (C, n) for a VectorBasis of C components, whose
    solve runs on the stacked design with the ridge penalty scaled by n,
    matching the per-point normalization of the data term.  Returns the
    (M, m) coefficients, one row per sample in basis order.
    """
    design, n, rows = _design_and_rows(basis, points, values)
    enc = LeastSquaresEncoder(design, spec, n_points=n)
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
    of the normalized per-column sample variances.
    """
    a = np.atleast_2d(np.asarray(coeffs, dtype=np.float64))
    if a.size == 0:
        raise ConfigurationError("coefficient matrix is empty")
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
    """Per-sample relative L2 distance from targets to their best basis fit.

    Samples with zero norm are excluded from the mean; their per-sample
    entries are NaN and their count is reported.
    """

    per_sample: np.ndarray
    mean: float
    zero_norm_count: int


def projection_error_from_design(design: np.ndarray, targets: np.ndarray, spec: EncodeSpec,
                                 n_points: int | None = None, svd=None) -> ProjectionError:
    """Projection error against a design matrix; ``svd`` is its thin SVD if known."""
    targets = np.atleast_2d(np.asarray(targets, dtype=np.float64))
    enc = LeastSquaresEncoder(design, spec, n_points=n_points, svd=svd)
    coeffs = np.atleast_2d(enc.encode_values(targets))
    resid = coeffs @ design.T - targets
    rnorm = np.linalg.norm(resid, axis=1)
    tnorm = np.linalg.norm(targets, axis=1)
    nonzero = tnorm > 0
    per_sample = np.full(targets.shape[0], np.nan)
    per_sample[nonzero] = rnorm[nonzero] / tnorm[nonzero]
    if not np.any(nonzero):
        raise DataError("all target samples have zero norm")
    return ProjectionError(
        per_sample=per_sample,
        mean=float(per_sample[nonzero].mean()),
        zero_norm_count=int(np.sum(~nonzero)),
    )


def projection_error(basis, points, targets, spec: EncodeSpec) -> ProjectionError:
    """Relative L2 error of the regularized best fit in the basis span.

    Targets take the shapes ``encode`` takes; for a VectorBasis the norm
    runs over the stacked component values.
    """
    design, n, rows = _design_and_rows(basis, points, targets)
    return projection_error_from_design(design, rows, spec, n_points=n)


def write_diagnostics_csv(path, rows) -> None:
    """Flat diagnostics export: one row per encode spec.

    Columns: cut_or_lambda, erank, variance_entropy, mean_projection_error.
    """
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["cut_or_lambda", "erank", "variance_entropy", "mean_projection_error"])
        for row in rows:
            writer.writerow([repr(float(row[0])), repr(float(row[1])),
                             repr(float(row[2])), repr(float(row[3]))])
