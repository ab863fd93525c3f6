"""Self-generated function datasets with independent numerical oracles.

Problems covered:

* 1D nonlinear Darcy flow d/dx(a(u) du/dx) = f with a(u) = 0.2 + u^2 and
  homogeneous Dirichlet conditions, forced by a squared-exponential Gaussian
  random field; solved through the Kirchhoff transform K(u) = 0.2 u + u^3 / 3,
  which makes it the linear K(u)'' = f: one second-order banded solve for
  all samples, then K^{-1} in closed form (``solve_darcy_batch``), with each
  sample's solution independent of the batch it is solved in.
* 2D Poisson on the unit square with a truncated sine-expansion forcing,
  solved exactly through the eigenfunction identity.
* A synthetic two-output 1D problem (solution and its derivative) used to
  exercise vector-valued output bases.

Every generator draws one input function per sample, so inputs are (M, n1);
the GRF-forced ones draw through ``sample_grf_at``, the one field sampler,
at their own points, and record the jitter level its factor settled on
and the rank of its generator.  It factors the covariance's diagonal
blocks exactly and couples them through a low-rank pivoted-Cholesky
generator, so it never holds an (n, n) array, and up to 512 points it
draws exactly the fields of a dense ``np.linalg.cholesky`` factor.  Every
generator checks its seed before drawing anything (a non-negative integer
or a sequence of them), and ``_check_grf_settings`` is the one check of
the length scale and amplitude, for ``DatasetSpec`` and ``sample_grf_at``
alike.  Every generator is deterministic per seed, and records enough
provenance to regenerate the data bit-identically at a fixed BLAS thread
count.  The GRF factor and draws go through BLAS, whose rounding depends
on that count: seed-0 draws (20 per grid, amplitude 1) differ between 1
and 2 threads by up to 3.7e-6 at 512 points, 1.5e-5 at 2000 and 2.0e-5
at 3532.
"""

from __future__ import annotations

import contextvars
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

# scipy.linalg is imported inside the functions that use it: imported here it
# would be most of the time of `import fbc2c`.
from .errors import ConfigurationError, DataError, NumericalError, check_int, check_real, is_int


@dataclass
class FunctionDataset:
    """Paired function samples on fixed point sets.

    inputs: (M, n1), one input function per sample; outputs: (M, n2) for one
    output component or (M, C, n2) for several.  Provenance must suffice to
    regenerate the arrays.
    """

    input_points: np.ndarray
    output_points: np.ndarray
    inputs: np.ndarray
    outputs: np.ndarray
    provenance: dict

    def __post_init__(self):
        for name in ("input_points", "output_points", "inputs", "outputs"):
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            if not np.all(np.isfinite(arr)):
                raise DataError(f"dataset field {name} contains NaN or Inf")
            object.__setattr__(self, name, arr)
        if self.inputs.ndim != 2:
            raise ConfigurationError(
                f"inputs must be (M, n1) samples of one input function, got shape {self.inputs.shape}")
        if self.inputs.shape[0] != self.outputs.shape[0]:
            raise ConfigurationError("inputs and outputs disagree on sample count")
        if self.inputs.shape[-1] != self.input_points.shape[0]:
            raise ConfigurationError("inputs do not match the input point count")
        if self.outputs.shape[-1] != self.output_points.shape[0]:
            raise ConfigurationError("outputs do not match the output point count")

    @property
    def n_samples(self) -> int:
        return self.inputs.shape[0]

    @property
    def output_components(self) -> int:
        return 1 if self.outputs.ndim == 2 else self.outputs.shape[1]


def _seed_provenance(seed):
    """The value a generator records for ``seed``, checked before it draws anything.

    A non-negative integer (``errors.is_int``, so not a bool) is recorded as an int
    and a sequence of non-negative integers as a list of ints; the
    generator seeds its ``SeedSequence`` with that value, so the record
    regenerates the data.  Anything else (``None``, which would draw fresh
    OS entropy, a bool, a float, a string) raises ``ConfigurationError``.
    """
    if is_int(seed):
        if seed >= 0:
            return int(seed)
    elif isinstance(seed, Sequence) and not isinstance(seed, (str, bytes)):
        if all(is_int(s) and s >= 0 for s in seed):
            return [int(s) for s in seed]
    raise ConfigurationError(
        f"seed: must be a non-negative integer or a sequence of them, got {seed!r}")


# ---------------------------------------------------------------------------
# Gaussian random field


def squared_exp_covariance(points: np.ndarray, length_scale: float,
                           amplitude: float) -> np.ndarray:
    """amplitude^2 * exp(-((x - x') / length_scale)^2), built in one (n, n) buffer."""
    pts = np.asarray(points, dtype=np.float64).ravel()
    return _squared_exp(pts, pts, length_scale, amplitude)


def _squared_exp(rows: np.ndarray, cols: np.ndarray, length_scale: float,
                 amplitude: float) -> np.ndarray:
    """The (len(rows), len(cols)) block of ``squared_exp_covariance``, same arithmetic."""
    cov = np.subtract.outer(rows, cols)
    cov /= length_scale
    np.square(cov, out=cov)
    np.negative(cov, out=cov)
    np.exp(cov, out=cov)
    cov *= amplitude ** 2
    return cov


# Up to this many points the GRF factor is one np.linalg.cholesky call and no
# generator is built, so every grid of at most 512 points (all the training
# grids) draws the fields a dense factor draws, bit for bit.
_DENSE_MAX = 512
# Points in each diagonal block of the factor above _DENSE_MAX points (the
# last block takes the remainder).  A block of b points costs about
# 2 b r^2 + b^2 (r + count) + b^3 / 3; 64 was the fastest of 32 to 128 at
# 600, 2000 and 3532 points.
_BLOCK = 64

# What the last factor sample_grf_at made, in this context, as the
# provenance entries {"grf_jitter": level, "grf_rank": r}.  sample_grf_at
# returns the draws alone, so the GRF-forced generators read it right after
# their draw and record it.
_grf_record: contextvars.ContextVar[dict] = contextvars.ContextVar("grf_record")


def _block_bounds(n: int) -> list[tuple[int, int]]:
    """Row ranges [r0, r1) of the factor's diagonal blocks for n points."""
    if n <= _DENSE_MAX:
        return [(0, n)]
    starts = list(range(0, n, _BLOCK))
    return list(zip(starts, starts[1:] + [n]))


def _cholesky_with_jitter(diagonal_block, generator: np.ndarray, jitter: float = 1e-10,
                          jitter_max: float = 1e-6):
    """Blocks of the Cholesky factor of A + level * I for the first level that factors.

    A is a symmetric (n, n) matrix, n = len(``generator``), whose blocks off
    the diagonal are products of the (n, r) ``generator`` G: A[I, J] =
    G[I] G[J]^T for diagonal blocks I != J (``_block_bounds``), while
    ``diagonal_block(r0, r1)`` returns a new C-contiguous array of the
    diagonal block A[r0:r1, r0:r1], of which only the lower triangle is
    used.  Returns ``(blocks, level)``, one ``(chol, coupling)`` pair per
    diagonal block J: chol is L_J, the factor's diagonal block, and
    coupling the (len(J), r) array V_J that gives the factor's rows below
    it as L[I, J] = G[I] V_J^T.

    The recursion runs left to right from S = 0 (r, r), S being the sum of
    V_K^T V_K over the blocks K already factored: C_J = A[J, J] + level * I
    - G[J] S G[J]^T, L_J = chol(C_J), V_J = L_J^{-1} G[J] (I - S),
    S += V_J^T V_J.  This is the
    block form of the semiseparable Cholesky recursion of Foreman-Mackey et
    al. (AJ 154:220, 2017).  With one block (n <= 512) the factor is
    exactly ``np.linalg.cholesky(A + level * I)``.

    Levels start at ``jitter`` and rise tenfold up to ``jitter_max``; a
    diagonal block that does not factor restarts every block at the next
    level, and past ``jitter_max`` ``NumericalError`` is raised.
    """
    import scipy.linalg.blas

    r = generator.shape[1]
    level = jitter
    while level <= jitter_max * (1 + 1e-12):
        blocks = []
        shared = np.zeros((r, r))
        try:
            for r0, r1 in _block_bounds(len(generator)):
                g = generator[r0:r1]
                g_shared = g @ shared
                chol = diagonal_block(r0, r1)
                chol.ravel()[::len(chol) + 1] += level     # the diagonal, as a strided view
                if blocks:
                    chol -= g_shared @ g.T
                chol = np.linalg.cholesky(chol)
                # L_J V_J = G[J] (I - S), solved as (L_J^T)^T V_J with L_J^T Fortran-ordered
                coupling = scipy.linalg.blas.dtrsm(1.0, chol.T, g - g_shared, trans_a=1,
                                                   overwrite_b=1)
                shared += coupling.T @ coupling
                blocks.append((chol, coupling))
        except np.linalg.LinAlgError:
            level *= 10.0
            continue
        return blocks, level
    raise NumericalError(
        f"covariance factorization failed with jitter escalated to {jitter_max:g}"
    )


def _pivoted_generator(pts: np.ndarray, length_scale: float, amplitude: float) -> np.ndarray:
    """Greedy pivoted Cholesky G (n, r) of the squared-exponential covariance K at ``pts``.

    Each step pivots on the point of largest residual diagonal, builds its
    kernel column and appends the column of K - G G^T it gives, scaled by
    the pivot's square root (Harbrecht, Peters & Schneider, Appl. Numer.
    Math. 62, 2012), until no residual diagonal exceeds 4 * eps *
    amplitude^2.  The residual K - G G^T is positive semidefinite, so every
    one of its entries is then below that too.
    """
    n = pts.size
    tol = 4.0 * np.finfo(np.float64).eps * amplitude ** 2
    residual = np.full(n, amplitude ** 2)
    columns = np.empty((min(n, 64), n))     # G^T, grown by doubling
    k = 0
    while k < n:
        pivot = int(np.argmax(residual))
        if residual[pivot] <= tol:
            break
        if k == len(columns):
            columns = np.concatenate([columns, np.empty_like(columns[:n - k])])
        column = _squared_exp(pts[pivot:pivot + 1], pts, length_scale, amplitude)[0]
        column -= columns[:k, pivot] @ columns[:k]
        column /= np.sqrt(residual[pivot])
        columns[k] = column
        residual -= column * column
        k += 1
    return columns[:k].T


def _grf_factor(pts: np.ndarray, length_scale: float, amplitude: float):
    """``(generator, blocks, level)``: the factor ``sample_grf_at`` draws with.

    Up to 512 points there is one block and no generator (r = 0)."""
    n = pts.size
    generator = (_pivoted_generator(pts, length_scale, amplitude) if n > _DENSE_MAX
                 else np.zeros((n, 0)))
    blocks, level = _cholesky_with_jitter(
        lambda r0, r1: _squared_exp(pts[r0:r1], pts[r0:r1], length_scale, amplitude),
        generator)
    return generator, blocks, level


def _check_grf_settings(length_scale, amplitude, span: float = 1.0) -> None:
    """Refuse GRF settings a draw over points ``span`` apart cannot use, naming the field.

    Each of ``length_scale`` and ``amplitude`` must be a real number (not a
    bool or a str), finite and > 0; ``amplitude^2`` must be finite, and so
    must ``(span / length_scale)^2``, the largest scaled distance squared.
    The squares are taken in Python floats, which overflow to inf without a
    numpy warning.
    """
    for name, value in (("length_scale", length_scale), ("amplitude", amplitude)):
        check_real(name, value)
        if not (math.isfinite(value) and value > 0):
            raise ConfigurationError(f"{name}: must be finite and > 0, got {value!r}")
    if math.isinf(float(amplitude) * float(amplitude)):
        raise ConfigurationError(f"amplitude: its square must be finite, got {amplitude!r}")
    scaled = span / float(length_scale)
    if math.isinf(scaled * scaled):
        raise ConfigurationError(
            f"length_scale: (span / length_scale)^2 must be finite, got {length_scale!r} "
            f"over a span of {span!r}")


def sample_grf_at(points: np.ndarray, count: int, seed,
                  length_scale: float = 0.04, amplitude: float = 1.0) -> np.ndarray:
    """Draw ``count`` field realizations jointly at arbitrary points, (M, n).

    Squared-exponential covariance
    K(x, x') = amplitude^2 * exp(-|x - x'|^2 / length_scale^2), in the
    caller's point order.  Up to 512 points L = ``np.linalg.cholesky(K +
    level * I)``, one call on the dense covariance, and the draws L z are
    exactly the fields of the dense factor.  On more points a greedy pivoted
    Cholesky (``_pivoted_generator``) first builds a generator G (n, r) with
    K - G G^T positive semidefinite and no diagonal entry above
    4 * eps * amplitude^2; then ``_cholesky_with_jitter`` factors the matrix
    that keeps K's diagonal blocks (64 points each from row 0, the last one
    the remainder) and replaces each block off the diagonal by
    G[I] G[J]^T.  Each entry so replaced is an entry of the semidefinite
    residual, so it is at most sqrt(E_ii E_jj) <= 4 * eps * amplitude^2.
    With the factorization's own rounding, (n + 1) * eps / 2 * max diag
    (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.,
    Thm 10.3),
    max|L L^T - (K + level * I)| <= (n + 2) * eps * max diag for sorted,
    shuffled or clustered points.  No (n, n) array is allocated for n > 512:
    the factor is the diagonal blocks, G and one (block, r) coupling per
    block, and the draws accumulate y_J = L_J z_J + G[J] c, c += V_J^T z_J
    block by block.  These draws differ from a dense factor's at rounding
    level.

    The generator's rank r grows as 1 / length_scale (about 110 at the
    default 0.04 on [0, 1]), and the factor costs about n * r^2.  Median of
    three calls at n = 2000 with 100 draws on one BLAS thread (2-vCPU Xeon
    VM):

        length_scale   0.04    0.02    0.01    0.005   0.0025
        rank r         111     214     443     880     1688
        call           0.04 s  0.09 s  0.25 s  0.90 s  4.1 s

    So it is slow below length_scale 0.02; every workload, demo and default
    config draws at 0.04.

    The diagonal jitter level starts at 1e-10 and rises tenfold up to 1e-6
    while any diagonal block fails to factor, then ``NumericalError`` is
    raised.  The level and r are left in a private context variable, which
    the GRF-forced generators record as ``grf_jitter`` and ``grf_rank``.

    ``seed`` is a ``SeedSequence`` (the generators pass children of theirs)
    or a value ``_seed_provenance`` accepts, so a draw can be repeated;
    ``None``, which would draw fresh OS entropy, a count that is not an
    integer >= 0, and GRF settings ``_check_grf_settings`` refuses over the
    span ptp(points) raise ``ConfigurationError`` before anything is factored.
    """
    if not isinstance(seed, np.random.SeedSequence):
        _seed_provenance(seed)
    check_int("count", count, 0)
    pts = np.asarray(points, dtype=np.float64).ravel()
    if not pts.size:
        raise ConfigurationError("a GRF needs at least one point")
    if not np.all(np.isfinite(pts)):
        raise DataError("GRF points contain NaN or Inf")
    _check_grf_settings(length_scale, amplitude, float(pts.max()) - float(pts.min()))
    generator, blocks, level = _grf_factor(pts, length_scale, amplitude)
    _grf_record.set({"grf_jitter": level, "grf_rank": generator.shape[1]})
    z = np.random.default_rng(seed).standard_normal((pts.size, count))
    draws = np.empty_like(z)
    shared = np.zeros((generator.shape[1], count))   # c, the sum of V_K^T z_K so far
    for (r0, r1), (chol, coupling) in zip(_block_bounds(pts.size), blocks):
        draws[r0:r1] = chol @ z[r0:r1]
        if r0:
            draws[r0:r1] += generator[r0:r1] @ shared
        shared += coupling.T @ z[r0:r1]
    return draws.T


# ---------------------------------------------------------------------------
# 1D nonlinear Darcy solver


# a(u) = _A0 + u^2, the Darcy coefficient, and K(u) = _A0 u + u^3 / 3 its
# Kirchhoff integral from 0 (Carslaw & Jaeger, Conduction of Heat in Solids,
# 2nd ed., 1959): K turns d/dx(a(u) du/dx) = f into the linear K(u)'' = f.
_A0 = 0.2

# The largest |w| = |K(u)| a Darcy solve takes to K^{-1}.  Below it the 3|w|
# inside _kirchhoff_inverse stays far from overflow and |u| < 1.5e100, so
# K(u) is finite too; the linear solve of a finite forcing can still
# overflow to inf (1e305 sin(pi x) at 200 points does).
_KIRCHHOFF_LIMIT = 1e300


def _kirchhoff(u: np.ndarray) -> np.ndarray:
    """K(u) = 0.2 u + u^3 / 3, the integral of a from 0 to u."""
    return _A0 * u + u ** 3 / 3.0


def _kirchhoff_inverse(w: np.ndarray) -> np.ndarray:
    """The real root u of K(u) = w, i.e. of u^3 + 0.6 u - 3 w = 0, to rounding.

    For w >= 0 Cardano's root is p - 0.2 / p with
    p = cbrt(1.5 |w| + hypot(1.5 w, 0.2^1.5)), which cancels for small w.  Written as
    (p^3 - (0.2 / p)^3) / (p^2 + 0.2 + (0.2 / p)^2) with p^3 - (0.2 / p)^3 = 3 |w|,
    it is u = 3 w / (p^2 + 0.2 + (0.2 / p)^2): no subtraction, exactly odd,
    exactly 0 at w = 0, and |K(u) - w| below 2e-15 |w| (K itself evaluated
    in float64) for 1e-300 <= |w| <= 1e300.  K is strictly increasing, so
    this root is the only real one.
    """
    p = np.cbrt(1.5 * np.abs(w) + np.hypot(1.5 * w, _A0 ** 1.5))
    return 3.0 * w / (p ** 2 + _A0 + (_A0 / p) ** 2)


def solve_darcy_batch(forcings: np.ndarray) -> np.ndarray:
    """Solve d/dx((0.2 + u^2) du/dx) = f, u(0) = u(1) = 0, for each row of ``forcings``, (M, n).

    The Kirchhoff transform w = K(u) = 0.2 u + u^3 / 3 makes the equation
    the linear w'' = f, so u = K^{-1}(w) with w = ``solve_poisson_1d(f)``,
    the second-order scheme (w[i+1] - 2 w[i] + w[i-1]) / h^2 = f[i] with
    w = 0 at both ends.  There is no iteration.  u is within O(h^2) of the
    exact solution: on u = x (1 - x) the max error is 3.97e-6, 9.94e-7 and
    2.49e-7 at n = 101, 201 and 401.  Each row's solution is bit-identical
    whatever batch it is solved in, because ``solve_poisson_1d``'s is and
    K^{-1} is elementwise.

    Raises ``NumericalError`` naming the lowest row whose w is not finite or
    exceeds ``_KIRCHHOFF_LIMIT`` in magnitude, before K^{-1} is taken.
    """
    forcings = np.atleast_2d(np.asarray(forcings, dtype=np.float64))
    if forcings.ndim != 2:
        raise ConfigurationError(
            f"Darcy forcings must be (M, n) rows, got shape {forcings.shape}")
    if forcings.shape[1] < 3:
        raise ConfigurationError("Darcy grid needs at least 3 points")
    if not np.all(np.isfinite(forcings)):
        raise DataError("Darcy forcing contains NaN or Inf")
    w = solve_poisson_1d(forcings)
    # not (|w| <= limit), so that a NaN row fails as an inf one does
    bad = ~np.all(np.abs(w) <= _KIRCHHOFF_LIMIT, axis=1)
    if bad.any():
        row = int(np.flatnonzero(bad)[0])
        raise NumericalError(
            f"row {row}: Darcy Kirchhoff transform reaches |w| = {np.max(np.abs(w[row])):g}, "
            f"not finite or past {_KIRCHHOFF_LIMIT:g}")
    return _kirchhoff_inverse(w)


def make_darcy1d(n: int, m_train: int, m_test: int, seed: int,
                 length_scale: float = 0.04, amplitude: float = 1.0):
    """GRF-forced Darcy dataset on a uniform n-point grid; disjoint seeded splits.

    Each forcing is solved on its own grid by ``solve_darcy_batch``.
    """
    _check_sizes("darcy1d", n=n, m_train=m_train, m_test=m_test)
    grid = np.linspace(0.0, 1.0, n)

    def draw(count, child):
        f = sample_grf_at(grid, count, child, length_scale, amplitude)
        return f, solve_darcy_batch(f), _grf_record.get()

    return _splits({"generator": "darcy1d", "n": n, "length_scale": length_scale,
                    "amplitude": amplitude}, grid, seed, (m_train, m_test), draw)


def _four_node_cubic(values: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Rows of ``values`` on ``linspace(0, 1, n)`` interpolated at ``points`` in [0, 1].

    Each point takes the cubic through its 4 nearest nodes (the 4 at that
    end in the two end intervals), in Lagrange form.  The nodes and weights
    are found once and applied to every row elementwise, so a row
    interpolates to the same bits alone as in any batch.  A point equal to
    a node, both endpoints included, takes that node's value exactly.
    """
    n = values.shape[1]
    nodes = np.linspace(0.0, 1.0, n)
    left = np.searchsorted(nodes, points, side="right") - 1     # the node at or before each point
    first = np.clip(left - 1, 0, n - 4)
    # position from the first node in node spacings; an exact integer at a node
    t = (left - first) + (points - nodes[left]) * (n - 1)
    weights = (-(t - 1) * (t - 2) * (t - 3) / 6, t * (t - 2) * (t - 3) / 2,
               -t * (t - 1) * (t - 3) / 2, t * (t - 1) * (t - 2) / 6)
    out = values[:, first] * weights[0]
    for k in (1, 2, 3):
        out += values[:, first + k] * weights[k]
    return out


def make_darcy1d_multiresolution(resolutions: Sequence[int], count: int, seed,
                                 solve_n: int = 2000, length_scale: float = 0.04,
                                 amplitude: float = 1.0) -> dict:
    """One set of forcing functions evaluated consistently at several grids.

    The field is drawn jointly on the union of all requested grids plus a
    fine solver grid; the PDE is solved once per sample on the fine grid by
    ``solve_darcy_batch``, and the solution is interpolated onto the other
    grids by the cubic through the 4 nearest solver nodes.
    With h = 1 / (solve_n - 1), that cubic is within 3/128 h^4 max|u^(4)| of
    u in interior intervals and h^4/24 max|u^(4)| in the two end ones (a
    clamped cubic spline: 5/384 h^4 max|u^(4)|).  The ``solve_n`` grid takes
    the solutions as solved.  This keeps the targets at every resolution
    consistent with a single underlying function pair instead of
    re-discretizing the PDE per resolution.

    Each resolution must be an integer of at least 3 (one interior point),
    and ``solve_n`` one of at least 4; like the seed, they are checked
    before any field is drawn.
    """
    seed = _seed_provenance(seed)
    if not resolutions:
        raise ConfigurationError("resolutions list is empty")
    for r in resolutions:
        check_int("resolution", r, 3)
    check_int("solve_n", solve_n, 4)
    solve_n = int(solve_n)
    grids = {int(r): np.linspace(0.0, 1.0, r) for r in resolutions}
    solve_grid = np.linspace(0.0, 1.0, solve_n)
    union = np.unique(np.concatenate([solve_grid] + list(grids.values())))
    draws = sample_grf_at(union, count, np.random.SeedSequence(seed),
                          length_scale, amplitude)
    grf = _grf_record.get()
    idx_solve = np.searchsorted(union, solve_grid)
    f_solve = draws[:, idx_solve]
    u_solve = solve_darcy_batch(f_solve)
    datasets = {}
    for r, grid in grids.items():
        f_r = draws[:, np.searchsorted(union, grid)]
        u_r = u_solve if r == solve_n else _four_node_cubic(u_solve, grid)
        datasets[r] = FunctionDataset(
            input_points=grid, output_points=grid, inputs=f_r, outputs=u_r,
            provenance={
                "generator": "darcy1d_multires", "n": r, "count": count,
                "seed": seed, "solve_n": solve_n,
                "length_scale": length_scale, "amplitude": amplitude,
                **grf,
            },
        )
    return datasets


# ---------------------------------------------------------------------------
# 2D Poisson on the unit square


def unit_square_grid(points_per_side: int) -> np.ndarray:
    """Uniform tensor grid on [0, 1]^2 flattened row-major, (g*g, 2)."""
    g = np.linspace(0.0, 1.0, points_per_side)
    xx, yy = np.meshgrid(g, g, indexing="ij")
    return np.column_stack([xx.ravel(), yy.ravel()])


def _poisson_scale(p: int, q: int) -> np.ndarray:
    """Solution factor -1 / ((i^2 + j^2) pi^2) of each sine mode; 0 at (0, 0)."""
    eigen = np.add.outer(np.arange(p) ** 2, np.arange(q) ** 2) * np.pi ** 2
    return np.divide(-1.0, eigen, out=np.zeros((p, q)), where=eigen > 0)


def _sine_sums(alpha, points, solve: bool) -> np.ndarray:
    """sum_ij c_ij sin(i pi x) sin(j pi y) at ``points`` for each (p, q) array of ``alpha``.

    c is alpha, or alpha times ``_poisson_scale`` if ``solve``.  The sine
    tables and the scale are built once per call and each sample is one
    einsum, so a sample's values are the same bits alone or in a batch.
    """
    alpha = np.asarray(alpha, dtype=np.float64)
    if alpha.ndim not in (2, 3):
        raise ConfigurationError(f"alpha must be (p, q) or (M, p, q), got shape {alpha.shape}")
    p, q = alpha.shape[-2:]
    pts = np.asarray(points, dtype=np.float64)
    sx = np.stack([np.sin(i * np.pi * pts[:, 0]) for i in range(p)])
    sy = np.stack([np.sin(j * np.pi * pts[:, 1]) for j in range(q)])
    if solve:
        alpha = alpha * _poisson_scale(p, q)
    sums = [np.einsum("ij,in,jn->n", a, sx, sy) for a in alpha.reshape(-1, p, q)]
    return np.stack(sums).reshape(*alpha.shape[:-2], len(pts))


def poisson_2d_forcing(alpha: np.ndarray, points: np.ndarray) -> np.ndarray:
    """f(x, y) = sum_ij alpha_ij sin(i pi x) sin(j pi y) at the given points.

    ``alpha`` is one (p, q) array, giving (n,) values, or an (M, p, q) batch,
    giving (M, n).
    """
    return _sine_sums(alpha, points, solve=False)


def solve_poisson_2d_square(alpha: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Exact solution of Laplacian(u) = f with zero boundary on [0, 1]^2.

    Each sine mode is an eigenfunction, so
    u = -sum_ij alpha_ij sin(i pi x) sin(j pi y) / ((i^2 + j^2) pi^2),
    with the (0, 0) mode skipped (it contributes nothing to f either).
    ``alpha`` is one (p, q) array, giving (n,) values, or an (M, p, q) batch,
    giving (M, n).
    """
    return _sine_sums(alpha, points, solve=True)


def make_poisson2d(points_per_side: int, m_train: int, m_test: int, seed: int,
                   modes: int = 5):
    """Sine-forced Poisson dataset on the unit square; coefficients U[-1, 1]."""
    _check_sizes("poisson2d", points_per_side=points_per_side, m_train=m_train, m_test=m_test,
                 modes=modes)
    pts = unit_square_grid(points_per_side)

    def draw(count, child):
        alphas = np.random.default_rng(child).uniform(-1.0, 1.0, size=(count, modes, modes))
        return poisson_2d_forcing(alphas, pts), solve_poisson_2d_square(alphas, pts), {}

    return _splits({"generator": "poisson2d", "points_per_side": points_per_side, "modes": modes,
                    "forcing_form": "separable products sin(i pi x) sin(j pi y)"},
                   pts, seed, (m_train, m_test), draw)


# ---------------------------------------------------------------------------
# synthetic multi-output problem


def solve_poisson_1d(f: np.ndarray) -> np.ndarray:
    """u'' = f on [0, 1] with u(0) = u(1) = 0, standard tridiagonal solve.

    Accepts (n,) or a batch (M, n); exact at the nodes for quadratic u.  All
    rows share the one matrix, so they are solved in one ``solve_banded``
    call with the rows as right-hand sides, each row's solution
    bit-identical whatever batch it is in.
    """
    import scipy.linalg

    f = np.asarray(f, dtype=np.float64)
    batch = np.atleast_2d(f)
    n = batch.shape[1]
    if n < 3:
        raise ConfigurationError("Poisson grid needs at least 3 points")
    h = 1.0 / (n - 1)
    bands = np.empty((3, n - 2))
    bands[[0, 2]] = 1.0 / h ** 2
    bands[1] = -2.0 / h ** 2
    u = np.zeros_like(batch)
    u[:, 1:-1] = scipy.linalg.solve_banded((1, 1), bands, batch[:, 1:-1].T).T
    return u if f.ndim == 2 else u[0]


def derivative_1d(u: np.ndarray, h: float) -> np.ndarray:
    """Second-order differences: central inside, one-sided at the ends."""
    u = np.atleast_2d(np.asarray(u, dtype=np.float64))
    du = np.empty_like(u)
    du[:, 1:-1] = (u[:, 2:] - u[:, :-2]) / (2.0 * h)
    du[:, 0] = (-3.0 * u[:, 0] + 4.0 * u[:, 1] - u[:, 2]) / (2.0 * h)
    du[:, -1] = (3.0 * u[:, -1] - 4.0 * u[:, -2] + u[:, -3]) / (2.0 * h)
    return du


def make_multi_output_1d(n: int, m_train: int, m_test: int, seed: int,
                         length_scale: float = 0.04, amplitude: float = 1.0):
    """GRF-forced linear Poisson with two output components [u, u']."""
    _check_sizes("multi_output_1d", n=n, m_train=m_train, m_test=m_test)
    grid = np.linspace(0.0, 1.0, n)

    def draw(count, child):
        f = sample_grf_at(grid, count, child, length_scale, amplitude)
        u = solve_poisson_1d(f)
        return f, np.stack([u, derivative_1d(u, grid[1] - grid[0])], axis=1), _grf_record.get()

    return _splits({"generator": "multi_output_1d", "n": n, "length_scale": length_scale,
                    "amplitude": amplitude}, grid, seed, (m_train, m_test), draw)


# ---------------------------------------------------------------------------
# the split loop and the dataset description


def _check_sizes(kind: str, **sizes) -> None:
    """Refuse a generator's size below the least value its kind's row gives it, naming it.

    ``points_per_side`` is poisson2d's name for the row's ``n``.
    """
    least = _DATASET_KINDS[kind][0]
    for name, value in sizes.items():
        check_int(name, value, least["n" if name == "points_per_side" else name])


def _splits(provenance: dict, points: np.ndarray, seed, counts: tuple, draw):
    """The (train, test) datasets of one generator on ``points``, the seed checked first.

    ``draw(count, child)`` draws a split from its child of ``SeedSequence(seed)``
    as ``(inputs, outputs, record)``; ``record`` joins the split's provenance.
    """
    seed = _seed_provenance(seed)
    out = []
    for label, count, child in zip(("train", "test"), counts, np.random.SeedSequence(seed).spawn(2)):
        inputs, outputs, record = draw(count, child)
        out.append(FunctionDataset(points, points, inputs, outputs, {
            **provenance, "split": label, "count": count, "seed": seed, **record}))
    return tuple(out)


# Per dataset kind: the size fields it reads with the least value each takes,
# which DatasetSpec and the kind's generator both check (the 1D solvers need
# an interior grid point, and a poisson2d grid below 3x3 holds only boundary
# points, where its solutions vanish); the GRF settings it reads, which
# ``_check_grf_settings`` checks; its point dimension; its output components;
# and its generator, called with (n, m_train, m_test, seed) and the other fields.
_SPLIT_SIZES = {"n": 3, "m_train": 1, "m_test": 1}
_DATASET_KINDS = {
    "darcy1d": (_SPLIT_SIZES, ("length_scale", "amplitude"), 1, 1, "make_darcy1d"),
    "poisson2d": ({**_SPLIT_SIZES, "modes": 1}, (), 2, 1, "make_poisson2d"),
    "multi_output_1d": (_SPLIT_SIZES, ("length_scale", "amplitude"), 1, 2, "make_multi_output_1d"),
}


@dataclass
class DatasetSpec:
    """Which generator to run and with what parameters; the ``dataset`` section of a run config.

    ``n`` is the grid size for the 1D problems and the points per side for
    poisson2d.  The fields the kind reads, and the seed, are checked on
    construction; an error names the field.
    """

    kind: str
    n: int | None = None
    m_train: int | None = None
    m_test: int | None = None
    seed: int = 0
    length_scale: float = 0.04
    amplitude: float = 1.0
    modes: int = 5

    def __post_init__(self):
        if self.kind not in _DATASET_KINDS:
            raise ConfigurationError(
                f"kind: unknown kind {self.kind!r}, expected one of {tuple(_DATASET_KINDS)}")
        sizes, grf, _, _, _ = _DATASET_KINDS[self.kind]
        for name, least in sizes.items():
            value = getattr(self, name)
            if value is None:
                raise ConfigurationError(f"{name}: {self.kind} needs it")
            check_int(name, value, least)
        if grf:
            # the grids span [0, 1]
            _check_grf_settings(self.length_scale, self.amplitude)
        check_int("seed", self.seed, 0)

    @property
    def dim(self) -> int:
        """The dimension of the points the kind's functions are sampled at."""
        return _DATASET_KINDS[self.kind][2]

    @property
    def components(self) -> int:
        """The number of the kind's output components."""
        return _DATASET_KINDS[self.kind][3]

    def build(self) -> tuple[FunctionDataset, FunctionDataset]:
        """The (train, test) splits: the kind's generator called with the fields its row names."""
        sizes, grf, _, _, generator = _DATASET_KINDS[self.kind]
        named = {name: getattr(self, name) for name in (*sizes, *grf) if name not in _SPLIT_SIZES}
        # looked up by name on each call, so a replaced module attribute is the one called
        return globals()[generator](self.n, self.m_train, self.m_test, self.seed, **named)
