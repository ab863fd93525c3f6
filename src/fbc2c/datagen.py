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
or a sequence of them), is deterministic per seed, and records enough
provenance to regenerate the data bit-identically at a fixed BLAS thread
count.  The GRF factor and draws go through BLAS, whose rounding depends
on that count: seed-0 draws (20 per grid, amplitude 1) differ between 1
and 2 threads by up to 3.7e-6 at 512 points, 1.7e-5 at 2000 and 2.4e-5
at 3532.
"""

from __future__ import annotations

import contextvars
from dataclasses import dataclass
from typing import Sequence

import numpy as np

# scipy.linalg is imported inside the functions that use it: imported here it
# would be most of the time of `import fbc2c`.
from .errors import ConfigurationError, DataError, NumericalError, is_int


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
        f"seed must be a non-negative integer or a sequence of them, got {seed!r}")


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


# Points in the first diagonal block of the GRF factor.  Up to this many
# points the factor is one np.linalg.cholesky call and no generator is built,
# so every grid of at most 512 points (all the training grids) draws the
# fields a dense factor draws, bit for bit.
_FIRST_BLOCK = 512
# Points in each later diagonal block.
_LATER_BLOCK = 128

# What the last factor sample_grf_at made, in this context, as the
# provenance entries {"grf_jitter": level, "grf_rank": r}.  sample_grf_at
# returns the draws alone, so the GRF-forced generators read it right after
# their draw and record it.
_grf_record: contextvars.ContextVar[dict] = contextvars.ContextVar("grf_record")


def _block_bounds(n: int) -> list[tuple[int, int]]:
    """Row ranges [r0, r1) of the factor's diagonal blocks for n points."""
    starts = [0] + list(range(min(n, _FIRST_BLOCK), n, _LATER_BLOCK))
    return list(zip(starts, starts[1:] + [n]))


def _cholesky_with_jitter(diagonal_block, generator: np.ndarray, jitter: float = 1e-10,
                          jitter_max: float = 1e-6):
    """Blocks of the Cholesky factor of A + level * I for the first level that factors.

    A is a symmetric (n, n) matrix, n = len(``generator``), whose blocks off
    the diagonal are products of the (n, r) ``generator`` G: A[I, J] =
    G[I] G[J]^T for diagonal blocks I != J (``_block_bounds``), while
    ``diagonal_block(r0, r1)`` returns a new array of the diagonal block
    A[r0:r1, r0:r1], of which only the lower triangle is used.  Returns
    ``(blocks, level)``, one ``(chol, coupling)`` pair per diagonal block J:
    chol is L_J, the factor's diagonal block, and coupling the (len(J), r)
    array V_J that gives the factor's rows below it as L[I, J] = G[I] V_J^T.

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
                chol[np.diag_indices_from(chol)] += level
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
    generator = (_pivoted_generator(pts, length_scale, amplitude) if n > _FIRST_BLOCK
                 else np.zeros((n, 0)))
    blocks, level = _cholesky_with_jitter(
        lambda r0, r1: _squared_exp(pts[r0:r1], pts[r0:r1], length_scale, amplitude),
        generator)
    return generator, blocks, level


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
    that keeps K's diagonal blocks (the first of 512 points, the later ones
    of 128) and replaces each block off the diagonal by G[I] G[J]^T.  Each
    entry so replaced is an entry of the semidefinite residual, so it is at
    most sqrt(E_ii E_jj) <= 4 * eps * amplitude^2.  With the factorization's
    own rounding, (n + 1) * eps / 2 * max diag (Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed., Thm 10.3),
    max|L L^T - (K + level * I)| <= (n + 2) * eps * max diag for sorted,
    shuffled or clustered points.  No (n, n) array is allocated for n > 512:
    the factor is the diagonal blocks, G and one (block, r) coupling per
    block, and the draws accumulate y_J = L_J z_J + G[J] c, c += V_J^T z_J
    block by block.  These draws differ from a dense factor's at rounding
    level.

    The generator's rank r grows as 1 / length_scale (about 110 at the
    default 0.04 on [0, 1]), and the factor costs about n * r^2.  Median of
    three calls at n = 2000 with 100 draws on one BLAS thread (2-vCPU Xeon
    VM), against the profile factor of the covariance strips that this
    replaced:

        length_scale   0.04    0.02    0.01    0.005   0.0025
        rank r         111     214     443     880     1688
        this factor    0.05 s  0.09 s  0.21 s  0.74 s  3.2 s
        strips         0.09 s  0.06 s  0.09 s  0.09 s  0.10 s

    From length_scale 0.02 down the strips were faster; every workload, demo
    and default config draws at 0.04.

    The diagonal jitter level starts at 1e-10 and rises tenfold up to 1e-6
    while any diagonal block fails to factor, then ``NumericalError`` is
    raised.  The level and r are left in a private context variable, which
    the GRF-forced generators record as ``grf_jitter`` and ``grf_rank``.

    ``seed`` is a ``SeedSequence`` (the generators pass children of theirs)
    or a value ``_seed_provenance`` accepts, so a draw can be repeated;
    ``None``, which would draw fresh OS entropy, and a count that is not an
    integer >= 0 raise ``ConfigurationError`` before anything is factored.
    """
    if not isinstance(seed, np.random.SeedSequence):
        _seed_provenance(seed)
    _grid_size("count", count, 0)
    if not (np.isfinite(length_scale) and length_scale > 0 and amplitude > 0
            and np.isfinite(float(amplitude) * float(amplitude))):
        raise ConfigurationError(
            "length_scale and amplitude must be positive and finite, and so must amplitude "
            f"squared, got {length_scale} and {amplitude}")
    pts = np.asarray(points, dtype=np.float64).ravel()
    if not pts.size:
        raise ConfigurationError("a GRF needs at least one point")
    if not np.all(np.isfinite(pts)):
        raise DataError("GRF points contain NaN or Inf")
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


def solve_darcy_1d(f: np.ndarray) -> np.ndarray:
    """Solve d/dx((0.2 + u^2) du/dx) = f on [0, 1], u(0) = u(1) = 0, for one row.

    The one-row call of ``solve_darcy_batch``.
    """
    f = np.asarray(f, dtype=np.float64).ravel()
    return solve_darcy_batch(f[None])[0]


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
    seed = _seed_provenance(seed)
    train_seed, test_seed = np.random.SeedSequence(seed).spawn(2)
    grid = np.linspace(0.0, 1.0, n)
    out = []
    for label, count, child in (("train", m_train, train_seed), ("test", m_test, test_seed)):
        f = sample_grf_at(grid, count, child, length_scale, amplitude)
        grf = _grf_record.get()
        u = solve_darcy_batch(f)
        out.append(FunctionDataset(
            input_points=grid, output_points=grid, inputs=f, outputs=u,
            provenance={
                "generator": "darcy1d", "split": label, "n": n, "count": count,
                "seed": seed, "length_scale": length_scale,
                "amplitude": amplitude, **grf,
            },
        ))
    return tuple(out)


def _grid_size(name: str, value, least: int) -> int:
    """``value`` as a count of at least ``least``; a bool or a non-integer is refused."""
    if is_int(value) and value >= least:
        return int(value)
    raise ConfigurationError(f"{name} must be an integer of at least {least}, got {value!r}")


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
    sizes = [_grid_size("resolution", r, 3) for r in resolutions]
    solve_n = _grid_size("solve_n", solve_n, 4)
    grids = {r: np.linspace(0.0, 1.0, r) for r in sizes}
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


def _sine_mode_tables(alpha_shape, points):
    pts = np.asarray(points, dtype=np.float64)
    p, q = alpha_shape
    sx = np.stack([np.sin(i * np.pi * pts[:, 0]) for i in range(p)])
    sy = np.stack([np.sin(j * np.pi * pts[:, 1]) for j in range(q)])
    return sx, sy


def _poisson_scale(p: int, q: int) -> np.ndarray:
    """Solution factor -1 / ((i^2 + j^2) pi^2) of each sine mode; 0 at (0, 0)."""
    scale = np.zeros((p, q))
    for i in range(p):
        for j in range(q):
            if i == j == 0:
                continue
            scale[i, j] = -1.0 / ((i * i + j * j) * np.pi ** 2)
    return scale


def poisson_2d_forcing(alpha: np.ndarray, points: np.ndarray) -> np.ndarray:
    """f(x, y) = sum_ij alpha_ij sin(i pi x) sin(j pi y) at the given points."""
    alpha = np.atleast_2d(np.asarray(alpha, dtype=np.float64))
    sx, sy = _sine_mode_tables(alpha.shape, points)
    return np.einsum("ij,in,jn->n", alpha, sx, sy)


def solve_poisson_2d_square(alpha: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Exact solution of Laplacian(u) = f with zero boundary on [0, 1]^2.

    Each sine mode is an eigenfunction, so
    u = -sum_ij alpha_ij sin(i pi x) sin(j pi y) / ((i^2 + j^2) pi^2),
    with the (0, 0) mode skipped (it contributes nothing to f either).
    """
    alpha = np.atleast_2d(np.asarray(alpha, dtype=np.float64))
    sx, sy = _sine_mode_tables(alpha.shape, points)
    return np.einsum("ij,in,jn->n", alpha * _poisson_scale(*alpha.shape), sx, sy)


def make_poisson2d(points_per_side: int, m_train: int, m_test: int, seed: int,
                   modes: int = 5):
    """Sine-forced Poisson dataset on the unit square; coefficients U[-1, 1]."""
    seed = _seed_provenance(seed)
    train_seed, test_seed = np.random.SeedSequence(seed).spawn(2)
    pts = unit_square_grid(points_per_side)
    # the sums of poisson_2d_forcing and solve_poisson_2d_square, one einsum
    # per sample, with the mode tables and scale built once, not per sample
    sx, sy = _sine_mode_tables((modes, modes), pts)
    scale = _poisson_scale(modes, modes)
    out = []
    for label, count, child in (("train", m_train, train_seed), ("test", m_test, test_seed)):
        rng = np.random.default_rng(child)
        alphas = rng.uniform(-1.0, 1.0, size=(count, modes, modes))
        f = np.stack([np.einsum("ij,in,jn->n", a, sx, sy) for a in alphas])
        u = np.stack([np.einsum("ij,in,jn->n", a * scale, sx, sy) for a in alphas])
        out.append(FunctionDataset(
            input_points=pts, output_points=pts, inputs=f, outputs=u,
            provenance={
                "generator": "poisson2d", "split": label,
                "points_per_side": points_per_side, "count": count,
                "modes": modes, "seed": seed,
                "forcing_form": "separable products sin(i pi x) sin(j pi y)",
            },
        ))
    return tuple(out)


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
    seed = _seed_provenance(seed)
    train_seed, test_seed = np.random.SeedSequence(seed).spawn(2)
    grid = np.linspace(0.0, 1.0, n)
    h = grid[1] - grid[0]
    out = []
    for label, count, child in (("train", m_train, train_seed), ("test", m_test, test_seed)):
        f = sample_grf_at(grid, count, child, length_scale, amplitude)
        grf = _grf_record.get()
        u = solve_poisson_1d(f)
        du = derivative_1d(u, h)
        out.append(FunctionDataset(
            input_points=grid, output_points=grid, inputs=f,
            outputs=np.stack([u, du], axis=1),
            provenance={
                "generator": "multi_output_1d", "split": label, "n": n,
                "count": count, "seed": seed,
                "length_scale": length_scale, "amplitude": amplitude,
                **grf,
            },
        ))
    return tuple(out)
