"""Self-generated function datasets with independent numerical oracles.

Problems covered:

* 1D nonlinear Darcy flow d/dx(a(u) du/dx) = f with a(u) = 0.2 + u^2 and
  homogeneous Dirichlet conditions, forced by a squared-exponential Gaussian
  random field; solved by damped Newton on a conservative second-order
  finite-difference scheme, all samples of a chunk iterating together with
  one banded solve per iteration (``solve_darcy_batch``), and each
  sample's solution independent of the batch it is solved in.
* 2D Poisson on the unit square with a truncated sine-expansion forcing,
  solved exactly through the eigenfunction identity.
* High-dimensional Poisson with a scaled analytic solution.
* A synthetic two-output 1D problem (solution and its derivative) used to
  exercise vector-valued output bases.

Every generator draws one input function per sample, so inputs are (M, n1);
the GRF-forced ones draw through ``sample_grf_at``, the one field sampler,
at their own points.  It factors the covariance in place with a blocked
Cholesky whose trailing updates skip negligible rows, so it holds little
more than the one (n, n) covariance buffer, and up to 512 points it draws
exactly the fields of a dense ``np.linalg.cholesky`` factor.  Every
generator checks its seed before drawing anything (a non-negative integer
or a sequence of them), is deterministic per seed, and records enough
provenance to regenerate the data bit-identically.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.linalg

from .errors import ConfigurationError, DataError, NumericalError, SolverError


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

    A non-negative integer (any ``numbers.Integral``) is recorded as an int
    and a sequence of non-negative integers as a list of ints; the
    generator seeds its ``SeedSequence`` with that value, so the record
    regenerates the data.  Anything else (``None``, which would draw fresh
    OS entropy, a float, a string) raises ``ConfigurationError``.
    """
    if isinstance(seed, numbers.Integral):
        if seed >= 0:
            return int(seed)
    elif isinstance(seed, Sequence) and not isinstance(seed, (str, bytes)):
        if all(isinstance(s, numbers.Integral) and s >= 0 for s in seed):
            return [int(s) for s in seed]
    raise ConfigurationError(
        f"seed must be a non-negative integer or a sequence of them, got {seed!r}")


# ---------------------------------------------------------------------------
# Gaussian random field


def squared_exp_covariance(points: np.ndarray, length_scale: float,
                           amplitude: float) -> np.ndarray:
    """amplitude^2 * exp(-((x - x') / length_scale)^2), built in one (n, n) buffer."""
    pts = np.asarray(points, dtype=np.float64).ravel()
    cov = np.subtract.outer(pts, pts)
    cov /= length_scale
    np.square(cov, out=cov)
    np.negative(cov, out=cov)
    np.exp(cov, out=cov)
    cov *= amplitude ** 2
    return cov


# Rows per block of the GRF factor.  Up to this many points the factor is
# one np.linalg.cholesky call, so every grid of at most 512 points (all the
# training grids) draws the fields a dense factor draws, bit for bit.
_CHOL_BLOCK = 512


def _cholesky_with_jitter(cov: np.ndarray, jitter: float = 1e-10, jitter_max: float = 1e-6):
    """Cholesky factor of cov + level * I for the first level that factors, in place.

    ``cov`` is a symmetric (n, n) float64 array; the factor is
    written into its lower triangle, its strict upper triangle is zeroed,
    and ``cov`` itself is returned.  Levels start at ``jitter`` and rise
    tenfold up to ``jitter_max``; a failure in any diagonal block retries
    the whole factor at the next level.  Until the factor succeeds only the
    diagonal and the lower triangle are written, so a retry restores the
    lower triangle from the untouched strict upper one and the diagonal
    from a saved copy, without a second (n, n) buffer.  When this raises
    ``NumericalError``, ``cov`` holds the original matrix plus the last
    level tried on its diagonal.

    The factor is right-looking and blocked (Golub & Van Loan, Matrix
    Computations, 4th ed., sec. 4.2) in blocks of ``_CHOL_BLOCK`` rows:
    ``np.linalg.cholesky`` on each diagonal block, a triangular solve for
    the panel below it, and the trailing update only for panel rows up to
    the last one with an entry above tol = eps * sqrt(max diag) / n.  Each
    term that skip drops is a product L_ic L_jc with |L_ic| <= tol and
    |L_jc| <= sqrt(max diag), so the at most n of them that meet in one
    entry of L L^T move it by at most eps * max diag, below the rounding
    any Cholesky factor carries, (n + 1) * eps / 2 * max diag (Higham,
    Accuracy and Stability of Numerical Algorithms, 2nd ed., Thm 10.3).
    Together, max|L L^T - (cov + level * I)| <= (n + 2) * eps * max diag.
    For n <= _CHOL_BLOCK the factor is exactly
    ``np.linalg.cholesky(cov + level * I)``.
    """
    n = cov.shape[0]
    diag = cov.diagonal().copy()
    level = jitter
    while level <= jitter_max * (1 + 1e-12):
        np.fill_diagonal(cov, diag + level)
        try:
            _blocked_cholesky(cov, np.finfo(np.float64).eps * np.sqrt(np.max(diag + level)) / n)
        except np.linalg.LinAlgError:
            _restore_lower_triangle(cov)
            np.fill_diagonal(cov, diag + level)
            level *= 10.0
            continue
        for r0 in range(0, n, _CHOL_BLOCK):
            r1 = min(r0 + _CHOL_BLOCK, n)
            cov[r0:r1, r0:r1][~np.tri(r1 - r0, dtype=bool)] = 0.0
            cov[r0:r1, r1:] = 0.0
        return cov
    raise NumericalError(
        f"covariance factorization failed with jitter escalated to {jitter_max:g}"
    )


def _blocked_cholesky(a: np.ndarray, tol: float) -> None:
    """Lower Cholesky factor of ``a`` into its lower triangle, skipping negligible rows.

    Reads and writes only the diagonal and the strict lower triangle; the
    trailing update stops after the last panel row with an entry above
    ``tol`` (see ``_cholesky_with_jitter``).  Raises ``LinAlgError`` when a
    diagonal block is not positive definite.
    """
    n = a.shape[0]
    for r0 in range(0, n, _CHOL_BLOCK):
        r1 = min(r0 + _CHOL_BLOCK, n)
        l11 = np.linalg.cholesky(a[r0:r1, r0:r1])
        np.copyto(a[r0:r1, r0:r1], l11, where=np.tri(r1 - r0, dtype=bool))
        if r1 == n:
            return
        panel = a[r1:, r0:r1]
        panel[...] = scipy.linalg.solve_triangular(
            l11, panel.T, lower=True, overwrite_b=True, check_finite=False).T
        big = np.flatnonzero((panel.max(axis=1) > tol) | (panel.min(axis=1) < -tol))
        if not big.size:
            continue
        # a[r1 + i, r1 + j] -= panel[i] . panel[j] for j <= i <= big[-1],
        # by block rows, masked so nothing above the diagonal is written
        rows = big[-1] + 1
        for i0 in range(0, rows, _CHOL_BLOCK):
            i1 = min(i0 + _CHOL_BLOCK, rows)
            trailing = a[r1 + i0:r1 + i1, r1:r1 + i1]
            np.subtract(trailing, panel[i0:i1] @ panel[:i1].T, out=trailing,
                        where=np.tri(i1 - i0, i1, i0, dtype=bool))


def _restore_lower_triangle(a: np.ndarray) -> None:
    """Copy the strict upper triangle of ``a`` onto its strict lower triangle."""
    n = a.shape[0]
    for r0 in range(0, n, _CHOL_BLOCK):
        r1 = min(r0 + _CHOL_BLOCK, n)
        a[r0:r1, :r0] = a[:r0, r0:r1].T
        block = a[r0:r1, r0:r1]
        np.copyto(block, block.T.copy(), where=np.tri(r1 - r0, k=-1, dtype=bool))


def sample_grf_at(points: np.ndarray, count: int, seed,
                  length_scale: float = 0.04, amplitude: float = 1.0) -> np.ndarray:
    """Draw ``count`` field realizations jointly at arbitrary points, (M, n).

    Squared-exponential covariance
    K(x, x') = amplitude^2 * exp(-|x - x'|^2 / length_scale^2).  Its Cholesky
    factor L is computed in the covariance buffer by a blocked right-looking
    factorization (``_cholesky_with_jitter``) in blocks of ``_CHOL_BLOCK`` =
    512 rows, whose trailing update skips the panel rows past the last one
    with an entry above eps * sqrt(max diag) / n.  The dropped terms move
    each entry of L L^T by at most eps * max diag, below the factorization's
    own rounding: max|L L^T - (K + level * I)| <= (n + 2) * eps * max diag.
    The diagonal jitter level starts at 1e-10 and rises tenfold up to 1e-6
    while any diagonal block fails to factor, then ``NumericalError`` is
    raised.  Samples are drawn by row blocks,
    y[r0:r1] = L[r0:r1, :r1] @ z[:r1], reading only the lower triangle.  Up
    to 512 points the factor is one ``np.linalg.cholesky`` call and the draw
    one product, so such grids draw exactly the fields of the dense factor;
    on larger grids the draws differ from it at rounding level.  The skip
    tests values, not positions: unsorted points keep the same bound and
    skip fewer rows.
    """
    if not (length_scale > 0 and amplitude > 0):
        raise ConfigurationError(
            f"length_scale and amplitude must be positive, got {length_scale} and {amplitude}")
    pts = np.asarray(points, dtype=np.float64).ravel()
    chol = _cholesky_with_jitter(squared_exp_covariance(pts, length_scale, amplitude))
    z = np.random.default_rng(seed).standard_normal((pts.size, count))
    draws = np.empty_like(z)
    for r0 in range(0, pts.size, _CHOL_BLOCK):
        r1 = min(r0 + _CHOL_BLOCK, pts.size)
        draws[r0:r1] = chol[r0:r1, :r1] @ z[:r1]
    return draws.T


# ---------------------------------------------------------------------------
# 1D nonlinear Darcy solver


# Rows per Newton chunk are _NEWTON_BLOCK // n (at least 1): a chunk's
# (rows, n) working arrays stay near 32768 elements, so batching the rows
# does not raise the solve's peak memory.
_NEWTON_BLOCK = 32_768


def _interface_coefficients(u: np.ndarray) -> np.ndarray:
    """Arithmetic means of a(u) = 0.2 + u^2 at the cell interfaces, along the last axis."""
    a = 0.2 + u ** 2
    return 0.5 * (a[..., :-1] + a[..., 1:])


def _darcy_residual(u: np.ndarray, f: np.ndarray, h: float,
                    a_mid: np.ndarray | None = None) -> np.ndarray:
    """Interior residual of the scheme along the last axis, one row per sample."""
    if a_mid is None:
        a_mid = _interface_coefficients(u)
    flux = a_mid * np.diff(u) / h
    return np.diff(flux) / h - f[..., 1:-1]


def solve_darcy_1d(f: np.ndarray, tol: float = 1e-10, max_iter: int = 100,
                   max_halvings: int = 30) -> np.ndarray:
    """Newton solve of d/dx((0.2 + u^2) du/dx) = f on [0, 1], u(0) = u(1) = 0.

    Conservative second-order differences with arithmetic-mean interface
    coefficients; steps are halved while they increase the residual.
    Converged when the interior residual inf-norm drops below ``tol``.  The
    residual evaluation has a float64 rounding floor of roughly
    eps * max|a| * max|u| / h^2, which on fine grids can sit slightly above
    a very tight tol; if the line search stagnates there the solve is
    accepted as long as the residual is within 1e3 * tol.  This is the
    one-row call of ``solve_darcy_batch``.
    """
    f = np.asarray(f, dtype=np.float64).ravel()
    return solve_darcy_batch(f[None], tol, max_iter, max_halvings)[0]


def solve_darcy_batch(forcings: np.ndarray, tol: float = 1e-10, max_iter: int = 100,
                      max_halvings: int = 30) -> np.ndarray:
    """Solve the Darcy problem of ``solve_darcy_1d`` for each row of ``forcings``, (M, n).

    All rows of a chunk iterate together: residuals and Jacobian bands are
    evaluated on (rows, n) arrays along axis 1, and each Newton iteration
    makes one ``scipy.linalg.solve_banded`` call on the (3, rows * (n - 2))
    stack of the rows' tridiagonal systems, with zero coupling entries
    between consecutive blocks.  LAPACK's ``gtsv`` eliminates with factor
    0 / d = 0 across such a zero coupling and never pivots there, so each
    block gets exactly the arithmetic of its own solve; step halving and
    stagnation acceptance are per row, and a row leaves the chunk once it
    is done.  A row's solution is therefore bit-identical whatever batch it
    is solved in.  Chunks hold ``_NEWTON_BLOCK // n`` rows (at least one).

    Raises ``SolverError`` for the lowest row index that fails, naming it
    and carrying that row's residual history.
    """
    forcings = np.atleast_2d(np.asarray(forcings, dtype=np.float64))
    if forcings.ndim != 2:
        raise ConfigurationError(
            f"Darcy forcings must be (M, n) rows, got shape {forcings.shape}")
    n = forcings.shape[1]
    if n < 3:
        raise ConfigurationError("Darcy grid needs at least 3 points")
    if not np.all(np.isfinite(forcings)):
        raise DataError("Darcy forcing contains NaN or Inf")
    solutions = np.zeros_like(forcings)
    chunk = max(1, _NEWTON_BLOCK // n)
    for lo in range(0, forcings.shape[0], chunk):
        _newton_chunk(forcings[lo:lo + chunk], solutions[lo:lo + chunk], lo,
                      tol, max_iter, max_halvings)
    return solutions


def _newton_chunk(f: np.ndarray, out: np.ndarray, first_row: int, tol: float,
                  max_iter: int, max_halvings: int) -> None:
    """Damped Newton on the rows of ``f`` together, writing each solution into ``out``."""
    rows, n = f.shape
    h = 1.0 / (n - 1)
    u = np.zeros_like(f)
    active = np.arange(rows)    # chunk rows still iterating, in the order of u and f
    norms = []                  # per iteration, the residual norm of every chunk row
    failures = {}               # chunk row -> (message, its number of iterations)
    for it in range(max_iter):
        a_mid = _interface_coefficients(u)
        res = _darcy_residual(u, f, h, a_mid)
        rnorm = np.max(np.abs(res), axis=1)
        norms.append(np.full(rows, np.nan))
        norms[-1][active] = rnorm
        converged = rnorm < tol
        if converged.any():
            out[active[converged]] = u[converged]
            keep = ~converged
            u, f, active, rnorm, res, a_mid = (
                u[keep], f[keep], active[keep], rnorm[keep], res[keep], a_mid[keep])
            if not active.size:
                break
        ui = u[:, 1:-1]
        du = u[:, 2:-1] - u[:, 1:-2]
        ab = np.zeros((3, active.size, n - 2))
        ab[0, :, 1:] = (a_mid[:, 1:-1] + u[:, 2:-1] * du) / h ** 2
        ab[1] = (ui * (u[:, 2:] - 2.0 * ui + u[:, :-2]) - a_mid[:, 1:] - a_mid[:, :-1]) / h ** 2
        ab[2, :, :-1] = (a_mid[:, 1:-1] - u[:, 1:-2] * du) / h ** 2
        delta = scipy.linalg.solve_banded((1, 1), ab.reshape(3, -1), -res.ravel(),
                                          overwrite_ab=True, overwrite_b=True)
        delta = delta.reshape(active.size, n - 2)
        # halve each row's step while it does not lower that row's residual
        step = np.ones(active.size)
        searching = np.arange(active.size)
        for _ in range(max_halvings):
            trial = u[searching]
            trial[:, 1:-1] += step[searching, None] * delta[searching]
            trial_norm = np.max(np.abs(_darcy_residual(trial, f[searching], h)), axis=1)
            lower = trial_norm < rnorm[searching]
            searching = searching[~lower]
            if not searching.size:
                break
            step[searching] *= 0.5
        improved = np.ones(active.size, dtype=bool)
        improved[searching] = False
        # stagnation at the rounding floor of the residual evaluation
        accepted = ~improved & (rnorm < 1e3 * tol)
        out[active[accepted]] = u[accepted]
        for r in active[~improved & ~accepted]:
            failures[r] = (f"Darcy Newton stagnated at residual {norms[-1][r]:.3e} (tol {tol:g})",
                           it + 1)
        if searching.size:
            u, f, active, step, delta = (
                u[improved], f[improved], active[improved], step[improved], delta[improved])
            if not active.size:
                break
        u[:, 1:-1] += step[:, None] * delta
    for r in active:
        failures[r] = (f"Darcy Newton iteration did not reach tol {tol:g} in {max_iter} iterations",
                       max_iter)
    if failures:
        r = min(failures)
        message, iterations = failures[r]
        raise SolverError(f"row {first_row + r}: {message}",
                          residual_history=[float(x[r]) for x in norms[:iterations]])


def make_darcy1d(n: int, m_train: int, m_test: int, seed: int,
                 length_scale: float = 0.04, amplitude: float = 1.0,
                 tol: float = 1e-10):
    """GRF-forced Darcy dataset on a uniform n-point grid; disjoint seeded splits."""
    seed = _seed_provenance(seed)
    train_seed, test_seed = np.random.SeedSequence(seed).spawn(2)
    grid = np.linspace(0.0, 1.0, n)
    out = []
    for label, count, child in (("train", m_train, train_seed), ("test", m_test, test_seed)):
        f = sample_grf_at(grid, count, child, length_scale, amplitude)
        u = solve_darcy_batch(f, tol=tol)
        out.append(FunctionDataset(
            input_points=grid, output_points=grid, inputs=f, outputs=u,
            provenance={
                "generator": "darcy1d", "split": label, "n": n, "count": count,
                "seed": seed, "length_scale": length_scale,
                "amplitude": amplitude, "solver_tol": tol,
            },
        ))
    return tuple(out)


def make_darcy1d_multiresolution(resolutions: Sequence[int], count: int, seed,
                                 solve_n: int = 2000, length_scale: float = 0.04,
                                 amplitude: float = 1.0, tol: float = 1e-10) -> dict:
    """One set of forcing functions evaluated consistently at several grids.

    The field is drawn jointly on the union of all requested grids plus a
    fine solver grid; the PDE is solved once per sample on the fine grid and
    the solution is interpolated (cubic spline) onto coarser grids.  This
    keeps the targets at every resolution consistent with a single underlying
    function pair instead of re-discretizing the PDE per resolution.
    """
    # imported by its one user: it is about half the time of `import fbc2c`
    import scipy.interpolate

    seed = _seed_provenance(seed)
    if not resolutions:
        raise ConfigurationError("resolutions list is empty")
    grids = {int(r): np.linspace(0.0, 1.0, int(r)) for r in resolutions}
    solve_grid = np.linspace(0.0, 1.0, solve_n)
    union = np.unique(np.concatenate([solve_grid] + list(grids.values())))
    draws = sample_grf_at(union, count, np.random.SeedSequence(seed),
                          length_scale, amplitude)
    idx_solve = np.searchsorted(union, solve_grid)
    f_solve = draws[:, idx_solve]
    u_solve = solve_darcy_batch(f_solve, tol=tol)
    datasets = {}
    for r, grid in grids.items():
        f_r = draws[:, np.searchsorted(union, grid)]
        if r == solve_n:
            u_r = u_solve
        else:
            u_r = scipy.interpolate.CubicSpline(solve_grid, u_solve, axis=1)(grid)
        datasets[r] = FunctionDataset(
            input_points=grid, output_points=grid, inputs=f_r, outputs=u_r,
            provenance={
                "generator": "darcy1d_multires", "n": r, "count": count,
                "seed": seed, "solve_n": solve_n,
                "length_scale": length_scale, "amplitude": amplitude,
                "solver_tol": tol,
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
# high-dimensional Poisson with analytic solution


def highd_profile(points: np.ndarray) -> np.ndarray:
    """sum_i sin(pi x_i / 2) over the coordinates of each point."""
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    return np.sin(0.5 * np.pi * pts).sum(axis=1)


def gen_highd_poisson(d: int, alphas, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Forcing/solution pairs of -Laplacian(u) = f on [-1, 1]^d.

    u = alpha * sum_i sin(pi x_i / 2) and f = alpha * (pi^2 / 4) * that sum,
    both evaluated exactly at the supplied points; one row per alpha.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    if pts.shape[1] != d:
        raise ConfigurationError(f"points have dimension {pts.shape[1]}, expected {d}")
    alphas = np.asarray(alphas, dtype=np.float64).ravel()
    if not np.all(np.isfinite(alphas)):
        raise DataError("alpha values contain NaN or Inf")
    profile = highd_profile(pts)
    u = alphas[:, None] * profile[None, :]
    f = (np.pi ** 2 / 4.0) * u
    return f, u


def uniform_points(d: int, count: int, seed, lo: float = -1.0, hi: float = 1.0) -> np.ndarray:
    """i.i.d. uniform points in [lo, hi]^d; stand-in for a full grid when d is large."""
    rng = np.random.default_rng(seed)
    return rng.uniform(lo, hi, size=(count, d))


def make_highd_poisson(d: int, n_points: int, seed: int, n_train: int = 8,
                       n_gen1: int = 2, n_gen2: int = 10):
    """Train plus two generalization splits sharing one sampled point set.

    Training amplitudes are uniform draws from [-1, 1]; Gen1 holds out fresh
    amplitudes from the same range, Gen2 extrapolates to [1, 2].
    """
    seed = _seed_provenance(seed)
    pts_seed, a_train_seed, gen1_seed, gen2_seed = np.random.SeedSequence(seed).spawn(4)
    pts = uniform_points(d, n_points, pts_seed)
    a_train = np.random.default_rng(a_train_seed).uniform(-1.0, 1.0, n_train)
    a_gen1 = np.random.default_rng(gen1_seed).uniform(-1.0, 1.0, n_gen1)
    a_gen2 = np.random.default_rng(gen2_seed).uniform(1.0, 2.0, n_gen2)
    datasets = []
    for label, alphas in (("train", a_train), ("gen1", a_gen1), ("gen2", a_gen2)):
        f, u = gen_highd_poisson(d, alphas, pts)
        datasets.append(FunctionDataset(
            input_points=pts, output_points=pts, inputs=f, outputs=u,
            provenance={
                "generator": "highd_poisson", "split": label, "d": d,
                "n_points": n_points, "seed": seed,
                "alphas": alphas.tolist(),
            },
        ))
    return tuple(datasets)


# ---------------------------------------------------------------------------
# synthetic multi-output problem


def solve_poisson_1d(f: np.ndarray) -> np.ndarray:
    """u'' = f on [0, 1] with u(0) = u(1) = 0, standard tridiagonal solve.

    Accepts (n,) or a batch (M, n); exact at the nodes for quadratic u.
    """
    f = np.asarray(f, dtype=np.float64)
    batch = np.atleast_2d(f)
    n = batch.shape[1]
    if n < 3:
        raise ConfigurationError("Poisson grid needs at least 3 points")
    h = 1.0 / (n - 1)
    ab = np.zeros((3, n - 2))
    ab[0, 1:] = 1.0 / h ** 2
    ab[1, :] = -2.0 / h ** 2
    ab[2, :-1] = 1.0 / h ** 2
    interior = scipy.linalg.solve_banded((1, 1), ab, batch[:, 1:-1].T).T
    u = np.zeros_like(batch)
    u[:, 1:-1] = interior
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
        u = solve_poisson_1d(f)
        du = derivative_1d(u, h)
        out.append(FunctionDataset(
            input_points=grid, output_points=grid, inputs=f,
            outputs=np.stack([u, du], axis=1),
            provenance={
                "generator": "multi_output_1d", "split": label, "n": n,
                "count": count, "seed": seed,
                "length_scale": length_scale, "amplitude": amplitude,
            },
        ))
    return tuple(out)
