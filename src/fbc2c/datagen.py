"""Self-generated function datasets with independent numerical oracles.

Problems covered:

* 1D nonlinear Darcy flow d/dx(a(u) du/dx) = f with a(u) = 0.2 + u^2 and
  homogeneous Dirichlet conditions, forced by a squared-exponential Gaussian
  random field; solved by damped Newton on a conservative second-order
  finite-difference scheme.
* 2D Poisson on the unit square with a truncated sine-expansion forcing,
  solved exactly through the eigenfunction identity.
* High-dimensional Poisson with a scaled analytic solution.
* A synthetic two-output 1D problem (solution and its derivative) used to
  exercise vector-valued output bases.

Every generator draws one input function per sample, so inputs are (M, n1);
the GRF-forced ones draw through ``sample_grf_at``, the one field sampler,
at their own points.  Every generator is deterministic per seed and records
enough provenance to regenerate the data bit-identically.
"""

from __future__ import annotations

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


# ---------------------------------------------------------------------------
# Gaussian random field


def squared_exp_covariance(points: np.ndarray, length_scale: float,
                           amplitude: float) -> np.ndarray:
    pts = np.asarray(points, dtype=np.float64).ravel()
    diff = pts[:, None] - pts[None, :]
    return amplitude ** 2 * np.exp(-(diff / length_scale) ** 2)


def _cholesky_with_jitter(cov: np.ndarray, jitter: float = 1e-10, jitter_max: float = 1e-6):
    n = cov.shape[0]
    level = jitter
    while level <= jitter_max * (1 + 1e-12):
        try:
            return np.linalg.cholesky(cov + level * np.eye(n))
        except np.linalg.LinAlgError:
            level *= 10.0
    raise NumericalError(
        f"covariance factorization failed with jitter escalated to {jitter_max:g}"
    )


def sample_grf_at(points: np.ndarray, count: int, seed,
                  length_scale: float = 0.04, amplitude: float = 1.0) -> np.ndarray:
    """Draw ``count`` field realizations jointly at arbitrary points, (M, n).

    Squared-exponential covariance
    k(x, x') = amplitude^2 * exp(-|x - x'|^2 / length_scale^2); the Cholesky
    factor takes a diagonal jitter from 1e-10, raised tenfold up to 1e-6
    while the factorization fails.
    """
    if not (length_scale > 0 and amplitude > 0):
        raise ConfigurationError(
            f"length_scale and amplitude must be positive, got {length_scale} and {amplitude}")
    pts = np.asarray(points, dtype=np.float64).ravel()
    cov = squared_exp_covariance(pts, length_scale, amplitude)
    chol = _cholesky_with_jitter(cov)
    z = np.random.default_rng(seed).standard_normal((pts.size, count))
    return (chol @ z).T


# ---------------------------------------------------------------------------
# 1D nonlinear Darcy solver


def _darcy_residual(u: np.ndarray, f: np.ndarray, h: float) -> np.ndarray:
    a = 0.2 + u ** 2
    a_mid = 0.5 * (a[:-1] + a[1:])
    flux = a_mid * np.diff(u) / h
    return np.diff(flux) / h - f[1:-1]


def solve_darcy_1d(f: np.ndarray, tol: float = 1e-10, max_iter: int = 100,
                   max_halvings: int = 30) -> np.ndarray:
    """Newton solve of d/dx((0.2 + u^2) du/dx) = f on [0, 1], u(0) = u(1) = 0.

    Conservative second-order differences with arithmetic-mean interface
    coefficients; steps are halved while they increase the residual.
    Converged when the interior residual inf-norm drops below ``tol``.  The
    residual evaluation has a float64 rounding floor of roughly
    eps * max|a| * max|u| / h^2, which on fine grids can sit slightly above
    a very tight tol; if the line search stagnates there the solve is
    accepted as long as the residual is within 1e3 * tol.
    """
    f = np.asarray(f, dtype=np.float64).ravel()
    n = f.size
    if n < 3:
        raise ConfigurationError("Darcy grid needs at least 3 points")
    if not np.all(np.isfinite(f)):
        raise DataError("Darcy forcing contains NaN or Inf")
    h = 1.0 / (n - 1)
    u = np.zeros(n)
    history = []
    for _ in range(max_iter):
        res = _darcy_residual(u, f, h)
        rnorm = float(np.max(np.abs(res))) if res.size else 0.0
        history.append(rnorm)
        if rnorm < tol:
            return u
        a = 0.2 + u ** 2
        a_mid = 0.5 * (a[:-1] + a[1:])
        ui = u[1:-1]
        main = (ui * (u[2:] - 2.0 * ui + u[:-2]) - a_mid[1:] - a_mid[:-1]) / h ** 2
        upper = (a_mid[1:-1] + u[2:-1] * (u[2:-1] - u[1:-2])) / h ** 2
        lower = (a_mid[1:-1] - u[1:-2] * (u[2:-1] - u[1:-2])) / h ** 2
        ab = np.zeros((3, n - 2))
        ab[0, 1:] = upper
        ab[1, :] = main
        ab[2, :-1] = lower
        delta = scipy.linalg.solve_banded((1, 1), ab, -res)
        step = 1.0
        improved = False
        for _ in range(max_halvings):
            trial = u.copy()
            trial[1:-1] += step * delta
            trial_norm = np.max(np.abs(_darcy_residual(trial, f, h)))
            if trial_norm < rnorm:
                improved = True
                break
            step *= 0.5
        if not improved:
            # stagnation at the rounding floor of the residual evaluation
            if rnorm < 1e3 * tol:
                return u
            raise SolverError(
                f"Darcy Newton stagnated at residual {rnorm:.3e} (tol {tol:g})",
                residual_history=history,
            )
        u[1:-1] += step * delta
    raise SolverError(
        f"Darcy Newton iteration did not reach tol {tol:g} in {max_iter} iterations",
        residual_history=history,
    )


def solve_darcy_batch(forcings: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    forcings = np.atleast_2d(np.asarray(forcings, dtype=np.float64))
    return np.stack([solve_darcy_1d(f, tol=tol) for f in forcings])


def make_darcy1d(n: int, m_train: int, m_test: int, seed: int,
                 length_scale: float = 0.04, amplitude: float = 1.0,
                 tol: float = 1e-10):
    """GRF-forced Darcy dataset on a uniform n-point grid; disjoint seeded splits."""
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
                "seed": int(seed), "length_scale": length_scale,
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
            u_r = np.stack([
                scipy.interpolate.CubicSpline(solve_grid, u_k)(grid)
                for u_k in u_solve
            ])
        datasets[r] = FunctionDataset(
            input_points=grid, output_points=grid, inputs=f_r, outputs=u_r,
            provenance={
                "generator": "darcy1d_multires", "n": r, "count": count,
                "seed": seed if isinstance(seed, int) else list(seed),
                "solve_n": solve_n,
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
    p, q = alpha.shape
    scale = np.zeros((p, q))
    for i in range(p):
        for j in range(q):
            if i == j == 0:
                continue
            scale[i, j] = -1.0 / ((i * i + j * j) * np.pi ** 2)
    sx, sy = _sine_mode_tables(alpha.shape, points)
    return np.einsum("ij,in,jn->n", alpha * scale, sx, sy)


def make_poisson2d(points_per_side: int, m_train: int, m_test: int, seed: int,
                   modes: int = 5):
    """Sine-forced Poisson dataset on the unit square; coefficients U[-1, 1]."""
    train_seed, test_seed = np.random.SeedSequence(seed).spawn(2)
    pts = unit_square_grid(points_per_side)
    out = []
    for label, count, child in (("train", m_train, train_seed), ("test", m_test, test_seed)):
        rng = np.random.default_rng(child)
        alphas = rng.uniform(-1.0, 1.0, size=(count, modes, modes))
        f = np.stack([poisson_2d_forcing(a, pts) for a in alphas])
        u = np.stack([solve_poisson_2d_square(a, pts) for a in alphas])
        out.append(FunctionDataset(
            input_points=pts, output_points=pts, inputs=f, outputs=u,
            provenance={
                "generator": "poisson2d", "split": label,
                "points_per_side": points_per_side, "count": count,
                "modes": modes, "seed": int(seed),
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
                "n_points": n_points, "seed": int(seed),
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
                "count": count, "seed": int(seed),
                "length_scale": length_scale, "amplitude": amplitude,
            },
        ))
    return tuple(out)
