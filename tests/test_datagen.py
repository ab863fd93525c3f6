import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import fbc2c
from fbc2c.datagen import (FunctionDataset, _cholesky_with_jitter,
                           derivative_1d, gen_highd_poisson, highd_profile,
                           make_darcy1d, make_darcy1d_multiresolution,
                           make_highd_poisson, make_multi_output_1d,
                           make_poisson2d, poisson_2d_forcing,
                           sample_grf_at, solve_darcy_1d, solve_poisson_1d,
                           solve_poisson_2d_square, squared_exp_covariance,
                           unit_square_grid)
from fbc2c.errors import (ConfigurationError, DataError, NumericalError,
                          SolverError)


# ---------------------------------------------------------------------------
# Gaussian random field


def test_covariance_diagonal_is_amplitude_squared():
    pts = np.linspace(0, 1, 31)
    cov = squared_exp_covariance(pts, 0.04, 1.0)
    assert cov.diagonal() == pytest.approx(np.ones(31))
    # kernel value at distance equal to the length scale
    i, j = 10, 10 + 1
    d = pts[j] - pts[i]
    assert cov[i, j] == pytest.approx(np.exp(-(d / 0.04) ** 2))


def test_grf_monte_carlo_moments():
    pts = np.linspace(0, 1, 26)
    draws = sample_grf_at(pts, 10_000, 123)
    assert draws.shape == (10_000, 26)
    assert np.max(np.abs(draws.mean(axis=0))) < 0.05          # 3 sigma / sqrt(M)
    # empirical covariance at separation 0.04 (one grid step on this grid)
    step = pts[1] - pts[0]
    k = np.exp(-(step / 0.04) ** 2)
    emp = np.mean(draws[:, 7] * draws[:, 8]) - draws[:, 7].mean() * draws[:, 8].mean()
    assert emp == pytest.approx(k, abs=0.05)
    emp_var = draws[:, 13].var()
    assert emp_var == pytest.approx(1.0, abs=0.06)


def test_grf_deterministic_per_seed():
    pts = np.linspace(0, 1, 40)
    assert np.array_equal(sample_grf_at(pts, 5, 9), sample_grf_at(pts, 5, 9))
    other = sample_grf_at(pts, 5, 10)
    assert not np.array_equal(sample_grf_at(pts, 5, 9), other)


def test_grf_config_validation():
    pts = np.linspace(0, 1, 10)
    for length_scale, amplitude in [(0.0, 1.0), (-0.1, 1.0), (np.nan, 1.0),
                                    (0.04, 0.0), (0.04, -1.0)]:
        with pytest.raises(ConfigurationError, match="must be positive"):
            sample_grf_at(pts, 2, 0, length_scale, amplitude)
    # one point is a valid draw
    assert sample_grf_at(pts[:1], 3, 0).shape == (3, 1)


def test_jitter_escalation_recovers_mildly_indefinite_matrix():
    cov = np.diag([1.0, 1.0, -5e-8])    # slightly indefinite, fixable by 1e-7
    chol = _cholesky_with_jitter(cov, 1e-10)
    assert np.all(np.isfinite(chol))
    with pytest.raises(NumericalError):
        _cholesky_with_jitter(np.diag([1.0, -1.0]), 1e-10)


def test_grf_joint_sampling_handles_near_duplicate_points():
    pts = np.unique(np.concatenate([np.linspace(0, 1, 100), np.linspace(0, 1, 37)]))
    draws = sample_grf_at(pts, 3, seed=5)
    assert np.all(np.isfinite(draws))


# ---------------------------------------------------------------------------
# nonlinear Darcy solver


def test_darcy_zero_forcing_zero_solution():
    u = solve_darcy_1d(np.zeros(101))
    assert np.all(u == 0.0)


def _manufactured_error(n):
    x = np.linspace(0, 1, n)
    u_true = x * (1 - x)
    f = 2 * x * (1 - x) * (1 - 2 * x) ** 2 - 2 * (0.2 + x ** 2 * (1 - x) ** 2)
    return np.max(np.abs(solve_darcy_1d(f) - u_true))


def test_darcy_manufactured_solution_accuracy():
    assert _manufactured_error(2000) < 1e-4


def test_darcy_second_order_convergence():
    assert _manufactured_error(250) / _manufactured_error(500) >= 3.5


def test_darcy_near_linear_sign_flip():
    x = np.linspace(0, 1, 400)
    g = np.sin(2 * np.pi * x) + 0.5 * np.cos(5 * np.pi * x)
    alpha = 1e-3
    u_plus = solve_darcy_1d(alpha * g)
    u_minus = solve_darcy_1d(-alpha * g)
    assert np.linalg.norm(u_plus + u_minus) / np.linalg.norm(u_plus) < 1e-2


def test_darcy_input_validation():
    with pytest.raises(ConfigurationError):
        solve_darcy_1d(np.zeros(2))
    bad = np.zeros(50)
    bad[3] = np.nan
    with pytest.raises(DataError):
        solve_darcy_1d(bad)


def test_darcy_reports_residual_history_on_failure():
    f = 100.0 * np.sin(np.pi * np.linspace(0, 1, 64))
    with pytest.raises(SolverError) as info:
        solve_darcy_1d(f, tol=1e-10, max_iter=1)
    assert len(info.value.residual_history) >= 1


def test_make_darcy1d_splits_and_provenance():
    train, test = make_darcy1d(64, 4, 3, seed=5)
    assert train.n_samples == 4 and test.n_samples == 3
    assert train.provenance["split"] == "train"
    assert not np.array_equal(train.inputs[0], test.inputs[0])
    train2, _ = make_darcy1d(64, 4, 3, seed=5)
    assert np.array_equal(train.inputs, train2.inputs)
    assert np.array_equal(train.outputs, train2.outputs)


def test_multiresolution_targets_are_consistent():
    data = make_darcy1d_multiresolution([25, 50], count=3, seed=2, solve_n=400)
    d25, d50 = data[25], data[50]
    # same underlying functions: coarse grids share the endpoints
    assert d25.inputs[0, 0] == d50.inputs[0, 0]
    assert d25.inputs[0, -1] == d50.inputs[0, -1]
    # interpolated solutions stay close to a direct coarse restriction
    assert np.max(np.abs(d50.outputs)) > 0
    with pytest.raises(ConfigurationError):
        make_darcy1d_multiresolution([], count=2, seed=0)


# ---------------------------------------------------------------------------
# 2D Poisson on the square


def test_poisson2d_single_mode_value():
    alpha = np.zeros((2, 2))
    alpha[1, 1] = 1.0
    u = solve_poisson_2d_square(alpha, np.array([[0.5, 0.5]]))
    assert u[0] == pytest.approx(-1.0 / (2 * np.pi ** 2), abs=1e-12)


def test_poisson2d_zero_coefficients():
    pts = unit_square_grid(5)
    assert np.all(solve_poisson_2d_square(np.zeros((5, 5)), pts) == 0.0)


def test_poisson2d_superposition():
    rng = np.random.default_rng(8)
    pts = rng.uniform(0, 1, size=(60, 2))
    a = rng.uniform(-1, 1, (5, 5))
    b = rng.uniform(-1, 1, (5, 5))
    lhs = solve_poisson_2d_square(a + b, pts)
    rhs = solve_poisson_2d_square(a, pts) + solve_poisson_2d_square(b, pts)
    assert np.max(np.abs(lhs - rhs)) < 1e-14
    lhsf = poisson_2d_forcing(a + b, pts)
    rhsf = poisson_2d_forcing(a, pts) + poisson_2d_forcing(b, pts)
    assert np.max(np.abs(lhsf - rhsf)) < 1e-14


def test_poisson2d_forcing_is_eigen_consistent():
    # Laplacian of each retained mode reproduces the forcing: check one mode
    # numerically via central differences
    alpha = np.zeros((3, 3))
    alpha[2, 1] = 0.7
    h = 1e-5
    p = np.array([[0.3, 0.6]])
    lap = (solve_poisson_2d_square(alpha, p + [[h, 0]])
           + solve_poisson_2d_square(alpha, p - [[h, 0]])
           + solve_poisson_2d_square(alpha, p + [[0, h]])
           + solve_poisson_2d_square(alpha, p - [[0, h]])
           - 4 * solve_poisson_2d_square(alpha, p)) / h ** 2
    assert lap[0] == pytest.approx(poisson_2d_forcing(alpha, p)[0], rel=1e-5)


def test_make_poisson2d_dataset():
    train, test = make_poisson2d(6, 3, 2, seed=11)
    assert train.inputs.shape == (3, 36)
    assert train.outputs.shape == (3, 36)
    assert test.n_samples == 2
    # boundary values of the solution vanish
    pts = train.output_points
    boundary = (pts[:, 0] == 0) | (pts[:, 0] == 1) | (pts[:, 1] == 0) | (pts[:, 1] == 1)
    assert np.max(np.abs(train.outputs[:, boundary])) < 1e-12


# ---------------------------------------------------------------------------
# high-dimensional Poisson


def test_highd_analytic_values():
    f, u = gen_highd_poisson(4, [1.0], np.array([[1.0, 1.0, 1.0, 1.0]]))
    assert u[0, 0] == pytest.approx(4.0, abs=1e-12)
    assert f[0, 0] == pytest.approx(np.pi ** 2, abs=1e-12)
    f0, u0 = gen_highd_poisson(3, [2.5], np.zeros((1, 3)))
    assert u0[0, 0] == 0.0 and f0[0, 0] == 0.0


def test_highd_profile_oddness():
    pts = np.random.default_rng(0).uniform(-1, 1, size=(50, 6))
    assert highd_profile(-pts) == pytest.approx(-highd_profile(pts), abs=1e-12)


def test_highd_split_protocol():
    train, gen1, gen2 = make_highd_poisson(4, 100, seed=3)
    assert train.n_samples == 8 and gen1.n_samples == 2 and gen2.n_samples == 10
    a_train = np.asarray(train.provenance["alphas"])
    a_gen2 = np.asarray(gen2.provenance["alphas"])
    assert np.all((a_train >= -1) & (a_train <= 1))
    assert np.all((a_gen2 >= 1) & (a_gen2 <= 2))
    assert np.array_equal(train.input_points, gen1.input_points)
    # dimension mismatch is rejected
    with pytest.raises(ConfigurationError):
        gen_highd_poisson(3, [1.0], np.zeros((5, 4)))


# ---------------------------------------------------------------------------
# multi-output problem


def test_poisson_1d_quadratic_exact():
    n = 75
    x = np.linspace(0, 1, n)
    u = solve_poisson_1d(np.ones(n))
    assert np.max(np.abs(u - x * (x - 1) / 2)) < 1e-10
    du = derivative_1d(u, x[1] - x[0])
    assert np.max(np.abs(du[0] - (x - 0.5))) < 1e-10


def test_multi_output_dataset_shapes_and_zero():
    train, test = make_multi_output_1d(50, 3, 2, seed=4)
    assert train.outputs.shape == (3, 2, 50)
    assert train.output_components == 2
    u = solve_poisson_1d(np.zeros(50))
    assert np.all(u == 0.0)


def test_multi_output_linearity():
    n = 80
    rng = np.random.default_rng(5)
    f1, f2 = rng.standard_normal((2, n))
    lhs = solve_poisson_1d(f1 + f2)
    rhs = solve_poisson_1d(f1) + solve_poisson_1d(f2)
    assert np.max(np.abs(lhs - rhs)) < 1e-10


# ---------------------------------------------------------------------------
# dataset container type


def test_function_dataset_validation():
    grid = np.linspace(0, 1, 10)
    ok = FunctionDataset(grid, grid, np.zeros((2, 10)), np.zeros((2, 10)), {})
    assert ok.n_samples == 2 and ok.output_components == 1
    with pytest.raises(ConfigurationError, match=r"inputs must be \(M, n1\)"):
        FunctionDataset(grid, grid, np.zeros((2, 1, 10)), np.zeros((2, 10)), {})
    with pytest.raises(DataError):
        FunctionDataset(grid, grid, np.full((2, 10), np.nan), np.zeros((2, 10)), {})
    with pytest.raises(ConfigurationError):
        FunctionDataset(grid, grid, np.zeros((2, 10)), np.zeros((3, 10)), {})
    with pytest.raises(ConfigurationError):
        FunctionDataset(grid, grid, np.zeros((2, 9)), np.zeros((2, 10)), {})


def test_import_leaves_scipy_interpolate_unloaded():
    # only make_darcy1d_multiresolution needs it, and it imports it itself
    src = str(pathlib.Path(fbc2c.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    code = "import sys, fbc2c; print('scipy.interpolate' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "False"
