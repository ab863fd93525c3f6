import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import fbc2c
from fbc2c import datagen
from fbc2c.datagen import (_FIRST_BLOCK, _LATER_BLOCK, FunctionDataset,
                           _cholesky_with_jitter, _four_node_cubic, _grf_factor, _kirchhoff,
                           _kirchhoff_inverse, derivative_1d, make_darcy1d,
                           make_darcy1d_multiresolution,
                           make_multi_output_1d, make_poisson2d, poisson_2d_forcing, sample_grf_at,
                           solve_darcy_1d, solve_darcy_batch, solve_poisson_1d,
                           solve_poisson_2d_square, squared_exp_covariance,
                           unit_square_grid)
from fbc2c.errors import ConfigurationError, DataError, NumericalError


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


def test_covariance_equals_the_dense_expression_bitwise():
    pts = np.random.default_rng(4).uniform(0, 1, 57)
    for length_scale, amplitude in [(0.04, 1.0), (0.3, 1.7), (0.1, 0.25)]:
        diff = pts[:, None] - pts[None, :]
        dense = amplitude ** 2 * np.exp(-(diff / length_scale) ** 2)
        assert np.array_equal(squared_exp_covariance(pts, length_scale, amplitude), dense)


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
    # one point is a valid draw, none is not
    assert sample_grf_at(pts[:1], 3, 0).shape == (3, 1)
    with pytest.raises(ConfigurationError, match="at least one point"):
        sample_grf_at(pts[:0], 3, 0)


@pytest.mark.parametrize("seed, count, field", [
    (None, 2, "seed"), (1.5, 2, "seed"), ("3", 2, "seed"), (-1, 2, "seed"), ([3, -1], 2, "seed"),
    (0, -1, "count"), (0, 2.5, "count"), (0, True, "count"),
], ids=["none_seed", "float_seed", "string_seed", "negative_seed", "negative_seed_entry",
        "negative_count", "float_count", "bool_count"])
def test_grf_refuses_an_unrepeatable_seed_or_a_bad_count_before_factoring(monkeypatch, seed,
                                                                          count, field):
    def no_factor(*args, **kwargs):
        raise AssertionError("factored before checking the seed and count")

    monkeypatch.setattr(datagen, "_grf_factor", no_factor)
    with pytest.raises(ConfigurationError, match=f"^{field} must be"):
        sample_grf_at(np.linspace(0, 1, 10), count, seed)


def test_grf_takes_the_seeds_the_generators_record_and_pass():
    pts = np.linspace(0, 1, 10)
    assert np.array_equal(sample_grf_at(pts, 3, np.int64(4)), sample_grf_at(pts, 3, 4))
    assert np.array_equal(sample_grf_at(pts, 3, [4, 5]),
                          sample_grf_at(pts, 3, np.random.SeedSequence([4, 5])))
    assert sample_grf_at(pts, 0, 4).shape == (0, 10)


@pytest.mark.parametrize("length_scale, amplitude", [(np.inf, 1.0), (0.04, np.inf)],
                         ids=["inf_length_scale", "inf_amplitude"])
def test_grf_refuses_a_non_finite_length_scale_or_amplitude(length_scale, amplitude):
    with pytest.raises(ConfigurationError, match="must be positive and finite"):
        sample_grf_at(np.linspace(0, 1, 10), 2, 0, length_scale, amplitude)


@pytest.mark.parametrize("amplitude", [1e200, np.float64(1e200), 1e155],
                         ids=["float", "numpy_float", "just_past_the_limit"])
def test_grf_refuses_an_amplitude_whose_square_overflows(monkeypatch, amplitude):
    def no_factor(*args, **kwargs):
        raise AssertionError("factored a covariance before checking the amplitude")

    pts = np.linspace(0, 1, 5)
    with monkeypatch.context() as patch:
        patch.setattr(datagen, "_grf_factor", no_factor)
        with pytest.raises(ConfigurationError, match="amplitude"):
            sample_grf_at(pts, 2, 0, 0.04, amplitude)
    assert np.all(np.isfinite(sample_grf_at(pts, 2, 0, 0.04, 1e154)))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_grf_refuses_non_finite_points(bad):
    # at 600 points the bad point falls in the second block of the factor
    for n in (10, 600):
        pts = np.linspace(0, 1, n)
        pts[-3] = bad
        with pytest.raises(DataError, match="NaN or Inf"):
            sample_grf_at(pts, 2, 0)


def _factor_of(a, generator=None, jitter=1e-10):
    """_cholesky_with_jitter of a symmetric matrix whose blocks off the diagonal
    are products of ``generator`` (none by default): (dense lower factor, level)."""
    if generator is None:
        generator = np.zeros((len(a), 0))
    blocks, level = _cholesky_with_jitter(lambda r0, r1: a[r0:r1, r0:r1].copy(),
                                          generator, jitter)
    return _dense_factor(generator, blocks), level


def _dense_factor(generator, blocks):
    n = len(generator)
    chol = np.zeros((n, n))
    r0 = 0
    for diag, coupling in blocks:
        r1 = r0 + len(diag)
        chol[r0:r1, r0:r1] = diag
        chol[r1:, r0:r1] = generator[r1:] @ coupling.T
        r0 = r1
    return chol


def test_jitter_escalation_recovers_mildly_indefinite_matrix():
    cov = np.diag([1.0, 1.0, -5e-8])    # slightly indefinite, fixable by 1e-7
    chol, level = _factor_of(cov)
    assert np.all(np.isfinite(chol)) and level == pytest.approx(1e-7)
    with pytest.raises(NumericalError):
        _factor_of(np.diag([1.0, -1.0]))


def test_escalated_jitter_factor_equals_the_dense_shift_bitwise():
    # eigenvalue -5e-8: the levels 1e-10, 1e-9 and 1e-8 fail, the fourth factors
    q, _ = np.linalg.qr(np.random.default_rng(6).standard_normal((6, 6)))
    cov = (q * [2.0, 1.0, 0.5, 0.1, 1e-3, -5e-8]) @ q.T
    cov = 0.5 * (cov + cov.T)
    level = 1e-10
    for _ in range(3):
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(cov + level * np.eye(6))
        level *= 10.0
    chol, used = _factor_of(cov)
    assert used == level
    assert np.array_equal(chol, np.linalg.cholesky(cov + level * np.eye(6)))


def _dense_jitter_level(cov):
    level = 1e-10
    while True:
        try:
            np.linalg.cholesky(cov + level * np.eye(len(cov)))
            return level
        except np.linalg.LinAlgError:
            level *= 10.0


@pytest.mark.parametrize("n", [1, 26, 100, 500, 512])
def test_grf_up_to_one_block_draws_the_dense_factor_bitwise(n):
    pts = np.linspace(0, 1, n)
    cov = squared_exp_covariance(pts, 0.04, 1.0)
    z = np.random.default_rng(8).standard_normal((n, 4))
    dense = (np.linalg.cholesky(cov + 1e-10 * np.eye(n)) @ z).T
    assert np.array_equal(sample_grf_at(pts, 4, 8), dense)
    generator, blocks, _ = _grf_factor(pts, 0.04, 1.0)
    assert generator.shape == (n, 0) and len(blocks) == 1


@pytest.mark.parametrize("order, length_scale", [("sorted", 0.04), ("shuffled", 0.04),
                                                 ("clusters", 0.04), ("sorted", 0.01)],
                         ids=["sorted", "shuffled", "clusters", "sorted_length_scale_0.01"])
def test_blocked_grf_factor_meets_its_backward_error_bound(order, length_scale):
    n = 1500
    pts = np.linspace(0, 1, n)
    if order == "shuffled":
        pts = np.random.default_rng(2).permutation(pts)
    if order == "clusters":
        pts = np.concatenate([np.linspace(0, 0.3, 750), np.linspace(0.7, 1, 750)])
    cov = squared_exp_covariance(pts, length_scale, 1.0)
    level = _dense_jitter_level(cov)
    shifted = cov + level * np.eye(n)
    generator, blocks, used = _grf_factor(pts, length_scale, 1.0)
    assert used == level
    assert [len(diag) for diag, _ in blocks] == [_FIRST_BLOCK] + [_LATER_BLOCK] * 7 + [92]
    # the generator's rank grows as 1 / length_scale (111 at 0.04, 418 at 0.01)
    assert 50 < generator.shape[1] * length_scale / 0.04 < 150
    chol = _dense_factor(generator, blocks)
    # the bound the docstring of sample_grf_at states
    bound = (n + 2) * np.finfo(np.float64).eps * np.max(np.diagonal(shifted))
    assert np.max(np.abs(chol @ chol.T - shifted)) <= bound
    assert np.array_equal(chol, np.tril(chol))
    z = np.random.default_rng(9).standard_normal((n, 5))
    dense = (np.linalg.cholesky(shifted) @ z).T
    assert np.max(np.abs(sample_grf_at(pts, 5, 9, length_scale) - dense)) < 1e-3


def test_grf_draws_across_coupled_blocks_have_the_kernel_covariance():
    # 640 points: the first block of 512 and one later block of 128, coupled
    # only through the generator
    pts = np.linspace(0, 1, 640)
    count = 4000
    draws = sample_grf_at(pts, count, 4)
    assert _grf_factor(pts, 0.04, 1.0)[0].shape[1] > 0
    cov = squared_exp_covariance(pts, 0.04, 1.0)
    # pairs within a length scale of each other that straddle the block edge,
    # and pairs inside the later block
    rows = np.array([495, 500, 505, 510, 511, 511, 560, 600, 639])
    cols = np.array([520, 515, 512, 512, 512, 530, 570, 620, 630])
    emp = np.mean(draws[:, rows] * draws[:, cols], axis=0)
    # Monte-Carlo standard error of a product moment is sqrt((1 + K^2) / count)
    sigma = np.sqrt((1 + cov[rows, cols] ** 2) / count)
    assert np.all(cov[rows, cols] > 0.3)
    assert np.all(np.abs(emp - cov[rows, cols]) < 4 * sigma)
    assert np.all(np.abs(draws[:, 512:].var(axis=0) - 1.0) < 4 * np.sqrt(2 / count))


def _matrix_indefinite_in_its_last_block(last_eigenvalue):
    # G G^T plus a block-diagonal E with the factor's diagonal blocks of 800
    # points (512, 128, 128, 32): E is 0.1 I on the first three blocks and
    # carries one negative eigenvalue in the last, along a direction q that
    # the last block's generator rows are made orthogonal to, so q^T A q
    # equals that eigenvalue and the dense ladder settles where E does
    n, head, rank = 800, 768, 20
    rng = np.random.default_rng(1)
    generator = rng.standard_normal((n, rank)) / np.sqrt(rank)
    q, _ = np.linalg.qr(rng.standard_normal((n - head, n - head)))
    eigenvalues = np.linspace(1.0, 2.0, n - head)
    eigenvalues[-1] = last_eigenvalue
    generator[head:] -= np.outer(q[:, -1], q[:, -1] @ generator[head:])
    a = generator @ generator.T
    a[:head, :head] += 0.1 * np.eye(head)
    a[head:, head:] += (q * eigenvalues) @ q.T
    return 0.5 * (a + a.T), generator


def test_jitter_escalates_from_a_later_block_to_the_dense_level():
    a, generator = _matrix_indefinite_in_its_last_block(-5e-8)
    n = len(a)
    assert [r1 - r0 for r0, r1 in datagen._block_bounds(n)] == [512, 128, 128, 32]
    np.linalg.cholesky(a[:768, :768] + 1e-10 * np.eye(768))
    level = _dense_jitter_level(a)
    assert level == pytest.approx(1e-7)
    chol, used = _factor_of(a, generator)
    assert used == level
    # every block restarted at that level, the first one included
    assert np.array_equal(chol[:512, :512], np.linalg.cholesky(a[:512, :512] + level * np.eye(512)))
    assert np.max(np.abs(chol @ chol.T - (a + level * np.eye(n)))) <= 1e-12
    # no level up to 1e-6 fixes -1e-3
    with pytest.raises(NumericalError):
        _factor_of(*_matrix_indefinite_in_its_last_block(-1e-3))


def test_grf_sampler_peak_memory_stays_near_the_covariance():
    import tracemalloc

    # the darcy_transfer union of the 40-, 500-, 1000- and 2000-point grids
    pts = np.unique(np.concatenate([np.linspace(0, 1, r) for r in (40, 500, 1000, 2000)]))
    assert pts.size == 3532
    tracemalloc.start()
    try:
        sample_grf_at(pts, 100, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # measured 18.2 MB (the strip factor before it peaked at 41.8 MB), against
    # 99.8 MB for one (n, n) float64 array
    assert peak < 20e6


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
    # an oracle independent of the scheme: halving h divides the error by
    # about 4 (measured 3.998 and 3.999; 3.97e-6 at n = 101)
    errors = [_manufactured_error(n) for n in (101, 201, 401)]
    assert errors[0] < 5e-6
    for coarse, fine in zip(errors, errors[1:]):
        assert 3.9 <= coarse / fine <= 4.1


def test_darcy_solves_a_16001_point_grid():
    n = 16001
    x = np.linspace(0, 1, n)
    f = -20 * np.sin(3 * np.pi * x) * np.exp(x) - 10
    u = solve_darcy_1d(f)
    assert np.all(np.isfinite(u)) and u[0] == u[-1] == 0.0
    w = solve_poisson_1d(f)
    assert np.max(np.abs(_kirchhoff(u) - w)) <= 1e-14 * np.max(np.abs(w))


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


def test_darcy_batch_rows_do_not_depend_on_their_batch():
    n = 2000
    grid = np.linspace(0.0, 1.0, n)
    draws = sample_grf_at(grid, 20, seed=0)
    forcings = np.vstack([draws, np.zeros(n), 5.0 * draws[0]])
    batch = solve_darcy_batch(forcings)
    single = np.stack([solve_darcy_batch(f[None])[0] for f in forcings])
    assert np.array_equal(batch, single)
    assert np.all(batch[20] == 0.0)
    # a smaller batch against the one-sample solver
    small = forcings[[3, 20, 0], ::8]
    assert np.array_equal(solve_darcy_batch(small), np.stack([solve_darcy_1d(f) for f in small]))


def test_darcy_batch_failure_names_the_failing_row():
    # 1e305 sin(pi x) overflows to inf inside the linear solve; the error
    # names the lowest such row, before K^-1 could warn on it
    x = np.linspace(0.0, 1.0, 200)
    forcings = np.zeros((5, 200))
    forcings[[2, 4]] = 1e305 * np.sin(np.pi * x)
    with pytest.raises(NumericalError, match="row 2"):
        solve_darcy_batch(forcings)
    forcings[2] = 0.0
    with pytest.raises(NumericalError, match="row 4"):
        solve_darcy_batch(forcings)


@pytest.mark.parametrize("u1", [[0.3], [0.3, -1.2, 0.0, 2.0, 1e-3]])
def test_darcy_three_points_match_the_closed_form(u1):
    # with one unknown u1 at x = 1/2 and h = 1/2 the scheme reads
    # K(u1) = -f1 / 8, so f1 = -8 K(u1) gives u1 back to rounding
    u1 = np.asarray(u1)
    forcings = np.zeros((u1.size, 3))
    forcings[:, 1] = -8.0 * _kirchhoff(u1)
    u = solve_darcy_batch(forcings)
    assert np.all(u[:, [0, 2]] == 0.0)
    assert np.all(np.abs(u[:, 1] - u1) <= 4 * np.finfo(float).eps * np.abs(u1))


def test_kirchhoff_start_is_exactly_zero_for_zero_forcing():
    assert np.all(solve_darcy_batch(np.zeros((3, 7))) == 0.0)
    assert _kirchhoff_inverse(np.zeros(1))[0] == 0.0


def test_kirchhoff_inverse_inverts_the_kirchhoff_integral():
    w = np.linspace(-10.0, 10.0, 2001)
    u = _kirchhoff_inverse(w)
    assert np.all(np.diff(u) > 0)
    assert np.max(np.abs(_kirchhoff(u) - w) / np.maximum(1.0, np.abs(w))) < 1e-12
    # relative to |w| from 1e-300 to 1e100, and exactly odd
    w = np.logspace(-300, 100, 4001)
    u = _kirchhoff_inverse(w)
    assert np.max(np.abs(_kirchhoff(u) - w) / w) <= 2e-15
    assert np.array_equal(_kirchhoff_inverse(-w), -u)


@pytest.mark.parametrize("n", [500, 2000])
def test_kirchhoff_start_solves_the_linear_scheme(n):
    # K(u) reproduces w, and w solves (w[i+1] - 2 w[i] + w[i-1]) / h^2 = f[i]
    # with w = 0 at both ends
    h = 1.0 / (n - 1)
    f = sample_grf_at(np.linspace(0.0, 1.0, n), 5, seed=1)
    w = solve_poisson_1d(f)
    k = _kirchhoff(solve_darcy_batch(f))
    scale = np.abs(w).max()
    assert np.all(k[:, [0, -1]] == 0.0) and np.all(w[:, [0, -1]] == 0.0)
    assert np.max(np.abs(k - w)) <= 1e-13 * scale
    # a few eps * max|w| per entry, amplified by the stencil's 4 / h^2
    for v in (w, k):
        laplacian = (v[:, 2:] - 2.0 * v[:, 1:-1] + v[:, :-2]) / h ** 2
        assert np.max(np.abs(laplacian - f[:, 1:-1])) <= 32 * np.finfo(float).eps * scale / h ** 2


def test_darcy_row_past_the_kirchhoff_limit_fails_with_numerical_error():
    # w ~ 1e199 (its square overflows) solves; w = inf, overflowed inside the
    # linear solve, is refused by row
    x = np.linspace(0.0, 1.0, 200)
    forcings = np.stack([np.sin(np.pi * x), 1e200 * np.sin(np.pi * x)])
    u = solve_darcy_batch(forcings)
    w = solve_poisson_1d(forcings)
    assert np.all(np.abs(_kirchhoff(u) - w) <= 2e-15 * np.abs(w))
    with pytest.raises(NumericalError, match="row 1: .* past 1e\\+300"):
        solve_darcy_batch(np.stack([forcings[0], 1e305 * np.sin(np.pi * x)]))


def test_make_darcy1d_splits_and_provenance():
    train, test = make_darcy1d(64, 4, 3, seed=5)
    assert train.n_samples == 4 and test.n_samples == 3
    assert train.provenance["split"] == "train"
    assert not np.array_equal(train.inputs[0], test.inputs[0])
    train2, _ = make_darcy1d(64, 4, 3, seed=5)
    assert np.array_equal(train.inputs, train2.inputs)
    assert np.array_equal(train.outputs, train2.outputs)


def test_grf_generators_record_the_jitter_used(monkeypatch):
    train, test = make_darcy1d(40, 2, 1, seed=0)
    data = make_darcy1d_multiresolution([20, 40], 2, 0, solve_n=50)
    multi, _ = make_multi_output_1d(20, 2, 1, 0)
    for ds in (train, test, data[20], data[40], multi):
        assert ds.provenance["grf_jitter"] == 1e-10
        assert ds.provenance["grf_rank"] == 0
    # past 512 union points the factor builds a generator and records its rank
    fine = make_darcy1d_multiresolution([40, 600], 2, 0, solve_n=600)
    union = np.unique(np.concatenate([fine[40].input_points, fine[600].input_points]))
    rank = _grf_factor(union, 0.04, 1.0)[0].shape[1]
    assert fine[40].provenance["grf_rank"] == fine[600].provenance["grf_rank"] == rank > 50
    # a factor that settles on a higher level records that level
    factor = datagen._cholesky_with_jitter
    monkeypatch.setattr(datagen, "_cholesky_with_jitter",
                        lambda block, generator: factor(block, generator, jitter=1e-8))
    train, test = make_darcy1d(40, 2, 1, seed=0)
    data = make_darcy1d_multiresolution([40], 2, 0, solve_n=600)
    for ds in (train, test, data[40]):
        assert ds.provenance["grf_jitter"] == 1e-8
    assert data[40].provenance["grf_rank"] == rank


def test_multiresolution_targets_are_consistent():
    data = make_darcy1d_multiresolution([25, 50], count=3, seed=2, solve_n=400)
    d25, d50 = data[25], data[50]
    # same underlying functions: coarse grids share the endpoints
    assert d25.inputs[0, 0] == d50.inputs[0, 0]
    assert d25.inputs[0, -1] == d50.inputs[0, -1]
    # the interpolated targets stay close to solving each coarse grid's own
    # forcings, and closer on the finer grid; the bounds are about twice the
    # measured 1.40e-2 (25 points) and 1.27e-3 (50 points)
    gaps = {}
    for r, bound in ((25, 3e-2), (50, 3e-3)):
        ds = data[r]
        gaps[r] = np.max(np.abs(ds.outputs - solve_darcy_batch(ds.inputs))) / np.max(np.abs(ds.outputs))
        assert gaps[r] < bound
    assert gaps[50] < gaps[25]
    with pytest.raises(ConfigurationError):
        make_darcy1d_multiresolution([], count=2, seed=0)


@pytest.mark.parametrize("resolutions, solve_n, name, value", [
    ([40, 0], 50, "resolution", "0"),
    ([1], 50, "resolution", "1"),
    ([2], 50, "resolution", "2"),
    ([True], 50, "resolution", "True"),
    ([40.5], 50, "resolution", "40.5"),
    ([np.float64(40)], 50, "resolution", "40.0"),
    ([40], 3, "solve_n", "3"),
    ([40], 50.0, "solve_n", "50.0"),
])
def test_multiresolution_refuses_degenerate_grids_before_drawing(monkeypatch, resolutions,
                                                                  solve_n, name, value):
    def no_draw(*args, **kwargs):
        raise AssertionError("drew a field before checking the grids")

    monkeypatch.setattr(datagen, "sample_grf_at", no_draw)
    with pytest.raises(ConfigurationError, match=rf"^{name} must be an integer .* got .*{value}"):
        make_darcy1d_multiresolution(resolutions, 2, 0, solve_n=solve_n)


def test_multiresolution_records_a_numpy_integer_seed():
    data = make_darcy1d_multiresolution([40], 2, np.int64(3), solve_n=50)
    assert data[40].provenance["seed"] == 3 and type(data[40].provenance["seed"]) is int
    same = make_darcy1d_multiresolution([40], 2, 3, solve_n=50)
    assert np.array_equal(data[40].outputs, same[40].outputs)


@pytest.mark.parametrize("seed", [None, 1.5, "3", -1, [3, None], [2, -1], True, [3, True]])
def test_generators_refuse_an_unrecordable_seed_before_drawing(monkeypatch, seed):
    def no_draw(*args, **kwargs):
        raise AssertionError("drew a field before checking the seed")

    monkeypatch.setattr(datagen, "sample_grf_at", no_draw)
    for make in (lambda: make_darcy1d(20, 2, 2, seed),
                 lambda: make_darcy1d_multiresolution([20], 2, seed, solve_n=30),
                 lambda: make_multi_output_1d(20, 2, 2, seed),
                 lambda: make_poisson2d(4, 2, 2, seed)):
        with pytest.raises(ConfigurationError, match="seed"):
            make()


def test_darcy_generators_record_integer_and_list_seeds_alike():
    for seed, recorded in [(np.int64(3), 3), ([np.int64(3), 5], [3, 5])]:
        train, _ = make_darcy1d(40, 2, 1, seed)
        multi = make_darcy1d_multiresolution([40], 2, seed, solve_n=50)[40]
        for data, make in ((train, lambda s: make_darcy1d(40, 2, 1, s)[0]),
                           (multi, lambda s: make_darcy1d_multiresolution([40], 2, s, solve_n=50)[40])):
            kept = data.provenance["seed"]
            assert kept == recorded and type(kept) is type(recorded)
            assert all(type(s) is int for s in (kept if isinstance(kept, list) else [kept]))
            # the record regenerates the data
            assert np.array_equal(make(data.provenance["seed"]).inputs, data.inputs)


def test_multiresolution_targets_interpolate_each_sample_as_alone():
    data = make_darcy1d_multiresolution([25, 400], count=3, seed=2, solve_n=400)
    points = data[25].output_points
    assert np.array_equal(data[25].outputs, _four_node_cubic(data[400].outputs, points))
    per_sample = np.vstack([_four_node_cubic(u[None, :], points) for u in data[400].outputs])
    assert np.array_equal(data[25].outputs, per_sample)


def test_four_node_cubic_reproduces_cubics_nodes_and_endpoints():
    rng = np.random.default_rng(3)
    n = 60
    nodes = np.linspace(0.0, 1.0, n)
    points = np.concatenate([np.linspace(0.0, 1.0, 47), rng.uniform(0.0, 1.0, 200)])
    cubics = rng.uniform(-1.0, 1.0, (5, 4))
    values = np.stack([np.polyval(c, nodes) for c in cubics])
    exact = np.stack([np.polyval(c, points) for c in cubics])
    assert np.max(np.abs(_four_node_cubic(values, points) - exact)) < 1e-13
    # at the nodes, the endpoints among them, the node values come back bit for bit
    rough = rng.standard_normal((4, n))
    assert np.array_equal(_four_node_cubic(rough, nodes), rough)
    ends = _four_node_cubic(rough, np.array([0.0, 1.0]))
    assert np.array_equal(ends, rough[:, [0, -1]])


def test_four_node_cubic_error_is_fourth_order():
    def u(x):
        return np.sin(3.0 * x) + x * x * np.exp(x)

    points = np.linspace(0.0, 1.0, 37)
    errors = [np.max(np.abs(_four_node_cubic(u(np.linspace(0.0, 1.0, n))[None, :], points)[0]
                            - u(points)))
              for n in (101, 201)]
    # halving h divides an O(h^4) error by about 16 (measured 16.1)
    assert 14.0 < errors[0] / errors[1] < 18.0


def test_four_node_cubic_agrees_with_a_cubic_spline():
    import scipy.interpolate

    data = make_darcy1d_multiresolution([25, 400], count=3, seed=2, solve_n=400)
    solution = data[400].outputs
    spline = scipy.interpolate.CubicSpline(data[400].output_points, solution, axis=1)
    gap = np.max(np.abs(data[25].outputs - spline(data[25].output_points)))
    # measured 4.1e-8 of max|u|; both are within O(h^4) of the same u
    assert gap < 1e-7 * np.max(np.abs(solution))


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


def test_make_poisson2d_splits_equal_the_per_sample_functions():
    seed, modes = 7, 4
    splits = make_poisson2d(7, 5, 3, seed=seed, modes=modes)
    for ds, child in zip(splits, np.random.SeedSequence(seed).spawn(2)):
        alphas = np.random.default_rng(child).uniform(-1.0, 1.0, (ds.n_samples, modes, modes))
        pts = ds.input_points
        assert np.array_equal(ds.inputs, np.stack([poisson_2d_forcing(a, pts) for a in alphas]))
        assert np.array_equal(ds.outputs,
                              np.stack([solve_poisson_2d_square(a, pts) for a in alphas]))


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


def _loaded_by_import_fbc2c(module, then=""):
    """Whether ``import fbc2c`` in a fresh interpreter puts ``module`` in sys.modules.

    ``then`` is a statement run after the import, before the check.
    """
    src = str(pathlib.Path(fbc2c.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    code = f"import sys, fbc2c; {then or 'pass'}; print({module!r} in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    return out.stdout.strip() == "True"


def test_import_leaves_scipy_interpolate_unloaded():
    # nothing in fbc2c uses it
    assert not _loaded_by_import_fbc2c("scipy.interpolate")


def test_resolution_transfer_data_leaves_scipy_interpolate_unloaded():
    # its targets are interpolated by datagen's own cubic
    assert not _loaded_by_import_fbc2c(
        "scipy.interpolate",
        then="fbc2c.datagen.make_darcy1d_multiresolution([40], 2, 0, solve_n=50)")


def test_import_leaves_scipy_linalg_unloaded():
    # its users in datagen and experiment import it themselves
    assert not _loaded_by_import_fbc2c("scipy.linalg")


def test_poisson2d_run_leaves_scipy_linalg_unloaded():
    # the encoder factors with numpy's SVD; scipy.linalg would add its own
    # import to every standalone Poisson run
    config = ("fbc2c.config.config_from_dict({"
              "'dataset': {'kind': 'poisson2d', 'n': 9, 'm_train': 4, 'm_test': 2}, "
              "'input_basis': {'kind': 'rfm', 'partitions': [2, 2], 'features_per_partition': 4}, "
              "'output_basis': {'kind': 'rfm', 'partitions': [2, 2], 'features_per_partition': 3}, "
              "'net': {'hidden': 4}, 'train': {'epochs': 2}})")
    assert not _loaded_by_import_fbc2c("scipy.linalg", then=f"fbc2c.run({config})")
