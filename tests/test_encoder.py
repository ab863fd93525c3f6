import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fbc2c import encoder
from fbc2c.basis import BasisSpec, RfmBasis, VectorBasis
from fbc2c.encoder import (EncodeSpec, LeastSquaresEncoder, diagnostics,
                           effective_rank_of_singular_values, encode,
                           projection_error)
from fbc2c.errors import ConfigurationError, DataError


def test_least_squares_hand_case():
    # the mean of the samples, as the pseudo-inverse gives it
    phi = np.array([[1.0], [1.0]])
    enc = LeastSquaresEncoder(phi, EncodeSpec(cut=0.0))
    assert enc.encode_values(np.array([1.0, 3.0])) == pytest.approx([2.0])
    assert np.linalg.pinv(phi) @ np.array([1.0, 3.0]) == pytest.approx([2.0])


def test_identity_design_returns_values():
    enc = LeastSquaresEncoder(np.eye(3), EncodeSpec(cut=0.0))
    f = np.array([0.3, -1.2, 4.0])
    assert enc.encode_values(f) == pytest.approx(f)


def test_tsvd_discards_small_singular_values():
    enc = LeastSquaresEncoder(np.diag([1.0, 1e-8]), EncodeSpec(cut=1e-3))
    assert enc.encode_values(np.array([1.0, 1.0])) == pytest.approx([1.0, 0.0])


@pytest.mark.parametrize("phi", [
    np.column_stack([np.ones(6), np.ones(6)]),
    np.random.default_rng(4).standard_normal((3, 5)),
    np.diag([1.0, 1e-9, 0.0]),
], ids=["repeated_column", "underdetermined_3x5", "zero_singular_value"])
def test_cut_bounds_the_condition_of_a_near_singular_design(phi):
    # every singular value below cut * sigma_1, and every zero one, is
    # dropped, so what is kept has a condition of at most 1 / cut
    cut = 1e-6
    enc = LeastSquaresEncoder(phi, EncodeSpec(cut=cut))
    s = np.linalg.svd(phi, compute_uv=False)
    assert enc.kept_rank == np.count_nonzero(s >= cut * s[0])
    assert enc.condition <= 1.0 / cut
    f = np.random.default_rng(5).standard_normal((2, phi.shape[0]))
    oracle = f @ np.linalg.pinv(phi, rcond=cut).T
    assert np.max(np.abs(enc.encode_values(f) - oracle)) < 1e-12 * np.max(np.abs(oracle))


@pytest.mark.parametrize("config, rank, sigma_min, cond", [
    (EncodeSpec(cut=0.3), 2, 2.0, 2.0),
    (EncodeSpec(cut=0.0), 4, 0.5, 8.0),
    (EncodeSpec(cut=2.0), 0, 0.0, np.inf),
], ids=["cut", "zero_cut", "nothing_kept"])
def test_encoder_reports_kept_spectrum(config, rank, sigma_min, cond):
    # singular values 4, 2, 1, 0.5; a relative cut of 0.3 keeps those >= 1.2
    phi = np.zeros((6, 4))
    phi[:4] = np.diag([2.0, 0.5, 4.0, 1.0])
    enc = LeastSquaresEncoder(phi, config)
    assert enc.kept_rank == rank
    assert enc.sigma_max == 4.0
    assert enc.sigma_min_kept == sigma_min
    assert enc.condition == cond


def test_encoder_given_an_svd_encodes_as_a_fresh_one(svd_calls):
    rng = np.random.default_rng(7)
    phi = rng.standard_normal((12, 5))
    f = rng.standard_normal((3, 12))
    first = LeastSquaresEncoder(phi, EncodeSpec(cut=1e-3))
    configs = (EncodeSpec(cut=1e-3), EncodeSpec(cut=0.5), EncodeSpec(cut=0.0))
    for config in configs:
        reused = LeastSquaresEncoder(phi, config, svd=first.svd)
        fresh = LeastSquaresEncoder(phi, config)
        assert all(a is b for a, b in zip(reused.svd, first.svd))
        assert np.array_equal(reused.encode_values(f), fresh.encode_values(f))
        assert (reused.kept_rank, reused.condition) == (fresh.kept_rank, fresh.condition)
        oracle = f @ np.linalg.pinv(phi, rcond=config.cut).T
        assert np.max(np.abs(reused.encode_values(f) - oracle)) < 1e-12
    assert len(svd_calls) == 1 + len(configs)    # only the fresh encoders factor


def test_encoder_refuses_an_svd_of_another_shape():
    phi = np.random.default_rng(8).standard_normal((10, 4))
    svd = LeastSquaresEncoder(phi, EncodeSpec(cut=0.1)).svd
    with pytest.raises(ConfigurationError, match="svd factors"):
        LeastSquaresEncoder(phi[:, :3], EncodeSpec(cut=0.1), svd=svd)
    with pytest.raises(ConfigurationError, match="svd factors"):
        LeastSquaresEncoder(phi[:9], EncodeSpec(cut=0.1), svd=svd)


def test_dimension_mismatch_rejected():
    enc = LeastSquaresEncoder(np.eye(3), EncodeSpec(cut=0.0))
    with pytest.raises(ConfigurationError):
        enc.encode_values(np.ones(4))
    with pytest.raises(ConfigurationError, match="^cut: "):
        EncodeSpec(cut=-0.5)
    with pytest.raises(ConfigurationError, match="^method: unknown method 'ridge'"):
        EncodeSpec(method="ridge")


def test_batch_encode_matches_per_sample():
    rng = np.random.default_rng(3)
    phi = rng.standard_normal((30, 5))
    values = rng.standard_normal((8, 30))
    enc = LeastSquaresEncoder(phi, EncodeSpec(cut=1e-10))
    batch = enc.encode_values(values)
    singles = np.stack([enc.encode_values(v) for v in values])
    assert np.array_equal(batch, singles)


def test_tsvd_zero_cut_matches_lstsq_on_full_rank():
    rng = np.random.default_rng(5)
    phi = rng.standard_normal((40, 7))
    values = rng.standard_normal((3, 40))
    a_lstsq = np.linalg.lstsq(phi, values.T, rcond=None)[0].T
    a_svd = LeastSquaresEncoder(phi, EncodeSpec(cut=0.0)).encode_values(values)
    assert np.max(np.abs(a_lstsq - a_svd)) < 1e-12


def test_encode_through_basis():
    basis = BasisSpec("fem", n_nodes=5).build()
    pts = basis.nodes
    values = np.array([[0.0, 1.0, 2.0, 1.0, 0.0]])
    coeffs = encode(basis, pts, values, EncodeSpec(cut=0.0))
    assert coeffs == pytest.approx(values)  # interpolatory basis


# ---------------------------------------------------------------------------
# vector-valued encoding


def _zero_basis_like(basis):
    return RfmBasis(partitions_per_dim=basis.partitions_per_dim,
                    weights=tuple(np.zeros_like(w) for w in basis.weights),
                    biases=tuple(np.zeros_like(b) for b in basis.biases),
                    range_bound=basis.range_bound, activation="tanh",
                    window_kind=basis.window_kind, seed=0, bounds=basis.bounds)


def test_encode_vector_single_component_reduces_to_encode():
    basis = BasisSpec("rfm", [2], 4, 2.0, seed=9, bounds=[[0.0, 1.0]]).build()
    vb = VectorBasis((basis,))
    pts = np.linspace(0, 1, 30)
    rng = np.random.default_rng(0)
    values = rng.standard_normal((5, 30))
    scalar = encode(basis, pts, values, EncodeSpec(cut=1e-6))
    vector = encode(vb, pts, values[:, None, :], EncodeSpec(cut=1e-6))
    assert vector == pytest.approx(scalar, rel=1e-12, abs=1e-12)


def test_encode_vector_zero_component_padding():
    basis = BasisSpec("rfm", [2], 4, 2.0, seed=9, bounds=[[0.0, 1.0]]).build()
    vb = VectorBasis((basis, _zero_basis_like(basis)))
    pts = np.linspace(0, 1, 30)
    rng = np.random.default_rng(1)
    comp1 = rng.standard_normal((5, 30))
    stacked = np.stack([comp1, np.zeros_like(comp1)], axis=1)
    vector = encode(vb, pts, stacked, EncodeSpec(cut=1e-6))
    scalar = encode(basis, pts, comp1, EncodeSpec(cut=1e-6))
    assert vector == pytest.approx(scalar, rel=1e-10, abs=1e-12)


def test_encode_vector_matches_dense_stacked_oracle():
    vb = BasisSpec("rfm", [2], 5, 2.5, seed=17, bounds=[[0.0, 1.0]]).build(2)
    pts = np.linspace(0, 1, 40)
    rng = np.random.default_rng(2)
    values = rng.standard_normal((4, 2, 40))
    cut = 1e-4
    got = encode(vb, pts, values, EncodeSpec(cut=cut))
    design = vb.design_matrix(pts)
    pinv = np.linalg.pinv(design, rcond=cut)
    expected = np.stack([pinv @ v.reshape(-1) for v in values])
    assert np.max(np.abs(got - expected)) < 1e-10
    # the projection floor stacks the components the same way
    flat = values.reshape(4, -1)
    resid = np.linalg.norm(expected @ design.T - flat, axis=1) / np.linalg.norm(flat, axis=1)
    pe = projection_error(vb, pts, values, EncodeSpec(cut=cut))
    assert pe.per_sample == pytest.approx(resid, rel=1e-8)


def test_encode_vector_shape_validation():
    vb = BasisSpec("rfm", [2], 5, 2.5, seed=17).build(2)
    pts = np.linspace(-1, 1, 10)
    for check in (encode, projection_error):
        with pytest.raises(ConfigurationError, match=r"expected values of shape \(M, 2, n\)"):
            check(vb, pts, np.zeros((3, 3, 10)), EncodeSpec(cut=0.1))
        with pytest.raises(ConfigurationError, match="7 points per component"):
            check(vb, pts, np.zeros((3, 2, 7)), EncodeSpec(cut=0.1))


# ---------------------------------------------------------------------------
# diagnostics


def _matrix_with_singular_values(s, rng):
    n = len(s)
    q1, _ = np.linalg.qr(rng.standard_normal((n + 3, n)))
    q2, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return q1 @ np.diag(s) @ q2


def test_effective_rank_hand_cases():
    assert effective_rank_of_singular_values(np.ones(4)) == pytest.approx(4.0, abs=1e-12)
    assert effective_rank_of_singular_values(np.array([5.0, 0, 0])) == pytest.approx(1.0, abs=1e-12)
    assert effective_rank_of_singular_values(np.array([2.0, 1.0, 1.0])) == pytest.approx(
        2.0 ** 1.5, abs=1e-12)


def test_diagnostics_from_constructed_spectrum():
    rng = np.random.default_rng(21)
    a = _matrix_with_singular_values([2.0, 1.0, 1.0], rng)
    d = diagnostics(a)
    assert d.effective_rank == pytest.approx(2.0 ** 1.5, abs=1e-9)
    assert np.all(np.diff(d.singular_values) <= 1e-12)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.floats(0.1, 100.0))
def test_effective_rank_scale_invariant(seed, scale):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((6, 4))
    assert diagnostics(a).effective_rank == pytest.approx(
        diagnostics(scale * a).effective_rank, rel=1e-9)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_effective_rank_bounds(seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((7, 5))
    d = diagnostics(a)
    positive = int(np.sum(d.singular_values > 1e-12 * d.singular_values[0]))
    assert 1.0 - 1e-9 <= d.effective_rank <= positive + 1e-9


def test_diagnostics_degenerate_zero_matrix():
    d = diagnostics(np.zeros((4, 3)))
    assert d.degenerate
    assert d.effective_rank == 1.0


def test_variance_entropy_balance():
    rng = np.random.default_rng(3)
    balanced = rng.standard_normal((200, 6))
    lopsided = balanced.copy()
    lopsided[:, 0] *= 40.0
    assert diagnostics(balanced).variance_entropy > diagnostics(lopsided).variance_entropy


# ---------------------------------------------------------------------------
# projection error


def test_projection_error_in_span_target():
    basis = BasisSpec("rfm", [3], 6, 2.0, seed=31, bounds=[[0.0, 1.0]]).build()
    pts = np.linspace(0, 1, 120)
    phi = basis.design_matrix(pts)
    rng = np.random.default_rng(6)
    targets = (phi @ rng.standard_normal((basis.size, 3))).T
    pe = projection_error(basis, pts, targets, EncodeSpec(cut=0.0))
    assert pe.mean < 1e-10


def test_projection_error_fem_interpolates_linear():
    basis = BasisSpec("fem", n_nodes=3).build()
    pts = basis.nodes
    pe = projection_error(basis, pts, pts[None, :], EncodeSpec(cut=0.0))  # u(x) = x at nodes
    assert pe.mean < 1e-12


def test_projection_error_matches_dense_oracle():
    basis = BasisSpec("fem", n_nodes=3).build()
    pts = np.linspace(0, 1, 100)
    target = np.sin(np.pi * pts)[None, :]
    pe = projection_error(basis, pts, target, EncodeSpec(cut=0.0))
    phi = basis.design_matrix(pts)
    coef, *_ = np.linalg.lstsq(phi, target[0], rcond=None)
    expected = np.linalg.norm(phi @ coef - target[0]) / np.linalg.norm(target[0])
    assert pe.mean == pytest.approx(expected, abs=1e-10)


def test_projection_error_excludes_zero_norm_samples():
    basis = BasisSpec("fem", n_nodes=4).build()
    pts = np.linspace(0, 1, 50)
    targets = np.vstack([np.sin(pts), np.zeros(50)])
    pe = projection_error(basis, pts, targets, EncodeSpec(cut=1e-8))
    assert pe.zero_norm_count == 1
    assert np.isnan(pe.per_sample[1])
    assert np.isfinite(pe.mean)
    with pytest.raises(DataError):
        projection_error(basis, pts, np.zeros((2, 50)), EncodeSpec(cut=1e-8))
