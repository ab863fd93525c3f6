import numpy as np
import pytest

from fbc2c.basis import (ActivationKind, FemBasis1D, Partition, RfmBasis,
                         VectorBasis, WindowKind, build_rfm, build_vector_rfm,
                         eval_window, uniform_fem_basis, window_values)
from fbc2c.errors import ConfigurationError, DomainError


def test_build_rfm_total_count():
    basis = build_rfm(1, [4], 2, 3.0, WindowKind.SMOOTH, ActivationKind.TANH, seed=7)
    assert basis.size == 8
    assert basis.features_per_partition == (2, 2, 2, 2)
    assert len(basis.partitions) == 4


@pytest.mark.parametrize("kwargs", [
    dict(dim=1, partitions_per_dim=[1], features_per_partition=1, range_bound=0.0),
    dict(dim=1, partitions_per_dim=[1], features_per_partition=1, range_bound=-2.0),
    dict(dim=1, partitions_per_dim=[0], features_per_partition=1, range_bound=3.0),
    dict(dim=1, partitions_per_dim=[1], features_per_partition=0, range_bound=3.0),
    dict(dim=2, partitions_per_dim=[2], features_per_partition=1, range_bound=3.0),
    dict(dim=0, partitions_per_dim=[], features_per_partition=1, range_bound=3.0),
    dict(dim=2, partitions_per_dim=[2, 2], features_per_partition=1, range_bound=3.0,
         bounds=[[0.0, 1.0]]),
    dict(dim=1, partitions_per_dim=[2], features_per_partition=1, range_bound=3.0,
         bounds=[0.0, 1.0, 2.0]),
])
def test_build_rfm_rejects_bad_config(kwargs):
    with pytest.raises(ConfigurationError):
        build_rfm(**kwargs)


def test_build_rfm_deterministic_per_seed():
    a = build_rfm(2, [2, 3], 4, 1.5, seed=99)
    b = build_rfm(2, [2, 3], 4, 1.5, seed=99)
    for wa, wb in zip(a.weights, b.weights):
        assert np.array_equal(wa, wb)
    for ba, bb in zip(a.biases, b.biases):
        assert np.array_equal(ba, bb)
    pts = np.random.default_rng(0).uniform(-1, 1, size=(40, 2))
    assert np.array_equal(a.design_matrix(pts), b.design_matrix(pts))
    c = build_rfm(2, [2, 3], 4, 1.5, seed=100)
    assert not np.array_equal(a.weights[0], c.weights[0])


def test_build_rfm_draws_within_range():
    basis = build_rfm(2, [3, 3], 50, 0.7, seed=5)
    for w, b in zip(basis.weights, basis.biases):
        assert np.all(np.abs(w) <= 0.7)
        assert np.all(np.abs(b) <= 0.7)


def test_feature_prefix_nesting():
    # growing features_per_partition must keep earlier features unchanged
    small = build_rfm(1, [3], 4, 3.0, seed=11)
    large = build_rfm(1, [3], 10, 3.0, seed=11)
    for ws, wl in zip(small.weights, large.weights):
        assert np.array_equal(ws, wl[:4])
    for bs, bl in zip(small.biases, large.biases):
        assert np.array_equal(bs, bl[:4])


def test_smooth_window_plateau_and_ramp():
    part = Partition(center=[0.25], radius=[0.25], window_kind=WindowKind.SMOOTH)
    assert eval_window(part, [0.25]) == 1.0
    # x = 0.5 rescales to 1, on the down ramp: (1 - sin(2 pi)) / 2 = 0.5
    assert eval_window(part, [0.5]) == pytest.approx(0.5, abs=1e-15)
    # hand-evaluated ramp value at t = 0.8: sin(1.6 pi) = -0.9510565162951535
    assert eval_window(part, [0.25 + 0.25 * 0.8]) == pytest.approx(
        (1.0 + 0.9510565162951535) / 2.0, abs=1e-12)
    # x = 0 rescales to -1, on the up ramp: (1 + sin(-2 pi)) / 2 = 0.5
    assert eval_window(part, [0.0]) == pytest.approx(0.5, abs=1e-15)
    # outside the support; t = -5/4 is the left-closed edge of the up ramp,
    # where (1 + sin(-5 pi / 2)) / 2 = 0
    assert eval_window(part, [0.25 + 0.25 * 1.3]) == 0.0
    assert eval_window(part, [0.25 - 0.25 * 1.25]) == pytest.approx(0.0, abs=1e-15)


def test_characteristic_window_half_open():
    part = Partition(center=[0.0], radius=[1.0], window_kind=WindowKind.CHARACTERISTIC)
    assert eval_window(part, [1.0]) == 0.0
    assert eval_window(part, [-1.0]) == 1.0
    assert eval_window(part, [0.999]) == 1.0


def test_partition_rejects_nonpositive_radius():
    with pytest.raises(ConfigurationError):
        Partition(center=[0.0], radius=[0.0], window_kind=WindowKind.SMOOTH)


def test_partition_rejects_inverted_cell_edges():
    with pytest.raises(ConfigurationError):
        Partition(center=[0.5], radius=[0.5], window_kind=WindowKind.CHARACTERISTIC,
                  lo=[1.0], hi=[0.0])


def test_window_product_over_dimensions():
    part = Partition(center=[0.0, 0.0], radius=[1.0, 1.0], window_kind=WindowKind.SMOOTH)
    # t = (0.8, 0.0): product of down-ramp value and 1
    expected = (1.0 - np.sin(2 * np.pi * 0.8)) / 2.0
    assert eval_window(part, [0.8, 0.0]) == pytest.approx(expected, abs=1e-14)


@pytest.mark.parametrize("kind", [WindowKind.SMOOTH, WindowKind.CHARACTERISTIC])
def test_partition_of_unity_1d(kind):
    basis = build_rfm(1, [5], 1, 3.0, kind, seed=0, bounds=[[0.0, 1.0]])
    pts = np.linspace(0.0, 1.0, 1001)        # clamped edges cover the closed domain
    total = sum(window_values(p, pts[:, None]) for p in basis.partitions)
    assert np.max(np.abs(total - 1.0)) < 1e-12
    if kind == WindowKind.CHARACTERISTIC:
        assert np.all(total == 1.0)


def test_partition_of_unity_2d_characteristic():
    basis = build_rfm(2, [3, 7], 1, 1.0, WindowKind.CHARACTERISTIC, seed=0,
                      bounds=[[0.0, 1.0], [-1.0, 2.0]])
    # a grid that hits every cell edge, the domain's right edges included
    xs, ys = np.meshgrid(np.linspace(0.0, 1.0, 301),
                         np.linspace(-1.0, 2.0, 701))
    pts = np.column_stack([xs.ravel(), ys.ravel()])
    total = sum(window_values(p, pts) for p in basis.partitions)
    assert np.all(total == 1.0)


def test_tiled_characteristic_cells_share_edges():
    basis = build_rfm(1, [5], 1, 3.0, WindowKind.CHARACTERISTIC, seed=0,
                      bounds=[[0.0, 1.0]])
    parts = basis.partitions
    assert parts[0].lo[0] == 0.0 and parts[-1].hi[0] == 1.0
    for left, right in zip(parts[:-1], parts[1:]):
        assert left.hi[0] == right.lo[0]
    # x = 0.2 is the shared edge of cells 0 and 1: it belongs to cell 1 only
    assert [eval_window(p, [0.2]) for p in parts] == [0.0, 1.0, 0.0, 0.0, 0.0]


def test_partition_of_unity_2d_smooth():
    basis = build_rfm(2, [3, 2], 1, 1.0, WindowKind.SMOOTH, seed=0,
                      bounds=[[0.0, 1.0], [-1.0, 2.0]])
    rng = np.random.default_rng(4)
    pts = rng.uniform([0.0, -1.0], [1.0, 2.0], size=(300, 2))
    total = sum(window_values(p, pts) for p in basis.partitions)
    assert np.max(np.abs(total - 1.0)) < 1e-12


def test_rfm_values_bounded():
    for act in (ActivationKind.TANH, ActivationKind.SIN):
        basis = build_rfm(1, [4], 8, 3.0, WindowKind.SMOOTH, act, seed=3,
                          bounds=[[0.0, 1.0]])
        phi = basis.design_matrix(np.linspace(0, 1, 400))
        assert np.all(np.abs(phi) <= 1.0 + 1e-15)


def test_forced_zero_weights_give_zero_columns():
    # single characteristic partition covering the domain, tanh(0) = 0
    part = Partition(center=[0.0], radius=[1.0], window_kind=WindowKind.CHARACTERISTIC)
    basis = RfmBasis(dim=1, partitions=(part,), weights=(np.zeros((3, 1)),),
                     biases=(np.zeros(3),), range_bound=1.0,
                     activation=ActivationKind.TANH,
                     window_kind=WindowKind.CHARACTERISTIC, seed=0,
                     bounds=np.array([[-1.0, 1.0]]))
    phi = basis.design_matrix(np.linspace(-1, 0.99, 50))
    assert np.all(phi == 0.0)


# ---------------------------------------------------------------------------
# FEM


def test_fem_kronecker_property():
    basis = FemBasis1D(np.array([0.0, 0.5, 1.0]))
    assert np.array_equal(basis.design_matrix(basis.nodes), np.eye(3))


def test_fem_hat_midpoint_value():
    basis = FemBasis1D(np.array([0.0, 0.5, 1.0]))
    phi = basis.design_matrix(np.array([0.25]))
    assert phi[0, 1] == pytest.approx(0.5, abs=1e-15)
    assert phi[0, 0] == pytest.approx(0.5, abs=1e-15)
    assert phi[0, 2] == 0.0


def test_fem_reproduces_piecewise_linear():
    rng = np.random.default_rng(8)
    nodes = np.sort(rng.uniform(0, 1, 17))
    basis = FemBasis1D(nodes)
    g = rng.standard_normal(nodes.size)
    pts = rng.uniform(nodes[0], nodes[-1], 200)
    reconstructed = basis.design_matrix(pts) @ g
    assert np.max(np.abs(reconstructed - np.interp(pts, nodes, g))) < 1e-12


def test_fem_sums_to_one():
    basis = uniform_fem_basis(9)
    pts = np.linspace(0, 1, 123)
    assert np.max(np.abs(basis.design_matrix(pts).sum(axis=1) - 1.0)) < 1e-12


def test_fem_rejects_outside_domain():
    basis = uniform_fem_basis(5)
    with pytest.raises(DomainError):
        basis.design_matrix(np.array([1.2]))
    with pytest.raises(DomainError):
        basis.design_matrix(np.array([-0.01, 0.5]))


def test_fem_rejects_bad_nodes():
    with pytest.raises(ConfigurationError):
        FemBasis1D(np.array([0.0, 0.0, 1.0]))
    with pytest.raises(ConfigurationError):
        FemBasis1D(np.array([0.3]))


# ---------------------------------------------------------------------------
# vector-valued


def test_vector_basis_stacks_component_blocks():
    vb = build_vector_rfm(2, 1, [2], 3, 2.0, seed=13, bounds=[[0.0, 1.0]])
    pts = np.linspace(0, 1, 20)
    stacked = vb.design_matrix(pts)
    assert stacked.shape == (40, 6)
    top = vb.components[0].design_matrix(pts)
    bottom = vb.components[1].design_matrix(pts)
    assert np.array_equal(stacked[:20], top)
    assert np.array_equal(stacked[20:], bottom)


def test_vector_components_use_independent_draws():
    vb = build_vector_rfm(2, 1, [2], 3, 2.0, seed=13)
    assert not np.array_equal(vb.components[0].weights[0], vb.components[1].weights[0])


def test_vector_basis_rejects_mismatched_sizes():
    a = build_rfm(1, [2], 3, 1.0, seed=1)
    b = build_rfm(1, [2], 4, 1.0, seed=2)
    with pytest.raises(ConfigurationError):
        VectorBasis((a, b))


def test_vector_basis_deterministic():
    a = build_vector_rfm(3, 1, [2], 2, 1.0, seed=5)
    b = build_vector_rfm(3, 1, [2], 2, 1.0, seed=5)
    pts = np.linspace(-1, 1, 11)
    assert np.array_equal(a.design_matrix(pts), b.design_matrix(pts))
