import numpy as np
import pytest

from fbc2c.basis import (ActivationKind, FemBasis1D, RfmBasis, VectorBasis,
                         WindowKind, build_rfm, build_vector_rfm, uniform_fem_basis)
from fbc2c.errors import ConfigurationError, DomainError


def test_build_rfm_total_count():
    basis = build_rfm(1, [4], 2, 3.0, WindowKind.SMOOTH, ActivationKind.TANH, seed=7)
    assert basis.size == 8
    assert basis.features_per_partition == (2, 2, 2, 2)
    assert basis.partitions_per_dim == (4,)
    assert basis.windows(np.linspace(-1, 1, 7)).shape == (7, 4)


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


def test_rfm_identity_is_pinned():
    # coefficient files and run directories name their bases by this hash
    assert build_rfm(2, [2, 3], 4, 1.5, seed=99).identity() == "bfc8d6246f8eec1c"


def test_rfm_refuses_a_flat_array_of_the_wrong_dimension():
    basis = build_rfm(2, [2, 2], 1, 1.0, seed=0)
    with pytest.raises(ConfigurationError, match=r"points have shape \(80,\), expected \(n, 2\)"):
        basis.design_matrix(np.linspace(-1, 1, 80))


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


def _window(kind, partitions, bounds, column, x):
    """Window ``column`` of a tiling at the points ``x``."""
    basis = build_rfm(len(partitions), partitions, 1, 1.0, kind, seed=0, bounds=bounds)
    return basis.windows(x)[:, column]


def test_smooth_window_plateau_and_ramp():
    # the middle of three cells on [-0.5, 1]: center 0.25, radius 0.25
    def window(x):
        return _window(WindowKind.SMOOTH, [3], [[-0.5, 1.0]], 1, [[x]])[0]

    assert window(0.25) == 1.0
    # x = 0.5 rescales to 1, on the down ramp: (1 - sin(2 pi)) / 2 = 0.5
    assert window(0.5) == pytest.approx(0.5, abs=1e-15)
    # hand-evaluated ramp value at t = 0.8: sin(1.6 pi) = -0.9510565162951535
    assert window(0.25 + 0.25 * 0.8) == pytest.approx((1.0 + 0.9510565162951535) / 2.0,
                                                      abs=1e-12)
    # x = 0 rescales to -1, on the up ramp: (1 + sin(-2 pi)) / 2 = 0.5
    assert window(0.0) == pytest.approx(0.5, abs=1e-15)
    # outside the support; t = -5/4 is the left-closed edge of the up ramp,
    # where (1 + sin(-5 pi / 2)) / 2 = 0
    assert window(0.25 + 0.25 * 1.3) == 0.0
    assert window(0.25 - 0.25 * 1.25) == pytest.approx(0.0, abs=1e-15)


def test_characteristic_window_half_open():
    # the middle of three cells on [-3, 3] is [-1, 1)
    window = _window(WindowKind.CHARACTERISTIC, [3], [[-3.0, 3.0]], 1,
                     [[1.0], [-1.0], [0.999], [-1.001]])
    assert window.tolist() == [0.0, 1.0, 1.0, 0.0]


def test_window_product_over_dimensions():
    # the middle cell of a 3 x 3 tiling of [-3, 3]^2: center (0, 0), radius (1, 1)
    window = _window(WindowKind.SMOOTH, [3, 3], [[-3.0, 3.0]] * 2, 4,
                     [[0.8, 0.0], [0.8, -0.8], [0.8, 1.3]])
    down = (1.0 - np.sin(2 * np.pi * 0.8)) / 2.0
    up = (1.0 + np.sin(2 * np.pi * -0.8)) / 2.0
    # t = (0.8, 0.0): down-ramp value times 1; then times the up ramp, then times 0
    assert window == pytest.approx([down, down * up, 0.0], abs=1e-14)


def _reference_windows(basis, pts):
    """Each partition's window as the product over dims of its clamped 1-D profile."""
    counts = basis.partitions_per_dim
    cols = []
    for idx in np.ndindex(*counts):
        out = np.ones(pts.shape[0])
        for k, i in enumerate(idx):
            lo, hi = basis.bounds[k]
            spacing = (hi - lo) / counts[k]
            center = lo + spacing * (i + 0.5)
            edges = np.linspace(lo, hi, counts[k] + 1)
            clamp_lo, clamp_hi = i == 0, i == counts[k] - 1
            x = pts[:, k]
            if basis.window_kind == WindowKind.SMOOTH:
                t = (x - center) / (spacing / 2.0)
                w = np.select([(t >= -1.25) & (t < -0.75), (t >= -0.75) & (t < 0.75),
                               (t >= 0.75) & (t < 1.25)],
                              [(1.0 + np.sin(2.0 * np.pi * t)) / 2.0, np.ones_like(t),
                               (1.0 - np.sin(2.0 * np.pi * t)) / 2.0], default=0.0)
                w = np.where(clamp_lo & (t < -0.75), 1.0, w)
                w = np.where(clamp_hi & (t >= 0.75), 1.0, w)
            else:
                w = np.where((clamp_lo | (x >= edges[i])) & (clamp_hi | (x < edges[i + 1])),
                             1.0, 0.0)
            out *= w
        cols.append(out)
    return np.column_stack(cols)


@pytest.mark.parametrize("kind", [WindowKind.SMOOTH, WindowKind.CHARACTERISTIC])
@pytest.mark.parametrize("partitions", [[5], [1], [3, 7], [4, 4]])
def test_windows_match_the_per_partition_product_bitwise(kind, partitions):
    bounds = [[0.0, 1.0], [-1.0, 2.0]][:len(partitions)]
    basis = build_rfm(len(partitions), partitions, 1, 1.0, kind, seed=0, bounds=bounds)
    # every shared cell edge and smooth breakpoint on each axis, plus points
    # between them and outside the box
    axes = []
    for count, (lo, hi) in zip(partitions, bounds):
        spacing = (hi - lo) / count
        centers = lo + spacing * (np.arange(count) + 0.5)
        breaks = (centers[:, None] + spacing / 2.0 * np.array([-1.25, -0.75, 0.75, 1.25])).ravel()
        axes.append(np.concatenate([np.linspace(lo, hi, count + 1), breaks,
                                    np.linspace(lo - 0.1, hi + 0.1, 41)]))
    grid = np.meshgrid(*axes, indexing="ij")
    pts = np.column_stack([g.ravel() for g in grid])
    assert np.array_equal(basis.windows(pts), _reference_windows(basis, pts))


@pytest.mark.parametrize("kind", [WindowKind.SMOOTH, WindowKind.CHARACTERISTIC])
def test_partition_of_unity_1d(kind):
    basis = build_rfm(1, [5], 1, 3.0, kind, seed=0, bounds=[[0.0, 1.0]])
    pts = np.linspace(0.0, 1.0, 1001)        # clamped edges cover the closed domain
    total = basis.windows(pts).sum(axis=1)
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
    assert np.all(basis.windows(pts).sum(axis=1) == 1.0)


def test_tiled_characteristic_cells_share_edges():
    basis = build_rfm(1, [5], 1, 3.0, WindowKind.CHARACTERISTIC, seed=0,
                      bounds=[[0.0, 1.0]])
    # x = 0.2 is the shared edge of cells 0 and 1: it belongs to cell 1 only;
    # the closed box's ends belong to the first and last cells
    assert basis.windows([0.2, 0.0, 1.0]).tolist() == [
        [0.0, 1.0, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0, 1.0]]


def test_partition_of_unity_2d_smooth():
    basis = build_rfm(2, [3, 2], 1, 1.0, WindowKind.SMOOTH, seed=0,
                      bounds=[[0.0, 1.0], [-1.0, 2.0]])
    rng = np.random.default_rng(4)
    pts = rng.uniform([0.0, -1.0], [1.0, 2.0], size=(300, 2))
    assert np.max(np.abs(basis.windows(pts).sum(axis=1) - 1.0)) < 1e-12


def test_rfm_values_bounded():
    for act in (ActivationKind.TANH, ActivationKind.SIN):
        basis = build_rfm(1, [4], 8, 3.0, WindowKind.SMOOTH, act, seed=3,
                          bounds=[[0.0, 1.0]])
        phi = basis.design_matrix(np.linspace(0, 1, 400))
        assert np.all(np.abs(phi) <= 1.0 + 1e-15)


def test_forced_zero_weights_give_zero_columns():
    # single characteristic partition covering the domain, tanh(0) = 0
    basis = RfmBasis(partitions_per_dim=(1,), weights=(np.zeros((3, 1)),),
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
