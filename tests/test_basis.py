import hashlib

import numpy as np
import pytest

from fbc2c.basis import BasisSpec, FemBasis1D, RfmBasis, VectorBasis
from fbc2c.errors import ConfigurationError, DomainError


def test_build_rfm_total_count():
    basis = BasisSpec("rfm", [4], 2, 3.0, "smooth", "tanh", seed=7).build()
    assert basis.size == 8
    assert basis.features_per_partition == (2, 2, 2, 2)
    assert basis.partitions_per_dim == (4,)
    assert basis.windows(np.linspace(-1, 1, 7)).shape == (7, 4)


# the last key of each case is the field refused
@pytest.mark.parametrize("kwargs", [
    dict(partitions=[1], features_per_partition=1, range_bound=0.0),
    dict(partitions=[1], features_per_partition=1, range_bound=-2.0),
    dict(features_per_partition=1, range_bound=3.0, partitions=[0]),
    dict(partitions=[1], range_bound=3.0, features_per_partition=0),
    dict(partitions=[2, 2], features_per_partition=1, range_bound=3.0, bounds=[[0.0, 1.0]]),
    dict(partitions=[2], features_per_partition=1, range_bound=3.0, bounds=[0.0, 1.0, 2.0]),
    dict(partitions=[2], features_per_partition=2.7),
    dict(kind="fem", n_nodes=2.5),
    dict(partitions=[2], features_per_partition=True),
    dict(features_per_partition=1, partitions=[2.5]),
    dict(partitions=[2], features_per_partition=1, range_bound=np.inf),
    dict(partitions=[2], features_per_partition=1, bounds=[[0.0, np.inf]]),
    dict(partitions=[2], features_per_partition=1, seed=-1),
    dict(partitions=[2], features_per_partition=1, window="bogus"),
    dict(kind="fem", n_nodes=5, domain=[0.0, np.inf]),
])
def test_build_rfm_rejects_bad_config(kwargs):
    with pytest.raises(ConfigurationError, match=rf"^{list(kwargs)[-1]}: "):
        BasisSpec(**{"kind": "rfm", **kwargs})


def test_build_rfm_deterministic_per_seed():
    a = BasisSpec("rfm", [2, 3], 4, 1.5, seed=99).build()
    b = BasisSpec("rfm", [2, 3], 4, 1.5, seed=99).build()
    for wa, wb in zip(a.weights, b.weights):
        assert np.array_equal(wa, wb)
    for ba, bb in zip(a.biases, b.biases):
        assert np.array_equal(ba, bb)
    pts = np.random.default_rng(0).uniform(-1, 1, size=(40, 2))
    assert np.array_equal(a.design_matrix(pts), b.design_matrix(pts))
    c = BasisSpec("rfm", [2, 3], 4, 1.5, seed=100).build()
    assert not np.array_equal(a.weights[0], c.weights[0])


def test_rfm_identity_is_pinned():
    # coefficient files and run directories name their bases by this hash
    assert BasisSpec("rfm", [2, 3], 4, 1.5, seed=99).build().identity() == "bfc8d6246f8eec1c"


def test_rfm_refuses_a_flat_array_of_the_wrong_dimension():
    basis = BasisSpec("rfm", [2, 2], 1, 1.0, seed=0).build()
    with pytest.raises(ConfigurationError, match=r"points have shape \(80,\), expected \(n, 2\)"):
        basis.design_matrix(np.linspace(-1, 1, 80))


def test_build_rfm_draws_within_range():
    basis = BasisSpec("rfm", [3, 3], 50, 0.7, seed=5).build()
    for w, b in zip(basis.weights, basis.biases):
        assert np.all(np.abs(w) <= 0.7)
        assert np.all(np.abs(b) <= 0.7)


def test_feature_prefix_nesting():
    # growing features_per_partition must keep earlier features unchanged
    small = BasisSpec("rfm", [3], 4, 3.0, seed=11).build()
    large = BasisSpec("rfm", [3], 10, 3.0, seed=11).build()
    for ws, wl in zip(small.weights, large.weights):
        assert np.array_equal(ws, wl[:4])
    for bs, bl in zip(small.biases, large.biases):
        assert np.array_equal(bs, bl[:4])


def _window(kind, partitions, bounds, column, x):
    """Window ``column`` of a tiling at the points ``x``."""
    basis = BasisSpec("rfm", partitions, 1, 1.0, kind, seed=0, bounds=bounds).build()
    return basis.windows(x)[:, column]


def test_smooth_window_plateau_and_ramp():
    # the middle of three cells on [-0.5, 1]: center 0.25, radius 0.25
    def window(x):
        return _window("smooth", [3], [[-0.5, 1.0]], 1, [[x]])[0]

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
    window = _window("characteristic", [3], [[-3.0, 3.0]], 1,
                     [[1.0], [-1.0], [0.999], [-1.001]])
    assert window.tolist() == [0.0, 1.0, 1.0, 0.0]


def test_window_product_over_dimensions():
    # the middle cell of a 3 x 3 tiling of [-3, 3]^2: center (0, 0), radius (1, 1)
    window = _window("smooth", [3, 3], [[-3.0, 3.0]] * 2, 4,
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
            if basis.window_kind == "smooth":
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


@pytest.mark.parametrize("kind", ["smooth", "characteristic"])
@pytest.mark.parametrize("partitions", [[5], [1], [3, 7], [4, 4]])
def test_windows_match_the_per_partition_product_bitwise(kind, partitions):
    bounds = [[0.0, 1.0], [-1.0, 2.0]][:len(partitions)]
    basis = BasisSpec("rfm", partitions, 1, 1.0, kind, seed=0, bounds=bounds).build()
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


@pytest.mark.parametrize("kind", ["smooth", "characteristic"])
def test_partition_of_unity_1d(kind):
    basis = BasisSpec("rfm", [5], 1, 3.0, kind, seed=0, bounds=[[0.0, 1.0]]).build()
    pts = np.linspace(0.0, 1.0, 1001)        # clamped edges cover the closed domain
    total = basis.windows(pts).sum(axis=1)
    assert np.max(np.abs(total - 1.0)) < 1e-12
    if kind == "characteristic":
        assert np.all(total == 1.0)


def test_partition_of_unity_2d_characteristic():
    basis = BasisSpec("rfm", [3, 7], 1, 1.0, "characteristic", seed=0,
                      bounds=[[0.0, 1.0], [-1.0, 2.0]]).build()
    # a grid that hits every cell edge, the domain's right edges included
    xs, ys = np.meshgrid(np.linspace(0.0, 1.0, 301),
                         np.linspace(-1.0, 2.0, 701))
    pts = np.column_stack([xs.ravel(), ys.ravel()])
    assert np.all(basis.windows(pts).sum(axis=1) == 1.0)


def test_tiled_characteristic_cells_share_edges():
    basis = BasisSpec("rfm", [5], 1, 3.0, "characteristic", seed=0,
                      bounds=[[0.0, 1.0]]).build()
    # x = 0.2 is the shared edge of cells 0 and 1: it belongs to cell 1 only;
    # the closed box's ends belong to the first and last cells
    assert basis.windows([0.2, 0.0, 1.0]).tolist() == [
        [0.0, 1.0, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0, 1.0]]


def test_partition_of_unity_2d_smooth():
    basis = BasisSpec("rfm", [3, 2], 1, 1.0, "smooth", seed=0,
                      bounds=[[0.0, 1.0], [-1.0, 2.0]]).build()
    rng = np.random.default_rng(4)
    pts = rng.uniform([0.0, -1.0], [1.0, 2.0], size=(300, 2))
    assert np.max(np.abs(basis.windows(pts).sum(axis=1) - 1.0)) < 1e-12


def test_rfm_values_bounded():
    for act in ("tanh", "sin"):
        basis = BasisSpec("rfm", [4], 8, 3.0, "smooth", act, seed=3,
                          bounds=[[0.0, 1.0]]).build()
        phi = basis.design_matrix(np.linspace(0, 1, 400))
        assert np.all(np.abs(phi) <= 1.0 + 1e-15)


def test_forced_zero_weights_give_zero_columns():
    # single characteristic partition covering the domain, tanh(0) = 0
    basis = RfmBasis(partitions_per_dim=(1,), weights=(np.zeros((3, 1)),),
                     biases=(np.zeros(3),), range_bound=1.0,
                     activation="tanh",
                     window_kind="characteristic", seed=0,
                     bounds=np.array([[-1.0, 1.0]]))
    phi = basis.design_matrix(np.linspace(-1, 0.99, 50))
    assert np.all(phi == 0.0)


# (spec, components, identity, sha256 prefix of the design's bytes at 23
# points) recorded from the separate rfm, vector-rfm and fem builders that
# BasisSpec.build replaced: a build must draw the same features in the same order
_RECORDED = [
    (dict(kind="rfm", partitions=[4], features_per_partition=3), 1,
     "7ed08d3e5d3a5852", "55f4dadfa507b42f"),
    (dict(kind="rfm", partitions=[2, 3], features_per_partition=2, window="characteristic",
          activation="sin", seed=99, bounds=[[0.0, 1.0], [-1.0, 2.0]]), 1,
     "cfe2e745a900fadc", "8a64f3f08209fc21"),
    (dict(kind="rfm", partitions=[3, 2], features_per_partition=2, activation="sin",
          seed=2 ** 40), 1,
     "1d06b4920dd943d5", "42dd55ece8cf5c7e"),
    (dict(kind="rfm", partitions=[2, 1, 2], features_per_partition=2,
          window="characteristic", seed=7), 1,
     "88e922e49142a8c9", "11efacdee8237573"),
    (dict(kind="rfm", partitions=[2], features_per_partition=3, seed=13,
          bounds=[[0.0, 1.0]]), 3,
     "3db97c8a20e9dac7", "67846397df1e26a6"),
    (dict(kind="fem", n_nodes=9), 1, "bc4bf04ee644b743", "6adcf8a90547fca5"),
    (dict(kind="fem", n_nodes=5, domain=[-1.0, 2.0]), 1,
     "56bb107632a82634", "3ccf1a9f41d17b8c"),
]


@pytest.mark.parametrize("kwargs, components, identity, design", _RECORDED,
                         ids=["rfm_smooth_tanh", "rfm_characteristic_sin", "rfm_smooth_sin",
                              "rfm_characteristic_tanh_3d", "vector_rfm", "fem", "fem_domain"])
def test_build_matches_the_recorded_bases_bitwise(kwargs, components, identity, design):
    spec = BasisSpec(**kwargs)
    basis = spec.build(components)
    if spec.kind == "fem":
        pts = np.linspace(*spec.domain, 23)
    else:
        box = np.array(spec.bounds or [[-1.0, 1.0]] * spec.dim)
        pts = np.random.default_rng(0).uniform(box[:, 0], box[:, 1], size=(23, spec.dim))
    assert basis.identity() == identity
    assert hashlib.sha256(basis.design_matrix(pts).tobytes()).hexdigest()[:16] == design


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
    basis = BasisSpec("fem", n_nodes=9).build()
    pts = np.linspace(0, 1, 123)
    assert np.max(np.abs(basis.design_matrix(pts).sum(axis=1) - 1.0)) < 1e-12


def test_fem_rejects_outside_domain():
    basis = BasisSpec("fem", n_nodes=5).build()
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
    vb = BasisSpec("rfm", [2], 3, 2.0, seed=13, bounds=[[0.0, 1.0]]).build(2)
    pts = np.linspace(0, 1, 20)
    stacked = vb.design_matrix(pts)
    assert stacked.shape == (40, 6)
    top = vb.components[0].design_matrix(pts)
    bottom = vb.components[1].design_matrix(pts)
    assert np.array_equal(stacked[:20], top)
    assert np.array_equal(stacked[20:], bottom)


def test_vector_components_use_independent_draws():
    vb = BasisSpec("rfm", [2], 3, 2.0, seed=13).build(2)
    assert not np.array_equal(vb.components[0].weights[0], vb.components[1].weights[0])


def test_vector_basis_rejects_mismatched_sizes():
    a = BasisSpec("rfm", [2], 3, 1.0, seed=1).build()
    b = BasisSpec("rfm", [2], 4, 1.0, seed=2).build()
    with pytest.raises(ConfigurationError):
        VectorBasis((a, b))


def test_vector_basis_deterministic():
    a = BasisSpec("rfm", [2], 2, 1.0, seed=5).build(3)
    b = BasisSpec("rfm", [2], 2, 1.0, seed=5).build(3)
    pts = np.linspace(-1, 1, 11)
    assert np.array_equal(a.design_matrix(pts), b.design_matrix(pts))
