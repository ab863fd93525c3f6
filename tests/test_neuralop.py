import math

import numpy as np
import pytest

from fbc2c.errors import ConfigurationError, DataError, TrainingDiverged
from fbc2c.neuralop import (_BLOCK, OperatorNet, ReconstructionLoss, TrainConfig, _Adam,
                            forward, init_net, learning_rate, relative_loss, train)


def test_init_deterministic_and_counted():
    a = init_net(2, 4, 3, seed=42)
    b = init_net(2, 4, 3, seed=42)
    assert np.array_equal(a.hidden_weights, b.hidden_weights)
    assert np.array_equal(a.output_weights, b.output_weights)
    assert np.array_equal(a.hidden_biases, np.zeros(4))
    net = init_net(128, 512, 32, seed=0)
    assert net.n_parameters == 128 * 512 + 512 + 512 * 32 == 82432


def test_init_scale_respects_fan_in():
    net = init_net(100, 400, 7, seed=1)
    assert np.max(np.abs(net.hidden_weights)) <= 1.0 / np.sqrt(100)
    assert np.max(np.abs(net.output_weights)) <= 1.0 / np.sqrt(400)


def test_named_arrays_are_views_of_the_flat_parameters():
    net = init_net(3, 4, 2, seed=0)
    net.hidden_weights[1, 2] = 7.0
    net.hidden_biases[3] = 8.0
    net.output_weights[1, 0] = 9.0
    assert net.parameters[1 * 3 + 2] == 7.0
    assert net.parameters[12 + 3] == 8.0
    assert net.parameters[12 + 4 + 1 * 4 + 0] == 9.0
    net.parameters[:] = np.arange(net.n_parameters)
    assert np.array_equal(net.hidden_weights, np.arange(12).reshape(4, 3))
    assert np.array_equal(net.hidden_biases, np.arange(12, 16))
    assert np.array_equal(net.output_weights, np.arange(16, 24).reshape(2, 4))


def test_copy_and_flat_parameters_are_independent():
    net = init_net(3, 4, 2, seed=0)
    before = net.parameters.copy()
    twin, flat = net.copy(), net.flat_parameters()
    net.parameters[:] = 0.0
    assert np.array_equal(twin.parameters, before)
    assert np.array_equal(flat, before)
    twin.hidden_weights[:] = 1.0
    flat[:] = 2.0
    assert np.all(net.parameters == 0.0)
    assert (twin.input_dim, twin.hidden_dim, twin.output_dim) == (3, 4, 2)


@pytest.mark.parametrize("size", [23, 25])
def test_wrong_size_parameter_vector_is_rejected(size):
    # (3, 4, 2) has 12 + 4 + 8 = 24 parameters
    with pytest.raises(ConfigurationError, match="expected"):
        OperatorNet(np.zeros(size), 3, 4, 2)


def _assert_adam_matches_per_array_update(shapes, seed):
    """Five steps of ``_Adam`` on the concatenated arrays against per-array Adam.

    The per-array reference is the efficient form in the step's own op
    order, so parameters and moments must match bit for bit; the textbook
    expression is run alongside and must agree to rounding.
    """
    rng = np.random.default_rng(seed)
    params = [rng.standard_normal(s) for s in shapes]
    textbook = [p.copy() for p in params]
    flat = np.concatenate([p.ravel() for p in params])
    m = [np.zeros(s) for s in shapes]
    v = [np.zeros(s) for s in shapes]
    # Kingma & Ba's defaults, which the module's constants must be
    b1, b2, eps = 0.9, 0.999, 1e-8
    adam = _Adam(flat.size)
    for t, lr in enumerate([1e-3, 3e-4, 2.5e-2, 1e-6, 7e-3], start=1):
        grads = [rng.standard_normal(s) * 10.0 ** rng.integers(-6, 3) for s in shapes]
        c1 = 1.0 - b1 ** t
        c2 = 1.0 - b2 ** t
        alpha = lr * math.sqrt(c2) / c1
        eps_hat = eps * math.sqrt(c2)
        # reference: the per-array Adam expression in Kingma & Ba's efficient form
        for p, q, g, mi, vi in zip(params, textbook, grads, m, v):
            mi *= b1
            mi += (1.0 - b1) * g
            vi *= b2
            vi += (1.0 - b2) * g * g
            p -= (mi / (np.sqrt(vi) + eps_hat)) * alpha
            q -= lr * (mi / c1) / (np.sqrt(vi / c2) + eps)
        adam.step(flat, np.concatenate([g.ravel() for g in grads]), lr)
        assert np.array_equal(flat, np.concatenate([p.ravel() for p in params]))
        assert np.array_equal(adam.m, np.concatenate([mi.ravel() for mi in m]))
        assert np.array_equal(adam.v, np.concatenate([vi.ravel() for vi in v]))
    np.testing.assert_allclose(flat, np.concatenate([q.ravel() for q in textbook]),
                               rtol=1e-12, atol=0)
    return adam


def test_adam_on_the_flat_vector_matches_the_per_array_update():
    _assert_adam_matches_per_array_update([(5, 3), (5,), (2, 5)], seed=8)


def test_blocked_adam_matches_the_per_array_update_across_blocks():
    # 2 * _BLOCK + 7 elements: two full blocks and a ragged tail, split into
    # arrays that straddle the block boundaries
    adam = _assert_adam_matches_per_array_update([(_BLOCK + 5,), (5, (_BLOCK - 3) // 5), (5,)],
                                                 seed=9)
    assert adam.m.size == 2 * _BLOCK + 7
    assert adam._step.size <= _BLOCK and adam._denom.size <= _BLOCK


def test_loss_and_grads_overwrites_one_gradient_buffer():
    rng = np.random.default_rng(2)
    net = init_net(3, 4, 2, seed=1)
    a = rng.standard_normal((6, 3))
    psi = rng.standard_normal((7, 2))
    u = rng.standard_normal((6, 7))
    ws = ReconstructionLoss(psi, u)
    _, first = ws.loss_and_grads(net, a)
    rows = np.array([4, 1])
    _, second = ws.loss_and_grads(net, a[rows], rows=rows)
    assert second is first
    _, fresh = ReconstructionLoss(psi, u).loss_and_grads(net, a[rows], rows=rows)
    assert np.array_equal(second.parameters, fresh.parameters)
    wider = init_net(3, 5, 2, seed=1)
    _, other = ws.loss_and_grads(wider, a)
    assert other.hidden_weights.shape == (5, 3)


def test_zero_output_weights_kill_forward():
    net = init_net(3, 5, 2, seed=0)
    net.output_weights[:] = 0.0
    out = forward(net, np.random.default_rng(0).standard_normal((6, 3)))
    assert np.all(out == 0.0)


def test_forward_matches_naive_loop():
    rng = np.random.default_rng(9)
    net = init_net(4, 6, 3, seed=5)
    net.hidden_biases[:] = rng.standard_normal(6)
    a = rng.standard_normal((7, 4))
    got = forward(net, a)
    naive = np.empty((7, 3))
    for k in range(7):
        for out in range(3):
            acc = 0.0
            for i in range(6):
                z = sum(net.hidden_weights[i, j] * a[k, j] for j in range(4))
                acc += net.output_weights[out, i] * np.tanh(z + net.hidden_biases[i])
            naive[k, out] = acc
    assert np.max(np.abs(got - naive)) < 1e-12


def test_forward_rejects_nan_and_bad_shape():
    net = init_net(3, 4, 2, seed=0)
    bad = np.ones((2, 3))
    bad[0, 1] = np.nan
    with pytest.raises(DataError):
        forward(net, bad)
    with pytest.raises(ConfigurationError):
        forward(net, np.ones((2, 5)))


def test_relative_loss_hand_cases():
    psi = np.eye(3)
    targets = np.array([[1.0, 0.0, 0.0], [0.0, 2.0, 0.0]])
    mean, per = relative_loss(targets, psi, targets)   # exact reconstruction
    assert mean == 0.0
    mean, per = relative_loss(np.zeros((2, 3)), psi, targets)
    assert mean == 1.0 and per == pytest.approx([1.0, 1.0])
    # per-sample residuals 0.1 and 0.3 average to 0.2
    b = np.array([[0.9, 0.0, 0.0], [0.0, 1.7, 0.0]])
    mean, per = relative_loss(b, psi, targets)
    assert per == pytest.approx([0.1, 0.15])
    assert mean == pytest.approx(0.125)
    mean, per = relative_loss(np.array([[0.9, 0, 0], [0, 1.4, 0]]), psi, targets)
    assert per == pytest.approx([0.1, 0.3])
    assert mean == pytest.approx(0.2)


def test_relative_loss_refuses_a_coefficient_batch_of_another_row_count():
    psi = np.ones((30, 8))
    with pytest.raises(ConfigurationError, match="coefficients have 3 rows, targets have 2"):
        relative_loss(np.ones((3, 8)), psi, np.ones((2, 30)))


def test_relative_loss_rejects_zero_norm_targets():
    with pytest.raises(DataError, match=r"\[1\]"):
        relative_loss(np.ones((2, 2)), np.eye(2), np.array([[1.0, 0.0], [0.0, 0.0]]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_relative_loss_rejects_non_finite_targets(bad):
    targets = np.ones((3, 2))
    targets[1, 0] = bad
    with pytest.raises(DataError, match=r"NaN or Inf at indices \[1\]"):
        relative_loss(np.ones((3, 2)), np.eye(2), targets)


def test_reconstruction_commutes_with_batching():
    rng = np.random.default_rng(4)
    net = init_net(5, 8, 4, seed=2)
    a = rng.standard_normal((6, 5))
    psi = rng.standard_normal((11, 4))
    batch_recon = forward(net, a) @ psi.T
    per_sample = np.stack([psi @ forward(net, a[k:k + 1])[0] for k in range(6)])
    assert np.max(np.abs(batch_recon - per_sample)) < 1e-12


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(12)
    for trial in range(3):
        m1, hidden, m2, m, n2 = 3, 5, 2, 4, 6
        net = init_net(m1, hidden, m2, seed=trial)
        net.hidden_biases[:] = 0.1 * rng.standard_normal(hidden)
        a = rng.standard_normal((m, m1))
        psi = rng.standard_normal((n2, m2))
        u = rng.standard_normal((m, n2))
        _, g = ReconstructionLoss(psi, u).loss_and_grads(net, a)
        flat_g = np.concatenate([g.hidden_weights.ravel(), g.hidden_biases,
                                 g.output_weights.ravel()])
        flat = net.flat_parameters()
        h = 1e-6
        for idx in rng.choice(flat.size, size=25, replace=False):
            fp, fm = flat.copy(), flat.copy()
            fp[idx] += h
            fm[idx] -= h
            lp = relative_loss(forward(OperatorNet(fp, m1, hidden, m2), a), psi, u)[0]
            lm = relative_loss(forward(OperatorNet(fm, m1, hidden, m2), a), psi, u)[0]
            fd = (lp - lm) / (2 * h)
            assert flat_g[idx] == pytest.approx(fd, rel=1e-5, abs=1e-9)


def test_gradient_zero_at_perfect_fit():
    rng = np.random.default_rng(3)
    net = init_net(3, 4, 2, seed=1)
    a = rng.standard_normal((5, 3))
    psi = rng.standard_normal((7, 2))
    u = forward(net, a) @ psi.T    # residual is exactly zero
    _, g = ReconstructionLoss(psi, u).loss_and_grads(net, a)
    assert np.all(g.hidden_weights == 0.0)
    assert np.all(g.hidden_biases == 0.0)
    assert np.all(g.output_weights == 0.0)
    assert ReconstructionLoss(psi, u).loss(net, a) == 0.0


def test_exact_rows_in_a_minibatch_use_the_direct_residual():
    rng = np.random.default_rng(5)
    net = init_net(3, 4, 2, seed=2)
    a = rng.standard_normal((6, 3))
    psi = rng.standard_normal((9, 2))
    u = forward(net, a) @ psi.T
    u[1::2] += rng.standard_normal((3, 9))   # odd rows miss, even rows fit
    ws = ReconstructionLoss(psi, u)
    exact = np.array([4, 0, 2])
    loss, grads = ws.loss_and_grads(net, a[exact], rows=exact)
    assert loss == 0.0
    assert np.all(grads.hidden_weights == 0.0)
    assert np.all(grads.output_weights == 0.0)
    miss = np.array([3, 1])
    expected, _ = relative_loss(forward(net, a[miss]), psi, u[miss])
    assert ws.loss(net, a[miss], rows=miss) == pytest.approx(expected, rel=1e-12)


def test_gradient_direction_near_perfect_fit():
    # a residual of ~1e-10 relative is far below the Gram formula's rounding
    # noise; the gradient must still follow Psi^T (Psi b - u)
    rng = np.random.default_rng(6)
    net = init_net(3, 4, 2, seed=3)
    a = rng.standard_normal((4, 3))
    psi = rng.standard_normal((8, 2))
    u = forward(net, a) @ psi.T + 1e-10 * rng.standard_normal((4, 8))
    _, g = ReconstructionLoss(psi, u).loss_and_grads(net, a)
    hidden = np.tanh(a @ net.hidden_weights.T + net.hidden_biases)
    r = forward(net, a) @ psi.T - u
    scale = 4 * np.linalg.norm(r, axis=1) * np.linalg.norm(u, axis=1)
    d_b = (r @ psi) / scale[:, None]
    assert np.allclose(g.output_weights, d_b.T @ hidden, rtol=1e-6, atol=0.0)


# ---------------------------------------------------------------------------
# schedule


def test_learning_rate_endpoints():
    for epochs in (2, 500, 10000, 25000, 50001):
        cfg = TrainConfig(epochs=epochs)
        assert learning_rate(0, cfg) == cfg.lr_start
        final = learning_rate(epochs - 1, cfg)
        assert abs(final - cfg.lr_end) <= 0.01 * cfg.lr_end


def test_learning_rate_is_one_monotone_geometric_decay():
    cfg = TrainConfig(epochs=25000)
    values = np.array([learning_rate(e, cfg) for e in range(25000)])
    assert np.all(np.diff(values) < 0)
    # the same factor every epoch, with no stage boundaries
    ratios = values[1:] / values[:-1]
    assert np.allclose(ratios, (cfg.lr_end / cfg.lr_start) ** (1 / 24999), rtol=1e-9, atol=0)


@pytest.mark.parametrize("epochs, epoch, expected", [
    (300, 0, "0x1.0624dd2f1a9fcp-10"),
    (300, 1, "0x1.00283ac4ef049p-10"),
    (300, 150, "0x1.063975584bcbbp-15"),
    (300, 298, "0x1.12b59312fb9ecp-20"),
    (300, 299, "0x1.0c6f7a0b5ed8dp-20"),
    (4000, 0, "0x1.0624dd2f1a9fcp-10"),
    (4000, 1, "0x1.05b10acc47574p-10"),
    (4000, 2000, "0x1.090ac4c4dce80p-15"),
    (4000, 3998, "0x1.0ce648880dcc2p-20"),
    (4000, 3999, "0x1.0c6f7a0b5ed8dp-20"),
])
def test_learning_rate_is_pinned_bit_for_bit(epochs, epoch, expected):
    # recorded from the staged schedule with its default 10 000-epoch stage,
    # which at these lengths was a single stage: the rates of the workloads
    # (300 epochs) and demos (at most 4000) must not move
    assert learning_rate(epoch, TrainConfig(epochs=epochs)) == float.fromhex(expected)


def test_train_config_validation():
    with pytest.raises(ConfigurationError):
        TrainConfig(epochs=-1)
    with pytest.raises(ConfigurationError):
        TrainConfig(epochs=10, lr_start=1e-6, lr_end=1e-3)
    with pytest.raises(ConfigurationError):
        TrainConfig(epochs=10, batch_size=0)


# ---------------------------------------------------------------------------
# training


def _identity_problem(m=16, dim=4, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((m, dim))
    a /= np.linalg.norm(a, axis=1, keepdims=True)
    return a, np.eye(dim), a.copy()


def test_train_zero_epochs_returns_net_unchanged():
    a, psi, u = _identity_problem()
    net = init_net(4, 8, 4, seed=3)
    out, trace = train(net, a, u, psi, TrainConfig(epochs=0))
    assert np.array_equal(out.hidden_weights, net.hidden_weights)
    assert np.array_equal(out.output_weights, net.output_weights)
    assert trace.train_loss.size == 0
    assert out is not net


def test_train_does_not_mutate_argument():
    a, psi, u = _identity_problem()
    net = init_net(4, 8, 4, seed=3)
    before = net.flat_parameters()
    train(net, a, u, psi, TrainConfig(epochs=50))
    assert np.array_equal(net.flat_parameters(), before)


def test_train_decreases_loss():
    a, psi, u = _identity_problem(m=64)
    net = init_net(4, 64, 4, seed=5)
    _, trace = train(net, a, u, psi, TrainConfig(epochs=1000, seed=1))
    assert trace.train_loss[-1] < trace.train_loss[0]


def test_train_deterministic_traces():
    a, psi, u = _identity_problem(m=32)
    cfg = TrainConfig(epochs=300, seed=7)
    net = init_net(4, 16, 4, seed=2)
    _, t1 = train(net, a, u, psi, cfg, test_inputs=a, test_targets=u)
    _, t2 = train(net, a, u, psi, cfg, test_inputs=a, test_targets=u)
    assert np.array_equal(t1.train_loss, t2.train_loss)
    assert np.array_equal(t1.test_loss, t2.test_loss)


def test_minibatch_runs_and_is_deterministic():
    a, psi, u = _identity_problem(m=32)
    cfg = TrainConfig(epochs=100, batch_size=8, seed=13)
    net = init_net(4, 16, 4, seed=2)
    out1, t1 = train(net, a, u, psi, cfg)
    out2, t2 = train(net, a, u, psi, cfg)
    assert np.array_equal(out1.flat_parameters(), out2.flat_parameters())
    assert np.array_equal(t1.train_loss, t2.train_loss)


def test_trace_shapes_and_eval_interval():
    a, psi, u = _identity_problem(m=16)
    net = init_net(4, 8, 4, seed=2)
    cfg = TrainConfig(epochs=250, eval_interval=100, seed=0)
    _, trace = train(net, a, u, psi, cfg, test_inputs=a, test_targets=u)
    assert trace.train_loss.shape == (250,)
    assert trace.lr.shape == (250,)
    assert list(trace.test_epochs) == [0, 100, 200, 249]
    assert trace.wall_seconds > 0


@pytest.mark.parametrize("k, bad", [(3, None), (6, None), (5, "missing"), (5, "nan")],
                         ids=["below_break_even", "at_break_even", "span_misses_a_row",
                              "nan_span"])
def test_train_through_the_input_span(k, bad):
    # m1 = 24 and batches of 8 break even at k = 8 * 24 / (24 + 8) = 6
    rng = np.random.default_rng(k)
    m1, batch = 24, 8
    basis = rng.standard_normal((m1, k))
    a = rng.standard_normal((40, k)) @ basis.T
    psi = rng.standard_normal((20, 6))
    u = rng.standard_normal((40, 20))
    test_a, test_u = rng.standard_normal((10, m1)), rng.standard_normal((10, 20))
    span = basis * rng.uniform(0.5, 2.0, size=k)
    if bad == "missing":
        span = span[:, :-1]
    elif bad == "nan":
        span[0, 0] = np.nan
    net = init_net(m1, 16, 6, seed=1)
    cfg = TrainConfig(epochs=40, batch_size=batch, lr_start=1e-2, lr_end=1e-4, seed=2,
                      eval_interval=7)
    if bad:
        with pytest.raises(ConfigurationError, match="do not lie in input_span"):
            train(net, a, u, psi, cfg, input_span=span)
        return
    plain, plain_trace = train(net, a, u, psi, cfg, test_inputs=test_a, test_targets=test_u)
    through, trace = train(net, a, u, psi, cfg, test_inputs=test_a, test_targets=test_u,
                           input_span=span)
    if k * (m1 + batch) >= batch * m1:
        assert np.array_equal(through.parameters, plain.parameters)
        assert np.array_equal(trace.train_loss, plain_trace.train_loss)
        assert np.array_equal(trace.test_loss, plain_trace.test_loss)
        return
    # the factored steps round differently, and agree to that level
    assert not np.array_equal(through.parameters, plain.parameters)
    change = np.linalg.norm(through.parameters - plain.parameters)
    assert change <= 1e-10 * np.linalg.norm(plain.parameters)
    np.testing.assert_allclose(trace.train_loss, plain_trace.train_loss, rtol=1e-10, atol=0)
    np.testing.assert_allclose(trace.test_loss, plain_trace.test_loss, rtol=1e-10, atol=0)


def test_train_shape_validation():
    a, psi, u = _identity_problem()
    net = init_net(4, 8, 4, seed=2)
    with pytest.raises(ConfigurationError):
        train(net, a[:, :3], u, psi, TrainConfig(epochs=1))
    with pytest.raises(ConfigurationError):
        train(net, a, u[:5], psi, TrainConfig(epochs=1))
    bad = a.copy()
    bad[0, 0] = np.inf
    with pytest.raises(DataError):
        train(net, bad, u, psi, TrainConfig(epochs=1))


@pytest.mark.parametrize("case", ["width", "sample_count", "inputs_only", "non_finite"])
def test_train_checks_the_test_set_before_training(case, monkeypatch):
    a, psi, u = _identity_problem()
    net = init_net(4, 8, 4, seed=2)
    test_a, test_u = a[:6].copy(), u[:6]
    expected = ConfigurationError
    if case == "width":
        test_a = test_a[:, :3]
    elif case == "sample_count":
        test_u = u[:5]
    elif case == "inputs_only":
        test_u = None
    else:
        test_a[2, 1] = np.nan
        expected = DataError

    def no_training(*args, **kwargs):
        raise AssertionError("training started before the test set was checked")

    monkeypatch.setattr(ReconstructionLoss, "loss_and_grads", no_training)
    with pytest.raises(expected, match="test"):
        train(net, a, u, psi, TrainConfig(epochs=3), test_inputs=test_a, test_targets=test_u)


def test_train_refuses_non_finite_targets_before_training(monkeypatch):
    a, psi, u = _identity_problem(m=8)
    u = u.copy()
    u[3, 1] = np.nan
    net = init_net(4, 8, 4, seed=2)

    def no_training(*args, **kwargs):
        raise AssertionError("training started on non-finite targets")

    monkeypatch.setattr(ReconstructionLoss, "loss_and_grads", no_training)
    with pytest.raises(DataError, match=r"training targets with NaN or Inf at indices \[3\]"):
        train(net, a, u, psi, TrainConfig(epochs=3))
    with pytest.raises(DataError, match=r"test targets with NaN or Inf at indices \[3\]"):
        train(net, a[:4], np.ones((4, 4)), psi, TrainConfig(epochs=3),
              test_inputs=a, test_targets=u)


def test_divergence_aborts_with_checkpoint(monkeypatch):
    a, psi, u = _identity_problem(m=8)
    net = init_net(4, 8, 4, seed=2)
    calls = {"n": 0}
    original = ReconstructionLoss.loss_and_grads

    def wrapped(self, net_, inputs, rows=slice(None)):
        calls["n"] += 1
        loss, grads = original(self, net_, inputs, rows=rows)
        if calls["n"] >= 3:
            return float("nan"), grads
        return loss, grads

    monkeypatch.setattr(ReconstructionLoss, "loss_and_grads", wrapped)
    with pytest.raises(TrainingDiverged) as info:
        train(net, a, u, psi, TrainConfig(epochs=10, seed=0))
    err = info.value
    assert err.epoch == 2
    assert isinstance(err.checkpoint, OperatorNet)
    assert np.all(np.isfinite(err.checkpoint.flat_parameters()))
    assert err.trace.train_loss.shape == (2,)
