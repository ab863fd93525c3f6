"""One-hidden-layer coefficient-to-coefficient network with hand-rolled Adam.

The network maps input coefficients a in R^{m1} to output coefficients
b in R^{m2} through b_k = sum_i c_ki * tanh(sum_j xi_ij a_j + eta_i).
Training minimizes the relative loss: the batch mean of
||Psi b - u||_2 / ||u||_2 on the output sample grid.  Gradients are exact;
samples with exactly zero residual contribute zero (subgradient choice at
the norm's kink).

The net, its gradient and Adam's moments share one flat float64 layout
(see ``OperatorNet``), so a training step updates the net in place; the
gradient, which ``ReconstructionLoss.loss_and_grads`` returns with the
loss, is one buffer per ``ReconstructionLoss``, overwritten every call.

``train`` steps through the span of its own training rows when that is
cheaper.  Each step's two first-layer products cost H * batch * m1
multiplies each on the rows, and H * k * (m1 + batch) through an
orthonormal basis B of a rank-k span that holds them.  ``train`` takes B
from a thin SVD of the rows, and when the second count is smaller it steps
on z = aB: forward tanh(z (WB)^T + eta), first-layer gradient (dh^T z) B^T.
W stays H x m1 and Adam updates every entry, so the iterates equal the
plain ones up to rounding; the test loss, ``forward`` and checkpoints never
see B.  Truncated-SVD coefficients lie in the span of the encoder's kept
right singular vectors, and data of low rank keep their rows in a smaller
span still, which the rows' own SVD finds.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, DataError, TrainingDiverged, check_int, check_real, is_int


class OperatorNet:
    """Parameters of the coefficient map; hidden activation is tanh.

    ``parameters`` is the flat vector [hidden_weights (H, m1), hidden_biases
    (H,), output_weights (m2, H)], each block row-major, as checkpoints store
    it.  The three named arrays are views that write through to it.  A
    contiguous float64 vector is wrapped, not copied.
    """

    def __init__(self, parameters: np.ndarray, input_dim: int, hidden_dim: int,
                 output_dim: int):
        parameters = np.ascontiguousarray(parameters, dtype=np.float64)
        n_xi = hidden_dim * input_dim
        expected = n_xi + hidden_dim + output_dim * hidden_dim
        if parameters.shape != (expected,):
            raise ConfigurationError(
                f"flat parameter vector has shape {parameters.shape}, expected ({expected},)"
            )
        self.parameters = parameters
        self.input_dim, self.hidden_dim, self.output_dim = input_dim, hidden_dim, output_dim
        self.hidden_weights = parameters[:n_xi].reshape(hidden_dim, input_dim)
        self.hidden_biases = parameters[n_xi: n_xi + hidden_dim]
        self.output_weights = parameters[n_xi + hidden_dim:].reshape(output_dim, hidden_dim)

    @property
    def n_parameters(self) -> int:
        return self.parameters.size

    def copy(self) -> "OperatorNet":
        return OperatorNet(self.parameters.copy(), self.input_dim, self.hidden_dim,
                           self.output_dim)

    def flat_parameters(self) -> np.ndarray:
        """A copy of the flat vector [hidden_weights, hidden_biases, output_weights]."""
        return self.parameters.copy()


def init_net(m1: int, hidden: int, m2: int, seed: int = 0) -> OperatorNet:
    """Uniform init scaled by 1/sqrt(fan_in) per layer, zero biases."""
    if min(m1, hidden, m2) < 1:
        raise ConfigurationError("all network dimensions must be >= 1")
    rng = np.random.default_rng(seed)
    net = OperatorNet(np.zeros(hidden * (m1 + 1 + m2)), m1, hidden, m2)
    net.hidden_weights[:] = rng.uniform(-1.0, 1.0, size=(hidden, m1)) / np.sqrt(m1)
    net.output_weights[:] = rng.uniform(-1.0, 1.0, size=(m2, hidden)) / np.sqrt(hidden)
    return net


def _check_inputs(net: OperatorNet, inputs: np.ndarray, what: str = "network inputs") -> np.ndarray:
    """Network input rows as a float64 (M, m1) array of finite values."""
    a = np.atleast_2d(np.asarray(inputs, dtype=np.float64))
    if a.shape[1] != net.input_dim:
        raise ConfigurationError(
            f"{what} have {a.shape[1]} columns, network expects {net.input_dim}"
        )
    if not np.all(np.isfinite(a)):
        raise DataError(f"{what} contain NaN or Inf")
    return a


def _forward(net: OperatorNet, a: np.ndarray, span=None) -> tuple[np.ndarray, np.ndarray]:
    """Hidden activations and output coefficients of checked input rows.

    With an orthonormal (m1, k) ``span`` B, ``a`` holds the coordinates z = xB
    of rows x in B's range, and the first layer applies as z (WB)^T = x W^T.
    """
    weights = net.hidden_weights if span is None else net.hidden_weights @ span
    hidden = np.tanh(a @ weights.T + net.hidden_biases)
    return hidden, hidden @ net.output_weights.T


def forward(net: OperatorNet, inputs: np.ndarray) -> np.ndarray:
    """Row-wise application of the coefficient map, (M, m1) -> (M, m2)."""
    return _forward(net, _check_inputs(net, inputs))[1]


def check_finite_rows(rows: np.ndarray, what: str) -> None:
    """Refuse ``rows`` (one sample per row, or one sample) if any holds a NaN or an Inf."""
    finite = np.isfinite(np.atleast_2d(rows)).all(axis=1)
    if not finite.all():
        raise DataError(f"{what} with NaN or Inf at indices {np.flatnonzero(~finite).tolist()}")


def check_targets(psi: np.ndarray, targets: np.ndarray, what: str = "target samples"):
    """(psi, u, per-sample ||u||) once psi fits the targets and every target is finite and nonzero."""
    psi = np.asarray(psi, dtype=np.float64)
    u = np.atleast_2d(np.asarray(targets, dtype=np.float64))
    if psi.ndim != 2 or u.shape[1] != psi.shape[0]:
        raise ConfigurationError(
            f"{what} have {u.shape[1]} points, basis evaluation matrix has shape {psi.shape}"
        )
    check_finite_rows(u, what)
    unorm = np.linalg.norm(u, axis=1)
    if np.any(unorm == 0):
        bad = np.flatnonzero(unorm == 0).tolist()
        raise DataError(f"{what} with zero norm at indices {bad}")
    return psi, u, unorm


def relative_loss(coeff_batch: np.ndarray, psi: np.ndarray, targets: np.ndarray):
    """Mean over samples of ||Psi b - u|| / ||u||; also per-sample values."""
    psi, u, unorm = check_targets(psi, targets)
    b = np.atleast_2d(np.asarray(coeff_batch, dtype=np.float64))
    if b.shape[1] != psi.shape[1]:
        raise ConfigurationError(
            f"coefficients have {b.shape[1]} columns, basis evaluation matrix has {psi.shape[1]}"
        )
    if b.shape[0] != u.shape[0]:
        raise ConfigurationError(
            f"coefficients have {b.shape[0]} rows, targets have {u.shape[0]} samples")
    resid = b @ psi.T - u
    per_sample = np.linalg.norm(resid, axis=1) / unorm
    return float(per_sample.mean()), per_sample


# A Gram-formula rho^2 no larger than 16 eps times the magnitude of its terms
# is rounding noise: measured cancellation at an exact fit stays within ~2 eps
# for designs up to 2000 x 128 and 1089 x 400.
_CANCEL_NOISE = 16.0 * np.finfo(np.float64).eps


class ReconstructionLoss:
    """Relative loss and its gradient through a fixed reconstruction matrix.

    Precomputes the Gram matrix of Psi and the target projections so per-step
    work avoids the full n2-point reconstruction: with G = Psi^T Psi and
    W = U Psi, each residual norm is sqrt(b.Gb - 2 b.w + ||u||^2) and the
    coefficient gradient is (Gb - w) / (M rho ||u||).

    At or near an exact fit those three terms cancel to a few eps * ||u||^2
    rather than to 0, so rho would read ~1e-8 ||u|| and the zero-residual
    rule would never fire.  Rows whose Gram-formula rho^2 is within 16 eps
    of |b.Gb| + 2|b.w| + ||u||^2 are therefore recomputed from the direct
    residual r = Psi b - u: rho = ||r|| and the gradient uses Psi^T r.  This
    keeps a reference to the targets; all other rows take the Gram path.

    ``loss_and_grads`` returns its gradient in a buffer this object owns and
    overwrites on every call; copy it to keep it.  ``what`` names the targets
    in the errors their checks raise.

    ``input_span``, which ``train`` sets when it steps through the span of
    its rows, is an orthonormal (m1, k) B that holds every input row;
    ``inputs`` are then the coordinates z = aB, and the first-layer gradient
    is (dh^T z) B^T, still H x m1.
    """

    def __init__(self, psi: np.ndarray, targets: np.ndarray, what: str = "target samples"):
        psi, u, unorm = check_targets(psi, targets, what)
        self.psi = psi
        self.targets = u
        self.gram = psi.T @ psi
        self.proj = u @ psi          # (M, m2)
        self.unorm = unorm
        self.n_samples = u.shape[0]
        self.m2 = psi.shape[1]
        self.input_span = None
        self._grads = None

    def _rho(self, b: np.ndarray, rows) -> tuple[np.ndarray, np.ndarray]:
        """Residual norms rho and the coefficient residuals Psi^T (Psi b - u)."""
        proj = self.proj[rows]
        q = b @ self.gram
        bgb = np.einsum("ij,ij->i", b, q)
        bw = np.einsum("ij,ij->i", b, proj)
        usq = self.unorm[rows] ** 2
        rho_sq = bgb - 2.0 * bw + usq
        rho = np.sqrt(np.maximum(rho_sq, 0.0))
        d = q - proj
        noise = _CANCEL_NOISE * (np.abs(bgb) + 2.0 * np.abs(bw) + usq)
        direct = np.flatnonzero(rho_sq <= noise)
        if direct.size:
            targets = self.targets[np.arange(self.n_samples)[rows][direct]]
            r = b[direct] @ self.psi.T - targets
            rho[direct] = np.linalg.norm(r, axis=1)
            d[direct] = r @ self.psi
        return rho, d

    def loss(self, net: OperatorNet, inputs: np.ndarray, rows=slice(None)) -> float:
        _, b = _forward(net, inputs, self.input_span)
        rho, _ = self._rho(b, rows)
        return float(np.mean(rho / self.unorm[rows]))

    def loss_and_grads(self, net: OperatorNet, inputs: np.ndarray,
                       rows=slice(None)) -> tuple[float, OperatorNet]:
        """Batch loss and its gradient as a net of ``net``'s shape (the buffer)."""
        hidden, b = _forward(net, inputs, self.input_span)
        rho, d = self._rho(b, rows)
        unorm = self.unorm[rows]
        batch = b.shape[0]
        loss = float(np.mean(rho / unorm))
        # zero-residual samples get a zero subgradient
        weight = np.zeros(batch)
        nz = rho > 0
        weight[nz] = 1.0 / (batch * rho[nz] * unorm[nz])
        d_b = d * weight[:, None]
        g = self._grads
        shape = (net.input_dim, net.hidden_dim, net.output_dim)
        if g is None or (g.input_dim, g.hidden_dim, g.output_dim) != shape:
            g = self._grads = OperatorNet(np.empty(net.n_parameters), *shape)
        np.matmul(d_b.T, hidden, out=g.output_weights)
        d_hidden = (d_b @ net.output_weights) * (1.0 - hidden ** 2)
        d_hidden.sum(axis=0, out=g.hidden_biases)
        if self.input_span is None:
            np.matmul(d_hidden.T, inputs, out=g.hidden_weights)
        else:
            np.matmul(d_hidden.T @ inputs, self.input_span.T, out=g.hidden_weights)
        return loss, g


# ---------------------------------------------------------------------------
# training


@dataclass
class TrainConfig:
    """Adam on the relative loss with a geometric LR decay.

    The learning rate starts at lr_start and falls by the same factor every
    epoch to lr_end on the final one (see ``learning_rate``).  Adam's
    constants are ``ADAM_BETA1``, ``ADAM_BETA2`` and ``ADAM_EPS``.
    batch_size None means full batch; seed orders the mini-batches.
    """

    epochs: int
    batch_size: int | None = None
    lr_start: float = 1e-3
    lr_end: float = 1e-6
    seed: int = 0
    eval_interval: int = 100

    def __post_init__(self):
        check_int("epochs", self.epochs, 0)
        check_real("lr_start", self.lr_start)
        check_real("lr_end", self.lr_end)
        if not self.lr_end > 0:
            raise ConfigurationError(f"lr_end: must be > 0, got {self.lr_end!r}")
        if not math.isfinite(self.lr_start):
            raise ConfigurationError(f"lr_start: must be finite, got {self.lr_start!r}")
        if not self.lr_start >= self.lr_end:
            raise ConfigurationError(
                f"lr_start: must be >= lr_end ({self.lr_end!r}), got {self.lr_start!r}")
        if self.batch_size is not None and not is_int(self.batch_size):
            raise ConfigurationError(
                f"batch_size: must be an integer or None for full batch, got {self.batch_size!r}")
        if self.batch_size is not None and self.batch_size < 1:
            raise ConfigurationError(
                f"batch_size: must be >= 1 or None for full batch, got {self.batch_size}")
        check_int("eval_interval", self.eval_interval, 1)
        check_int("seed", self.seed, 0)


def learning_rate(epoch: int, config: TrainConfig) -> float:
    """lr_start * (lr_end / lr_start) ** (epoch / (epochs - 1)): lr_start first, lr_end last."""
    total = config.epochs
    if total <= 1:
        return config.lr_start
    return config.lr_start * (config.lr_end / config.lr_start) ** (epoch / (total - 1))


@dataclass
class TrainTrace:
    train_loss: np.ndarray              # per epoch
    lr: np.ndarray                      # per epoch
    test_epochs: np.ndarray = field(default_factory=lambda: np.array([], dtype=int))
    test_loss: np.ndarray = field(default_factory=lambda: np.array([]))
    wall_seconds: float = 0.0


# Adam's constants, the defaults of Kingma & Ba (ICLR 2015, Algorithm 1)
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

# Elements per pass of the Adam step: its six float64 vectors (parameters,
# gradient, two moments, two scratch blocks) then take ~1.5 MB, which fits
# one core's 2 MB L2.  16k blocks measured slower on the 82k-parameter net.
_BLOCK = 32_768


class _Adam:
    """Adam on one flat parameter vector, in place, in Kingma & Ba's efficient form.

    With beta1, beta2, eps = ``ADAM_BETA1``, ``ADAM_BETA2``, ``ADAM_EPS``
    and bias corrections c1 = 1 - beta1^t and c2 = 1 - beta2^t, the
    textbook update lr * (m / c1) / (sqrt(v / c2) + eps) equals
    alpha * m / (sqrt(v) + eps_hat) with the two scalars
    alpha = lr * sqrt(c2) / c1 and eps_hat = eps * sqrt(c2) (Kingma & Ba,
    ICLR 2015, Sec. 2, last paragraph).  That form needs one vector
    division per step instead of three.  The moments m and v are computed
    exactly as in the textbook form; the update is exact in real arithmetic
    but rounds differently in the last bits.
    """

    def __init__(self, size: int):
        self.m = np.zeros(size)
        self.v = np.zeros(size)
        self._step = np.empty(min(size, _BLOCK))
        self._denom = np.empty(min(size, _BLOCK))
        self.t = 0

    def step(self, params: np.ndarray, grads: np.ndarray, lr: float) -> None:
        """params -= (m / (sqrt(v) + eps_hat)) * alpha, in that order, in place.

        The in-place passes run block by block, ``_BLOCK`` elements at a
        time, so each block's vectors stay in cache across all of them
        instead of every pass streaming the whole vectors from memory.  Each
        element sees the same operations in the same order either way, so
        the result does not depend on the block size.  The scratch vectors
        are one block long.
        """
        self.t += 1
        b1, b2 = ADAM_BETA1, ADAM_BETA2
        c1 = 1.0 - b1 ** self.t
        root_c2 = math.sqrt(1.0 - b2 ** self.t)
        alpha = lr * root_c2 / c1
        eps_hat = ADAM_EPS * root_c2
        for lo in range(0, params.size, _BLOCK):
            hi = lo + _BLOCK
            g = grads[lo:hi]
            m, v = self.m[lo:hi], self.v[lo:hi]
            step, denom = self._step[:g.size], self._denom[:g.size]
            m *= b1
            np.multiply(g, 1.0 - b1, out=step)
            m += step
            v *= b2
            np.multiply(g, 1.0 - b2, out=step)
            step *= g
            v += step
            np.sqrt(v, out=denom)
            denom += eps_hat
            np.divide(m, denom, out=step)
            step *= alpha
            params[lo:hi] -= step


def _check_dataset(net: OperatorNet, inputs, targets, psi, what: str):
    """Checked input rows and their ReconstructionLoss for one labelled set."""
    a = _check_inputs(net, inputs, f"{what} inputs")
    loss_ws = ReconstructionLoss(psi, targets, f"{what} targets")
    if loss_ws.m2 != net.output_dim:
        raise ConfigurationError(
            f"basis evaluation matrix has {loss_ws.m2} columns, network outputs {net.output_dim}"
        )
    if loss_ws.n_samples != a.shape[0]:
        raise ConfigurationError(f"{what} input and target sample counts differ")
    return a, loss_ws


# The rows' span keeps the leading right singular vectors up to the first
# whose dropped tail of singular values has norm at most this multiple of
# eps * ||a|| (Frobenius norms); that tail is the norm of the rows' part
# outside the span.  Standardized truncated-SVD coefficients, whose rows lie
# in the encoder's kept span up to rounding, measured at most 8 eps outside
# it on the benchmark's Darcy and Poisson sizes for every cut from 1e-1 to
# 1e-13 (seeds 0-2), so the tail cut here drops only rounding.
_SPAN_RESIDUAL = 1024 * np.finfo(np.float64).eps


def _span_basis(a: np.ndarray, batch: int) -> np.ndarray | None:
    """Orthonormal (m1, k) basis of the span of the rows ``a``, from their thin SVD.

    k is the fewest leading right singular vectors whose dropped singular
    values have norm at most ``_SPAN_RESIDUAL`` * ||a||.  None when
    k (m1 + batch) >= batch * m1: stepping through the basis would then take
    no fewer multiplies than stepping on the rows.
    """
    m1 = a.shape[1]
    # the rows' right singular vectors are the left ones of a^T; at one BLAS
    # thread the Poisson sweep's 1024 x 200 a^T factors in 17-21 ms, its
    # 200 x 1024 a in 21-28 ms
    u, s, _ = np.linalg.svd(a.T, full_matrices=False)
    if not s.any():             # no rows, or only zero rows: the span is {0}
        k = 0
    else:
        # tail[k] = ||s[k:]|| / s[0], nonincreasing; scaled so that no square overflows
        tail = np.sqrt(np.cumsum((s[::-1] / s[0]) ** 2))[::-1]
        k = int(np.count_nonzero(tail > _SPAN_RESIDUAL * tail[0]))
    if k * (m1 + batch) >= batch * m1:
        return None
    return u[:, :k].copy()


def train(net: OperatorNet,
          train_inputs: np.ndarray,
          train_targets: np.ndarray,
          psi: np.ndarray,
          config: TrainConfig,
          test_inputs: np.ndarray | None = None,
          test_targets: np.ndarray | None = None) -> tuple[OperatorNet, TrainTrace]:
    """Train a copy of ``net``; the argument itself is left untouched.

    The test set, when given, is checked as the training set is, before the
    first epoch.  Deterministic for fixed seeds and thread count: full-batch
    reductions are single matrix products, and mini-batch order comes from
    the config seed.

    The training rows' span is found from their thin SVD (``_span_basis``).
    When its rank k has k (m1 + batch) < batch * m1, for batch the rows per
    step, the steps go through it as the module docstring describes;
    otherwise every step is the plain one, bit for bit.
    """
    a_train, loss_ws = _check_dataset(net, train_inputs, train_targets, psi, "training")
    if (test_inputs is None) != (test_targets is None):
        raise ConfigurationError("test_inputs and test_targets must be given together")
    test_ws = None
    if test_inputs is not None:
        a_test, test_ws = _check_dataset(net, test_inputs, test_targets, psi, "test")

    net = net.copy()
    adam = _Adam(net.n_parameters)
    rng = np.random.default_rng(config.seed)
    n_samples = a_train.shape[0]
    batch_size = config.batch_size
    full_batch = batch_size is None or batch_size >= n_samples
    batches = [slice(None)]     # full batch: every row, no permutation drawn
    x_train = a_train
    basis = _span_basis(a_train, n_samples if full_batch else batch_size)
    if basis is not None:
        loss_ws.input_span = basis
        x_train = a_train @ basis

    train_hist = np.empty(config.epochs)
    lr_hist = np.empty(config.epochs)
    test_epochs: list[int] = []
    test_hist: list[float] = []
    started = time.perf_counter()

    # a diverging run reports through TrainingDiverged, not numpy's overflow warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(config.epochs):
            lr = learning_rate(epoch, config)
            lr_hist[epoch] = lr
            if not full_batch:
                order = rng.permutation(n_samples)
                batches = [order[i: i + batch_size] for i in range(0, n_samples, batch_size)]
            batch_losses = []
            for rows in batches:
                loss, grads = loss_ws.loss_and_grads(net, x_train[rows], rows=rows)
                if not np.isfinite(loss):
                    raise TrainingDiverged(
                        f"training loss became non-finite at epoch {epoch}",
                        epoch=epoch, checkpoint=net.copy(),
                        trace=_finish_trace(train_hist[:epoch], lr_hist[:epoch],
                                            test_epochs, test_hist, started),
                    )
                adam.step(net.parameters, grads.parameters, lr)
                batch_losses.append(loss)
            # the mean of one loss is that loss, bit for bit
            train_hist[epoch] = np.mean(batch_losses)
            if test_ws is not None and (epoch % config.eval_interval == 0
                                        or epoch == config.epochs - 1):
                test_epochs.append(epoch)
                test_hist.append(test_ws.loss(net, a_test))

    trace = _finish_trace(train_hist, lr_hist, test_epochs, test_hist, started)
    return net, trace


def _finish_trace(train_hist, lr_hist, test_epochs, test_hist, started) -> TrainTrace:
    return TrainTrace(
        train_loss=np.asarray(train_hist, dtype=np.float64),
        lr=np.asarray(lr_hist, dtype=np.float64),
        test_epochs=np.asarray(test_epochs, dtype=int),
        test_loss=np.asarray(test_hist, dtype=np.float64),
        wall_seconds=time.perf_counter() - started,
    )
