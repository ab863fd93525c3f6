"""Exception hierarchy shared across the package."""


class ConfigurationError(ValueError):
    """Invalid structural parameters, shapes, or config fields.

    The message starts with the offending field path when the error comes
    from config parsing (e.g. ``dataset.kind``).
    """


class DomainError(ValueError):
    """Evaluation point outside the domain a basis is defined on."""


class DataError(ValueError):
    """Invalid numerical data: NaN inputs, zero-norm targets, etc."""


class RankDeficiencyError(RuntimeError):
    """An unregularized least-squares solve on a numerically singular design matrix.

    ``condition_estimate`` is cond(Phi) = sigma_1 / sigma_min of the design
    matrix, inf when it has fewer nonzero singular values than columns.
    """

    def __init__(self, message: str, condition_estimate: float):
        super().__init__(message)
        self.condition_estimate = condition_estimate


class SolverError(RuntimeError):
    """A PDE solver failed to converge."""

    def __init__(self, message: str, residual_history=None):
        super().__init__(message)
        self.residual_history = list(residual_history or [])


class NumericalError(RuntimeError):
    """A numerical factorization failed beyond recovery."""


class TrainingDiverged(RuntimeError):
    """Loss became non-finite; carries the last finite parameter state."""

    def __init__(self, message: str, epoch: int, checkpoint=None, trace=None):
        super().__init__(message)
        self.epoch = epoch
        self.checkpoint = checkpoint
        self.trace = trace
