"""Exception hierarchy shared across the package, and its integer and real setting checks."""

import numbers


class ConfigurationError(ValueError):
    """Invalid structural parameters, shapes, or config fields.

    The message starts with the offending field path when the error comes
    from config parsing (e.g. ``dataset.kind``).
    """


def is_int(value) -> bool:
    """Whether ``value`` is an integer; a bool is not, nor a float holding a whole number."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def check_int(name: str, value, least: int) -> None:
    """Refuse the size, count or seed ``name`` unless it is an integer >= ``least``.

    A spec built in Python is held to what its JSON form allows.
    """
    if not is_int(value):
        raise ConfigurationError(f"{name}: must be an integer, got {value!r}")
    if value < least:
        raise ConfigurationError(f"{name}: must be >= {least}, got {value}")


def check_real(name: str, value) -> None:
    """Refuse the setting ``name`` unless it is a real number; a bool or a str is not one."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        raise ConfigurationError(f"{name}: must be a real number, got {value!r}")


class DomainError(ValueError):
    """Evaluation point outside the domain a basis is defined on."""


class DataError(ValueError):
    """Invalid numerical data: NaN inputs, zero-norm targets, etc."""


class NumericalError(RuntimeError):
    """A numerical factorization or solve failed beyond recovery."""


class TrainingDiverged(RuntimeError):
    """Loss became non-finite; carries the last finite parameter state."""

    def __init__(self, message: str, epoch: int, checkpoint=None, trace=None):
        super().__init__(message)
        self.epoch = epoch
        self.checkpoint = checkpoint
        self.trace = trace
