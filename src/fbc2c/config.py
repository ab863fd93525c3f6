"""Declarative run configuration with strict JSON round-tripping.

Every run is described by an ExperimentConfig; the resolved form (defaults
applied) is re-emitted next to run artifacts so results can be reproduced
exactly.  Each section checks its fields when it is built, so a bad value is
refused on load, before any data is generated.  Unknown keys, values of the
wrong JSON type and refused values are reported with their field path
(``config.input_basis.window: ...``).  The encode sections are
``encoder.EncodeSpec``, which the encoders take as they are.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .basis import ActivationKind, WindowKind, build_rfm, build_vector_rfm, uniform_fem_basis
from .encoder import EncodeSpec
from .errors import ConfigurationError
from .neuralop import TrainConfig

# Per dataset kind: the size fields it reads with the least value each takes
# (the 1D solvers need an interior grid point, and a poisson2d grid below 3x3
# holds only boundary points, where its solutions vanish); the GRF settings it
# reads, each finite and > 0; the dimension of the points its functions are
# sampled at; and the number of its output components.
_GRF = ("length_scale", "amplitude")
_DATASET_KINDS = {
    "darcy1d": ({"n": 3, "m_train": 1, "m_test": 1}, _GRF, 1, 1),
    "poisson2d": ({"n": 3, "m_train": 1, "m_test": 1, "modes": 1}, (), 2, 1),
    "multi_output_1d": ({"n": 3, "m_train": 1, "m_test": 1}, _GRF, 1, 2),
}


def _check_seed(seed) -> None:
    if seed < 0:
        raise ConfigurationError(f"seed: must be >= 0, got {seed}")


def _is_count(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool) and value >= 1


def _is_box(value, dim: int) -> bool:
    """Whether ``value`` is ``dim`` [lo, hi] pairs of finite numbers with hi > lo."""
    try:
        box = np.asarray(value, dtype=np.float64).reshape(dim, 2)
    except (TypeError, ValueError):
        return False
    return bool(np.all(np.isfinite(box)) and np.all(box[:, 1] > box[:, 0]))


@dataclass
class DatasetSpec:
    """Which generator to run and with what parameters.

    Every kind draws a train and a test split on one grid; ``n`` is the grid
    size for the 1D problems and the points per side for poisson2d.  The
    fields the kind reads, and the seed, are checked on construction; an
    error names the field.
    """

    kind: str
    n: int | None = None
    m_train: int | None = None
    m_test: int | None = None
    seed: int = 0
    length_scale: float = 0.04
    amplitude: float = 1.0
    modes: int = 5

    def __post_init__(self):
        if self.kind not in _DATASET_KINDS:
            raise ConfigurationError(
                f"kind: unknown kind {self.kind!r}, expected one of {tuple(_DATASET_KINDS)}"
            )
        sizes, scales, _, _ = _DATASET_KINDS[self.kind]
        for name, least in sizes.items():
            value = getattr(self, name)
            if value is None:
                raise ConfigurationError(f"{name}: {self.kind} needs it")
            if value < least:
                raise ConfigurationError(f"{name}: must be >= {least}, got {value}")
        for name in scales:
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ConfigurationError(f"{name}: must be finite and > 0, got {value!r}")
        _check_seed(self.seed)


@dataclass
class BasisSpec:
    """Structural description of a basis; building it is deterministic.

    The fields the kind reads are checked on construction, so a spec that
    exists builds; ``build_rfm`` and ``uniform_fem_basis`` repeat the checks
    for direct callers.
    """

    kind: str                       # "rfm" or "fem"
    partitions: list | None = None  # rfm: counts per dimension
    features_per_partition: int | None = None
    range_bound: float = 3.0
    window: str = "smooth"
    activation: str = "tanh"
    seed: int = 0
    bounds: list | None = None      # [[lo, hi], ...]; None means [-1, 1]^d
    n_nodes: int | None = None      # fem
    domain: list = field(default_factory=lambda: [0.0, 1.0])

    def __post_init__(self):
        if self.kind not in ("rfm", "fem"):
            raise ConfigurationError(f"kind: unknown kind {self.kind!r}, expected 'rfm' or 'fem'")
        for name, kind in (("window", WindowKind), ("activation", ActivationKind)):
            choices = tuple(k.value for k in kind)
            if getattr(self, name) not in choices:
                raise ConfigurationError(
                    f"{name}: unknown {name} {getattr(self, name)!r}, expected one of {choices}")
        _check_seed(self.seed)
        if self.kind == "fem":
            if self.n_nodes is None:
                raise ConfigurationError("n_nodes: fem needs n_nodes")
            if self.n_nodes < 2:
                raise ConfigurationError(f"n_nodes: must be >= 2, got {self.n_nodes}")
            if not _is_box(self.domain, 1):
                raise ConfigurationError(
                    f"domain: must be [lo, hi], two finite numbers with lo < hi, "
                    f"got {self.domain!r}")
            return
        if self.partitions is None or self.features_per_partition is None:
            raise ConfigurationError("partitions: rfm needs partitions and features_per_partition")
        if not (self.partitions and all(_is_count(p) for p in self.partitions)):
            raise ConfigurationError(
                f"partitions: must be one integer count >= 1 per dimension, got {self.partitions!r}")
        if self.features_per_partition < 1:
            raise ConfigurationError(
                f"features_per_partition: must be >= 1, got {self.features_per_partition}")
        if not (math.isfinite(self.range_bound) and self.range_bound > 0):
            raise ConfigurationError(f"range_bound: must be finite and > 0, got {self.range_bound!r}")
        if self.bounds is not None and not _is_box(self.bounds, self.dim):
            raise ConfigurationError(
                f"bounds: must be {self.dim} [lo, hi] pair(s) of finite numbers with hi > lo, "
                f"one per partition count, got {self.bounds!r}")

    @property
    def dim(self) -> int:
        """The dimension of the points the basis is evaluated at."""
        return 1 if self.kind == "fem" else len(self.partitions)

    def check_dim(self, dim: int, path: str) -> None:
        """Refuse ``dim``-dimensional data unless it is the basis's; ``path`` names the spec."""
        if self.dim != dim:
            what = f"partitions: {self.dim} counts" if self.kind == "rfm" else "kind: a 1-D fem basis"
            raise ConfigurationError(f"{path}.{what} for {dim}-dimensional data")

    def build(self, n_components: int = 1):
        if self.kind == "fem":
            if n_components != 1:
                raise ConfigurationError("vector-valued FEM bases are not supported")
            return uniform_fem_basis(self.n_nodes, self.domain[0], self.domain[1])
        window = WindowKind(self.window)
        activation = ActivationKind(self.activation)
        if n_components == 1:
            return build_rfm(len(self.partitions), self.partitions,
                             self.features_per_partition, self.range_bound,
                             window, activation, self.seed, self.bounds)
        return build_vector_rfm(n_components, len(self.partitions), self.partitions,
                                self.features_per_partition, self.range_bound,
                                window, activation, self.seed, self.bounds)


@dataclass
class NetSpec:
    hidden: int = 512
    seed: int = 0

    def __post_init__(self):
        if self.hidden < 1:
            raise ConfigurationError(f"hidden: must be >= 1, got {self.hidden}")
        _check_seed(self.seed)


@dataclass
class ExperimentConfig:
    """Everything one run needs: data, bases, encoders, net, training."""

    dataset: DatasetSpec
    input_basis: BasisSpec
    output_basis: BasisSpec
    train: TrainConfig
    input_encode: EncodeSpec = field(default_factory=EncodeSpec)
    output_encode: EncodeSpec = field(default_factory=EncodeSpec)
    net: NetSpec = field(default_factory=NetSpec)
    output_mode: str = "scalar"     # "scalar" or "vector" for multi-component outputs

    def __post_init__(self):
        if self.output_mode not in ("scalar", "vector"):
            raise ConfigurationError("output_mode: must be 'scalar' or 'vector'")
        _, _, dim, components = _DATASET_KINDS[self.dataset.kind]
        for name in ("input_basis", "output_basis"):
            getattr(self, name).check_dim(dim, name)
        if self.output_mode == "vector" and components > 1 and self.output_basis.kind == "fem":
            raise ConfigurationError(
                f"output_basis.kind: a fem basis has no vector-valued form for the "
                f"{components} output components of {self.dataset.kind}; use output_mode 'scalar'")


# ---------------------------------------------------------------------------
# dict round-trip


# JSON value types per annotation name; an int is a valid float, a bool is neither
_JSON_TYPES = {"int": int, "float": (int, float), "str": str, "bool": bool, "list": list}


def _check_value(annotation: str, value, path: str) -> None:
    """Refuse a JSON value that fits no type of its field's annotation."""
    names = [name.strip() for name in annotation.split("|")]
    if value is None:
        fits = "None" in names
    elif isinstance(value, bool):
        fits = "bool" in names
    else:
        fits = any(isinstance(value, _JSON_TYPES[name]) for name in names if name in _JSON_TYPES)
    if not fits:
        raise ConfigurationError(
            f"{path}: expected {annotation}, got {type(value).__name__} {value!r}")


def _from_dict(cls, data: dict, path: str):
    if not isinstance(data, dict):
        raise ConfigurationError(f"{path}: expected an object, got {type(data).__name__}")
    fields = {f.name: f for f in dataclasses.fields(cls)}
    unknown = sorted(set(data) - set(fields))
    if unknown:
        raise ConfigurationError(f"{path}.{unknown[0]}: unknown key")
    kwargs = {}
    nested = {"dataset": DatasetSpec, "output_basis": BasisSpec, "input_basis": BasisSpec,
              "input_encode": EncodeSpec, "output_encode": EncodeSpec,
              "net": NetSpec, "train": TrainConfig}
    for name, value in data.items():
        if name in nested and value is not None:
            kwargs[name] = _from_dict(nested[name], value, f"{path}.{name}")
        else:
            _check_value(fields[name].type, value, f"{path}.{name}")
            kwargs[name] = value
    missing = [f.name for f in dataclasses.fields(cls)
               if f.default is dataclasses.MISSING
               and f.default_factory is dataclasses.MISSING
               and f.name not in kwargs]
    if missing:
        raise ConfigurationError(f"{path}.{missing[0]}: required key missing")
    try:
        return cls(**kwargs)
    except ConfigurationError as exc:
        # a message that starts with one of the fields continues the path
        joint = "." if str(exc).split(":", 1)[0].split(".", 1)[0] in fields else ": "
        raise ConfigurationError(f"{path}{joint}{exc}") from exc


def config_from_dict(data: dict) -> ExperimentConfig:
    return _from_dict(ExperimentConfig, data, "config")


def config_to_dict(config: ExperimentConfig) -> dict:
    return dataclasses.asdict(config)


def load_config(path) -> ExperimentConfig:
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"config: invalid JSON in {path}: {exc}") from exc
    return config_from_dict(data)


def dump_config(config: ExperimentConfig, path) -> None:
    with open(path, "w") as fh:
        json.dump(config_to_dict(config), fh, indent=2, sort_keys=True)
        fh.write("\n")


def config_hash(config: ExperimentConfig) -> str:
    canonical = json.dumps(config_to_dict(config), sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]
