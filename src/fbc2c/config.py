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
from dataclasses import dataclass, field

from .basis import ActivationKind, WindowKind, build_rfm, build_vector_rfm, uniform_fem_basis
from .encoder import EncodeSpec
from .errors import ConfigurationError
from .neuralop import TrainConfig

# the size and sample-count fields each dataset kind reads; each must be >= 1
_DATASET_SIZES = {
    "darcy1d": ("n", "m_train", "m_test"),
    "poisson2d": ("n", "m_train", "m_test", "modes"),
    "highd_poisson": ("d", "n_points", "n_train", "n_gen1", "n_gen2"),
    "multi_output_1d": ("n", "m_train", "m_test"),
}


@dataclass
class DatasetSpec:
    """Which generator to run and with what parameters.

    ``n`` is the grid size for the 1D problems and the points per side for
    poisson2d; highd_poisson uses ``d``/``n_points`` and the three fixed
    amplitude splits instead of m_train/m_test.
    """

    kind: str
    n: int | None = None
    m_train: int | None = None
    m_test: int | None = None
    seed: int = 0
    length_scale: float = 0.04
    amplitude: float = 1.0
    tol: float = 1e-10
    modes: int = 5
    d: int | None = None
    n_points: int | None = None
    n_train: int = 8
    n_gen1: int = 2
    n_gen2: int = 10

    def __post_init__(self):
        if self.kind not in _DATASET_SIZES:
            raise ConfigurationError(
                f"dataset.kind: unknown kind {self.kind!r}, expected one of {tuple(_DATASET_SIZES)}"
            )
        for name in _DATASET_SIZES[self.kind]:
            value = getattr(self, name)
            if value is None:
                raise ConfigurationError(f"dataset.{name}: {self.kind} needs it")
            if value < 1:
                raise ConfigurationError(f"dataset.{name}: must be >= 1, got {value}")


@dataclass
class BasisSpec:
    """Structural description of a basis; building it is deterministic."""

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
        if self.kind == "rfm" and (self.partitions is None or self.features_per_partition is None):
            raise ConfigurationError("partitions: rfm needs partitions and features_per_partition")
        if self.kind == "fem" and self.n_nodes is None:
            raise ConfigurationError("n_nodes: fem needs n_nodes")
        for name, kind in (("window", WindowKind), ("activation", ActivationKind)):
            choices = tuple(k.value for k in kind)
            if getattr(self, name) not in choices:
                raise ConfigurationError(
                    f"{name}: unknown {name} {getattr(self, name)!r}, expected one of {choices}")

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


@dataclass
class ExperimentConfig:
    """Everything one run needs: data, bases, encoders, net, training."""

    dataset: DatasetSpec
    output_basis: BasisSpec
    train: TrainConfig
    input_basis: BasisSpec | None = None
    input_encode: EncodeSpec = field(default_factory=EncodeSpec)
    output_encode: EncodeSpec = field(default_factory=EncodeSpec)
    net: NetSpec = field(default_factory=NetSpec)
    p2c: bool = False
    output_mode: str = "scalar"     # "scalar" or "vector" for multi-component outputs

    def __post_init__(self):
        if not self.p2c and self.input_basis is None:
            raise ConfigurationError("input_basis is required unless p2c is set")
        if self.output_mode not in ("scalar", "vector"):
            raise ConfigurationError("output_mode: must be 'scalar' or 'vector'")


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
        joint = "." if str(exc).split(":", 1)[0] in fields else ": "
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
