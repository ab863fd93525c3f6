"""Declarative run configuration with strict JSON round-tripping.

Every run is described by an ExperimentConfig; the resolved form (defaults
applied) is re-emitted next to run artifacts so results can be reproduced
exactly.  Each section checks its fields when it is built, so a bad value is
refused on load, before any data is generated.  Unknown keys, values of the
wrong JSON type and refused values are reported with their field path
(``config.input_basis.window: ...``).  The dataset section is
``datagen.DatasetSpec``, the basis sections ``basis.BasisSpec`` and the
encode sections ``encoder.EncodeSpec``, each checked where it is made and
used as it is; ``DatasetSpec`` and ``BasisSpec`` are re-exported here.
Sizes, counts and seeds must be integers (a bool is not one) also in a
spec built in Python.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field

from .basis import BasisSpec
from .datagen import DatasetSpec
from .encoder import EncodeSpec
from .errors import ConfigurationError, check_int
from .neuralop import TrainConfig


@dataclass
class NetSpec:
    hidden: int = 512
    seed: int = 0

    def __post_init__(self):
        check_int("hidden", self.hidden, 1)
        check_int("seed", self.seed, 0)


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
        for name in ("input_basis", "output_basis"):
            getattr(self, name).check_dim(self.dataset.dim, name)
        components = self.dataset.components
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
