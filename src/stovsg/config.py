"""Engine configuration: one object, one JSON file, all defaults explicit."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

from .errors import FormatError, InputRejected
from .formats import FLOAT, INT, Codec, parse_json
from .model import POSE_TOL, refuse_infinite
from .query import QueryConfig
from .spatial import SpatialWeights
from .temporal import TemporalWeights

CONFIG_SCHEMA = "stovsg-config/1"

# sections written as nested objects; the remaining fields form "engine"
_SECTIONS = {"spatial": SpatialWeights, "temporal": TemporalWeights, "query": QueryConfig}
# the value codec of each field annotation that occurs in a section
_ANNOTATION_CODECS = {"float": FLOAT, "int": INT}


def _codecs(cls: type) -> dict[str, Codec]:
    """The value codec of each field of ``cls`` that is not a section."""
    return {f.name: _ANNOTATION_CODECS[f.type] for f in fields(cls) if f.name not in _SECTIONS}


def _section(data: dict, name: str, cls: type, **sections):
    """The section built as ``cls``: each value checked against its field's type, then by ``cls`` itself."""
    raw = data.get(name, {})
    if not isinstance(raw, dict):
        raise FormatError(f"config section {name!r} must be an object")
    codecs = _codecs(cls)
    bad = set(raw) - set(codecs)
    if bad:
        raise FormatError(f"unknown keys in config section {name!r}: {sorted(bad)}")
    values = {}
    for key, value in raw.items():
        try:
            values[key] = codecs[key].decode(value)
        except FormatError as exc:
            raise FormatError(f"config section {name!r}: {key}: {exc}") from None
    try:
        return cls(**sections, **values)
    except InputRejected as exc:  # a value the settings refuse; the message names the key
        raise FormatError(f"config section {name!r}: {exc}") from None


@dataclass(frozen=True)
class EngineConfig:
    """Every tunable in one place; the zero-argument form is the default."""

    spatial: SpatialWeights = field(default_factory=SpatialWeights)
    temporal: TemporalWeights = field(default_factory=TemporalWeights)
    query: QueryConfig = field(default_factory=QueryConfig)
    descriptor_alpha: float = 0.3  # appearance EMA mixing factor
    centroid_tol: float = POSE_TOL  # metres; node-accuracy gate for scoring

    def __post_init__(self) -> None:
        if not 0 < self.descriptor_alpha <= 1:  # each rule is written so that NaN fails it
            raise InputRejected(f"descriptor_alpha must be in (0, 1], got {self.descriptor_alpha}")
        if not self.centroid_tol > 0:
            raise InputRejected(f"centroid_tol must be positive, got {self.centroid_tol}")
        refuse_infinite(self)

    def to_dict(self) -> dict:
        sections = {name: asdict(getattr(self, name)) for name in _SECTIONS}
        engine = {key: getattr(self, key) for key in _codecs(EngineConfig)}
        return {"schema": CONFIG_SCHEMA, **sections, "engine": engine}

    @staticmethod
    def from_dict(data: dict) -> "EngineConfig":
        if not isinstance(data, dict):
            raise FormatError("config must be a JSON object")
        schema = data.get("schema", CONFIG_SCHEMA)
        if schema != CONFIG_SCHEMA:
            raise FormatError(f"unsupported config schema {schema!r}")
        unknown = set(data) - {"schema", "engine", *_SECTIONS}
        if unknown:
            raise FormatError(f"unknown config keys: {sorted(unknown)}")
        sections = {name: _section(data, name, cls) for name, cls in _SECTIONS.items()}
        return _section(data, "engine", EngineConfig, **sections)


def load_config(path: str | Path | None) -> EngineConfig:
    """Read a config file; ``None`` returns the built-in defaults."""
    if path is None:
        return EngineConfig()
    return EngineConfig.from_dict(parse_json(Path(path).read_text(), f"config file {path} is not valid JSON"))


def save_config(config: EngineConfig, path: str | Path) -> None:
    Path(path).write_text(json.dumps(config.to_dict(), indent=2) + "\n")
