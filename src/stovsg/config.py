"""Engine configuration: one object, one JSON file, all defaults explicit."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

from .errors import FormatError
from .formats import FLOAT, INT, Codec, parse_json
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


def _section(data: dict, name: str, codecs: dict[str, Codec]) -> dict:
    """The section's values, each checked against its field's type."""
    raw = data.get(name, {})
    if not isinstance(raw, dict):
        raise FormatError(f"config section {name!r} must be an object")
    bad = set(raw) - set(codecs)
    if bad:
        raise FormatError(f"unknown keys in config section {name!r}: {sorted(bad)}")
    values = {}
    for key, value in raw.items():
        try:
            values[key] = codecs[key].decode(value)
        except FormatError as exc:
            raise FormatError(f"config section {name!r}: {key}: {exc}") from None
    return values


_SECTION_CODECS = {name: _codecs(cls) for name, cls in _SECTIONS.items()}


@dataclass(frozen=True)
class EngineConfig:
    """Every tunable in one place; the zero-argument form is the default."""

    spatial: SpatialWeights = field(default_factory=SpatialWeights)
    temporal: TemporalWeights = field(default_factory=TemporalWeights)
    query: QueryConfig = field(default_factory=QueryConfig)
    descriptor_alpha: float = 0.3  # appearance EMA mixing factor
    centroid_tol: float = 0.05  # metres; node-accuracy gate for scoring

    def to_dict(self) -> dict:
        sections = {name: asdict(getattr(self, name)) for name in _SECTIONS}
        engine = {key: getattr(self, key) for key in _ENGINE_CODECS}
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
        sections = {
            name: cls(**_section(data, name, _SECTION_CODECS[name]))
            for name, cls in _SECTIONS.items()
        }
        cfg = EngineConfig(**sections, **_section(data, "engine", _ENGINE_CODECS))
        cfg.validate()
        return cfg

    def validate(self) -> None:
        data = self.to_dict()  # every value must read back as its field's type
        for name, codecs in {**_SECTION_CODECS, "engine": _ENGINE_CODECS}.items():
            _section(data, name, codecs)
        t = self.temporal
        if t.d_max <= 0:
            raise FormatError(f"temporal.d_max must be positive, got {t.d_max}")
        if t.grace_period < 0:
            raise FormatError(f"temporal.grace_period must be non-negative, got {t.grace_period}")
        if min(t.w_pos, t.w_vis, t.delta_cls) < 0:
            raise FormatError("temporal weights must be non-negative")
        if min(self.spatial.w_iou, self.spatial.w_area, self.spatial.w_ctr) < 0:
            raise FormatError("spatial weights must be non-negative")
        if self.query.beta < 0:
            raise FormatError(f"query.beta must be non-negative, got {self.query.beta}")
        if self.query.top_k < 1:
            raise FormatError(f"query.top_k must be at least 1, got {self.query.top_k}")
        if self.query.neighbor_hops < 0:
            raise FormatError(f"query.neighbor_hops must be non-negative, got {self.query.neighbor_hops}")
        if not 0 < self.descriptor_alpha <= 1:
            raise FormatError(f"engine.descriptor_alpha must be in (0, 1], got {self.descriptor_alpha}")
        if self.centroid_tol <= 0:
            raise FormatError(f"engine.centroid_tol must be positive, got {self.centroid_tol}")


_ENGINE_CODECS = _codecs(EngineConfig)


def load_config(path: str | Path | None) -> EngineConfig:
    """Read a config file; ``None`` returns the built-in defaults."""
    if path is None:
        return EngineConfig()
    return EngineConfig.from_dict(parse_json(Path(path).read_text(), f"config file {path} is not valid JSON"))


def save_config(config: EngineConfig, path: str | Path) -> None:
    Path(path).write_text(json.dumps(config.to_dict(), indent=2) + "\n")
