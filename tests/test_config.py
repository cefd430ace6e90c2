"""Engine configuration: defaults, JSON round trips, and the rules each setting keeps."""

import ast
import dataclasses
import json
import math
import re
from pathlib import Path

import pytest

from stovsg import (
    CONFIG_SCHEMA,
    EngineConfig,
    FormatError,
    InputRejected,
    QueryConfig,
    SpatialWeights,
    TemporalWeights,
    load_config,
    save_config,
)
from stovsg.config import _ANNOTATION_CODECS

REPO_ROOT = Path(__file__).resolve().parent.parent


def test_defaults_match_component_defaults():
    cfg = EngineConfig()
    assert cfg.spatial == SpatialWeights()
    assert cfg.temporal == TemporalWeights()
    assert cfg.query == QueryConfig()
    assert cfg.descriptor_alpha == 0.3
    assert cfg.centroid_tol == 0.05


def test_shipped_default_file_matches_builtin_defaults():
    cfg = load_config(REPO_ROOT / "configs" / "default.json")
    assert cfg == EngineConfig()


def test_round_trip_preserves_every_field(tmp_path):
    cfg = EngineConfig(
        spatial=SpatialWeights(w_iou=2.0, w_area=0.25, w_ctr=1.5),
        temporal=TemporalWeights(w_pos=0.3, w_vis=0.5, delta_cls=0.1, d_max=2.0, eta=0.7, grace_period=4.0),
        query=QueryConfig(beta=0.9, top_k=3, neighbor_hops=2),
        descriptor_alpha=0.5,
        centroid_tol=0.2,
    )
    path = tmp_path / "tuned.json"
    save_config(cfg, path)
    assert load_config(path) == cfg


def test_none_path_returns_defaults():
    assert load_config(None) == EngineConfig()


def test_from_dict_fills_missing_sections_with_defaults():
    cfg = EngineConfig.from_dict({"schema": CONFIG_SCHEMA, "query": {"top_k": 2}})
    assert cfg.query.top_k == 2
    assert cfg.query.beta == QueryConfig().beta
    assert cfg.spatial == SpatialWeights()
    assert cfg.temporal == TemporalWeights()


def test_from_dict_rejects_unknown_top_level_key():
    with pytest.raises(FormatError, match="unknown config keys"):
        EngineConfig.from_dict({"schema": CONFIG_SCHEMA, "spatail": {}})


@pytest.mark.parametrize(
    "section,key",
    [
        ("spatial", "w_depth"),
        ("temporal", "w_velocity"),
        ("query", "beam_width"),
        ("engine", "threads"),
        ("engine", "motion_model"),
        ("engine", "fallback_to_earliest"),
        ("engine", "max_points"),
        ("engine", "max_frames"),
        ("query", "history_depth"),
    ],
)
def test_from_dict_rejects_unknown_section_key(section, key):
    with pytest.raises(FormatError, match=f"section {section!r}"):
        EngineConfig.from_dict({"schema": CONFIG_SCHEMA, section: {key: 1}})


def test_from_dict_rejects_wrong_schema_and_shape():
    with pytest.raises(FormatError, match="unsupported config schema"):
        EngineConfig.from_dict({"schema": "stovsg-config/999"})
    with pytest.raises(FormatError, match="must be a JSON object"):
        EngineConfig.from_dict([1, 2, 3])
    with pytest.raises(FormatError, match="section 'engine'"):
        EngineConfig.from_dict({"schema": CONFIG_SCHEMA, "engine": "fast"})


@pytest.mark.parametrize(
    "overrides,message",
    [
        ({"temporal": {"d_max": 0.0}}, "d_max must be positive"),
        ({"temporal": {"grace_period": -1.0}}, "grace_period must be non-negative"),
        ({"temporal": {"w_pos": -0.1}}, "temporal weights"),
        ({"spatial": {"w_ctr": -2.0}}, "spatial weights"),
        ({"query": {"beta": -0.5}}, "beta must be non-negative"),
        ({"query": {"top_k": 0}}, "top_k must be at least 1"),
        ({"query": {"neighbor_hops": -1}}, "neighbor_hops must be non-negative"),
        # removed options are refused, even at their former defaults
        ({"query": {"history_depth": None}}, "history_depth"),
        ({"engine": {"motion_model": "last"}}, "motion_model"),
        ({"engine": {"descriptor_alpha": 0.0}}, "descriptor_alpha"),
        ({"engine": {"descriptor_alpha": 1.5}}, "descriptor_alpha"),
        ({"engine": {"max_points": 2048}}, "max_points"),
        ({"engine": {"max_frames": None}}, "max_frames"),
        ({"engine": {"centroid_tol": 0.0}}, "centroid_tol"),
        ({"query": {"top_k": 2.5}}, "top_k: expected an integer, got float"),
        ({"query": {"top_k": True}}, "top_k: expected an integer, got bool"),
    ],
)
def test_from_dict_rejects_invalid_values(overrides, message):
    data = {"schema": CONFIG_SCHEMA, **overrides}
    with pytest.raises(FormatError, match=message):
        EngineConfig.from_dict(data)


# (settings class, field, refused value, message); NaN fails every rule
_REFUSED = [
    *(
        (SpatialWeights, key, value, f"^spatial weights must be non-negative, got {key}={value}$")
        for key in ("w_iou", "w_area", "w_ctr")
        for value in (-0.5, math.nan)
    ),
    *(
        (TemporalWeights, key, value, f"^temporal weights must be non-negative, got {key}={value}$")
        for key in ("w_pos", "w_vis", "delta_cls")
        for value in (-0.5, math.nan)
    ),
    *((TemporalWeights, "d_max", value, f"^d_max must be positive, got {value}$") for value in (0.0, -1.0, math.nan)),
    *(
        (TemporalWeights, "eta", value, f"^eta must be positive, got {value}$")
        for value in (0.0, -0.5, -math.inf, math.nan)
    ),
    *(
        (TemporalWeights, "grace_period", value, f"^grace_period must be non-negative, got {value}$")
        for value in (-1.0, math.nan)
    ),
    *((QueryConfig, "beta", value, f"^beta must be non-negative, got {value}$") for value in (-0.5, math.nan)),
    *(
        (QueryConfig, "top_k", value, rf"^top_k must be at least 1 \(an integer\), got {value}$")
        for value in (0, -3, 2.5, True, math.nan)
    ),
    *(
        (QueryConfig, "neighbor_hops", value, rf"^neighbor_hops must be non-negative \(an integer\), got {value}$")
        for value in (-1, 1.5, True, math.nan)
    ),
    *(
        (EngineConfig, "descriptor_alpha", value, rf"^descriptor_alpha must be in \(0, 1\], got {value}$")
        for value in (0.0, -0.2, 2.0, math.nan)
    ),
    *(
        (EngineConfig, "centroid_tol", value, f"^centroid_tol must be positive, got {value}$")
        for value in (0.0, -1.0, math.nan)
    ),
]


def test_settings_built_in_code_refuse_each_rule():
    """Each settings class checks its own values when built, so ``dataclasses.replace`` is checked too."""
    for cls, key, value, message in _REFUSED:
        with pytest.raises(InputRejected, match=message):
            cls(**{key: value})
        with pytest.raises(InputRejected, match=message):
            dataclasses.replace(cls(), **{key: value})
    edges = [(SpatialWeights, "w_iou", 0.0), (TemporalWeights, "grace_period", 0.0), (TemporalWeights, "d_max", 1e-9)]
    edges += [(QueryConfig, "beta", 0.0), (QueryConfig, "top_k", 1), (QueryConfig, "neighbor_hops", 0)]
    edges += [(EngineConfig, "descriptor_alpha", 1.0), (EngineConfig, "centroid_tol", 1e-9)]
    edges += [(TemporalWeights, "eta", 1e-9), (TemporalWeights, "eta", 1e300), (TemporalWeights, "grace_period", 1e300)]
    for cls, key, value in edges:  # the boundary of each rule is allowed
        assert getattr(cls(**{key: value}), key) == value


def test_every_float_setting_refuses_an_infinity():
    """An infinite weight, gate, grace period or tolerance gives NaN costs or scores, or retires no track."""
    floats = [
        (cls, f.name)
        for cls in (SpatialWeights, TemporalWeights, QueryConfig, EngineConfig)
        for f in dataclasses.fields(cls)
        if f.type == "float"
    ]
    assert len(floats) == 12
    words = {(cls, key): message for cls, key, _, message in _REFUSED}
    for cls, key in floats:
        for value in (math.inf, -math.inf):
            with pytest.raises(InputRejected) as refused:
                cls(**{key: value})
            with pytest.raises(InputRejected, match=f"^{re.escape(str(refused.value))}$"):
                dataclasses.replace(cls(), **{key: value})
            if value > 0 and key != "descriptor_alpha":  # refused by the finiteness rule alone
                assert str(refused.value) == f"{key} must be finite, got inf"
            else:  # refused by the setting's sign or range rule, in its words
                assert re.match(words[cls, key].replace("nan", "-?inf"), str(refused.value))


@pytest.mark.parametrize(
    "section,key,value,message",
    [
        ("spatial", "w_area", -1.0, "spatial weights must be non-negative, got w_area=-1.0"),
        ("temporal", "delta_cls", -0.5, "temporal weights must be non-negative, got delta_cls=-0.5"),
        ("temporal", "d_max", 0.0, "d_max must be positive, got 0.0"),
        ("query", "top_k", 0, "top_k must be at least 1 (an integer), got 0"),
        ("engine", "centroid_tol", -1.0, "centroid_tol must be positive, got -1.0"),
    ],
)
def test_a_value_the_settings_refuse_is_one_format_error_naming_its_section(section, key, value, message):
    with pytest.raises(FormatError) as refused:
        EngineConfig.from_dict({"schema": CONFIG_SCHEMA, section: {key: value}})
    assert str(refused.value) == f"config section {section!r}: {message}"


def test_load_config_rejects_broken_file(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(FormatError, match="not valid JSON"):
        load_config(path)


def test_load_config_rejects_non_numeric_weight(tmp_path):
    path = tmp_path / "typed.json"
    path.write_text(json.dumps({"schema": CONFIG_SCHEMA, "temporal": {"w_pos": "heavy"}}))
    with pytest.raises(FormatError):
        load_config(path)


def test_every_config_field_is_read_outside_the_config_module():
    """A field that no engine code reads is a knob that does nothing when set.

    Likewise a value codec that no field's annotation selects is dead code.
    """
    read = {
        node.attr
        for path in (REPO_ROOT / "src" / "stovsg").glob("*.py")
        if path.name != "config.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    declared = {
        f.name
        for cls in (EngineConfig, SpatialWeights, TemporalWeights, QueryConfig)
        for f in dataclasses.fields(cls)
    }
    assert sorted(declared - read) == []
    annotations = {
        f.type
        for cls in (EngineConfig, SpatialWeights, TemporalWeights, QueryConfig)
        for f in dataclasses.fields(cls)
    }
    assert sorted(set(_ANNOTATION_CODECS) - annotations) == []
