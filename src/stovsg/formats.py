"""Versioned on-disk formats: streams, graphs, scenarios, truth, subgraphs.

Every payload carries a ``schema`` identifier.  Writers emit a canonical
form — fixed key order, compact separators, shortest-round-trip floats —
so equal values always produce identical bytes, and ``write(parse(x))``
reproduces a canonical file ``x`` exactly.  The planner-facing subgraph
payload is the one exception to full precision: its floats are printed
with six significant digits, and serializing a parsed payload is a fixed
point at the byte level.

Each record type is written and read through one table of
``(JSON key, attribute, value codec)`` rows in written key order (see
:func:`record`), so the tables below are the format specification.

Graph files, the largest, are written and read one record at a time,
with no JSON tree of the whole file.  :func:`write_graph` encodes each
frame, temporal edge and track on its own into a new file beside the
target, which replaces the target only once complete, so a failed write
leaves no partial file.  :func:`read_graph` walks the file with ``json``'s
own scanner and decodes each record as soon as it is scanned: a syntax
error reads as ``json.loads`` reports it, and of two faults in one file
the first in file order is reported.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import re
import secrets
import struct
from functools import partial
from itertools import chain
from json.decoder import WHITESPACE, JSONDecoder, scanstring
from json.scanner import make_scanner
from pathlib import Path, PurePosixPath
from types import MappingProxyType
from typing import Any, Callable, Iterable, Iterator, Mapping, NamedTuple, NoReturn, Sequence

import numpy as np

from .errors import FormatError, InputRejected
from .geometry import DepthImage
from .model import (
    BoundingBox2D,
    CameraModel,
    Command,
    Detection,
    FrameGraph,
    LatencyTag,
    ObjectNode,
    PixelMask,
    RelationCandidate,
    SceneGraph4D,
    SpatialEdge,
    TemporalEdge,
    Track,
    chain_problems,
    freeze_array,
    time_order_problems,
)
from .query import TaskSubgraph
from .sim import (
    MAX_IMAGE_SIDE,
    CommandTruth,
    DetectionTruth,
    FrameTruth,
    GroundTruthLog,
    LatencyProfile,
    NoiseModel,
    ScenarioSpec,
    SimCommand,
    SimObject,
)
from .store import FrameInput

STREAM_SCHEMA = "stovsg-stream/2"
GRAPH_SCHEMA = "stovsg-graph/6"
SCENARIO_SCHEMA = "stovsg-scenario/1"
SUBGRAPH_SCHEMA = "stovsg-subgraph/2"
TRUTH_SCHEMA = "stovsg-truth/1"
COMMAND_SCHEMA = "stovsg-command/1"


_encode = json.JSONEncoder(separators=(",", ":"), allow_nan=False).encode


def dumps(obj: Any) -> str:
    """Compact JSON with shortest-round-trip floats (lossless)."""
    return _encode(obj)


# --- six-significant-digit canonical writer (subgraph payloads) -----------


def canonical_dumps(obj: Any) -> str:
    """Canonical compact JSON with floats at six significant digits.

    Formatting is idempotent: parsing the output and serializing again
    yields identical bytes.  One pass appends every token to one list.
    Each value dispatches on its exact type first; only a type outside
    JSON's own (a NumPy scalar or array, a tuple, another ``Mapping``, an
    ``int`` subclass) reaches the ``isinstance`` checks.  A NumPy array is
    written as its ``tolist()``, so a 0-d one as its scalar.  An integer
    of more digits than Python prints is refused.
    """
    parts: list[str] = []
    try:
        _put(obj, parts)
    except FormatError:
        raise
    except ValueError:  # only writing an integer's digits raises it here: more digits than Python prints
        raise FormatError("cannot serialize an integer of more digits than Python prints") from None
    return "".join(parts)


_quote = json.encoder.encode_basestring_ascii  # what json.dumps writes for a str


def _float_text(o) -> str:
    if not math.isfinite(o):
        raise FormatError(f"cannot serialize non-finite float {o}")
    return "0" if o == 0.0 else f"{float(o):.6g}"  # "-0" would reparse as the int 0


def _put(o: Any, parts: list[str]) -> None:
    kind = type(o)
    if kind is float:
        parts.append(_float_text(o))
    elif kind is str:
        parts.append(_quote(o))
    elif kind is dict:
        _put_items(o, parts)
    elif kind is list:
        _put_list(o, parts)
    elif kind is int:
        parts.append(int.__repr__(o))
    elif isinstance(o, (float, np.floating)):
        parts.append(_float_text(o))
    elif isinstance(o, np.ndarray):
        _put(o.tolist(), parts)
    elif isinstance(o, (list, tuple)):
        _put_list(o, parts)
    elif isinstance(o, Mapping):
        _put_items(o, parts)
    elif o is None or isinstance(o, (bool, str)):
        parts.append(json.dumps(o))
    elif isinstance(o, (int, np.integer)):
        parts.append(str(int(o)))
    else:
        raise FormatError(f"cannot serialize {type(o).__name__} canonically")


def _put_list(values: Sequence, parts: list[str]) -> None:
    # each value is followed by a comma; the last comma becomes the bracket
    parts.append("[")
    for v in values:
        _put(v, parts)
        parts.append(",")
    if values:
        parts[-1] = "]"
    else:
        parts.append("]")


def _put_items(mapping: Mapping, parts: list[str]) -> None:
    parts.append("{")
    for k, v in mapping.items():
        parts.append(_quote(k if type(k) is str else str(k)))
        parts.append(":")
        _put(v, parts)
        parts.append(",")
    if mapping:
        parts[-1] = "}"
    else:
        parts.append("}")


# --- the record codec -------------------------------------------------------


class _Invalid(FormatError):
    """A decoding failure; ``path`` holds the keys and indices that lead to it."""

    path: tuple[str | int, ...] = ()

    def located(self, where: str) -> FormatError:
        steps = "".join(f"[{p}]" if isinstance(p, int) else f".{p}" for p in self.path)
        return FormatError(f"{where}: {steps.lstrip('.') + ': ' if steps else ''}{self.args[0]}")


def _wrong_schema(expected: str, found: Any) -> _Invalid:
    return _Invalid(f"expected schema {expected!r}, got {found!r}")


def _reject(expected: str, raw: Any) -> NoReturn:
    raise _Invalid(f"expected {expected}, got {'null' if raw is None else type(raw).__name__}")


def _build(cls: type, *args, **kwargs):
    """``cls(*args, **kwargs)``, with a value the class itself refuses read as a decoding failure."""
    try:
        return cls(*args, **kwargs)
    except InputRejected as exc:
        raise _Invalid(exc.args[0]) from None


class Codec(NamedTuple):
    """How one value is written (``None``: as it is) and read back with its type checked.

    An array's codec also holds its ``items`` and a record's its ``fields``:
    what :func:`write_graph` and :func:`read_graph` need to take a file one
    element at a time.
    """

    encode: Callable[[Any], Any] | None
    decode: Callable[[Any], Any]
    items: Items | None = None
    fields: Fields | None = None


class Items(NamedTuple):
    """A JSON array's element codec, the value's ``elements`` in written order, and what ``collect`` makes of them."""

    item: Codec
    elements: Callable[[Any], Iterable]
    collect: Callable[[list], Any]


class Fields(NamedTuple):
    """A record's rows and schema, and ``build``, which makes the instance from its decoded values by attribute."""

    rows: tuple[tuple[str, str, Codec], ...]
    schema: str | None
    build: Callable[[dict], Any]


def _decode_float(raw: Any) -> float:
    if (type(raw) is float or (type(raw) is int and abs(raw) < 1e308)) and math.isfinite(raw):
        return float(raw)
    _reject("a finite number", raw)


FLOAT = Codec(None, _decode_float)
INT = Codec(None, lambda raw: raw if type(raw) is int else _reject("an integer", raw))


def _decode_positive_int(raw: Any) -> int:
    if INT.decode(raw) < 1:
        raise _Invalid(f"expected a positive integer, got {raw}")
    return raw


POSITIVE_INT = Codec(None, _decode_positive_int)
STR = Codec(None, lambda raw: raw if type(raw) is str else _reject("a string", raw))
_NUMBERS = {float, int}


# Every number's type is checked, since NumPy reads a JSON boolean among
# numbers as 0 or 1.  Each array takes one type scan and one conversion, and
# is handed over read-only, so the record it goes into keeps it uncopied
# (see ``freeze_array``).


def _decode_vector(raw: Any) -> np.ndarray:
    if type(raw) is list and _NUMBERS.issuperset(map(type, raw)):
        try:
            # a few numbers are checked for finiteness faster one by one than by NumPy
            if all(map(math.isfinite, raw)):
                return freeze_array(raw)
        except OverflowError:  # an integer beyond the float range
            pass
    _reject("an array of finite numbers nested 1 deep", raw)


def _decode_matrix(raw: Any) -> np.ndarray:
    arr = None
    if type(raw) is list and raw and set(map(type, raw)) == {list} and len(set(map(len, raw))) == 1:
        if _NUMBERS.issuperset(map(type, chain.from_iterable(raw))):
            try:  # the rows go straight into the array, with no flattened list between
                arr = np.fromiter(chain.from_iterable(raw), np.float64, len(raw) * len(raw[0]))
            except OverflowError:  # an integer beyond the float range
                pass
    if arr is None or not np.isfinite(arr).all():
        _reject("an array of finite numbers nested 2 deep", raw)
    arr.setflags(write=False)  # before the reshape, so its view has no writable base
    return arr.reshape(len(raw), -1)


VECTOR = Codec(np.ndarray.tolist, _decode_vector)
MATRIX = Codec(np.ndarray.tolist, _decode_matrix)
# N x 3 world points; an empty list keeps the three columns
_NO_POINTS = freeze_array(np.zeros((0, 3)))
POINTS = Codec(np.ndarray.tolist, lambda raw: _NO_POINTS if raw == [] else MATRIX.decode(raw))


def list_of(item: Codec, elements: Callable[[Any], Iterable] = iter, collect: Callable[[list], Any] = tuple) -> Codec:
    """A JSON array of ``item`` values, read as a tuple (or what ``collect`` makes of the list).

    ``elements`` gives a value's elements in written order.
    """
    encode_item, decode_item = item.encode, item.decode

    def encode(value) -> list:
        return list(elements(value)) if encode_item is None else [encode_item(v) for v in elements(value)]

    def decode(raw: Any):
        if type(raw) is not list:
            _reject("an array", raw)
        out: list = []
        try:
            for value in raw:
                out.append(decode_item(value))
        except _Invalid as exc:
            exc.path = (len(out), *exc.path)
            raise
        return collect(out)

    return Codec(encode, decode, Items(item, elements, collect))


def tuple_of(*items: Codec) -> Codec:
    """A fixed-length JSON array with one codec per position, read as a tuple."""

    def encode(values) -> list:
        return [v if c.encode is None else c.encode(v) for c, v in zip(items, values)]

    def decode(raw: Any) -> tuple:
        if type(raw) is not list or len(raw) != len(items):
            _reject(f"an array of {len(items)} values", raw)
        return tuple([c.decode(v) for c, v in zip(items, raw)])

    return Codec(encode, decode)


def optional(value: Codec) -> Codec:
    """``value`` or JSON ``null``."""
    encode, decode = value.encode, value.decode
    write = None if encode is None else lambda v: None if v is None else encode(v)
    return Codec(write, lambda raw: None if raw is None else decode(raw))


def record(cls: type, *rows: tuple[str, str, Codec], schema: str | None = None) -> Codec:
    """The codec of a dataclass written as a JSON object.

    ``rows`` are ``(JSON key, attribute, value codec)`` in written key
    order and must name exactly the class's init fields, so no field can
    be left out of a file.  A ``schema`` is written first and checked on
    reading.
    """
    attrs = [attr for _, attr, _ in rows]
    fields = [f.name for f in dataclasses.fields(cls) if f.init]
    if sorted(attrs) != sorted(fields):
        raise TypeError(f"{cls.__name__} rows name {attrs}, but its fields are {fields}")

    def encode(obj) -> dict:
        out: dict = {"schema": schema} if schema else {}
        for key, attr, codec in rows:
            value = getattr(obj, attr)
            out[key] = value if codec.encode is None else codec.encode(value)
        return out

    def build(values: dict):
        if len(values) < len(rows):
            raise _Invalid(f"missing key {next(key for key, attr, _ in rows if attr not in values)!r}")
        try:
            return cls(**values)
        except InputRejected as exc:  # a value the class itself refuses
            raise _Invalid(exc.args[0]) from None

    def decode(data: Any):
        if not isinstance(data, dict):
            _reject("an object", data)
        if schema and data.get("schema") != schema:
            raise _wrong_schema(schema, data.get("schema"))
        values = {}
        try:
            for key, attr, codec in rows:
                if key not in data:
                    break  # build names it
                values[attr] = codec.decode(data[key])
        except _Invalid as exc:
            exc.path = (key, *exc.path)
            raise
        return build(values)

    return Codec(encode, decode, fields=Fields(tuple(rows), schema, build))


def _decode(codec: Codec, data: Any, where: str):
    try:
        return codec.decode(data)
    except _Invalid as exc:
        raise exc.located(where) from None


def parse_json(text: str, where: str) -> Any:
    """``json.loads(text)``, with text it cannot read a format error naming ``where``.

    That includes an integer of more digits than Python converts, and
    arrays or objects nested deeper than it recurses.
    """
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise FormatError(f"{where}: {exc}") from None


def _load(path: str | Path, what: str) -> Any:
    return parse_json(Path(path).read_text(), f"{what} {path}")


# --- run-length mask codec -------------------------------------------------


def encode_mask(mask: PixelMask) -> list[list[int]]:
    """Encode pixels as [row, start_col, run_length] triples in row-major order."""
    if len(mask) == 0:
        return []
    arr = mask.pixels
    p = arr[np.lexsort((arr[:, 0], arr[:, 1]))]
    u, v = p[:, 0], p[:, 1]
    starts = np.flatnonzero(np.concatenate(([True], (np.diff(v) != 0) | (np.diff(u) != 1))))
    lengths = np.diff(np.append(starts, len(p)))
    return np.stack([v[starts], u[starts], lengths], axis=1).tolist()


def decode_mask(runs: Sequence) -> PixelMask:
    if type(runs) is not list:
        _reject("an array of runs", runs)
    if not runs:
        return PixelMask.from_pixels(np.zeros((0, 2), dtype=np.int64))
    arr = None
    # types are checked as in ``_array``: NumPy reads a JSON boolean among integers as 0 or 1
    if set(map(type, runs)) == {list} and set(map(len, runs)) == {3}:
        if {int}.issuperset(map(type, chain.from_iterable(runs))):
            arr = np.array(runs)
    if arr is None or arr.dtype.kind != "i":  # object dtype: an integer beyond int64
        raise _Invalid("mask: runs must be [row, col, length] integers")
    v, u0, n = arr[:, 0], arr[:, 1], arr[:, 2]
    # a run or a mask no image could hold is refused before any pixel array is made
    low, high = int(n.min()), int(n.max())
    if low < 1 or high > MAX_IMAGE_SIDE:
        raise _Invalid(f"mask: run length {low if low < 1 else high} is not between 1 and {MAX_IMAGE_SIDE}")
    total = int(n.sum())
    if total > MAX_IMAGE_SIDE**2:
        raise _Invalid(f"mask: runs cover {total} pixels, more than an image of {MAX_IMAGE_SIDE}x{MAX_IMAGE_SIDE}")
    offsets = np.arange(total) - np.repeat(np.cumsum(n) - n, n)
    return PixelMask.from_pixels(np.stack([np.repeat(u0, n) + offsets, np.repeat(v, n)], axis=1))


MASK = Codec(encode_mask, decode_mask)


# --- value codecs for special shapes ------------------------------------------

_BOX = tuple_of(FLOAT, FLOAT, FLOAT, FLOAT)
BOX = Codec(lambda box: list(box.as_tuple()), lambda raw: _build(BoundingBox2D, *_BOX.decode(raw)))
# an unbounded visibility window ends at JSON null
UNBOUNDED = Codec(
    lambda end: None if math.isinf(end) else end,
    lambda raw: math.inf if raw is None else _decode_float(raw),
)
_STEPS = list_of(tuple_of(FLOAT, FLOAT))
PROFILE = Codec(lambda profile: _STEPS.encode(profile.steps), lambda raw: _build(LatencyProfile, _STEPS.decode(raw)))


# --- record tables ------------------------------------------------------------

CAMERA = record(
    CameraModel,
    ("fx", "fx", FLOAT),
    ("fy", "fy", FLOAT),
    ("cx", "cx", FLOAT),
    ("cy", "cy", FLOAT),
    ("rotation", "rotation", MATRIX),
    ("translation", "translation", VECTOR),
)
TAG = record(
    LatencyTag,
    ("capture_time", "capture_time", FLOAT),
    ("transmission_latency", "transmission_latency", FLOAT),
)
DETECTION = record(
    Detection,
    ("box", "box", BOX),
    ("mask_rle", "mask", MASK),
    ("label", "label", STR),
    ("f_img", "f_img", VECTOR),
    ("f_txt", "f_txt", VECTOR),
)
CANDIDATE = record(
    RelationCandidate,
    ("src", "src", INT),
    ("dst", "dst", INT),
    ("relation", "relation", STR),
    ("zone", "zone", BOX),
)
NODE = record(
    ObjectNode,
    ("node_id", "node_id", INT),
    ("label", "label", STR),
    ("f_img", "f_img", VECTOR),
    ("f_txt", "f_txt", VECTOR),
    ("centroid", "centroid", VECTOR),
    ("size", "size", VECTOR),
    ("points", "points", POINTS),
)
SPATIAL_EDGE = record(
    SpatialEdge,
    ("src", "src", INT),
    ("dst", "dst", INT),
    ("relation", "relation", STR),
    ("cost", "cost", FLOAT),
)
FRAME = record(
    FrameGraph,
    ("frame_index", "frame_index", INT),
    ("latency_tag", "latency_tag", TAG),
    ("nodes", "nodes", list_of(NODE)),
    ("spatial_edges", "spatial_edges", list_of(SPATIAL_EDGE)),
)
TEMPORAL_EDGE = record(
    TemporalEdge,
    ("relation", "relation", STR),
    ("track_id", "track_id", INT),
    ("event_frame", "event_frame", INT),
    ("src_node", "src_node", optional(INT)),
    ("dst_node", "dst_node", optional(INT)),
)


TRACK = record(
    Track,
    ("track_id", "track_id", INT),
    ("descriptor", "descriptor", VECTOR),
)
# the live tracks are written as a list sorted by track id, and read by id
TRACKS = list_of(
    TRACK,
    lambda tracks: (t for _, t in sorted(tracks.items())),
    lambda tracks: MappingProxyType({t.track_id: t for t in tracks}),
)
GRAPH = record(
    SceneGraph4D,
    ("next_node_id", "next_node_id", INT),
    ("next_track_id", "next_track_id", INT),
    ("frames_dropped", "frames_dropped", INT),
    ("frames", "frames", list_of(FRAME)),
    ("temporal_edges", "temporal_edges", list_of(TEMPORAL_EDGE)),
    ("tracks", "tracks", TRACKS),
    schema=GRAPH_SCHEMA,
)
NOISE = record(
    NoiseModel,
    ("centroid_sigma", "centroid_sigma", FLOAT),
    ("feature_sigma", "feature_sigma", FLOAT),
    ("dropout_prob", "dropout_prob", FLOAT),
    ("label_flip_prob", "label_flip_prob", FLOAT),
)
SIM_OBJECT = record(
    SimObject,
    ("true_id", "true_id", INT),
    ("label", "label", STR),
    ("size", "size", list_of(FLOAT)),
    ("txt_archetype", "txt_archetype", VECTOR),
    ("img_archetype", "img_archetype", VECTOR),
    ("waypoints", "waypoints", list_of(tuple_of(FLOAT, VECTOR))),
    ("visibility", "visibility", list_of(tuple_of(FLOAT, UNBOUNDED))),
)
SIM_COMMAND = record(
    SimCommand,
    ("text", "text", STR),
    ("embedding", "embedding", VECTOR),
    ("intended_id", "intended_id", INT),
    ("issue_time", "issue_time", FLOAT),
)
SCENARIO = record(
    ScenarioSpec,
    ("family", "family", STR),
    ("seed", "seed", INT),
    ("duration", "duration", FLOAT),
    ("frame_rate", "frame_rate", FLOAT),
    ("image_width", "image_width", POSITIVE_INT),
    ("image_height", "image_height", POSITIVE_INT),
    ("feature_dim", "feature_dim", POSITIVE_INT),
    ("camera", "camera", CAMERA),
    ("noise", "noise", NOISE),
    ("uplink", "uplink", PROFILE),
    ("downlink", "downlink", PROFILE),
    ("near_threshold", "near_threshold", FLOAT),
    ("objects", "objects", list_of(SIM_OBJECT)),
    ("commands", "commands", list_of(SIM_COMMAND)),
    schema=SCENARIO_SCHEMA,
)
DETECTION_TRUTH = record(
    DetectionTruth,
    ("true_id", "true_id", INT),
    ("label", "label", STR),
    ("centroid", "centroid", VECTOR),
)
FRAME_TRUTH = record(
    FrameTruth,
    ("frame_index", "frame_index", INT),
    ("capture_time", "capture_time", FLOAT),
    ("detections", "detections", list_of(DETECTION_TRUTH)),
    ("relations", "relations", list_of(tuple_of(INT, INT, STR))),
)
COMMAND_TRUTH = record(
    CommandTruth,
    ("intended_id", "intended_id", INT),
    ("issue_time", "issue_time", FLOAT),
    ("arrival_time", "arrival_time", FLOAT),
    ("centroid_at_issue", "centroid_at_issue", VECTOR),
    ("centroid_at_arrival", "centroid_at_arrival", VECTOR),
)
TRUTH = record(
    GroundTruthLog,
    ("frames", "frames", list_of(FRAME_TRUTH)),
    ("commands", "commands", list_of(COMMAND_TRUTH)),
    schema=TRUTH_SCHEMA,
)
COMMAND = record(
    Command,
    ("text", "text", STR),
    ("embedding", "embedding", VECTOR),
    ("issue_time", "issue_time", FLOAT),
    ("latency", "latency", FLOAT),
    schema=COMMAND_SCHEMA,
)


@dataclasses.dataclass(frozen=True)
class _StreamLine:
    """One frame line of a stream file; its depth lives in a sidecar file."""

    frame_index: int
    latency_tag: LatencyTag
    camera: CameraModel
    detections: tuple[Detection, ...]
    relation_candidates: tuple[RelationCandidate, ...]
    depth_ref: str


STREAM_LINE = record(
    _StreamLine,
    ("frame_index", "frame_index", INT),
    ("latency_tag", "latency_tag", TAG),
    ("camera", "camera", CAMERA),
    ("detections", "detections", list_of(DETECTION)),
    ("relation_candidates", "relation_candidates", list_of(CANDIDATE)),
    ("depth_ref", "depth_ref", STR),
)


# --- binary depth files ----------------------------------------------------


def write_depth_file(depth: DepthImage, path: str | Path) -> None:
    """Little-endian: width and height as uint32, then row-major float32 metres."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as fh:
        fh.write(struct.pack("<II", depth.width, depth.height))
        fh.write(np.ascontiguousarray(depth.values, dtype="<f4").tobytes())


def read_depth_file(path: str | Path) -> DepthImage:
    raw = Path(path).read_bytes()
    if len(raw) < 8:
        raise FormatError(f"depth file {path}: truncated header")
    width, height = struct.unpack_from("<II", raw)
    if max(width, height) > MAX_IMAGE_SIDE:
        raise FormatError(f"depth file {path}: image {width}x{height} is wider or higher than {MAX_IMAGE_SIDE} pixels")
    expected = 8 + 4 * width * height
    if len(raw) != expected:
        raise FormatError(f"depth file {path}: expected {expected} bytes, got {len(raw)}")
    values = np.frombuffer(raw, dtype="<f4", offset=8).reshape(height, width)
    return DepthImage(values)


# --- detection stream (line-delimited JSON + depth sidecars) ----------------


def write_stream(inputs: Sequence[FrameInput], path: str | Path) -> None:
    """Write frames as one JSON record per line plus binary depth sidecars.

    Depth images land in ``<name>_depth/frame_NNNNNN.bin`` next to the
    stream file and are referenced by relative path from each record.
    The header line holds only the schema.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    depth_dir = f"{path.name.removesuffix('.jsonl')}_depth"
    lines = [dumps({"schema": STREAM_SCHEMA})]
    for k, frame in enumerate(inputs, start=1):
        depth_ref = f"{depth_dir}/frame_{k:06d}.bin"
        write_depth_file(frame.depth, path.parent / depth_ref)
        line = _StreamLine(
            k, frame.latency_tag, frame.camera, frame.detections, frame.relation_candidates, depth_ref
        )
        lines.append(dumps(STREAM_LINE.encode(line)))
    path.write_text("\n".join(lines) + "\n")


def _read_frame(raw: Any, index: int, folder: Path) -> FrameInput:
    if isinstance(raw, dict):  # a frame record may leave out its candidates
        raw = {"relation_candidates": [], **raw}
    line = STREAM_LINE.decode(raw)
    if line.frame_index != index:
        raise _Invalid(f"frame_index {line.frame_index} out of order (expected {index})")
    ref = PurePosixPath(line.depth_ref)
    if ref.is_absolute() or ".." in ref.parts:
        raise _Invalid(f"depth_ref {line.depth_ref!r} leaves the stream's directory")
    depth = read_depth_file(folder / ref)
    return FrameInput(line.latency_tag, line.camera, depth, line.detections, line.relation_candidates)


def parse_stream(path: str | Path) -> tuple[dict, list[FrameInput]]:
    """Read a stream file back into frame inputs (header dict, frames)."""
    path = Path(path)
    lines = [(lineno, line) for lineno, line in enumerate(path.read_text().split("\n"), start=1) if line.strip()]
    if not lines:
        raise FormatError(f"stream {path}: empty file")
    header = parse_json(lines[0][1], f"stream {path}: bad header")
    found = header.get("schema") if isinstance(header, dict) else None
    if found != STREAM_SCHEMA:
        raise _wrong_schema(STREAM_SCHEMA, found).located(f"stream {path}")
    frames: list[FrameInput] = []
    for lineno, line in lines[1:]:
        raw = parse_json(line, f"stream {path}:{lineno}")
        try:
            frames.append(_read_frame(raw, len(frames) + 1, path.parent))
        except _Invalid as exc:
            raise exc.located(f"stream {path}:{lineno}") from None
    return header, frames


# --- graph, scenario, truth and command files ------------------------------

graph_to_dict = GRAPH.encode

scenario_to_dict = SCENARIO.encode
scenario_from_dict = partial(_decode, SCENARIO, where="scenario")
truth_to_dict = TRUTH.encode
truth_from_dict = partial(_decode, TRUTH, where="truth")
command_to_dict = COMMAND.encode


def _snapshot(file: SceneGraph4D) -> SceneGraph4D:
    """The decoded graph file, once its time order and its tracks' edges are known to hold.

    A file whose frames or edges are out of time order, or whose edges or
    track ids break a rule of :func:`~stovsg.model.chain_problems`, is a
    format error.
    """
    for path, message in time_order_problems(file):
        raise FormatError(f"graph: {path}: {message}")
    for track_id, message in chain_problems(file):
        raise FormatError(f"graph: track {track_id}: {message}")
    return file


def graph_from_dict(data: Any) -> SceneGraph4D:
    """Decode a graph (see :func:`_snapshot`)."""
    return _snapshot(_decode(GRAPH, data, "graph"))


def _record_text(codec: Codec, obj) -> Iterator[str]:
    """``dumps(codec.encode(obj))`` in pieces: each element of an array row is one piece."""
    rows, schema, _ = codec.fields
    yield "{"
    comma = ""
    if schema:
        yield f'"schema":{_encode(schema)}'
        comma = ","
    for key, attr, row in rows:
        yield f"{comma}{_encode(key)}:"
        comma = ","
        value = getattr(obj, attr)
        if row.items is None:
            yield _encode(value if row.encode is None else row.encode(value))
            continue
        encode = row.items.item.encode
        yield "["
        for k, element in enumerate(row.items.elements(value)):
            yield ("," if k else "") + _encode(element if encode is None else encode(element))
        yield "]"
    yield "}"


def write_graph(graph: SceneGraph4D, path: str | Path) -> None:
    """Write ``dumps(graph_to_dict(graph)) + "\\n"`` one frame, temporal edge and track at a time.

    The text goes to a new file beside ``path`` that replaces ``path`` only
    once it is complete, so a failed write leaves ``path`` as it was.
    """
    path = Path(os.path.realpath(path))  # through a symlink, as a plain write goes
    partial_path = path.with_name(f".{path.name}.{secrets.token_hex(6)}.tmp")
    try:
        with open(partial_path, "x") as fh:
            fh.writelines(_record_text(GRAPH, graph))
            fh.write("\n")
        os.replace(partial_path, path)
    finally:
        partial_path.unlink(missing_ok=True)


_WHITESPACE = WHITESPACE.match
_scan_once = make_scanner(JSONDecoder())
# a graph file that starts another way is read whole, so its schema is still checked first
_GRAPH_HEAD = re.compile(r'[ \t\n\r]*\{[ \t\n\r]*"schema"[ \t\n\r]*:[ \t\n\r]*')


def _scan(text: str, i: int) -> tuple[Any, int]:
    """The JSON value at ``text[i]`` and the index after it, failing as ``json.loads`` would there."""
    try:
        return _scan_once(text, i)
    except StopIteration as stop:
        raise json.JSONDecodeError("Expecting value", text, stop.value) from None


def _expect(text: str, i: int, char: str, message: str) -> int:
    """The index after ``char`` at ``text[i]`` and any whitespace after it."""
    if text[i : i + 1] != char:
        raise json.JSONDecodeError(message, text, i)
    return _WHITESPACE(text, i + 1).end()


def _decode_at(text: str, i: int, codec: Codec) -> tuple[Any, int]:
    """Decode the value at ``text[i]``; an array's elements are each decoded as soon as they are scanned."""
    if codec.items is None or text[i : i + 1] != "[":
        raw, i = _scan(text, i)
        return codec.decode(raw), i
    decode = codec.items.item.decode
    out: list = []
    i = _WHITESPACE(text, i + 1).end()
    if text[i : i + 1] != "]":
        while True:
            raw, i = _scan(text, i)
            try:
                out.append(decode(raw))
            except _Invalid as exc:
                exc.path = (len(out), *exc.path)
                raise
            i = _WHITESPACE(text, i).end()
            if text[i : i + 1] == "]":
                break
            i = _expect(text, i, ",", "Expecting ',' delimiter")
    return codec.items.collect(out), i + 1


def _read_graph_text(text: str) -> SceneGraph4D:
    """Decode a graph file's text one top-level value, frame, temporal edge and track at a time.

    The walk over the top-level object and its arrays is ``json``'s own, so
    a syntax error is reported as ``json.loads`` reports it.  A fault is
    found in file order: of two faults, the first in the file is reported.
    """
    head = _GRAPH_HEAD.match(text)
    if head is None:
        return GRAPH.decode(json.loads(text))
    rows, schema, build = GRAPH.fields
    found, i = _scan(text, head.end())
    if found != schema:
        raise _wrong_schema(schema, found)
    codecs = {key: (attr, codec) for key, attr, codec in rows}
    values = {}
    i = _WHITESPACE(text, i).end()
    while text[i : i + 1] != "}":
        i = _expect(text, i, ",", "Expecting ',' delimiter")
        if text[i : i + 1] != '"':
            raise json.JSONDecodeError("Expecting property name enclosed in double quotes", text, i)
        key, i = scanstring(text, i + 1)
        i = _expect(text, _WHITESPACE(text, i).end(), ":", "Expecting ':' delimiter")
        if key in codecs:
            attr, codec = codecs[key]
            try:
                values[attr], i = _decode_at(text, i, codec)
            except _Invalid as exc:
                exc.path = (key, *exc.path)
                raise
        else:
            _, i = _scan(text, i)
        i = _WHITESPACE(text, i).end()
    end = _WHITESPACE(text, i + 1).end()
    if end != len(text):
        raise json.JSONDecodeError("Extra data", text, end)
    return build(values)


def _read_text(path: str | Path) -> str:
    """``Path(path).read_text()``, without its newline pass over a file that has no carriage return."""
    with open(path, newline="") as fh:
        text = fh.read()
    return text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text


def read_graph(path: str | Path) -> SceneGraph4D:
    """Read a graph file without building its whole JSON tree (see :func:`_read_graph_text`)."""
    text = _read_text(path)
    try:
        file = _read_graph_text(text)
    except _Invalid as exc:
        raise exc.located("graph") from None
    except (ValueError, RecursionError) as exc:  # text that ``json`` cannot read, as in :func:`parse_json`
        raise FormatError(f"graph {path}: {exc}") from None
    return _snapshot(file)


def write_scenario(spec: ScenarioSpec, path: str | Path) -> None:
    Path(path).write_text(json.dumps(scenario_to_dict(spec), indent=2, allow_nan=False) + "\n")


def read_scenario(path: str | Path) -> ScenarioSpec:
    return scenario_from_dict(_load(path, "scenario"))


def write_truth(truth: GroundTruthLog, path: str | Path) -> None:
    Path(path).write_text(dumps(truth_to_dict(truth)) + "\n")


def read_truth(path: str | Path) -> GroundTruthLog:
    return truth_from_dict(_load(path, "truth"))


def command_from_dict(data: Mapping, where: str = "command") -> Command:
    """A command may leave out its schema and its latency (0.0)."""
    if isinstance(data, dict):
        data = {"schema": COMMAND_SCHEMA, "latency": 0.0, **data}
    return _decode(COMMAND, data, where)


def read_command(path: str | Path) -> Command:
    return command_from_dict(_load(path, "command"), where=f"command {path}")


def read_commands(path: str | Path) -> list[Command]:
    """A command file holds either one command object or {"commands": [...]}."""
    data = _load(path, "commands")
    if isinstance(data, dict) and "commands" in data:
        if type(data["commands"]) is not list:
            raise FormatError(f"commands {path}: 'commands' must be an array")
        return [command_from_dict(c, f"commands {path}[{i}]") for i, c in enumerate(data["commands"])]
    return [command_from_dict(data, f"command {path}")]


# --- planner-facing subgraph payload ----------------------------------------


def subgraph_payload(sub: TaskSubgraph) -> dict:
    """Assemble the ordered payload dict for a task subgraph."""
    edges = sorted(sub.edges, key=lambda e: (e.src, e.dst, e.relation))
    nodes = []
    for node, score in sub.nodes:
        relations = [
            {"relation": e.relation, "subject": e.src, "object": e.dst}
            for e in edges
            if node.node_id in (e.src, e.dst)
        ]
        history = [[t, c.tolist()] for t, c in sub.history.get(node.node_id, ())]
        nodes.append(
            {
                "id": node.node_id,
                "class": node.label,
                "centroid": node.centroid.tolist(),
                "size": node.size.tolist(),
                "score": score,
                "spatial_relations": relations,
                "motion_history": history,
            }
        )
    return {
        "schema": SUBGRAPH_SCHEMA,
        "command_text": sub.command.text,
        "aligned_frame_index": sub.aligned_frame_index,
        "aligned_frame_time": sub.latency_tag.capture_time,
        "latency_tag": TAG.encode(sub.latency_tag),
        "nodes": nodes,
        "scene_dynamics": [
            {"time": t, "track_id": tid, "event": event} for t, tid, event in sub.dynamics
        ],
    }


def serialize_subgraph(sub: TaskSubgraph | Mapping) -> str:
    """Canonical subgraph text; serialize(parse(text)) == text."""
    payload = sub if isinstance(sub, Mapping) else subgraph_payload(sub)
    if "schema" not in payload or payload["schema"] != SUBGRAPH_SCHEMA:
        raise FormatError(f"subgraph payload must declare schema {SUBGRAPH_SCHEMA!r}")
    return canonical_dumps(payload)


def parse_subgraph(text: str) -> dict:
    data = parse_json(text, "subgraph")
    if not isinstance(data, dict) or data.get("schema") != SUBGRAPH_SCHEMA:
        raise FormatError(f"subgraph: expected schema {SUBGRAPH_SCHEMA!r}")
    return data
