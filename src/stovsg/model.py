"""Core value types for the 4D scene graph.

Everything here is an immutable record, apart from the append-only
:class:`GraphLog` that graph snapshots share: construction never validates beyond
basic shape coercion, so invalid data can be represented and then reported by
:func:`validate_graph`.  Operations elsewhere in the package raise
:class:`~stovsg.errors.InputRejected` when handed data that breaks their own
contracts.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from itertools import islice
from types import MappingProxyType

import numpy as np

from .errors import InputRejected, NotFound

SAME_INSTANCE = "same-instance"
APPEARED = "appeared"
DISAPPEARED = "disappeared"

_TEMPORAL_RELATIONS = (SAME_INSTANCE, APPEARED, DISAPPEARED)


def normalize_label(label: str) -> str:
    """Lower-case and collapse whitespace so label comparisons are stable."""
    return " ".join(label.strip().lower().split())


def freeze_array(values, dtype=np.float64) -> np.ndarray:
    """Return a read-only ndarray copy of ``values``."""
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


def as_feature(values) -> np.ndarray:
    """Coerce a feature vector to a read-only 1-D float array."""
    arr = freeze_array(values)
    if arr.ndim != 1:
        raise InputRejected(f"feature vector must be 1-D, got shape {arr.shape}")
    return arr


def vector_norm(v: np.ndarray) -> float:
    """``np.linalg.norm`` of a C-contiguous 1-D float64 vector, bit for bit.

    For such a vector that function ravels (a no-op), takes ``v.dot(v)`` and
    its square root; calling ``dot`` directly skips its conversions and
    checks.  Every feature :func:`freeze_array` makes is contiguous.  A
    strided view must be copied first: BLAS sums a strided dot in another
    order.
    """
    return math.sqrt(v.dot(v))


def _cosine(a: np.ndarray, norm_a: float, b: np.ndarray) -> float:
    """Cosine of ``a`` (whose norm is ``norm_a``) and ``b``, clamped to [-1, 1].

    The one scalar cosine: :func:`cosine` and node scoring both call it, so
    a score never depends on which of them took it.  Association takes its
    cosines batched, over a whole block, in ``temporal._cost_block``.
    """
    if a.shape != b.shape:
        raise InputRejected(f"feature dimensions differ: {a.shape} vs {b.shape}")
    norm_b = vector_norm(b)
    if norm_a == 0.0 or norm_b == 0.0:
        raise InputRejected("cosine similarity undefined for zero-norm vector")
    # one IEEE division, on Python floats: the same bits as on NumPy scalars
    cos = float(a.dot(b)) / (norm_a * norm_b)
    # rounding can push near-parallel vectors a hair outside [-1, 1], which
    # would turn 1 - cos into a (tiny) negative matching cost downstream;
    # NaN, from a non-finite feature, falls to -1.0
    return 1.0 if cos > 1.0 else cos if cos >= -1.0 else -1.0


def cosine(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine similarity; rejects zero-norm or mismatched vectors."""
    a = np.ascontiguousarray(a, dtype=np.float64)
    b = np.ascontiguousarray(b, dtype=np.float64)
    return _cosine(a, vector_norm(a), b)


@dataclass(frozen=True)
class BoundingBox2D:
    """Axis-aligned pixel box with exclusive max edges."""

    x_min: float
    y_min: float
    x_max: float
    y_max: float

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.x_min, self.y_min, self.x_max, self.y_max)

    def is_valid(self) -> bool:
        vals = self.as_tuple()
        return all(math.isfinite(v) for v in vals) and self.x_min < self.x_max and self.y_min < self.y_max


@dataclass(frozen=True, eq=False)
class PixelMask:
    """Ordered, deduplicated (u, v) pixel coordinates."""

    pixels: np.ndarray  # (N, 2) int64, columns (u, v)

    @staticmethod
    def from_pixels(pixels: Iterable) -> "PixelMask":
        arr = np.atleast_2d(np.array(list(pixels) if not isinstance(pixels, np.ndarray) else pixels, dtype=np.int64))
        if arr.size == 0:
            arr = arr.reshape(0, 2)
        if arr.shape[1] != 2:
            raise InputRejected(f"mask pixels must be (N, 2), got {arr.shape}")
        u, v = arr[:, 0], arr[:, 1]
        # pixels strictly ascending in (v, u) order hold no duplicate
        if not ((v[1:] > v[:-1]) | ((v[1:] == v[:-1]) & (u[1:] > u[:-1]))).all():
            # stable dedup: keep first occurrence, preserve order
            _, first = np.unique(arr, axis=0, return_index=True)
            arr = arr[np.sort(first)]
        arr.setflags(write=False)
        return PixelMask(arr)

    def __len__(self) -> int:
        return int(self.pixels.shape[0])

    def in_bounds(self, width: int, height: int) -> bool:
        if len(self) == 0:
            return True
        u = self.pixels[:, 0]
        v = self.pixels[:, 1]
        return bool((u >= 0).all() and (u < width).all() and (v >= 0).all() and (v < height).all())


@dataclass(frozen=True, eq=False)
class CameraModel:
    """Pinhole intrinsics plus a camera-to-world rigid transform."""

    fx: float
    fy: float
    cx: float
    cy: float
    rotation: np.ndarray = field(default_factory=lambda: freeze_array(np.eye(3)))
    translation: np.ndarray = field(default_factory=lambda: freeze_array(np.zeros(3)))

    def __post_init__(self):
        object.__setattr__(self, "rotation", freeze_array(self.rotation))
        object.__setattr__(self, "translation", freeze_array(self.translation))

    @cached_property
    def violations(self) -> tuple[str, ...]:
        """Why this camera cannot be used; empty when it can.

        Computed once per camera: a frame's detections all share it.
        """
        out = []
        if not (self.fx > 0 and self.fy > 0):
            out.append(f"camera focal lengths must be positive (fx={self.fx}, fy={self.fy})")
        if self.rotation.shape != (3, 3):
            out.append(f"camera rotation must be 3x3, got {self.rotation.shape}")
        else:
            err = np.abs(self.rotation.T @ self.rotation - np.eye(3)).max()
            if err > 1e-9:
                out.append(f"camera rotation not orthonormal (|R^T R - I| = {err:.3e})")
        if self.translation.shape != (3,):
            out.append(f"camera translation must be length 3, got {self.translation.shape}")
        return tuple(out)


@dataclass(frozen=True)
class LatencyTag:
    """Capture time on the remote clock plus uplink transmission latency."""

    capture_time: float
    transmission_latency: float

    @property
    def observed_time(self) -> float:
        """When the operator first sees the tagged frame."""
        return self.capture_time + self.transmission_latency


@dataclass(frozen=True, eq=False)
class Detection:
    """A single open-vocabulary detection before 3D lifting."""

    box: BoundingBox2D
    mask: PixelMask
    label: str
    f_img: np.ndarray
    f_txt: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "f_img", as_feature(self.f_img))
        object.__setattr__(self, "f_txt", as_feature(self.f_txt))


@dataclass(frozen=True, eq=False, slots=True)  # slots: a long graph holds thousands of nodes
class ObjectNode:
    """A detection lifted to 3D and anchored in one frame, whose index and times are the frame's."""

    node_id: int
    label: str
    f_img: np.ndarray
    f_txt: np.ndarray
    centroid: np.ndarray  # (3,) world metres
    size: np.ndarray  # (3,) world extents
    points: np.ndarray  # (N, 3) world metres, possibly subsampled

    def __post_init__(self):
        object.__setattr__(self, "f_img", as_feature(self.f_img))
        object.__setattr__(self, "f_txt", as_feature(self.f_txt))
        object.__setattr__(self, "centroid", freeze_array(self.centroid))
        object.__setattr__(self, "size", freeze_array(self.size))
        object.__setattr__(self, "points", freeze_array(self.points))


@dataclass(frozen=True, eq=False)
class SpatialEdge:
    """A resolved within-frame relation between two nodes."""

    src: int
    dst: int
    relation: str
    cost: float


@dataclass(frozen=True, eq=False)
class RelationCandidate:
    """A proposed relation between two nodes with its evidence zone."""

    src: int
    dst: int
    relation: str
    zone: BoundingBox2D


@dataclass(frozen=True, eq=False)
class TemporalEdge:
    """Identity or lifecycle link across frames.

    ``event_frame`` records the frame at which the edge was established:
    the destination's frame for an edge with a destination, and for a
    disappearance edge the first frame where the track went unmatched.
    """

    relation: str
    track_id: int
    event_frame: int
    src_node: int | None = None
    dst_node: int | None = None

    @property
    def dst_frame(self) -> int | None:
        """Index of the destination's frame; ``None`` for an edge without a destination."""
        return None if self.dst_node is None else self.event_frame


class TrackStatus(str, Enum):
    ACTIVE = "active"
    DISAPPEARED = "disappeared"
    RETIRED = "retired"


@dataclass(frozen=True, eq=False)
class Track:
    """Persistent object identity with its running appearance summary."""

    track_id: int
    centroid: np.ndarray  # last observed 3D centroid
    descriptor: np.ndarray  # exponentially averaged image feature, unit norm
    label: str
    last_seen_time: float  # operator-visible time of the newest observation
    status: TrackStatus
    history: Sequence[int]  # node ids, oldest first

    def __post_init__(self):
        object.__setattr__(self, "centroid", freeze_array(self.centroid))
        object.__setattr__(self, "descriptor", freeze_array(self.descriptor))


@dataclass(frozen=True, eq=False)
class FrameGraph:
    """All nodes and within-frame relations for one capture."""

    frame_index: int
    latency_tag: LatencyTag
    nodes: tuple[ObjectNode, ...]
    spatial_edges: tuple[SpatialEdge, ...]

    @property
    def capture_time(self) -> float:
        return self.latency_tag.capture_time

    @property
    def obs_time(self) -> float:
        return self.latency_tag.observed_time


class LogView(Sequence):
    """The first ``n`` items of a list that only grows at its end.

    Snapshots on one log read it through views of their own length, so
    appending to the log changes no view already handed out.  A view of a
    view reads the same list.  Views equal tuples (and views) with the same
    items, as the tuples they stand in for did.
    """

    __slots__ = ("_items", "_n")

    def __init__(self, items: Sequence, n: int):
        self._items = items._items if isinstance(items, LogView) else items
        self._n = n

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, k):
        if isinstance(k, slice):
            start, stop, step = k.indices(self._n)
            if start == 0 and step == 1:
                return LogView(self._items, stop)
            return tuple(self._items[i] for i in range(start, stop, step))
        if k < 0:
            k += self._n
        if not 0 <= k < self._n:
            raise IndexError("log view index out of range")
        return self._items[k]

    def __iter__(self) -> Iterator:
        return islice(self._items, self._n)

    def __eq__(self, other) -> bool:
        if not isinstance(other, (LogView, tuple)):
            return NotImplemented
        return len(other) == self._n and all(a == b for a, b in zip(self, other))

    def __repr__(self) -> str:
        return repr(tuple(self))


def view_parts(seq: Sequence) -> tuple[Sequence, int]:
    """The sequence a view reads and how many of its items it shows; any other sequence is itself.

    Bisecting and slicing that sequence directly keeps indexing in C.
    """
    if isinstance(seq, LogView):
        return seq._items, seq._n
    return seq, len(seq)


class GraphLog:
    """Append-only storage shared by the snapshots along one line of ingests.

    ``frames`` and ``edges`` hold the frames and temporal edges in ingest
    order and ``histories`` each track's node ids, oldest first.  By node
    id, ``nodes`` holds the node, ``positions`` the position of its frame
    and ``track_ids`` the id of its track (``None`` for a node on no
    track); these hold no container per node, so a long graph gives the
    garbage collector no more to walk than its nodes.  ``node_counts[k]``
    is the number of nodes in the first ``k`` frames.  A snapshot sees the
    first ``len(snapshot.frames)`` frames; only the newest snapshot on a
    log may append to it.
    """

    __slots__ = ("frames", "edges", "histories", "nodes", "positions", "track_ids", "node_counts")

    def __init__(self, graph: "SceneGraph4D"):
        """A log holding exactly ``graph``'s frames, edges and track histories."""
        self.frames: list[FrameGraph] = []
        self.edges: list[TemporalEdge] = []
        self.histories: dict[int, list[int]] = {}
        self.nodes: dict[int, ObjectNode] = {}
        self.positions: dict[int, int] = {}
        self.track_ids: dict[int, int | None] = {}
        self.node_counts: list[int] = [0]
        # descending ids, so a node on several tracks is the lowest one's
        opened = {tid: list(graph.tracks[tid].history) for tid in sorted(graph.tracks, reverse=True)}
        self.append(graph.frames, graph.temporal_edges, {}, opened)

    def append(self, frames: Iterable[FrameGraph], edges: Iterable[TemporalEdge],
               extended: Mapping[int, int], opened: Mapping[int, list[int]]) -> None:
        """Commit ``frames`` and their temporal ``edges``: the log's one writer.

        Each track in ``extended`` gains the node it maps to, and each in
        ``opened`` starts with the history it maps to (a node in several of
        those histories is on the last one's track).
        """
        for frame in frames:
            self.frames.append(frame)
            for node in frame.nodes:
                self.nodes[node.node_id] = node
                self.positions[node.node_id] = len(self.frames) - 1
                self.track_ids[node.node_id] = None
            self.node_counts.append(self.node_counts[-1] + len(frame.nodes))
        self.edges.extend(edges)
        for track_id, node_id in extended.items():
            self.histories[track_id].append(node_id)
            self.track_ids[node_id] = track_id
        for track_id, history in opened.items():
            self.histories[track_id] = history
            self.track_ids.update(dict.fromkeys(history, track_id))


class NodeIndex(Mapping):
    """Node id -> node over a log, limited to a snapshot's first ``n`` frames.

    Iteration walks the frames, not the shared map, so it stays valid while
    a newer snapshot appends to the log.
    """

    __slots__ = ("_log", "_n")

    def __init__(self, log: GraphLog, n: int):
        self._log = log
        self._n = n

    def __getitem__(self, node_id: int) -> ObjectNode:
        if not self._log.positions[node_id] < self._n:
            raise KeyError(node_id)
        return self._log.nodes[node_id]

    def __contains__(self, node_id) -> bool:
        return self._log.positions.get(node_id, self._n) < self._n

    def __len__(self) -> int:
        return self._log.node_counts[self._n]

    def __iter__(self) -> Iterator[int]:
        for fg in islice(self._log.frames, self._n):
            for node in fg.nodes:
                yield node.node_id


@dataclass(frozen=True, eq=False)
class SceneGraph4D:
    """The full graph: per-frame graphs, temporal edges, and live tracks.

    Instances are persistent values: ingestion returns a new graph that
    shares a :class:`GraphLog` with the old one, so readers can keep using
    any snapshot they already hold.  ``frames``, ``temporal_edges`` and
    each track's ``history`` are read-only sequences; temporal edges are in
    event-frame order.  ``dataclasses.replace`` gives a snapshot without a
    log, which starts its own the first time it is read or ingested into.
    """

    frames: Sequence[FrameGraph] = ()
    temporal_edges: Sequence[TemporalEdge] = ()
    tracks: Mapping[int, Track] = field(default_factory=lambda: MappingProxyType({}))
    next_node_id: int = 1
    next_track_id: int = 1
    frames_dropped: int = 0
    log: GraphLog | None = field(default=None, init=False, repr=False)

    @staticmethod
    def on_log(log: GraphLog, tracks: Mapping[int, Track], next_node_id: int, next_track_id: int,
               frames_dropped: int) -> "SceneGraph4D":
        """The snapshot of everything ``log`` holds now."""
        graph = SceneGraph4D(
            LogView(log.frames, len(log.frames)),
            LogView(log.edges, len(log.edges)),
            tracks,
            next_node_id,
            next_track_id,
            frames_dropped,
        )
        object.__setattr__(graph, "log", log)
        return graph

    def own_log(self) -> GraphLog:
        """The log this snapshot reads: the one it was ingested on, else one started from its fields."""
        if self.log is None:
            object.__setattr__(self, "log", GraphLog(self))
        return self.log

    def log_to_extend(self) -> GraphLog:
        """The log this snapshot is the newest on: its own, or a copy of its prefix."""
        log = self.own_log()
        return log if len(log.frames) == len(self.frames) else GraphLog(self)

    @cached_property
    def node_index(self) -> Mapping[int, ObjectNode]:
        return NodeIndex(self.own_log(), len(self.frames))

    def node(self, node_id: int) -> ObjectNode:
        try:
            return self.node_index[node_id]
        except KeyError:
            raise NotFound(f"node {node_id} not in graph") from None

    def track_of(self, node_id: int) -> int | None:
        """Id of the track whose history holds the node; ``None`` when no track does."""
        if node_id not in self.node_index:
            raise NotFound(f"node {node_id} not in graph")
        return self.own_log().track_ids[node_id]

    def frame_of(self, node_id: int) -> FrameGraph:
        """The frame that holds the node: its index and times are the node's."""
        index = self.node_index  # reading its log and length directly keeps this as cheap as ``node``
        pos = index._log.positions.get(node_id, index._n)
        if not pos < index._n:
            raise NotFound(f"node {node_id} not in graph")
        return index._log.frames[pos]

    def frame(self, frame_index: int) -> FrameGraph:
        pos = frame_index - self.frames_dropped - 1
        if 0 <= pos < len(self.frames) and self.frames[pos].frame_index == frame_index:
            return self.frames[pos]
        raise NotFound(f"frame {frame_index} not in graph")


def empty_graph() -> SceneGraph4D:
    return SceneGraph4D()


@dataclass(frozen=True)
class Command:
    """An operator instruction with its embedding and timing."""

    text: str
    embedding: np.ndarray
    issue_time: float
    latency: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "embedding", as_feature(self.embedding))

    @property
    def arrival_time(self) -> float:
        return self.issue_time + self.latency


@dataclass(frozen=True)
class AssociationOutcome:
    """Result of matching one frame's nodes against existing tracks."""

    accepted: tuple[tuple[int, int, float], ...]  # (track_id, node_id, cost)
    new_nodes: tuple[int, ...]  # node ids that start fresh tracks
    disappeared: tuple[int, ...]  # eligible track ids left unmatched


def _finite(arr: np.ndarray) -> bool:
    return bool(np.isfinite(arr).all())


def time_order_problems(
    graph: SceneGraph4D, appended: FrameGraph | None = None
) -> Iterator[tuple[str, str]]:
    """Where and why ``graph`` breaks the time order its lookups bisect on, as (key path, message).

    Frame indices follow on from ``frames_dropped + 1``, capture times
    strictly increase, no transmission latency is negative or NaN, and
    temporal edges are in event-frame order.  With ``appended``, only that
    frame is checked, as the one after ``graph``'s newest.
    """
    frames = graph.frames
    start, checked, prev = 0, frames, -math.inf
    if appended is not None:  # its edges all have its index, so they stay in order
        start, checked, prev = len(frames), (appended,), (frames[-1].capture_time if frames else -math.inf)
    for k, fg in enumerate(checked, start):
        expect, tag = graph.frames_dropped + 1 + k, fg.latency_tag
        if fg.frame_index != expect:
            yield f"frames[{k}].frame_index", (
                f"expected {expect}, got {fg.frame_index} (frame indices must be contiguous)"
            )
        if not tag.capture_time > prev:
            yield f"frames[{k}].latency_tag.capture_time", (
                f"{tag.capture_time} is not after {prev} (capture times must strictly increase)"
            )
        if not tag.transmission_latency >= 0:
            yield f"frames[{k}].latency_tag.transmission_latency", (
                f"{tag.transmission_latency} is negative or NaN (a frame cannot arrive before its capture)"
            )
        prev = tag.capture_time
    edges = graph.temporal_edges if appended is None else ()
    for k in range(1, len(edges)):
        if edges[k].event_frame < edges[k - 1].event_frame:
            yield f"temporal_edges[{k}].event_frame", (
                f"{edges[k].event_frame} is before {edges[k - 1].event_frame} "
                "(temporal edges must be in event-frame order)"
            )


def feature_problems(name: str, vec: np.ndarray, dim: int) -> Iterator[str]:
    """Why the feature vector ``name`` could not be compared with a command of ``dim`` numbers."""
    norm = vector_norm(vec)  # not finite when an entry is not, or when the sum of squares overflows
    if not math.isfinite(norm):
        yield f"non-finite {name}" if not _finite(vec) else f"{name} norm overflows"
    elif norm == 0.0:  # all zeros, or so small that its square underflows
        yield f"zero-norm {name}"
    if vec.shape[0] != dim:
        yield f"{name} dimension {vec.shape[0]} != {dim}"


def label_problems(label: str) -> Iterator[str]:
    """Why ``label`` cannot be stored: a stored label is normalized and not empty."""
    normal = normalize_label(label)
    if not normal:
        yield "empty label"
    elif label != normal:
        yield f"label {label!r} not normalized"


def validate_graph(graph: SceneGraph4D) -> list[str]:
    """Check every structural invariant; returns one message per violation.

    An empty list means the graph is internally consistent.  This never
    raises: callers decide whether violations are fatal.
    """
    out = [f"{path}: {message}" for path, message in time_order_problems(graph)]
    seen_node_ids: set[int] = set()
    feature_dim = next((fg.nodes[0].f_img.shape[0] for fg in graph.frames if fg.nodes), None)
    on_tracks: dict[int, list[int]] = {}  # node id -> ids of the tracks whose history holds it
    for track_id in sorted(graph.tracks):
        for node_id in graph.tracks[track_id].history:
            on_tracks.setdefault(node_id, []).append(track_id)

    for fg in graph.frames:
        tag = f"frame {fg.frame_index}"
        frame_ids = set()
        for node in fg.nodes:
            ntag = f"{tag} node {node.node_id}"
            if node.node_id in seen_node_ids:
                out.append(f"{ntag}: duplicate node id")
            seen_node_ids.add(node.node_id)
            frame_ids.add(node.node_id)
            for name in ("f_img", "f_txt"):
                out.extend(f"{ntag}: {p}" for p in feature_problems(name, getattr(node, name), feature_dim))
            out.extend(f"{ntag}: {p}" for p in label_problems(node.label))
            centroid_ok = node.centroid.shape == (3,) and _finite(node.centroid)
            if not centroid_ok:
                out.append(f"{ntag}: bad centroid")
            if node.size.shape != (3,) or not _finite(node.size) or (node.size < 0).any():
                out.append(f"{ntag}: bad size")
            if node.points.ndim != 2 or node.points.shape[1] != 3 or len(node.points) == 0:
                out.append(f"{ntag}: points must be non-empty (N, 3)")
            elif centroid_ok:  # a misshapen centroid cannot be compared with the bounds
                lo = node.points.min(axis=0) - 1e-6
                hi = node.points.max(axis=0) + 1e-6
                if ((node.centroid < lo) | (node.centroid > hi)).any():
                    out.append(f"{ntag}: centroid outside point bounds")
            holders = on_tracks.get(node.node_id)
            if not holders:
                out.append(f"{ntag}: on no track")
            elif len(holders) > 1:
                out.append(f"{ntag}: on tracks {holders}")

        for edge in fg.spatial_edges:
            etag = f"{tag} edge {edge.src}->{edge.dst}"
            if edge.src == edge.dst:
                out.append(f"{etag}: self loop")
            if edge.src not in frame_ids or edge.dst not in frame_ids:
                out.append(f"{etag}: endpoint not in frame")

    index = graph.node_index
    stored_frames = {fg.frame_index for fg in graph.frames}
    for edge in graph.temporal_edges:
        etag = f"temporal edge ({edge.relation}, track {edge.track_id})"
        if edge.relation not in _TEMPORAL_RELATIONS:
            out.append(f"{etag}: unknown relation")
            continue
        if edge.track_id not in graph.tracks:
            out.append(f"{etag}: unknown track")
        if edge.event_frame not in stored_frames:
            out.append(f"{etag}: event frame {edge.event_frame} not in graph")
        if edge.relation == SAME_INSTANCE:
            if edge.src_node is None or edge.dst_node is None:
                out.append(f"{etag}: same-instance edge needs both endpoints")
            else:
                if edge.src_node not in index or edge.dst_node not in index:
                    out.append(f"{etag}: endpoint not resolvable")
                elif not graph.frame_of(edge.src_node).frame_index < graph.frame_of(edge.dst_node).frame_index:
                    out.append(f"{etag}: source frame must precede destination frame")
        elif edge.relation == APPEARED:
            if edge.src_node is not None:
                out.append(f"{etag}: appearance edge must not have a source")
            if edge.dst_node is None or edge.dst_node not in index:
                out.append(f"{etag}: destination not resolvable")
        else:  # disappeared
            if edge.dst_node is not None:
                out.append(f"{etag}: disappearance edge must not have a destination")
            if edge.src_node is None or edge.src_node not in index:
                out.append(f"{etag}: source not resolvable")

    for track_id, track in graph.tracks.items():
        ttag = f"track {track_id}"
        if track.track_id != track_id:
            out.append(f"{ttag}: key does not match track_id {track.track_id}")
        if not isinstance(track.status, TrackStatus):
            out.append(f"{ttag}: bad status {track.status!r}")
        if len(track.history) == 0:
            out.append(f"{ttag}: empty history")
            continue
        missing = [nid for nid in track.history if nid not in index]
        if missing:
            out.append(f"{ttag}: history references missing nodes {missing}")
            continue
        hist_frames = [graph.frame_of(nid).frame_index for nid in track.history]
        if hist_frames != sorted(hist_frames) or len(set(hist_frames)) != len(hist_frames):
            out.append(f"{ttag}: history frames not strictly increasing")
        newest = graph.frame_of(track.history[-1])
        if newest.obs_time != track.last_seen_time:
            out.append(
                f"{ttag}: last_seen_time {track.last_seen_time} != newest observation {newest.obs_time}"
            )
        if track_id >= graph.next_track_id:
            out.append(f"{ttag}: id not below next_track_id {graph.next_track_id}")

    return out
