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
_LINKS = (APPEARED, SAME_INSTANCE)  # the relations that put their destination on their track


def normalize_label(label: str) -> str:
    """Lower-case and collapse whitespace so label comparisons are stable."""
    return " ".join(label.strip().lower().split())


def freeze_array(values, dtype=np.float64) -> np.ndarray:
    """Return ``values`` as a read-only C-contiguous ``dtype`` ndarray.

    An ndarray that already is one, and whose memory no writable array
    can reach, is returned as it is: the file readers hand over such
    arrays, so a record read back is not copied a second time.  Anything
    else, a caller's writable array included, is copied.
    """
    base = values
    while type(base) is np.ndarray and not base.flags.writeable:
        base = base.base  # every array down to the memory's owner must be read-only
    if base is None and type(values) is np.ndarray and values.dtype == dtype and values.flags.c_contiguous:
        return values
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


def _cosine(a: np.ndarray, norm_a: float, b: np.ndarray, norm_b: float) -> float:
    """Cosine of ``a`` and ``b``, whose :func:`vector_norm` values are ``norm_a`` and ``norm_b``, clamped to [-1, 1].

    The one scalar cosine: :func:`cosine` and node scoring both call it, so
    a score never depends on which of them took it or where the norms were
    taken.  Association takes its cosines batched, over a whole block, in
    ``temporal._cost_block``.
    """
    if a.shape != b.shape:
        raise InputRejected(f"feature dimensions differ: {a.shape} vs {b.shape}")
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
    return _cosine(a, vector_norm(a), b, vector_norm(b))


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
    """Persistent object identity with its running appearance summary.

    Its nodes are the destinations of its temporal edges: see
    :class:`GraphLog` for them, oldest first.
    """

    track_id: int
    centroid: np.ndarray  # last observed 3D centroid
    descriptor: np.ndarray  # exponentially averaged image feature, unit norm
    label: str
    last_seen_time: float  # operator-visible time of the newest observation
    status: TrackStatus

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

    @cached_property
    def feature_norms(self) -> tuple[tuple[float, float], ...]:
        """Each node's ``(f_txt, f_img)`` :func:`vector_norm`, in node order.

        Taken on first use and kept: a command scores its aligned frame
        when it is grounded and again when it is exported, and a frame's
        nodes never change.
        """
        return tuple((vector_norm(node.f_txt), vector_norm(node.f_img)) for node in self.nodes)

    @property
    def obs_time(self) -> float:
        return self.latency_tag.observed_time


class LogView(Sequence):
    """The first ``n`` items of one of ``log``'s lists, which only grow at their end.

    Snapshots read their log through views of their own length, so
    appending to the log changes no view already handed out.  A prefix of
    a view is a view of the same list.
    """

    __slots__ = ("log", "_items", "_n")

    def __init__(self, log: GraphLog, items: list, n: int):
        self.log, self._items, self._n = log, items, n

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, k):
        if isinstance(k, slice):
            start, stop, step = k.indices(self._n)
            if start == 0 and step == 1:
                return LogView(self.log, self._items, stop)
            return tuple(self._items[i] for i in range(start, stop, step))
        if k < 0:
            k += self._n
        if not 0 <= k < self._n:
            raise IndexError("log view index out of range")
        return self._items[k]

    def __iter__(self) -> Iterator:
        return islice(self._items, self._n)


def view_parts(view: LogView) -> tuple[list, int]:
    """The list a view reads and how many of its items it shows.

    Bisecting and slicing that list directly keeps indexing in C.
    """
    return view._items, view._n


class GraphLog:
    """Append-only storage shared by the snapshots along one line of ingests.

    ``frames`` and ``edges`` hold the frames and temporal edges in ingest
    order.  The edges are the tracks: ``histories`` holds each track's node
    ids, oldest first, which are the destinations of its appeared and
    same-instance edges in edge order (see :func:`chain_problems`).  By node
    id, ``nodes`` holds the node, ``positions`` the position of its frame
    and ``track_ids`` the id of its track (``None`` for a node on no
    track); these hold no container per node, so a long graph gives the
    garbage collector no more to walk than its nodes.  ``node_counts[k]``
    is the number of nodes in the first ``k`` frames.  A snapshot sees the
    first ``len(snapshot.frames)`` frames; only the newest snapshot on a
    log may append to it.
    """

    __slots__ = ("frames", "edges", "histories", "nodes", "positions", "track_ids", "node_counts")

    def __init__(self, frames: Iterable[FrameGraph], edges: Iterable[TemporalEdge]):
        self.frames: list[FrameGraph] = []
        self.edges: list[TemporalEdge] = []
        self.histories: dict[int, list[int]] = {}
        self.nodes: dict[int, ObjectNode] = {}
        self.positions: dict[int, int] = {}
        self.track_ids: dict[int, int | None] = {}
        self.node_counts: list[int] = [0]
        self.append(frames, edges)

    def append(self, frames: Iterable[FrameGraph], edges: Iterable[TemporalEdge]) -> None:
        """Commit ``frames`` and their temporal ``edges``: the log's one writer.

        Each appeared or same-instance edge puts its destination on its
        track.  Edges that break the chain are taken as they come, never
        refused, so a broken snapshot can still be read and reported.
        """
        for frame in frames:
            self.frames.append(frame)
            for node in frame.nodes:
                self.nodes[node.node_id] = node
                self.positions[node.node_id] = len(self.frames) - 1
                self.track_ids[node.node_id] = None
            self.node_counts.append(self.node_counts[-1] + len(frame.nodes))
        for edge in edges:
            self.edges.append(edge)
            if edge.relation in _LINKS and edge.dst_node is not None:
                self.histories.setdefault(edge.track_id, []).append(edge.dst_node)
                self.track_ids[edge.dst_node] = edge.track_id

    def views(self) -> tuple[LogView, LogView]:
        """Views of all the frames and of all the temporal edges the log holds now."""
        return LogView(self, self.frames, len(self.frames)), LogView(self, self.edges, len(self.edges))

    def track(self, track_id: int, descriptor: np.ndarray, status: TrackStatus) -> Track:
        """The track as its edges leave it: its newest node's centroid, label and observed time."""
        newest = self.nodes[self.histories[track_id][-1]]
        seen_at = self.frames[self.positions[newest.node_id]].obs_time
        return Track(track_id, newest.centroid, descriptor, newest.label, seen_at, status)


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

    Instances are persistent values on an append-only :class:`GraphLog`:
    ingestion returns a new graph that shares the log with the old one, so
    readers can keep using any snapshot they already hold.  ``frames`` and
    ``temporal_edges`` are always views of ``log``; temporal edges are in
    event-frame order, and each node's track is read from them.  A graph
    built from views of all that one log holds, as ingestion and the
    readers build it, takes that log, and so does a ``dataclasses.replace``
    of the newest snapshot that keeps its frames and edges; any other graph
    starts a log of its own from its frames and edges when it is built.
    """

    frames: Sequence[FrameGraph] = ()
    temporal_edges: Sequence[TemporalEdge] = ()
    tracks: Mapping[int, Track] = field(default_factory=lambda: MappingProxyType({}))
    next_node_id: int = 1
    next_track_id: int = 1
    frames_dropped: int = 0
    log: GraphLog = field(init=False, repr=False)

    def __post_init__(self):
        frames, edges = self.frames, self.temporal_edges
        log = frames.log if isinstance(frames, LogView) else None
        if not (
            isinstance(edges, LogView) and edges.log is log
            and len(frames) == len(log.frames) and len(edges) == len(log.edges)
        ):
            log = GraphLog(frames, edges)
            frames, edges = log.views()
            object.__setattr__(self, "frames", frames)
            object.__setattr__(self, "temporal_edges", edges)
        object.__setattr__(self, "log", log)

    def log_to_extend(self) -> GraphLog:
        """The log this snapshot is the newest on: its own, or a copy of its prefix."""
        log = self.log
        return log if len(log.frames) == len(self.frames) else GraphLog(self.frames, self.temporal_edges)

    @cached_property
    def node_index(self) -> Mapping[int, ObjectNode]:
        return NodeIndex(self.log, len(self.frames))

    def node(self, node_id: int) -> ObjectNode:
        try:
            return self.node_index[node_id]
        except KeyError:
            raise NotFound(f"node {node_id} not in graph") from None

    def track_of(self, node_id: int) -> int | None:
        """Id of the track whose appeared or same-instance edge ends at the node; ``None`` when none does."""
        if node_id not in self.node_index:
            raise NotFound(f"node {node_id} not in graph")
        return self.log.track_ids[node_id]

    def frame_of(self, node_id: int) -> FrameGraph:
        """The frame that holds the node: its index and times are the node's."""
        log, n = self.log, len(self.frames)
        pos = log.positions.get(node_id, n)
        if not pos < n:
            raise NotFound(f"node {node_id} not in graph")
        return log.frames[pos]

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


def chain_problems(graph: SceneGraph4D) -> Iterator[tuple[int, str]]:
    """Which track's temporal edges fail to chain its nodes, and why, as (track id, message).

    A track is its edges.  Every edge is a same-instance, appeared or
    disappeared edge; an appeared edge has no source, and a disappeared
    edge no destination and an event frame in the graph.  Each track in
    ``graph.tracks`` has an id below ``next_track_id`` and starts with
    exactly one appeared edge, and every appeared edge's track is one of
    them (only their ids are read).  Each same-instance or disappeared edge
    leaves from its track's newest node so far.  Each appeared or
    same-instance edge's destination lies in the edge's event frame, a
    same-instance edge's in a later frame than that newest node, and no
    node is on two tracks.
    """
    newest: dict[int, tuple[int, int]] = {}  # track id -> its newest node so far and that node's frame index
    holders: dict[int, int] = {}  # node id -> the track it is on
    log, index, frames = graph.log, graph.node_index, graph.frames
    for k, edge in enumerate(graph.temporal_edges):
        track_id, dst, where = edge.track_id, edge.dst_node, f"temporal_edges[{k}]"
        prev = newest.get(track_id)
        if edge.relation not in _TEMPORAL_RELATIONS:
            yield track_id, f"{where}: unknown relation {edge.relation!r}"
            continue
        if edge.relation == APPEARED:
            if edge.src_node is not None:
                yield track_id, f"{where}: appeared edge has source {edge.src_node}"
            if prev is not None:
                yield track_id, f"{where}: a second appeared edge"
            elif track_id not in graph.tracks:
                yield track_id, f"{where}: the track is not in tracks"
        elif prev is None:
            yield track_id, f"{where}: {edge.relation} edge before the track's appeared edge"
        elif edge.src_node != prev[0]:
            yield track_id, f"{where}: source {edge.src_node} is not the track's newest node {prev[0]}"
        if edge.relation == DISAPPEARED:
            if dst is not None:
                yield track_id, f"{where}: disappeared edge has destination {dst}"
            pos = edge.event_frame - graph.frames_dropped - 1  # where graph.frame looks for it
            if not (0 <= pos < len(frames) and frames[pos].frame_index == edge.event_frame):
                yield track_id, f"{where}: event frame {edge.event_frame} is not in the graph"
            continue
        if dst not in index:
            yield track_id, f"{where}: destination {dst} is not in the graph"
            continue
        frame = log.frames[log.positions[dst]].frame_index
        if frame != edge.event_frame:
            yield track_id, f"{where}: destination {dst} lies in frame {frame}, not in event frame {edge.event_frame}"
        if edge.relation == SAME_INSTANCE and prev is not None and not frame > prev[1]:
            yield track_id, f"{where}: destination {dst} is not in a later frame than the newest node {prev[0]}"
        if dst in holders:
            yield track_id, f"{where}: node {dst} is already on track {holders[dst]}"
        holders[dst] = track_id
        newest[track_id] = dst, frame
    for track_id in graph.tracks:
        if track_id not in newest:
            yield track_id, "no appeared edge"
        if track_id >= graph.next_track_id:
            yield track_id, f"id not below next_track_id {graph.next_track_id}"


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
            if graph.track_of(node.node_id) is None:
                out.append(f"{ntag}: on no track")

        for edge in fg.spatial_edges:
            etag = f"{tag} edge {edge.src}->{edge.dst}"
            if edge.src == edge.dst:
                out.append(f"{etag}: self loop")
            if edge.src not in frame_ids or edge.dst not in frame_ids:
                out.append(f"{etag}: endpoint not in frame")

    out.extend(f"track {track_id}: {message}" for track_id, message in chain_problems(graph))

    for track_id, track in graph.tracks.items():
        ttag = f"track {track_id}"
        if track.track_id != track_id:
            out.append(f"{ttag}: key does not match track_id {track.track_id}")
        if not isinstance(track.status, TrackStatus):
            out.append(f"{ttag}: bad status {track.status!r}")

    return out
