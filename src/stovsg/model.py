"""Core value types for the 4D scene graph.

Everything here is an immutable record: construction never validates beyond
basic shape coercion, so invalid data can be represented and then reported by
:func:`validate_graph`.  Operations elsewhere in the package raise
:class:`~stovsg.errors.InputRejected` when handed data that breaks their own
contracts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from types import MappingProxyType
from typing import Iterable, Mapping

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


def cosine(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine similarity; rejects zero-norm or mismatched vectors."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise InputRejected(f"feature dimensions differ: {a.shape} vs {b.shape}")
    na = float(np.linalg.norm(a))
    nb = float(np.linalg.norm(b))
    if na == 0.0 or nb == 0.0:
        raise InputRejected("cosine similarity undefined for zero-norm vector")
    # rounding can push near-parallel vectors a hair outside [-1, 1], which
    # would turn 1 - cos into a (tiny) negative matching cost downstream
    return min(1.0, max(-1.0, float(np.dot(a, b) / (na * nb))))


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

    def intrinsics(self) -> np.ndarray:
        return np.array(
            [[self.fx, 0.0, self.cx], [0.0, self.fy, self.cy], [0.0, 0.0, 1.0]],
            dtype=np.float64,
        )

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


@dataclass(frozen=True, eq=False, slots=True)  # slots halve the node index walk of every snapshot
class ObjectNode:
    """A detection lifted to 3D and anchored in one frame."""

    node_id: int
    frame_index: int
    label: str
    f_img: np.ndarray
    f_txt: np.ndarray
    centroid: np.ndarray  # (3,) world metres
    size: np.ndarray  # (3,) world extents
    points: np.ndarray  # (N, 3) world metres, possibly subsampled
    obs_time: float

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

    ``event_frame`` records the frame at which the edge was established;
    for appearance edges that is the destination frame, for disappearance
    edges it is the first frame where the track went unmatched.
    """

    relation: str
    track_id: int
    event_frame: int
    src_node: int | None = None
    src_frame: int | None = None
    dst_node: int | None = None
    dst_frame: int | None = None


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
    history: tuple[int, ...]  # node ids, oldest first

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


@dataclass(frozen=True, eq=False)
class SceneGraph4D:
    """The full graph: per-frame graphs, temporal edges, and live tracks.

    Instances are persistent values: ingestion returns a new graph sharing
    structure with the old one, so readers can keep using any snapshot they
    already hold.
    """

    frames: tuple[FrameGraph, ...] = ()
    temporal_edges: tuple[TemporalEdge, ...] = ()
    tracks: Mapping[int, Track] = field(default_factory=lambda: MappingProxyType({}))
    next_node_id: int = 1
    next_track_id: int = 1
    frames_dropped: int = 0

    @cached_property
    def node_index(self) -> Mapping[int, ObjectNode]:
        index: dict[int, ObjectNode] = {}
        for fg in self.frames:
            for node in fg.nodes:
                index[node.node_id] = node
        return MappingProxyType(index)

    def node(self, node_id: int) -> ObjectNode:
        try:
            return self.node_index[node_id]
        except KeyError:
            raise NotFound(f"node {node_id} not in graph") from None

    def frame(self, frame_index: int) -> FrameGraph:
        pos = frame_index - self.frames_dropped - 1
        if 0 <= pos < len(self.frames) and self.frames[pos].frame_index == frame_index:
            return self.frames[pos]
        raise NotFound(f"frame {frame_index} not in graph")

    @property
    def newest_frame(self) -> FrameGraph | None:
        return self.frames[-1] if self.frames else None


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


def validate_graph(graph: SceneGraph4D) -> list[str]:
    """Check every structural invariant; returns one message per violation.

    An empty list means the graph is internally consistent.  This never
    raises: callers decide whether violations are fatal.
    """
    out: list[str] = []
    seen_node_ids: set[int] = set()
    feature_dim: int | None = None
    prev_capture = -math.inf
    expect_index = graph.frames_dropped + 1

    for fg in graph.frames:
        tag = f"frame {fg.frame_index}"
        if fg.frame_index != expect_index:
            out.append(f"{tag}: expected frame index {expect_index} (indices must be contiguous)")
        expect_index = fg.frame_index + 1
        if not fg.capture_time > prev_capture:
            out.append(f"{tag}: capture time {fg.capture_time} not after previous {prev_capture}")
        prev_capture = fg.capture_time
        if not fg.latency_tag.transmission_latency >= 0:
            out.append(f"{tag}: transmission latency {fg.latency_tag.transmission_latency} is negative or NaN")

        frame_ids = set()
        for node in fg.nodes:
            ntag = f"{tag} node {node.node_id}"
            if node.node_id in seen_node_ids:
                out.append(f"{ntag}: duplicate node id")
            seen_node_ids.add(node.node_id)
            frame_ids.add(node.node_id)
            if node.frame_index != fg.frame_index:
                out.append(f"{ntag}: frame_index {node.frame_index} does not match containing frame")
            for name, vec in (("f_img", node.f_img), ("f_txt", node.f_txt)):
                if not _finite(vec):
                    out.append(f"{ntag}: non-finite {name}")
                if feature_dim is None:
                    feature_dim = vec.shape[0]
                elif vec.shape[0] != feature_dim:
                    out.append(f"{ntag}: {name} dimension {vec.shape[0]} != {feature_dim}")
            if node.label != normalize_label(node.label):
                out.append(f"{ntag}: label {node.label!r} not normalized")
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
            if node.obs_time < fg.capture_time:
                out.append(f"{ntag}: obs_time {node.obs_time} before capture {fg.capture_time}")

        for edge in fg.spatial_edges:
            etag = f"{tag} edge {edge.src}->{edge.dst}"
            if edge.src == edge.dst:
                out.append(f"{etag}: self loop")
            if edge.src not in frame_ids or edge.dst not in frame_ids:
                out.append(f"{etag}: endpoint not in frame")

    index = graph.node_index
    frame_of = {nid: n.frame_index for nid, n in index.items()}
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
                elif not (frame_of[edge.src_node] < frame_of[edge.dst_node]):
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
        hist_frames = [frame_of[nid] for nid in track.history]
        if hist_frames != sorted(hist_frames) or len(set(hist_frames)) != len(hist_frames):
            out.append(f"{ttag}: history frames not strictly increasing")
        newest = index[track.history[-1]]
        if newest.obs_time != track.last_seen_time:
            out.append(
                f"{ttag}: last_seen_time {track.last_seen_time} != newest observation {newest.obs_time}"
            )
        if track_id >= graph.next_track_id:
            out.append(f"{ttag}: id not below next_track_id {graph.next_track_id}")

    return out
