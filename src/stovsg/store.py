"""Frame ingestion and time-indexed access to the 4D graph.

The store is single-writer, multi-reader by construction: every mutation
returns a *new* :class:`~stovsg.model.SceneGraph4D` that shares structure
with its predecessor, so a reader holding any snapshot keeps a consistent
view.  Ingestion is atomic — all validation and lifting happen before the
new graph is assembled, so a rejected frame leaves the caller's graph
untouched.  The graph only grows: every frame stays, so a command can be
grounded on any frame the operator saw however old.

Every snapshot is built on a :class:`~stovsg.model.GraphLog`, an empty or
``dataclasses.replace``-made one too, and snapshots along one line of
ingests share one log, each seeing its own prefix of it.  Ingesting into
the newest snapshot appends in place, so a frame costs the same however
long the graph is; ingesting into an older one first copies its prefix into
a new log.  Time lookups bisect on capture time, which strictly increases
with the frame index.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from operator import attrgetter
from types import MappingProxyType
from typing import TYPE_CHECKING, Iterable

import numpy as np

from .errors import InputRejected, NoAlignedFrame
from .geometry import DepthImage, centroids_and_sizes, lift_mask
from .model import (
    APPEARED,
    DISAPPEARED,
    SAME_INSTANCE,
    BoundingBox2D,
    CameraModel,
    Detection,
    FrameGraph,
    LatencyTag,
    LogView,
    ObjectNode,
    RelationCandidate,
    SceneGraph4D,
    TemporalEdge,
    Track,
    AssociationOutcome,
    normalize_label,
    time_order_problems,
    vector_norm,
    view_parts,
)
from .spatial import resolve_ambiguous
from .temporal import associate, in_grace

if TYPE_CHECKING:  # pragma: no cover
    from .config import EngineConfig


@dataclass(frozen=True, eq=False)
class FrameInput:
    """One capture's worth of raw perception, before any graph work.

    ``relation_candidates`` reference detections by their index in
    ``detections``; ingestion rewrites them to node ids.
    """

    latency_tag: LatencyTag
    camera: CameraModel
    depth: DepthImage
    detections: tuple[Detection, ...]
    relation_candidates: tuple[RelationCandidate, ...] = ()


MAX_POINTS = 2048  # per-node point cap at ingestion


def _subsample(points: np.ndarray) -> np.ndarray:
    """Uniform stride subsample keeping at most ``MAX_POINTS`` points."""
    n = len(points)
    if n <= MAX_POINTS:
        return points
    idx = np.arange(MAX_POINTS) * n // MAX_POINTS
    return points[idx]


def _unit(vec: np.ndarray) -> np.ndarray:
    norm = vector_norm(vec)
    if norm == 0.0:
        raise InputRejected("zero-norm feature vector")
    return vec / norm


def ingest_frame(graph: SceneGraph4D, frame_input: FrameInput, config: "EngineConfig") -> SceneGraph4D:
    """Lift one frame into the graph and return the updated graph.

    Detections are back-projected through the depth image, scored into
    spatial edges, and associated against live tracks.  A box or mask outside
    the image, a feature of another dimension than the graph's, a candidate
    naming a missing detection, or a frame out of time order rejects the
    whole frame; detections whose mask has no valid depth reading are dropped
    (they cannot be grounded in 3D), with the candidates naming them.  The
    frame's clouds are reduced together once every detection has passed its
    checks, so non-finite points are refused after any other fault.
    """
    tag = frame_input.latency_tag
    depth = frame_input.depth
    width, height = depth.width, depth.height
    detections = frame_input.detections
    # every feature has the dimension of the first one stored (the log's first node) or, in an empty graph, given
    first = graph.node(next(iter(graph.log.nodes))) if graph.node_index else next(iter(detections), None)
    feature_dim = first.f_img.shape[0] if first else None

    frame_index = graph.frames_dropped + len(graph.frames) + 1
    kept: list[tuple[int, str, Detection, np.ndarray]] = []  # (node id, label, detection, points) per node
    norms: list[tuple[float, float]] = []  # each node's (f_txt, f_img) norm
    node_id_of_det: dict[int, int] = {}
    node_boxes: dict[int, BoundingBox2D] = {}
    next_node_id = graph.next_node_id
    for det_index, det in enumerate(detections):
        if det.box.x_min < 0 or det.box.y_min < 0 or det.box.x_max > width or det.box.y_max > height:
            raise InputRejected(f"detection {det_index}: box outside {width}x{height} image")
        for name, vec in (("f_img", det.f_img), ("f_txt", det.f_txt)):
            if vec.shape[0] != feature_dim:
                raise InputRejected(f"detection {det_index}: {name} dimension {vec.shape[0]} != {feature_dim}")
        points = lift_mask(depth, det.mask, frame_input.camera)
        if len(points) == 0:
            continue  # no depth evidence anywhere under the mask
        points = _subsample(points)
        points.setflags(write=False)  # fresh, so the node keeps it uncopied
        node_id_of_det[det_index] = next_node_id
        node_boxes[next_node_id] = det.box
        kept.append((next_node_id, normalize_label(det.label), det, points))
        norms.append((det.txt_norm, det.img_norm))
        next_node_id += 1

    nodes: list[ObjectNode] = []
    if kept:  # one reduction for the whole frame, bit for bit the per-node one
        centroids, sizes = centroids_and_sizes([points for *_, points in kept])
        centroids.setflags(write=False)  # fresh, so each node keeps its rows uncopied
        sizes.setflags(write=False)
        nodes = [
            ObjectNode(node_id, label, det.f_img, det.f_txt, centroid, size, points)
            for (node_id, label, det, points), centroid, size in zip(kept, centroids, sizes)
        ]

    candidates = []
    for cand in frame_input.relation_candidates:
        if not (0 <= cand.src < len(detections) and 0 <= cand.dst < len(detections)):
            raise InputRejected(f"relation candidate ({cand.src}, {cand.dst}) references a missing detection")
        if cand.src in node_id_of_det and cand.dst in node_id_of_det:  # else an endpoint had no depth
            src, dst = node_id_of_det[cand.src], node_id_of_det[cand.dst]
            candidates.append(RelationCandidate(src, dst, cand.relation, cand.zone))
    edges = resolve_ambiguous(candidates, node_boxes, config.spatial)

    frame = FrameGraph.with_norms(frame_index, tag, tuple(nodes), tuple(edges), tuple(norms))
    outcome = associate(graph, nodes, config.temporal, now=tag.observed_time)
    return apply_outcome(graph, outcome, frame, config)


def apply_outcome(
    graph: SceneGraph4D,
    outcome: AssociationOutcome,
    frame: FrameGraph,
    config: "EngineConfig",
) -> SceneGraph4D:
    """Commit one frame plus its association outcome to the graph.

    Each accepted pair extends its track (same-instance edge, exponentially
    refreshed descriptor); each frame node no pair took opens a track with
    an appearance edge, in frame order; each active track no pair extended
    is lost, with a disappearance edge, by ascending track id; a live track
    not extended and not :func:`~stovsg.temporal.in_grace` retires, and its
    record goes.  Everything is checked before the log is appended to, the
    frame's time order too, so a refused outcome changes nothing.  The log
    takes each track's history from the edges; a track seen in this frame
    is its id and its new descriptor.  The new graph's next node id follows
    the larger of the graph's and the frame's.
    """
    for path, message in time_order_problems(graph, frame):
        raise InputRejected(f"{path}: {message}")
    by_id = {node.node_id: node for node in frame.nodes}
    clash = next((node_id for node_id in by_id if node_id in graph.node_index), None)
    if clash is not None:
        raise InputRejected(f"node id {clash} is already in the graph")
    log = graph.log_to_extend()
    alpha = config.descriptor_alpha
    now = frame.obs_time
    tracks = dict(graph.tracks)
    new_edges: list[TemporalEdge] = []
    descriptors: dict[int, np.ndarray] = {}  # id of each track seen in this frame -> its new descriptor
    next_track_id = graph.next_track_id

    extended: dict[int, ObjectNode] = {}  # id of each accepted track -> its new node
    taken: set[int] = set()  # ids of the accepted nodes
    for track_id, node_id in outcome.accepted:
        if track_id not in tracks:
            raise InputRejected(f"outcome references unknown track {track_id}")
        if node_id not in by_id:
            raise InputRejected(f"outcome references node {node_id} not in frame")
        if track_id in extended:
            raise InputRejected(f"outcome extends track {track_id} twice")
        if node_id in taken:
            raise InputRejected(f"outcome puts node {node_id} on two tracks")
        extended[track_id] = by_id[node_id]
        taken.add(node_id)
        newest = graph.newest_node(track_id).node_id
        new_edges.append(TemporalEdge(SAME_INSTANCE, track_id, frame.frame_index, newest, node_id))
    if extended:  # one blend for all; each norm per row, since a row-wise norm(axis=1) sums in another order
        previous = np.array([tracks[track_id].descriptor for track_id in extended])
        blended = (1.0 - alpha) * previous + alpha * np.array([node.f_img for node in extended.values()])
        norms = [vector_norm(row) for row in blended]
        units = blended / np.array([norm if norm > 0 else 1.0 for norm in norms])[:, None]
        units.setflags(write=False)  # fresh, so each track keeps its row uncopied
        for (track_id, node), unit, norm in zip(extended.items(), units, norms):
            descriptors[track_id] = unit if norm > 0 else _unit(node.f_img)

    for node in frame.nodes:
        if node.node_id not in taken:
            descriptors[next_track_id] = _unit(node.f_img)
            new_edges.append(TemporalEdge(APPEARED, next_track_id, frame.frame_index, dst_node=node.node_id))
            next_track_id += 1
    for track_id in sorted(graph.active.difference(extended)):
        new_edges.append(TemporalEdge(DISAPPEARED, track_id, frame.frame_index, graph.newest_node(track_id).node_id))

    for track_id in graph.tracks:
        if track_id not in descriptors and not in_grace(graph, track_id, config.temporal, now):
            del tracks[track_id]
    for track_id, descriptor in descriptors.items():
        tracks[track_id] = Track(track_id, descriptor)

    log.append((frame,), new_edges)  # nothing above touched the log
    next_node_id = max([graph.next_node_id, *(node_id + 1 for node_id in by_id)])
    return SceneGraph4D(*log.views(), MappingProxyType(tracks), next_node_id, next_track_id, graph.frames_dropped)


def ingest_sequence(
    graph: SceneGraph4D, inputs: Iterable[FrameInput], config: "EngineConfig"
) -> SceneGraph4D:
    """Ingest frames in order; convenience wrapper around :func:`ingest_frame`."""
    for frame_input in inputs:
        graph = ingest_frame(graph, frame_input, config)
    return graph


_CAPTURE_TIME = attrgetter("capture_time")
_EVENT_FRAME = attrgetter("event_frame")


def captured_by(frames: LogView, time: float) -> int:
    """How many of ``frames`` (in capture order) were captured at or before ``time``."""
    items, n = view_parts(frames)
    return 0 if math.isnan(time) else bisect_right(items, time, 0, n, key=_CAPTURE_TIME)


def frame_at_operator_time(graph: SceneGraph4D, query_time: float, as_of: float | None = None) -> FrameGraph:
    """The frame the operator was seeing at ``query_time``, among those captured by ``as_of``.

    That is the newest capture whose tagged arrival time (capture plus
    transmission latency) is at or before the query time; every node in the
    returned frame was therefore operator-visible by then.  When nothing
    had arrived yet this raises.  Only frames captured by the query time and
    by the cutoff can be chosen, so this bisects to them and steps back over
    those still in flight: O(log frames + frames in flight).
    """
    frames, n = view_parts(graph.frames)
    if not n:
        raise NoAlignedFrame("graph has no frames")
    k = captured_by(graph.frames, query_time)
    if as_of is not None and not as_of >= query_time:  # a NaN cutoff leaves no frame
        k = min(k, captured_by(graph.frames, as_of))
    while k and frames[k - 1].obs_time > query_time:
        k -= 1
    if not k:
        raise NoAlignedFrame(f"no frame was operator-visible at time {query_time}")
    return frames[k - 1]


def lifecycle_events(
    graph: SceneGraph4D, start: float, end: float
) -> tuple[tuple[float, int, str], ...]:
    """Appearance/disappearance events with capture time in [start, end].

    Bisects the frames on capture time and the temporal edges, which are in
    event-frame order, on their event frame, so only the window's edges are
    read.
    """
    frames, n = view_parts(graph.frames)
    edges, m = view_parts(graph.temporal_edges)
    lo = bisect_left(frames, start, 0, n, key=_CAPTURE_TIME)
    hi = captured_by(graph.frames, end)
    if lo >= hi or math.isnan(start):
        return ()
    first = bisect_left(edges, frames[lo].frame_index, 0, m, key=_EVENT_FRAME)
    last = bisect_right(edges, frames[hi - 1].frame_index, first, m, key=_EVENT_FRAME)
    # each edge's frame lies between frames[lo] and frames[hi - 1], so it was captured in [start, end]
    lifecycle = (edge for edge in edges[first:last] if edge.relation != SAME_INSTANCE)
    return tuple(sorted((graph.frame(e.event_frame).capture_time, e.track_id, e.relation) for e in lifecycle))
