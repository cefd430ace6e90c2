"""Frame ingestion and time-indexed access to the 4D graph.

The store is single-writer, multi-reader by construction: every mutation
returns a *new* :class:`~stovsg.model.SceneGraph4D` that shares structure
with its predecessor, so a reader holding any snapshot keeps a consistent
view.  Ingestion is atomic — all validation and lifting happen before the
new graph is assembled, so a rejected frame leaves the caller's graph
untouched.  The graph only grows: every frame stays, so a command can be
grounded on any frame the operator saw however old.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from types import MappingProxyType
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from .errors import InputRejected, NoAlignedFrame, NotFound
from .geometry import DepthImage, centroid_and_size, lift_mask
from .model import (
    APPEARED,
    DISAPPEARED,
    SAME_INSTANCE,
    BoundingBox2D,
    CameraModel,
    Detection,
    FrameGraph,
    LatencyTag,
    ObjectNode,
    RelationCandidate,
    SceneGraph4D,
    TemporalEdge,
    Track,
    TrackStatus,
    AssociationOutcome,
    normalize_label,
)
from .spatial import resolve_ambiguous
from .temporal import associate

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
    norm = float(np.linalg.norm(vec))
    if norm == 0.0:
        raise InputRejected("zero-norm feature vector")
    return vec / norm


def ingest_frame(graph: SceneGraph4D, frame_input: FrameInput, config: "EngineConfig") -> SceneGraph4D:
    """Lift one frame into the graph and return the updated graph.

    Detections are back-projected through the depth image, scored into
    spatial edges, and associated against live tracks.  Any malformed
    detection or candidate rejects the whole frame; detections whose mask
    has no valid depth reading are silently dropped (they cannot be
    grounded in 3D).
    """
    tag = frame_input.latency_tag
    if not tag.transmission_latency >= 0:
        raise InputRejected(f"transmission latency {tag.transmission_latency} is negative or NaN")
    last = graph.frames[-1].capture_time if graph.frames else -float("inf")
    if not tag.capture_time > last:
        raise InputRejected(
            f"capture time {tag.capture_time} must be after the newest stored frame ({last})"
        )
    depth = frame_input.depth
    width, height = depth.width, depth.height
    feature_dim = None
    for fg in graph.frames:
        if fg.nodes:
            feature_dim = fg.nodes[0].f_img.shape[0]
            break

    frame_index = graph.frames_dropped + len(graph.frames) + 1
    obs_time = tag.observed_time
    nodes: list[ObjectNode] = []
    node_id_of_det: dict[int, int] = {}
    node_boxes: dict[int, BoundingBox2D] = {}
    next_node_id = graph.next_node_id
    for det_index, det in enumerate(frame_input.detections):
        where = f"detection {det_index}"
        if not det.box.is_valid():
            raise InputRejected(f"{where}: invalid box {det.box.as_tuple()}")
        if det.box.x_min < 0 or det.box.y_min < 0 or det.box.x_max > width or det.box.y_max > height:
            raise InputRejected(f"{where}: box outside {width}x{height} image")
        if len(det.mask) == 0:
            raise InputRejected(f"{where}: empty mask")
        for name, vec in (("f_img", det.f_img), ("f_txt", det.f_txt)):
            if not np.isfinite(vec).all():
                raise InputRejected(f"{where}: non-finite {name}")
            if feature_dim is None:
                feature_dim = vec.shape[0]
            elif vec.shape[0] != feature_dim:
                raise InputRejected(
                    f"{where}: {name} dimension {vec.shape[0]} != expected {feature_dim}"
                )
        label = normalize_label(det.label)
        if not label:
            raise InputRejected(f"{where}: empty label")
        points = lift_mask(depth, det.mask, frame_input.camera)
        if len(points) == 0:
            continue  # no depth evidence anywhere under the mask
        points = _subsample(points)
        centroid, size = centroid_and_size(points)
        node_id_of_det[det_index] = next_node_id
        node_boxes[next_node_id] = det.box
        nodes.append(
            ObjectNode(
                node_id=next_node_id,
                frame_index=frame_index,
                label=label,
                f_img=det.f_img,
                f_txt=det.f_txt,
                centroid=centroid,
                size=size,
                points=points,
                obs_time=obs_time,
            )
        )
        next_node_id += 1

    candidates = []
    for cand in frame_input.relation_candidates:
        if cand.src not in node_id_of_det or cand.dst not in node_id_of_det:
            raise InputRejected(
                f"relation candidate ({cand.src}, {cand.dst}) references a missing detection"
            )
        candidates.append(
            RelationCandidate(
                src=node_id_of_det[cand.src],
                dst=node_id_of_det[cand.dst],
                relation=cand.relation,
                zone=cand.zone,
            )
        )
    edges = resolve_ambiguous(candidates, node_boxes, config.spatial)

    frame = FrameGraph(
        frame_index=frame_index,
        latency_tag=tag,
        nodes=tuple(nodes),
        spatial_edges=tuple(edges),
    )
    outcome = associate(graph.tracks, nodes, config.temporal, now=obs_time)
    updated = apply_outcome(graph, outcome, frame, config)
    return replace(updated, next_node_id=next_node_id)


def apply_outcome(
    graph: SceneGraph4D,
    outcome: AssociationOutcome,
    frame: FrameGraph,
    config: "EngineConfig",
) -> SceneGraph4D:
    """Commit one frame plus its association outcome to the graph.

    Accepted pairs extend their track (same-instance edge, exponentially
    refreshed descriptor, label correction); unmatched nodes open tracks
    with an appearance edge; unmatched tracks transition to disappeared,
    emitting a disappearance edge only on the first missed frame; tracks
    disappeared for longer than the grace period retire.  Requires the
    single-writer contract: ``graph`` must be the newest snapshot.
    """
    by_id = {node.node_id: node for node in frame.nodes}
    alpha = config.descriptor_alpha
    now = frame.obs_time
    tracks = dict(graph.tracks)
    new_edges: list[TemporalEdge] = []
    next_track_id = graph.next_track_id

    for track_id, node_id, _cost in outcome.accepted:
        if track_id not in tracks:
            raise InputRejected(f"outcome references unknown track {track_id}")
        if node_id not in by_id:
            raise InputRejected(f"outcome references node {node_id} not in frame")
        track = tracks[track_id]
        node = by_id[node_id]
        prev = graph.node(track.history[-1])
        new_edges.append(
            TemporalEdge(
                relation=SAME_INSTANCE,
                track_id=track_id,
                event_frame=frame.frame_index,
                src_node=prev.node_id,
                src_frame=prev.frame_index,
                dst_node=node.node_id,
                dst_frame=frame.frame_index,
            )
        )
        blended = (1.0 - alpha) * track.descriptor + alpha * node.f_img
        norm = float(np.linalg.norm(blended))
        descriptor = blended / norm if norm > 0 else _unit(node.f_img)
        tracks[track_id] = Track(
            track_id=track_id,
            centroid=node.centroid,
            descriptor=descriptor,
            label=node.label,
            last_seen_time=node.obs_time,
            status=TrackStatus.ACTIVE,
            history=track.history + (node.node_id,),
        )

    for node_id in outcome.new_nodes:
        if node_id not in by_id:
            raise InputRejected(f"outcome references node {node_id} not in frame")
        node = by_id[node_id]
        tracks[next_track_id] = Track(
            track_id=next_track_id,
            centroid=node.centroid,
            descriptor=_unit(node.f_img),
            label=node.label,
            last_seen_time=node.obs_time,
            status=TrackStatus.ACTIVE,
            history=(node.node_id,),
        )
        new_edges.append(
            TemporalEdge(
                relation=APPEARED,
                track_id=next_track_id,
                event_frame=frame.frame_index,
                dst_node=node.node_id,
                dst_frame=frame.frame_index,
            )
        )
        next_track_id += 1

    for track_id in outcome.disappeared:
        if track_id not in tracks:
            raise InputRejected(f"outcome references unknown track {track_id}")
        track = tracks[track_id]
        if track.status is TrackStatus.ACTIVE:
            last_node = graph.node(track.history[-1])
            new_edges.append(
                TemporalEdge(
                    relation=DISAPPEARED,
                    track_id=track_id,
                    event_frame=frame.frame_index,
                    src_node=last_node.node_id,
                    src_frame=last_node.frame_index,
                )
            )
            tracks[track_id] = replace(track, status=TrackStatus.DISAPPEARED)

    grace = config.temporal.grace_period
    for track_id, track in tracks.items():
        if track.status is TrackStatus.DISAPPEARED and now - track.last_seen_time > grace:
            tracks[track_id] = replace(track, status=TrackStatus.RETIRED)

    return SceneGraph4D(
        frames=graph.frames + (frame,),
        temporal_edges=graph.temporal_edges + tuple(new_edges),
        tracks=MappingProxyType(tracks),
        next_node_id=graph.next_node_id,
        next_track_id=next_track_id,
        frames_dropped=graph.frames_dropped,
    )


def ingest_sequence(
    graph: SceneGraph4D, inputs: Iterable[FrameInput], config: "EngineConfig"
) -> SceneGraph4D:
    """Ingest frames in order; convenience wrapper around :func:`ingest_frame`."""
    for frame_input in inputs:
        graph = ingest_frame(graph, frame_input, config)
    return graph


def frame_at_operator_time(graph: SceneGraph4D, query_time: float) -> FrameGraph:
    """The frame the operator was seeing at ``query_time``.

    That is the newest capture whose tagged arrival time (capture plus
    transmission latency) is at or before the query time; every node in the
    returned frame was therefore operator-visible by then.  When nothing
    had arrived yet this raises.
    """
    if not graph.frames:
        raise NoAlignedFrame("graph has no frames")
    chosen = None
    for fg in graph.frames:
        if fg.obs_time <= query_time:
            chosen = fg
    if chosen is None:
        raise NoAlignedFrame(f"no frame was operator-visible at time {query_time}")
    return chosen


def track_history(graph: SceneGraph4D, track_id: int) -> list[ObjectNode]:
    """All observations of one track, oldest first."""
    if track_id not in graph.tracks:
        raise NotFound(f"track {track_id} not in graph")
    return [graph.node(nid) for nid in graph.tracks[track_id].history]


def lifecycle_events(
    graph: SceneGraph4D, start: float, end: float
) -> tuple[tuple[float, int, str], ...]:
    """Appearance/disappearance events with capture time in [start, end]."""
    events = []
    for edge in graph.temporal_edges:
        if edge.relation == SAME_INSTANCE:
            continue
        when = graph.frame(edge.event_frame).capture_time
        if start <= when <= end:
            events.append((when, edge.track_id, edge.relation))
    events.sort(key=lambda item: (item[0], item[1], item[2]))
    return tuple(events)
