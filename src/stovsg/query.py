"""Command grounding against the latency-aligned frame.

The operator issued their command while looking at a *past* frame: the
newest one whose tagged arrival time precedes the issue time.  Grounding
therefore scores that frame's nodes, picks the winner, and only then walks
the winner's track forward to the present to recover an execution-time
pose.  A compact task subgraph around the winner is what a downstream
planner consumes: each of its nodes carries only the motion from its own
observation in the aligned frame to the newest frame, the same window its
lifecycle events cover, and within that window only its track's keyframes
(see :class:`~stovsg.model.GraphLog`), where the track left a
:data:`~stovsg.model.POSE_TOL` band around its last one.  So an export
costs what the track's motion costs, not what the window's frames do, and
a still object's history is its first and last observation.  Frames before
the aligned one stay reachable through ``as_of``.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import InputRejected, NoAlignedFrame, NotFound
from .model import (
    Command,
    FrameGraph,
    LatencyTag,
    ObjectNode,
    SceneGraph4D,
    SpatialEdge,
    _cosine,
    refuse_infinite,
    vector_norm,
)
from .store import captured_by, frame_at_operator_time, lifecycle_events

STATUS_LIVE = "live"
STATUS_LOST = "target-lost"


@dataclass(frozen=True)
class QueryConfig:
    """Scoring and subgraph extraction knobs."""

    beta: float = 0.5  # weight of the image-feature term
    top_k: int = 5
    neighbor_hops: int = 1

    def __post_init__(self) -> None:
        if not self.beta >= 0:  # each rule is written so that NaN fails it
            raise InputRejected(f"beta must be non-negative, got {self.beta}")
        if type(self.top_k) is not int or self.top_k < 1:
            raise InputRejected(f"top_k must be at least 1 (an integer), got {self.top_k!r}")
        if type(self.neighbor_hops) is not int or self.neighbor_hops < 0:
            raise InputRejected(f"neighbor_hops must be non-negative (an integer), got {self.neighbor_hops!r}")
        refuse_infinite(self)


@dataclass(frozen=True, eq=False)
class TaskSubgraph:
    """Planner-facing slice of the graph anchored at the aligned frame."""

    command: Command
    aligned_frame_index: int
    latency_tag: LatencyTag
    nodes: tuple[tuple[ObjectNode, float], ...]  # (node, score), best first
    edges: tuple[SpatialEdge, ...]
    history: Mapping[int, tuple[tuple[float, np.ndarray], ...]]  # node id -> (time, centroid) keyframes, aligned to newest
    dynamics: tuple[tuple[float, int, str], ...]  # (time, track_id, event)


@dataclass(frozen=True, eq=False)
class GroundingResult:
    """Outcome of resolving a command to a physical target."""

    command: Command
    aligned_frame_index: int
    aligned_node: ObjectNode
    score: float
    track_id: int
    status: str  # "live" or "target-lost"
    current_node: ObjectNode  # newest observation of the target: its execution-time (or last-known) pose


def score_nodes(frame: FrameGraph, command: Command, cfg: QueryConfig = QueryConfig()) -> list[tuple[int, float]]:
    """Command relevance per node: text cosine plus ``beta`` times image cosine.

    Returns (node_id, score) sorted by descending score; exact ties order
    by ascending node id.  One pass over the frame: the command's norm is
    taken once, and the nodes' norms once per frame
    (:attr:`~stovsg.model.FrameGraph.feature_norms`), so each node costs two
    dot products, through the same kernel as :func:`~stovsg.model.cosine`;
    every score is bit-identical to the per-pair cosine.  The loop stays per node:
    a stacked matrix product sums in another order and would move the last
    bit of the scores that exports carry.
    """
    embedding = command.embedding
    norm = vector_norm(embedding)
    beta = cfg.beta
    scored = [
        (
            node.node_id,
            _cosine(embedding, norm, node.f_txt, txt_norm) + beta * _cosine(embedding, norm, node.f_img, img_norm),
        )
        for node, (txt_norm, img_norm) in zip(frame.nodes, frame.feature_norms)
    ]
    scored.sort(key=lambda item: (-item[1], item[0]))
    return scored


def _align(
    graph: SceneGraph4D,
    command: Command,
    cfg: QueryConfig,
    as_of: float | None,
    latency_aware: bool,
) -> tuple[FrameGraph, int, list[tuple[int, float]]]:
    """The anchor frame, the log position of the newest frame up to ``as_of``, and the anchor's ranked nodes.

    Latency-aware mode anchors on the frame the operator saw at issue time;
    naive mode anchors on the newest frame.
    """
    n = len(graph.frames) if as_of is None else captured_by(graph.frames, as_of)
    if not n:
        cutoff = "" if as_of is None else f" captured by the cutoff as_of={as_of}"
        raise NoAlignedFrame(f"graph has no frames{cutoff}")
    aligned = frame_at_operator_time(graph, command.issue_time, as_of) if latency_aware else graph.frames[n - 1]
    return aligned, n - 1, score_nodes(aligned, command, cfg)


def _track_window(graph: SceneGraph4D, node_id: int, newest: int) -> tuple[int, list[int], int, int]:
    """The id of the track holding ``node_id``, its history in the log, and the window's bounds in it.

    The window ``history[start:end]`` runs from ``node_id`` to the frame at
    log position ``newest``, oldest first.  A history follows its track's
    edges, which reach a later frame each (see :func:`~stovsg.model.chain_problems`),
    so both ends bisect on its nodes' log positions: O(log track).  A newer
    snapshot's nodes on a shared log lie past ``newest``.
    """
    track_id = graph.track_of(node_id)
    if track_id is None:
        raise NotFound(f"node {node_id} is on no track")
    ids, position = graph.log.histories[track_id], graph.log.positions.__getitem__
    start = bisect_left(ids, position(node_id), key=position)
    return track_id, ids, start, bisect_right(ids, newest, start, key=position)


def extract_subgraph(
    graph: SceneGraph4D,
    command: Command,
    cfg: QueryConfig = QueryConfig(),
    as_of: float | None = None,
    latency_aware: bool = True,
) -> TaskSubgraph:
    """Build the task subgraph for a command.

    Scores the aligned frame, keeps the top-k nodes, pulls in spatial
    neighbors up to ``neighbor_hops`` away, and attaches, over the window
    from the aligned frame to the newest one, each node's motion history
    and the lifecycle events.  A node's history holds (obs_time, centroid)
    entries of its track, oldest first: its own observation, then the
    track's keyframes after it up to the newest frame, found by bisection
    on log positions, then the track's newest observation in the window if
    no keyframe was it (the execution-time pose grounding reports).  So it
    costs O(log track + keyframes), and, since keyframes count from the
    track's start, a window's entries after its first do not depend on
    where it starts.  The result is closed: every edge endpoint is included.
    Without latency awareness the anchor is simply the newest frame, so
    each history is one entry.
    """
    aligned, newest, ranked = _align(graph, command, cfg, as_of, latency_aware)
    scores = dict(ranked)
    seeds = [nid for nid, _ in ranked[: cfg.top_k]]

    # undirected adjacency over the aligned frame's spatial edges
    adjacency: dict[int, set[int]] = {}
    for edge in aligned.spatial_edges:
        adjacency.setdefault(edge.src, set()).add(edge.dst)
        adjacency.setdefault(edge.dst, set()).add(edge.src)

    included = set(seeds)
    frontier = set(seeds)
    for _ in range(cfg.neighbor_hops):
        frontier = {nxt for nid in frontier for nxt in adjacency.get(nid, ())} - included
        if not frontier:
            break
        included |= frontier

    by_id = {node.node_id: node for node in aligned.nodes}
    picked = sorted(included, key=lambda nid: (-scores[nid], nid))
    edges = tuple(
        e for e in aligned.spatial_edges if e.src in included and e.dst in included
    )
    log, history = graph.log, {}
    for nid in picked:
        track_id, ids, start, end = _track_window(graph, nid, newest)
        keys = log.keyframes.get(track_id, ())
        kept = [start, *keys[bisect_right(keys, start) : bisect_left(keys, end)]]
        if kept[-1] != end - 1:
            kept.append(end - 1)
        entries = (ids[k] for k in kept)
        history[nid] = tuple((log.frames[log.positions[wid]].obs_time, log.nodes[wid].centroid) for wid in entries)
    dynamics = lifecycle_events(graph, aligned.capture_time, graph.frames[newest].capture_time)
    return TaskSubgraph(
        command=command,
        aligned_frame_index=aligned.frame_index,
        latency_tag=aligned.latency_tag,
        nodes=tuple((by_id[nid], scores[nid]) for nid in picked),
        edges=edges,
        history=history,
        dynamics=dynamics,
    )


def ground_command(
    graph: SceneGraph4D,
    command: Command,
    cfg: QueryConfig = QueryConfig(),
    as_of: float | None = None,
    latency_aware: bool = True,
) -> GroundingResult:
    """Resolve a command to a target node and an execution-time pose.

    Latency-aware mode anchors on the frame the operator was looking at
    when they spoke, then follows the winner's track identity forward to
    its newest observation (bounded by ``as_of`` when given).  When the
    track is gone from the newest frame the result reports ``target-lost``
    with the last-known pose.  Naive mode scores the newest frame directly.
    """
    aligned, newest, ranked = _align(graph, command, cfg, as_of, latency_aware)
    if not ranked:
        raise NotFound(f"frame {aligned.frame_index} has no nodes to ground against")
    best_id, best_score = ranked[0]
    aligned_node = graph.node(best_id)

    track_id, ids, _, end = _track_window(graph, best_id, newest)
    current = ids[end - 1]
    # a target is live exactly when it was observed in the newest visible frame
    status = STATUS_LIVE if graph.log.positions[current] == newest else STATUS_LOST

    return GroundingResult(
        command=command,
        aligned_frame_index=aligned.frame_index,
        aligned_node=aligned_node,
        score=float(best_score),
        track_id=track_id,
        status=status,
        current_node=graph.node(current),
    )
