"""Track-to-detection matching across frames.

Each new frame's nodes are matched against the live tracks (active ones,
plus recently disappeared ones still inside the reappearance grace period)
by a cost mixing 3D position, appearance, and label agreement.  A globally
optimal one-to-one assignment is solved, then gated: only pairs under the
acceptance threshold hold; everything else either spawns a new track or
marks a disappearance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, NoReturn, Sequence

import numpy as np

from .assignment import min_cost_assignment
from .errors import InputRejected
from .model import AssociationOutcome, ObjectNode, Track, TrackStatus, cosine

@dataclass(frozen=True)
class TemporalWeights:
    """Cost weights and gating for cross-frame identity matching."""

    w_pos: float = 0.4
    w_vis: float = 0.4
    delta_cls: float = 0.2
    d_max: float = 1.0  # metres; position term saturates here
    eta: float = 0.5  # accept a pair only when its cost is strictly below
    grace_period: float = 10.0  # seconds a disappeared track stays matchable


@dataclass(frozen=True, eq=False)
class CostMatrix:
    """Dense track-by-node cost block with its id maps."""

    values: np.ndarray  # (T, N) float64
    track_ids: tuple[int, ...]
    node_ids: tuple[int, ...]


def temporal_cost(track: Track, node: ObjectNode, w: TemporalWeights = TemporalWeights()) -> float:
    """Matching cost between one track and one candidate node: the one-pair block.

    Position is the centroid gap normalized by ``d_max`` and clamped to 1, so
    a far-off candidate is penalized no worse than ``w_pos``; appearance is
    one minus the cosine between the track descriptor and the node's image
    feature; a flat ``delta_cls`` is added when labels disagree.
    """
    return float(_cost_block((track,), (node,), w)[0, 0])


def matchable(track: Track, w: TemporalWeights, now: float) -> bool:
    """Whether ``track`` can take a node at ``now``: active, or disappeared within the grace period."""
    if track.status is TrackStatus.DISAPPEARED:
        return now - track.last_seen_time <= w.grace_period
    return track.status is TrackStatus.ACTIVE


def eligible_tracks(tracks: Mapping[int, Track], w: TemporalWeights, now: float) -> list[Track]:
    """The tracks :func:`matchable` at ``now``, by ascending track id."""
    return [tracks[tid] for tid in sorted(tracks) if matchable(tracks[tid], w, now)]


def build_cost_matrix(
    tracks: Mapping[int, Track],
    nodes: Sequence[ObjectNode],
    w: TemporalWeights,
    now: float,
) -> CostMatrix:
    """Pairwise costs between matchable tracks (rows) and frame nodes (cols).

    Rows are the matchable tracks (:func:`eligible_tracks`) by ascending
    track id, columns follow the frame's node order.  Each cell is
    :func:`temporal_cost` of its pair, computed for the whole block at
    once; a block with cells raises what the first failing pair would.
    """
    rows = eligible_tracks(tracks, w, now)
    if rows and nodes:
        values = _cost_block(rows, nodes, w)
    else:
        values = np.zeros((len(rows), len(nodes)), dtype=np.float64)
    return CostMatrix(
        values=values,
        track_ids=tuple(t.track_id for t in rows),
        node_ids=tuple(n.node_id for n in nodes),
    )


def _cost_block(rows: Sequence[Track], nodes: Sequence[ObjectNode], w: TemporalWeights) -> np.ndarray:
    """The matching cost of every (track, node) pair, as one broadcast."""
    dim = nodes[0].f_img.shape
    if (
        w.d_max <= 0
        or any(t.descriptor.shape != dim for t in rows)
        or any(n.f_img.shape != dim for n in nodes)
    ):
        _raise_first_failing_pair(rows, nodes, w)
    k = len(rows)
    feats = np.array([t.descriptor for t in rows] + [n.f_img for n in nodes])
    norms = np.linalg.norm(feats, axis=1)
    if not norms.all():
        _raise_first_failing_pair(rows, nodes, w)
    # clamped like ``cosine``: rounding can leave [-1, 1] by a hair
    cos = np.minimum(np.maximum(feats[:k] @ feats[k:].T / np.outer(norms[:k], norms[k:]), -1.0), 1.0)
    centroids = np.array([t.centroid for t in rows] + [n.centroid for n in nodes])
    gap = np.linalg.norm(centroids[:k, None] - centroids[k:], axis=2)
    # integer codes compare labels as Python strings do (NumPy's fixed-width
    # strings would ignore trailing NULs)
    codes: dict[str, int] = {}
    labels = np.array([codes.setdefault(x.label, len(codes)) for x in (*rows, *nodes)])
    pos = w.w_pos * np.minimum(gap / w.d_max, 1.0)
    vis = w.w_vis * (1.0 - cos)
    cls = w.delta_cls * (labels[:k, None] != labels[k:])
    return pos + vis + cls


def _raise_first_failing_pair(rows: Sequence[Track], nodes: Sequence[ObjectNode], w: TemporalWeights) -> NoReturn:
    """Raise the first failing pair's refusal in row order: ``d_max``'s, else :func:`cosine`'s."""
    if w.d_max <= 0:
        raise InputRejected(f"d_max must be positive, got {w.d_max}")
    for track in rows:
        for node in nodes:
            cosine(track.descriptor, node.f_img)
    raise AssertionError("a failing cost block had no failing pair")


def solve_assignment(matrix: CostMatrix) -> list[tuple[int, int]]:
    """Optimal one-to-one (row, col) pairs for a cost block.

    Requires finite, non-negative entries.  Ties between equal-cost optima
    resolve to the lexicographically smallest pair sequence.
    """
    if matrix.values.size and float(matrix.values.min()) < 0:
        raise InputRejected("cost matrix entries must be non-negative")
    return min_cost_assignment(matrix.values)


def associate(
    tracks: Mapping[int, Track],
    nodes: Sequence[ObjectNode],
    w: TemporalWeights,
    now: float,
) -> AssociationOutcome:
    """Match a frame's nodes against live tracks and gate by threshold.

    Every matchable track lands in exactly one of ``accepted`` or
    ``disappeared``, and every node in exactly one of ``accepted`` or
    ``new_nodes``; assignment pairs at or above ``eta`` are rejected.
    """
    matrix = build_cost_matrix(tracks, nodes, w, now)
    pairs = solve_assignment(matrix)

    accepted: list[tuple[int, int, float]] = []
    matched_tracks: set[int] = set()
    matched_nodes: set[int] = set()
    for row, col in pairs:
        cost = float(matrix.values[row, col])
        if cost < w.eta:
            tid = matrix.track_ids[row]
            nid = matrix.node_ids[col]
            accepted.append((tid, nid, cost))
            matched_tracks.add(tid)
            matched_nodes.add(nid)

    new_nodes = tuple(nid for nid in matrix.node_ids if nid not in matched_nodes)
    disappeared = tuple(tid for tid in matrix.track_ids if tid not in matched_tracks)
    return AssociationOutcome(
        accepted=tuple(accepted),
        new_nodes=new_nodes,
        disappeared=disappeared,
    )
