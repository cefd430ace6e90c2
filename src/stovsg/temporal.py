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
from typing import Sequence

import numpy as np

from .assignment import min_cost_assignment
from .errors import InputRejected
from .model import AssociationOutcome, ObjectNode, SceneGraph4D, Track, refuse_infinite

@dataclass(frozen=True)
class TemporalWeights:
    """Cost weights and gating for cross-frame identity matching."""

    w_pos: float = 0.4
    w_vis: float = 0.4
    delta_cls: float = 0.2
    d_max: float = 1.0  # metres; position term saturates here
    eta: float = 0.5  # accept a pair only when its cost is strictly below
    grace_period: float = 10.0  # seconds a disappeared track stays matchable

    def __post_init__(self) -> None:
        for key in ("w_pos", "w_vis", "delta_cls"):  # so no cost is negative
            if not getattr(self, key) >= 0:  # NaN fails too
                raise InputRejected(f"temporal weights must be non-negative, got {key}={getattr(self, key)}")
        if not self.d_max > 0:
            raise InputRejected(f"d_max must be positive, got {self.d_max}")
        if not self.eta > 0:
            raise InputRejected(f"eta must be positive, got {self.eta}")
        if not self.grace_period >= 0:
            raise InputRejected(f"grace_period must be non-negative, got {self.grace_period}")
        refuse_infinite(self)


@dataclass(frozen=True, eq=False)
class CostMatrix:
    """Dense track-by-node cost block with its id maps."""

    values: np.ndarray  # (T, N) float64
    track_ids: tuple[int, ...]
    node_ids: tuple[int, ...]


def temporal_cost(track: Track, newest: ObjectNode, node: ObjectNode, w: TemporalWeights = TemporalWeights()) -> float:
    """Matching cost between a track, whose newest node is ``newest``, and a candidate node: the one-pair block.

    Position is the centroid gap normalized by ``d_max`` and clamped to 1, so
    a far-off candidate is penalized no worse than ``w_pos``; appearance is
    one minus the cosine between the track descriptor and the node's image
    feature; a flat ``delta_cls`` is added when labels disagree.
    """
    return float(_cost_block((track,), (newest,), (node,), w)[0, 0])


def in_grace(graph: SceneGraph4D, track_id: int, w: TemporalWeights, now: float) -> bool:
    """Whether the track's newest node was observed at most ``grace_period`` before ``now``."""
    return now - graph.frame_of(graph.newest_node(track_id).node_id).obs_time <= w.grace_period


def eligible_tracks(graph: SceneGraph4D, w: TemporalWeights, now: float) -> list[Track]:
    """The live tracks of ``graph`` that can take a node at ``now``, by ascending track id.

    These are the active tracks, and the disappeared ones still :func:`in_grace`.
    """
    active = graph.active
    return [track for tid, track in sorted(graph.tracks.items()) if tid in active or in_grace(graph, tid, w, now)]


def build_cost_matrix(
    graph: SceneGraph4D,
    nodes: Sequence[ObjectNode],
    w: TemporalWeights,
    now: float,
) -> CostMatrix:
    """Pairwise costs between matchable tracks of ``graph`` (rows) and frame nodes (cols).

    Rows are the matchable tracks (:func:`eligible_tracks`) by ascending
    track id, columns follow the frame's node order.  Each cell is
    :func:`temporal_cost` of its pair, computed for the whole block at
    once; a block with cells refuses its first vector (descriptors, then
    image features) of another size than the first node's, or of zero norm.
    """
    rows = eligible_tracks(graph, w, now)
    if rows and nodes:
        values = _cost_block(rows, [graph.newest_node(t.track_id) for t in rows], nodes, w)
    else:
        values = np.zeros((len(rows), len(nodes)), dtype=np.float64)
    return CostMatrix(
        values=values,
        track_ids=tuple(t.track_id for t in rows),
        node_ids=tuple(n.node_id for n in nodes),
    )


def _cost_block(
    rows: Sequence[Track], newest: Sequence[ObjectNode], nodes: Sequence[ObjectNode], w: TemporalWeights
) -> np.ndarray:
    """The matching cost of every (track, node) pair, as one broadcast; ``newest`` holds each track's newest node."""
    k = len(rows)
    vectors = [t.descriptor for t in rows] + [n.f_img for n in nodes]
    dim = nodes[0].f_img.shape

    def holder(i: int) -> tuple[str, str]:  # who holds the i-th vector, and which of its vectors it is
        return (f"track {rows[i].track_id}", "descriptor") if i < k else (f"node {nodes[i - k].node_id}", "f_img")
    for i, vec in enumerate(vectors):
        if vec.shape != dim:
            who, name = holder(i)
            raise InputRejected(f"{who}: {name} dimension {vec.shape[0]} != {dim[0]}")
    feats = np.array(vectors)
    norms = np.linalg.norm(feats, axis=1)
    if not norms.all():
        who, name = holder(int(np.flatnonzero(norms == 0)[0]))
        raise InputRejected(f"{who}: zero-norm {name}")
    # clamped like ``cosine``: rounding can leave [-1, 1] by a hair
    cos = np.minimum(np.maximum(feats[:k] @ feats[k:].T / np.outer(norms[:k], norms[k:]), -1.0), 1.0)
    centroids = np.array([n.centroid for n in newest] + [n.centroid for n in nodes])
    gap = np.linalg.norm(centroids[:k, None] - centroids[k:], axis=2)
    # integer codes compare labels as Python strings do (NumPy's fixed-width
    # strings would ignore trailing NULs)
    codes: dict[str, int] = {}
    labels = np.array([codes.setdefault(n.label, len(codes)) for n in (*newest, *nodes)])
    pos = w.w_pos * np.minimum(gap / w.d_max, 1.0)
    vis = w.w_vis * (1.0 - cos)
    cls = w.delta_cls * (labels[:k, None] != labels[k:])
    return pos + vis + cls


def associate(
    graph: SceneGraph4D,
    nodes: Sequence[ObjectNode],
    w: TemporalWeights,
    now: float,
) -> AssociationOutcome:
    """Match a frame's nodes against the live tracks of ``graph`` and gate by threshold.

    The cost block (:func:`build_cost_matrix`) is solved for the optimal
    one-to-one assignment, ties going to the lexicographically smallest
    pair sequence; a pair holds only when its cost is strictly below
    ``eta``.  The pairs come by ascending track id; committing them
    (:func:`~stovsg.store.apply_outcome`) opens a track for every other node
    and loses every other active track.
    """
    matrix = build_cost_matrix(graph, nodes, w, now)
    return AssociationOutcome(tuple(
        (matrix.track_ids[row], matrix.node_ids[col])
        for row, col in min_cost_assignment(matrix.values)
        if matrix.values[row, col] < w.eta
    ))
