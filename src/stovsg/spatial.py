"""Within-frame relation scoring and ambiguity resolution.

A relation proposal pairs two nodes with an evidence *zone* (the image
region the proposer attended to).  The proposal is scored by how well the
union of the two object boxes lines up with that zone; when several
proposals compete for the same zone or the same object, only the cheapest
survives.
"""

from __future__ import annotations

import math
from contextlib import suppress
from dataclasses import dataclass
from typing import Iterable, Mapping

from .errors import InputRejected
from .geometry import _area, _center, _diagonal, iou, union_box
from .model import BoundingBox2D, RelationCandidate, SpatialEdge, refuse_infinite


@dataclass(frozen=True)
class SpatialWeights:
    """Weights for the zone-alignment cost terms."""

    w_iou: float = 1.0
    w_area: float = 0.5
    w_ctr: float = 0.5

    def __post_init__(self) -> None:
        for key in ("w_iou", "w_area", "w_ctr"):
            if not getattr(self, key) >= 0:  # NaN fails too
                raise InputRejected(f"spatial weights must be non-negative, got {key}={getattr(self, key)}")
        refuse_infinite(self)


def spatial_cost(u: BoundingBox2D, z: BoundingBox2D, w: SpatialWeights = SpatialWeights()) -> float:
    """Alignment cost between a candidate pair's union box and its zone.

    Sum of three penalties: overlap mismatch ``1 - IoU``, absolute log area
    ratio, and center offset normalized by the zone diagonal; a cost that
    is not finite is refused.
    """
    cu, cz = _center(u), _center(z)
    offset = math.hypot(cu[0] - cz[0], cu[1] - cz[1])
    # raised by an area or a ratio of areas that rounds to zero, and by an IoU whose union leaves the float range
    with suppress(ZeroDivisionError, ValueError, InputRejected):
        area = abs(math.log(_area(u) / _area(z)))
        cost = w.w_iou * (1.0 - iou(u, z)) + w.w_area * area + w.w_ctr * offset / _diagonal(z)
        if math.isfinite(cost):
            return cost
    raise InputRejected(f"the cost of box {u.as_tuple()} against zone {z.as_tuple()} is not finite")


def resolve_ambiguous(
    candidates: Iterable[RelationCandidate],
    node_boxes: Mapping[int, BoundingBox2D],
    w: SpatialWeights = SpatialWeights(),
) -> list[SpatialEdge]:
    """Score proposals and keep a conflict-free subset.

    Two proposals conflict when they share a zone (identical box) or share
    an endpoint node.  Proposals are admitted greedily in ascending cost
    order (ties: lowest ``(src, dst)`` pair), so within every conflicting
    group exactly the cheapest proposal survives; independent proposals
    pass through untouched.
    """
    scored = []
    for cand in candidates:
        if cand.src == cand.dst:
            raise InputRejected(f"relation candidate links node {cand.src} to itself")
        try:
            box_s = node_boxes[cand.src]
            box_d = node_boxes[cand.dst]
        except KeyError as missing:
            raise InputRejected(f"relation candidate references unknown node {missing}") from None
        cost = spatial_cost(union_box(box_s, box_d), cand.zone, w)
        scored.append((cost, cand.src, cand.dst, cand))

    scored.sort(key=lambda item: item[:3])
    used_zones: set[tuple[float, float, float, float]] = set()
    used_nodes: set[int] = set()
    edges: list[SpatialEdge] = []
    for cost, src, dst, cand in scored:
        zone_key = cand.zone.as_tuple()
        if zone_key in used_zones or src in used_nodes or dst in used_nodes:
            continue
        used_zones.add(zone_key)
        used_nodes.update((src, dst))
        edges.append(SpatialEdge(src=src, dst=dst, relation=cand.relation, cost=cost))
    return edges
