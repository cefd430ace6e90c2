from __future__ import annotations

import math

import numpy as np
import pytest

from stovsg import (
    BoundingBox2D,
    InputRejected,
    RelationCandidate,
    SpatialWeights,
    resolve_ambiguous,
    spatial_cost,
)

from oracles import spatial_cost_oracle

U = BoundingBox2D(0, 0, 2, 2)
Z = BoundingBox2D(1, 0, 3, 2)


def test_spatial_cost_frozen_example_unit_weights():
    # iou 1/3, equal areas, centers one unit apart, zone diagonal sqrt(8):
    # (1 - 1/3) + |ln 1| + 1/sqrt(8)
    got = spatial_cost(U, Z, SpatialWeights(w_iou=1.0, w_area=1.0, w_ctr=1.0))
    want = 2.0 / 3.0 + 1.0 / math.sqrt(8.0)
    assert math.isclose(got, want, rel_tol=1e-12)
    assert math.isclose(got, 1.0202200572599405, rel_tol=1e-12)


def test_spatial_cost_default_weights_frozen_example():
    got = spatial_cost(U, Z)  # defaults (1.0, 0.5, 0.5)
    want = 2.0 / 3.0 + 0.5 / math.sqrt(8.0)
    assert math.isclose(got, want, rel_tol=1e-12)


def test_spatial_cost_identical_boxes_is_zero():
    assert spatial_cost(U, U) == 0.0


def test_spatial_cost_matches_oracle_on_random_boxes():
    rng = np.random.default_rng(23)
    for _ in range(100):
        x0, y0 = rng.uniform(0, 40, 2)
        w, h = rng.uniform(1, 20, 2)
        u = BoundingBox2D(x0, y0, x0 + w, y0 + h)
        zx, zy = rng.uniform(0, 40, 2)
        zw, zh = rng.uniform(1, 20, 2)
        z = BoundingBox2D(zx, zy, zx + zw, zy + zh)
        weights = SpatialWeights(*rng.uniform(0.1, 2.0, 3))
        got = spatial_cost(u, z, weights)
        want = spatial_cost_oracle(u, z, weights.w_iou, weights.w_area, weights.w_ctr)
        assert math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-15)


def test_spatial_cost_rejects_invalid_boxes():
    with pytest.raises(InputRejected):
        spatial_cost(BoundingBox2D(2, 0, 0, 2), Z)


BOXES = {
    1: BoundingBox2D(0, 0, 2, 2),
    2: BoundingBox2D(3, 0, 5, 2),
    3: BoundingBox2D(0, 3, 2, 5),
    4: BoundingBox2D(3, 3, 5, 5),
}


def test_each_box_is_checked_once_per_candidate(monkeypatch):
    other = BoundingBox2D(2, 0, 3, 1)
    checked = []
    check = BoundingBox2D.__post_init__
    monkeypatch.setattr(BoundingBox2D, "__post_init__", lambda box: checked.append(box.as_tuple()) or check(box))
    spatial_cost(U, Z)
    assert checked == []  # a box is checked once, when it is built, and scoring builds none
    cand = RelationCandidate(src=1, dst=2, relation="next to", zone=Z)
    resolve_ambiguous([cand], {1: U, 2: other})
    assert checked == [(0, 0, 3, 2)]  # the union of the two node boxes, and nothing else
    with pytest.raises(InputRejected, match=r"^invalid box \(3, 0, 3, 1\)$"):
        RelationCandidate(src=1, dst=2, relation="next to", zone=BoundingBox2D(3, 0, 3, 1))


def test_shared_zone_keeps_only_cheapest():
    zone = BoundingBox2D(0, 0, 5, 2)  # matches the 1-2 union exactly
    cands = [
        RelationCandidate(src=1, dst=2, relation="near", zone=zone),
        RelationCandidate(src=3, dst=4, relation="near", zone=zone),
    ]
    cost_a = spatial_cost(BoundingBox2D(0, 0, 5, 2), zone)
    cost_b = spatial_cost(BoundingBox2D(0, 0, 5, 5), zone)
    assert cost_a < cost_b  # the 1-2 proposal is the better fit
    edges = resolve_ambiguous(cands, BOXES)
    assert [(e.src, e.dst) for e in edges] == [(1, 2)]
    assert math.isclose(edges[0].cost, cost_a, rel_tol=1e-12)


def test_shared_endpoint_keeps_only_cheapest():
    cands = [
        RelationCandidate(src=1, dst=2, relation="near", zone=BoundingBox2D(0, 0, 5, 2)),
        RelationCandidate(src=2, dst=4, relation="near", zone=BoundingBox2D(0, 0, 5, 5)),
    ]
    edges = resolve_ambiguous(cands, BOXES)
    assert [(e.src, e.dst) for e in edges] == [(1, 2)]


def test_independent_candidates_all_survive():
    cands = [
        RelationCandidate(src=1, dst=2, relation="near", zone=BoundingBox2D(0, 0, 5, 2)),
        RelationCandidate(src=3, dst=4, relation="near", zone=BoundingBox2D(0, 3, 5, 5)),
    ]
    edges = resolve_ambiguous(cands, BOXES)
    assert {(e.src, e.dst) for e in edges} == {(1, 2), (3, 4)}
    assert [e.cost for e in edges] == sorted(e.cost for e in edges)


def test_exact_cost_tie_breaks_by_node_pair():
    # two proposals perfectly matching their own zones both cost zero
    cands = [
        RelationCandidate(src=3, dst=4, relation="near", zone=BoundingBox2D(0, 3, 5, 5)),
        RelationCandidate(src=1, dst=2, relation="near", zone=BoundingBox2D(0, 0, 5, 2)),
    ]
    assert spatial_cost(BoundingBox2D(0, 3, 5, 5), cands[0].zone) == 0.0
    assert spatial_cost(BoundingBox2D(0, 0, 5, 2), cands[1].zone) == 0.0
    edges = resolve_ambiguous(cands, BOXES)
    assert [(e.src, e.dst) for e in edges] == [(1, 2), (3, 4)]


def test_resolve_rejects_self_links_and_unknown_nodes():
    zone = BoundingBox2D(0, 0, 2, 2)
    with pytest.raises(InputRejected):
        resolve_ambiguous([RelationCandidate(src=1, dst=1, relation="near", zone=zone)], BOXES)
    with pytest.raises(InputRejected):
        resolve_ambiguous([RelationCandidate(src=1, dst=99, relation="near", zone=zone)], BOXES)


def test_resolve_empty_input():
    assert resolve_ambiguous([], BOXES) == []


@pytest.mark.parametrize(
    "zone",
    [(0, 0, 1e-300, 1e-300), (0, 0, 1e200, 1e200), (-1e308, 0, 1e308, 2)],
    ids=["area-underflows", "area-overflows", "width-overflows"],
)
def test_a_cost_that_leaves_the_float_range_is_refused(zone):
    # a zone of valid edges whose area rounds to zero or overflows: a spatial edge could hold no finite cost
    with pytest.raises(InputRejected, match=r"^the cost of box \(0, 0, 2, 2\) against zone \(.*\) is not finite$"):
        spatial_cost(U, BoundingBox2D(*zone))


@pytest.mark.parametrize("edge", ["1e-200", "1e+154"], ids=["areas-underflow", "union-overflows"])
def test_a_box_whose_iou_is_refused_gets_the_spatial_cost_refusal_in_its_own_words(edge):
    # iou(box, box) is refused for both: 0 / 0, and a union of two finite areas that overflows (it read 0.0,
    # so this cost read 1.0 for a box against itself)
    box = BoundingBox2D(0, 0, float(edge), float(edge))
    pattern = rf"\(0, 0, {edge}, {edge}\)".replace("+", r"\+")
    with pytest.raises(InputRejected, match=rf"^the cost of box {pattern} against zone {pattern} is not finite$"):
        spatial_cost(box, box)
