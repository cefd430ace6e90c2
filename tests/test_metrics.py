from __future__ import annotations

import json
from dataclasses import replace

import numpy as np
import pytest

from stovsg import (
    CameraModel,
    InputRejected,
    SAME_INSTANCE,
    ScenarioSpec,
    SimObject,
    SpatialEdge,
    commands_from_scenario,
    dumps,
    evaluate,
    make_scenario,
    node_truth_map,
)

from conftest import ingested


def _axis16(i: int) -> np.ndarray:
    vec = np.zeros(16)
    vec[i] = 1.0
    return vec


def two_object_spec(split_at: float | None = None) -> ScenarioSpec:
    """Mug and block 0.18 m apart; optionally the block jumps away mid-run."""
    near = np.array([0.1, 0.18, 1.5])
    waypoints = ((0.0, near),)
    if split_at is not None:
        waypoints = ((0.0, near), (split_at, near), (split_at, np.array([-0.45, 0.18, 1.5])))
    objects = (
        SimObject(
            true_id=1,
            label="red mug",
            size=(0.12, 0.12, 0.12),
            txt_archetype=_axis16(0),
            img_archetype=_axis16(1),
            waypoints=((0.0, np.array([0.1, 0.0, 1.5])),),
        ),
        SimObject(
            true_id=2,
            label="yellow block",
            size=(0.12, 0.12, 0.12),
            txt_archetype=_axis16(2),
            img_archetype=_axis16(3),
            waypoints=waypoints,
        ),
    )
    return ScenarioSpec(
        family="handmade",
        seed=0,
        duration=1.0,
        frame_rate=10.0,
        image_width=160,
        image_height=120,
        feature_dim=16,
        camera=CameraModel(fx=130.0, fy=130.0, cx=80.0, cy=60.0),
        objects=objects,
    )


def test_clean_pipeline_scores_perfectly(config):
    graph, truth = ingested(two_object_spec(), config)
    report = evaluate(graph, truth, config=config)
    assert report.nodes_total == 20 and report.nodes_correct == 20
    assert report.spatial_total == 10 and report.spatial_correct == 10
    assert report.temporal_total == 18 and report.temporal_correct == 18
    assert report.node_accuracy == 1.0
    assert report.spatial_accuracy == 1.0
    assert report.temporal_accuracy == 1.0


def test_single_identity_swap_costs_exactly_one_edge(config):
    graph, truth = ingested(two_object_spec(), config)
    edges = list(graph.temporal_edges)
    victim = next(
        i
        for i, e in enumerate(edges)
        if e.relation == SAME_INSTANCE and e.dst_node == 9  # mug's node in frame 5
    )
    edges[victim] = replace(edges[victim], dst_node=10)  # point it at the block instead
    tampered = replace(graph, temporal_edges=tuple(edges))
    report = evaluate(tampered, truth, config=config)
    total = report.temporal_total
    assert total == 18 and report.temporal_correct == 17
    assert report.temporal_accuracy == (total - 1) / total
    assert report.node_accuracy == 1.0  # nodes untouched


def _retag_node(graph, frame_pos: int, node_pos: int, **changes):
    frames = list(graph.frames)
    nodes = list(frames[frame_pos].nodes)
    nodes[node_pos] = replace(nodes[node_pos], **changes)
    frames[frame_pos] = replace(frames[frame_pos], nodes=tuple(nodes))
    return replace(graph, frames=tuple(frames))


def test_node_accuracy_checks_label_and_position(config):
    graph, truth = ingested(two_object_spec(), config)
    wrong_label = _retag_node(graph, 2, 0, label="green plate")
    report = evaluate(wrong_label, truth, config=config)
    assert (report.nodes_total, report.nodes_correct) == (20, 19)

    node = graph.frames[4].nodes[1]
    shifted = _retag_node(graph, 4, 1, centroid=node.centroid + np.array([0.06, 0.0, 0.0]))
    report = evaluate(shifted, truth, config=replace(config, centroid_tol=0.05))
    assert (report.nodes_total, report.nodes_correct) == (20, 19)
    # a looser tolerance forgives the shift
    assert evaluate(shifted, truth, config=replace(config, centroid_tol=0.2)).nodes_correct == 20


def test_spatial_accuracy_penalizes_unsupported_edges(config):
    graph, truth = ingested(two_object_spec(split_at=0.5), config)
    clean = evaluate(graph, truth, config=config)
    assert clean.spatial_total == 4 and clean.spatial_correct == 4  # frames 1-4 only

    frames = list(graph.frames)
    last = frames[-1]
    bogus = SpatialEdge(src=last.nodes[0].node_id, dst=last.nodes[1].node_id, relation="near", cost=0.0)
    frames[-1] = replace(last, spatial_edges=(bogus,))
    tampered = replace(graph, frames=tuple(frames))
    report = evaluate(tampered, truth, config=config)
    assert report.spatial_total == 5 and report.spatial_correct == 4
    assert report.spatial_accuracy == 4 / 5


def test_positional_matching_rejects_count_mismatch(config):
    graph, truth = ingested(two_object_spec(), config)
    first = truth.frames[0]
    chopped = type(truth)(
        frames=(replace(first, detections=first.detections[:1]),) + truth.frames[1:],
        commands=truth.commands,
    )
    with pytest.raises(InputRejected):
        node_truth_map(graph, chopped)
    missing_frame = type(truth)(frames=truth.frames[1:], commands=truth.commands)
    with pytest.raises(InputRejected):
        node_truth_map(graph, missing_frame)


def test_grounding_records_compare_against_intent(config):
    spec = make_scenario("occlusion_after_command", {"delay": 1.0})
    graph, truth = ingested(spec, config)
    commands = commands_from_scenario(spec)
    aware = evaluate(graph, truth, commands, config, latency_aware=True).grounding
    naive = evaluate(graph, truth, commands, config, latency_aware=False).grounding
    assert len(aware) == 1
    record = aware[0]
    assert record.intended_id == 1
    assert record.grounded_true_id == 1
    assert record.success
    assert record.status == "target-lost"  # hidden at arrival, identity still right
    assert record.arrival_time == pytest.approx(record.issue_time + 1.0)
    assert not naive[0].success
    assert naive[0].grounded_true_id != 1

    with pytest.raises(InputRejected):
        evaluate(graph, truth, commands * 2, config)


def test_evaluate_combines_graph_and_grounding(config):
    spec = make_scenario("occlusion_after_command", {"delay": 1.0})
    graph, truth = ingested(spec, config)
    commands = commands_from_scenario(spec)
    report = evaluate(graph, truth, commands, config)
    assert report.grounding_success_rate == 1.0
    assert report.node_accuracy == 1.0
    bare = evaluate(graph, truth)
    assert bare.grounding == ()
    assert bare.grounding_success_rate is None


def test_empty_report_rates_are_none():
    from stovsg import MetricsReport

    report = MetricsReport(0, 0, 0, 0, 0, 0)
    assert report.node_accuracy is None
    assert report.spatial_accuracy is None
    assert report.temporal_accuracy is None
    assert report.grounding_success_rate is None
    assert report.replay_success_rate is None
    data = report.to_dict()
    assert data["schema"] == "stovsg-metrics/1"
    assert data["node_accuracy"] is None
    json.loads(dumps(data))  # serializable as-is
