from __future__ import annotations

import math
from dataclasses import replace
from types import MappingProxyType

import numpy as np
import pytest

from stovsg import (
    BoundingBox2D,
    Command,
    FrameGraph,
    InputRejected,
    LatencyTag,
    NoAlignedFrame,
    NotFound,
    QueryConfig,
    RelationCandidate,
    STATUS_LIVE,
    STATUS_LOST,
    commands_from_scenario,
    empty_graph,
    extract_subgraph,
    generate_stream,
    ground_command,
    ingest_sequence,
    make_scenario,
    score_nodes,
)

from conftest import axis, in_plane, make_detection, make_frame_input, make_node
from oracles import node_score_oracle

MUG_TXT = axis(0)
APPLE_TXT = axis(4)


def mug_command(issue_time: float, latency: float = 0.0) -> Command:
    return Command(text="red mug", embedding=MUG_TXT, issue_time=issue_time, latency=latency)


def mug_scene(config, frames=3):
    """Mug moving right each frame, apple parked; captures at 1, 2, 3 s."""
    inputs = []
    for k in range(frames):
        detections = [
            make_detection(x0=10 + 10 * k, f_img=axis(1), f_txt=MUG_TXT),
            make_detection(x0=100, label="apple", f_img=axis(3), f_txt=APPLE_TXT),
        ]
        inputs.append(make_frame_input(1.0 + k, detections=tuple(detections)))
    return ingest_sequence(empty_graph(), inputs, config)


def test_score_ranks_by_text_and_image_affinity(config):
    graph = ingest_sequence(
        empty_graph(),
        [
            make_frame_input(
                1.0,
                detections=(
                    make_detection(x0=10, f_txt=axis(0), f_img=axis(1)),
                    make_detection(x0=30, label="apple", f_txt=in_plane(60.0), f_img=axis(0)),
                    make_detection(x0=50, label="phone", f_txt=axis(2), f_img=axis(2)),
                ),
            )
        ],
        config,
    )
    frame = graph.frames[0]
    command = mug_command(1.6)
    # beta 0.5: node 1 scores 1.0, node 2 scores cos60 + 0.5 = 1.0 -> tie, id order
    assert [nid for nid, _ in score_nodes(frame, command)] == [1, 2, 3]
    # beta 0: text only, node 1 wins outright
    assert score_nodes(frame, command, QueryConfig(beta=0.0))[0][0] == 1
    # beta 1: image term lifts node 2 past node 1
    assert score_nodes(frame, command, QueryConfig(beta=1.0))[0][0] == 2
    with pytest.raises(InputRejected):
        score_nodes(frame, command, QueryConfig(beta=-0.1))


def test_score_matches_oracle_on_random_features(config):
    rng = np.random.default_rng(77)
    nodes = tuple(
        make_node(j, f_img=rng.normal(size=8), f_txt=rng.normal(size=8)) for j in range(1, 6)
    )
    frame = FrameGraph(
        frame_index=1,
        latency_tag=LatencyTag(capture_time=1.0, transmission_latency=0.5),
        nodes=nodes,
        spatial_edges=(),
    )
    emb = rng.normal(size=8)
    command = Command(text="x", embedding=emb, issue_time=2.0)
    got = dict(score_nodes(frame, command))
    for node in nodes:
        want = node_score_oracle(emb, node.f_txt, node.f_img, 0.5)
        assert math.isclose(got[node.node_id], want, rel_tol=1e-12)


def test_grounding_follows_the_track_to_the_present(config):
    graph = mug_scene(config)
    result = ground_command(graph, mug_command(1.6))
    assert result.aligned_frame_index == 1  # obs times are 1.5/2.5/3.5
    assert result.aligned_node.node_id == 1
    assert result.track_id == 1
    assert result.status == STATUS_LIVE
    assert result.current_node.frame_index == 3
    np.testing.assert_allclose(result.centroid, result.current_node.centroid)
    # the mug drifted right: execution pose differs from the aligned pose
    assert result.centroid[0] > result.aligned_node.centroid[0]


def test_a_winner_on_no_track_is_not_found(config):
    graph = mug_scene(config)
    mug = graph.tracks[1]
    assert tuple(mug.history) == (1, 3, 5)
    orphaned = replace(graph, tracks=MappingProxyType({**graph.tracks, 1: replace(mug, history=(3, 5))}))
    with pytest.raises(NotFound, match="^'node 1 is on no track'$"):
        ground_command(orphaned, mug_command(1.6))
    with pytest.raises(NotFound, match="^'node 1 is on no track'$"):
        extract_subgraph(orphaned, mug_command(1.6))


def test_aware_mode_survives_a_late_arriving_lookalike(config):
    # the operator saw frame 1; by frame 2 a better-scoring lookalike exists
    lookalike = make_detection(x0=60, f_img=axis(1), f_txt=MUG_TXT)
    true_mug_txt = in_plane(10.0)
    inputs = [
        make_frame_input(1.0, detections=(make_detection(x0=10, f_txt=true_mug_txt),)),
        make_frame_input(
            2.0, detections=(make_detection(x0=12, f_txt=true_mug_txt), lookalike)
        ),
    ]
    graph = ingest_sequence(empty_graph(), inputs, config)
    command = mug_command(1.6)
    aware = ground_command(graph, command)
    naive = ground_command(graph, command, latency_aware=False)
    assert aware.track_id == 1
    assert aware.current_node.frame_index == 2
    assert naive.aligned_frame_index == 2
    assert naive.track_id == 2  # the lookalike outranks the true target
    assert naive.track_id != aware.track_id


def test_lost_target_reports_last_known_pose(config):
    graph = ingest_sequence(
        empty_graph(),
        [
            make_frame_input(1.0, detections=(make_detection(x0=10, f_txt=MUG_TXT),)),
            make_frame_input(2.0, detections=(make_detection(x0=12, f_txt=MUG_TXT),)),
            make_frame_input(3.0),  # mug vanished
        ],
        config,
    )
    result = ground_command(graph, mug_command(1.6))
    assert result.status == STATUS_LOST
    assert result.current_node.frame_index == 2
    np.testing.assert_allclose(result.centroid, result.current_node.centroid)


def test_as_of_cutoff_hides_frames_not_yet_captured(config):
    graph = mug_scene(config)
    result = ground_command(graph, mug_command(1.6), as_of=2.4)
    assert result.current_node.frame_index == 2  # frame 3 (capture 3.0) is the future
    assert result.status == STATUS_LIVE
    late = ground_command(graph, mug_command(100.0), as_of=2.4)
    assert late.aligned_frame_index == 2


def test_naive_mode_anchors_on_the_newest_frame(config):
    graph = mug_scene(config)
    result = ground_command(graph, mug_command(1.6), latency_aware=False)
    assert result.aligned_frame_index == 3
    sub = extract_subgraph(graph, mug_command(1.6), latency_aware=False)
    assert sub.aligned_frame_index == 3


def test_alignment_failure_and_fallback(config):
    graph = mug_scene(config)
    early = mug_command(1.0)  # before any frame reached the operator
    with pytest.raises(NoAlignedFrame):
        ground_command(graph, early)
    with pytest.raises(NoAlignedFrame):
        extract_subgraph(graph, early)
    with pytest.raises(NoAlignedFrame, match="^graph has no frames$"):
        ground_command(empty_graph(), early)
    empty_frames = ingest_sequence(
        empty_graph(), [make_frame_input(1.0), make_frame_input(2.0)], config
    )
    with pytest.raises(NotFound):
        ground_command(empty_frames, mug_command(1.6))


@pytest.mark.parametrize("as_of", [0.01, 0.99, math.nan])
def test_a_cutoff_before_the_first_capture_is_named(config, as_of):
    graph = mug_scene(config)  # first capture at 1.0
    message = f"^graph has no frames captured by the cutoff as_of={as_of}$"
    with pytest.raises(NoAlignedFrame, match=message):
        ground_command(graph, mug_command(1.6), as_of=as_of)
    with pytest.raises(NoAlignedFrame, match=message):
        extract_subgraph(graph, mug_command(1.6), as_of=as_of, latency_aware=False)


def test_grounded_pose_is_the_newest_history_entry_of_the_aligned_node(config):
    spec = make_scenario("target_moved", {"seed": 3, "delay": 1.0})
    inputs, _ = generate_stream(spec)
    graph = ingest_sequence(empty_graph(), inputs, config)
    (command,) = commands_from_scenario(spec)
    currents = []
    for as_of in (command.issue_time + 0.5, command.arrival_time):
        result = ground_command(graph, command, as_of=as_of)
        sub = extract_subgraph(graph, command, as_of=as_of)
        when, centroid = sub.history[result.aligned_node.node_id][-1]
        assert when == result.current_node.obs_time
        assert np.array_equal(centroid, result.current_node.centroid)
        currents.append(result.current_node.node_id)
    assert currents[0] != currents[1]  # the later cutoff follows the track further


def paired_scene(config):
    """Four objects, relations mug-apple and phone-block; one frame."""
    detections = (
        make_detection(x0=10, f_txt=MUG_TXT, f_img=axis(1)),
        make_detection(x0=20, label="apple", f_txt=axis(5), f_img=axis(3)),
        make_detection(x0=60, label="phone", f_txt=in_plane(60.0), f_img=axis(6)),
        make_detection(x0=70, label="yellow block", f_txt=axis(7), f_img=axis(2)),
    )
    candidates = (
        RelationCandidate(src=0, dst=1, relation="next to", zone=BoundingBox2D(10, 10, 24, 14)),
        RelationCandidate(src=2, dst=3, relation="next to", zone=BoundingBox2D(60, 10, 74, 14)),
    )
    return ingest_sequence(
        empty_graph(), [make_frame_input(1.0, detections=detections, candidates=candidates)], config
    )


def test_subgraph_expands_neighbors_and_stays_closed(config):
    graph = paired_scene(config)
    command = mug_command(1.6)

    sub = extract_subgraph(graph, command, QueryConfig(top_k=1, neighbor_hops=1))
    assert sub.seed_ids == (1,)
    assert [node.node_id for node, _ in sub.nodes] == [1, 2]  # partner pulled in
    assert [(e.src, e.dst) for e in sub.edges] == [(1, 2)]

    both = extract_subgraph(graph, command, QueryConfig(top_k=2, neighbor_hops=1))
    # seeds are the mug (1.0) and the phone (cos 60 = 0.5); hop adds partners
    assert both.seed_ids == (1, 3)
    assert [node.node_id for node, _ in both.nodes] == [1, 3, 2, 4]
    assert [(e.src, e.dst) for e in both.edges] == [(1, 2), (3, 4)]

    bare = extract_subgraph(graph, command, QueryConfig(top_k=2, neighbor_hops=0))
    assert [node.node_id for node, _ in bare.nodes] == [1, 3]
    assert bare.edges == ()  # closure: no dangling endpoints

    for sg in (sub, both, bare):
        ids = {node.node_id for node, _ in sg.nodes}
        assert all(e.src in ids and e.dst in ids for e in sg.edges)


def test_subgraph_history_and_dynamics(config):
    graph = ingest_sequence(
        empty_graph(),
        [
            make_frame_input(1.0, detections=(make_detection(x0=10, f_txt=MUG_TXT),)),
            make_frame_input(2.0, detections=(make_detection(x0=12, f_txt=MUG_TXT),)),
            make_frame_input(3.0, detections=(make_detection(x0=14, f_txt=MUG_TXT),)),
            make_frame_input(4.0),  # disappearance event
        ],
        config,
    )
    command = mug_command(1.6)
    sub = extract_subgraph(graph, command)
    assert sub.aligned_frame_index == 1
    (entries,) = sub.history.values()
    assert [t for t, _ in entries] == [1.5, 2.5, 3.5]  # full motion history, oldest first
    xs = [c[0] for _, c in entries]
    assert xs == sorted(xs)
    assert sub.dynamics == ((1.0, 1, "appeared"), (4.0, 1, "disappeared"))


def test_subgraph_respects_as_of(config):
    graph = mug_scene(config)
    sub = extract_subgraph(graph, mug_command(1.6), as_of=2.4)
    (mug_entries, _) = (sub.history[nid] for nid in sorted(sub.history))
    assert [t for t, _ in mug_entries] == [1.5, 2.5]  # frame 3 hidden by the cutoff
