from __future__ import annotations

import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stovsg import (
    APPEARED,
    DISAPPEARED,
    SAME_INSTANCE,
    BoundingBox2D,
    Command,
    Detection,
    DepthImage,
    EngineConfig,
    InputRejected,
    NoAlignedFrame,
    NotFound,
    QueryConfig,
    RelationCandidate,
    TrackStatus,
    dumps,
    empty_graph,
    frame_at_operator_time,
    generate_stream,
    graph_from_dict,
    graph_to_dict,
    ingest_frame,
    ingest_sequence,
    lifecycle_events,
    make_scenario,
    validate_graph,
)
from stovsg.model import AssociationOutcome, FrameGraph, LatencyTag
from stovsg.query import _align
from stovsg.store import apply_outcome

from conftest import axis, in_plane, make_detection, make_frame_input, make_node
from oracles import frame_at_operator_time_oracle, frames_as_of_oracle, histories_oracle, lifecycle_events_oracle


def edges_of(graph, relation):
    return [e for e in graph.temporal_edges if e.relation == relation]


def test_persistent_object_builds_one_track(config):
    graph = ingest_sequence(
        empty_graph(),
        [
            make_frame_input(1.0, detections=(make_detection(x0=10),)),
            make_frame_input(2.0, detections=(make_detection(x0=12),)),
        ],
        config,
    )
    assert len(graph.frames) == 2
    assert list(graph.tracks) == [1]
    track = graph.tracks[1]
    assert track.status is TrackStatus.ACTIVE
    assert histories_oracle(graph.temporal_edges) == {1: (1, 2)}
    appeared = edges_of(graph, APPEARED)
    linked = edges_of(graph, SAME_INSTANCE)
    assert len(appeared) == 1 and appeared[0].dst_node == 1
    assert len(linked) == 1
    assert (linked[0].src_node, linked[0].dst_node) == (1, 2)
    assert validate_graph(graph) == []


def test_distinct_objects_get_distinct_tracks(config):
    far = make_detection(x0=110, label="apple", f_img=axis(3))
    graph = ingest_frame(
        empty_graph(), make_frame_input(1.0, detections=(make_detection(), far)), config
    )
    assert sorted(graph.tracks) == [1, 2]
    assert {t.label for t in graph.tracks.values()} == {"red mug", "apple"}


def test_node_geometry_comes_from_depth_backprojection(config):
    graph = ingest_frame(
        empty_graph(), make_frame_input(1.0, detections=(make_detection(x0=10),)), config
    )
    node = graph.frames[0].nodes[0]
    # 4x4 mask starting at u=10 under flat 2 m depth, fx=fy=100, cx=64, cy=48
    assert node.centroid[2] == pytest.approx(2.0)
    assert node.centroid[0] == pytest.approx((11.5 - 64.0) * 2.0 / 100.0)
    assert node.centroid[1] == pytest.approx((11.5 - 48.0) * 2.0 / 100.0)
    assert graph.frame_of(node.node_id).obs_time == 1.5
    assert len(node.points) == 16


def test_track_attributes_refresh_on_match(config):
    first = in_plane(0.0)
    second = in_plane(30.0)
    # cost 0.4*0.2 + 0.4*(1 - cos 30) + 0.2 ~= 0.33, inside the 0.5 gate
    graph = ingest_sequence(
        empty_graph(),
        [
            make_frame_input(1.0, detections=(make_detection(x0=10, f_img=first),)),
            make_frame_input(
                2.0, detections=(make_detection(x0=20, label="coffee mug", f_img=second),)
            ),
        ],
        config,
    )
    track = graph.tracks[1]
    assert track.label == "coffee mug"  # corrected to the newest observation
    blended = 0.7 * first + 0.3 * second
    np.testing.assert_allclose(track.descriptor, blended / np.linalg.norm(blended), rtol=1e-12)
    assert track.last_seen_time == 2.5


def test_relation_candidates_are_rewritten_to_node_ids(config):
    a = make_detection(x0=10)
    b = make_detection(x0=20, label="apple", f_img=axis(3))
    zone = BoundingBox2D(10.0, 10.0, 24.0, 14.0)
    frame_input = make_frame_input(
        1.0,
        detections=(a, b),
        candidates=(RelationCandidate(src=0, dst=1, relation="next to", zone=zone),),
    )
    graph = ingest_frame(empty_graph(), frame_input, config)
    (edge,) = graph.frames[0].spatial_edges
    assert (edge.src, edge.dst, edge.relation) == (1, 2, "next to")


def test_candidate_referencing_missing_detection_rejects_frame(config):
    frame_input = make_frame_input(
        1.0,
        detections=(make_detection(),),
        candidates=(
            RelationCandidate(src=0, dst=1, relation="next to", zone=BoundingBox2D(0, 0, 4, 4)),
        ),
    )
    with pytest.raises(InputRejected):
        ingest_frame(empty_graph(), frame_input, config)


@pytest.mark.parametrize("name", ["f_txt", "f_img"])
def test_zero_norm_feature_rejects_the_frame(config, name):
    graph = ingest_frame(empty_graph(), make_frame_input(1.0, detections=(make_detection(),)), config)
    # a norm that underflows to zero is as uncomparable as an all-zero vector
    for zero in (np.zeros(8), np.full(8, 1e-200)):
        bad = make_detection(x0=30, label="apple", **{name: zero})
        frame_input = make_frame_input(2.0, detections=(make_detection(), bad))
        with pytest.raises(InputRejected, match=rf"^detection 1: zero-norm {name}$"):
            ingest_frame(graph, frame_input, config)


def test_a_zeroed_detection_in_a_simulated_stream_is_refused_at_ingest(config):
    """Once ingested, every command aligned to its frame would fail to score."""
    inputs, _ = generate_stream(make_scenario("target_moved", {"seed": 0}))
    first = inputs[0]
    det = first.detections[0]
    zeroed = replace(first, detections=(replace(det, f_txt=np.zeros_like(det.f_txt)), *first.detections[1:]))
    with pytest.raises(InputRejected, match=r"^detection 0: zero-norm f_txt$"):
        ingest_sequence(empty_graph(), [zeroed, *inputs[1:]], config)


def _without_depth_under(frame, det_index):
    values = frame.depth.values.copy()
    u, v = frame.detections[det_index].mask.pixels.T
    values[v, u] = 0.0
    return replace(frame, depth=DepthImage(values))


def test_a_candidate_naming_a_detection_without_depth_is_dropped_with_it(config):
    inputs, _ = generate_stream(make_scenario("moved_reference", {"seed": 0, "delay": 1.0}))
    frame = _without_depth_under(inputs[0], 0)
    assert [(c.src, c.dst) for c in frame.relation_candidates] == [(0, 1)]
    graph = ingest_frame(empty_graph(), frame, config)
    assert len(graph.frames[0].nodes) == 2 and graph.frames[0].spatial_edges == ()
    assert validate_graph(graph) == []
    without = ingest_frame(empty_graph(), replace(frame, relation_candidates=()), config)
    assert dumps(graph_to_dict(graph)) == dumps(graph_to_dict(without))


@pytest.mark.parametrize("src, dst", [(0, 3), (-1, 1), (3, 0)])
def test_a_candidate_naming_no_detection_still_refuses_the_frame(config, src, dst):
    inputs, _ = generate_stream(make_scenario("moved_reference", {"seed": 0, "delay": 1.0}))
    frame = _without_depth_under(inputs[0], 0)  # even when the other endpoint was dropped
    cand = replace(frame.relation_candidates[0], src=src, dst=dst)
    with pytest.raises(InputRejected, match=rf"^relation candidate \({src}, {dst}\) references a missing detection$"):
        ingest_frame(empty_graph(), replace(frame, relation_candidates=(cand,)), config)


def test_detection_without_depth_evidence_is_dropped(config):
    values = np.full((96, 128), 2.0, dtype=np.float32)
    values[:, 100:] = 0.0  # right strip has no depth readings
    depth = DepthImage(values)
    visible = make_detection(x0=10)
    unliftable = make_detection(x0=110, label="apple", f_img=axis(3))
    graph = ingest_frame(
        empty_graph(), make_frame_input(1.0, detections=(visible, unliftable), depth=depth), config
    )
    assert len(graph.frames[0].nodes) == 1
    assert graph.frames[0].nodes[0].label == "red mug"
    assert list(graph.tracks) == [1]


def test_rejected_frame_leaves_graph_untouched(config):
    graph = ingest_frame(empty_graph(), make_frame_input(1.0, detections=(make_detection(),)), config)
    bad_inputs = [
        make_frame_input(0.5, detections=(make_detection(),)),  # capture time going backwards
        make_frame_input(1.0, detections=(make_detection(),)),  # exactly equal is also stale
        make_frame_input(2.0, latency=-0.1, detections=(make_detection(),)),
        make_frame_input(
            2.0, detections=(replace(make_detection(), box=BoundingBox2D(5, 5, 5, 9)),)
        ),
        make_frame_input(
            2.0, detections=(replace(make_detection(), box=BoundingBox2D(120, 90, 130, 98)),)
        ),
        make_frame_input(2.0, detections=(replace(make_detection(), label="   "),)),
        make_frame_input(2.0, detections=(make_detection(f_img=np.full(8, np.nan)),)),
        make_frame_input(2.0, detections=(make_detection(f_img=np.ones(5)),)),  # dim mismatch
    ]
    for frame_input in bad_inputs:
        with pytest.raises(InputRejected):
            ingest_frame(graph, frame_input, config)
    assert len(graph.frames) == 1 and len(graph.tracks) == 1
    assert validate_graph(graph) == []


def test_disappearance_edge_emitted_once(config):
    graph = ingest_sequence(
        empty_graph(),
        [
            make_frame_input(1.0, detections=(make_detection(),)),
            make_frame_input(2.0),  # object gone
            make_frame_input(3.0),  # still gone: no second edge
        ],
        config,
    )
    gone = edges_of(graph, DISAPPEARED)
    assert len(gone) == 1
    assert gone[0].event_frame == 2
    assert gone[0].src_node == 1 and graph.frame_of(1).frame_index == 1
    assert graph.tracks[1].status is TrackStatus.DISAPPEARED


def test_reappearance_within_grace_bridges_the_gap(config):
    graph = ingest_sequence(
        empty_graph(),
        [
            make_frame_input(1.0, detections=(make_detection(x0=10),)),
            make_frame_input(2.0, detections=(make_detection(x0=12),)),
            make_frame_input(3.0),
            make_frame_input(4.0, detections=(make_detection(x0=14),)),
        ],
        config,
    )
    assert list(graph.tracks) == [1]
    track = graph.tracks[1]
    assert track.status is TrackStatus.ACTIVE
    assert histories_oracle(graph.temporal_edges) == {1: (1, 2, 3)}
    spans = [(graph.frame_of(e.src_node).frame_index, e.dst_frame) for e in edges_of(graph, SAME_INSTANCE)]
    assert spans == [(1, 2), (2, 4)]  # second link jumps the occluded frame
    assert [graph.frame_of(nid).frame_index for nid in (1, 2, 3)] == [1, 2, 4]
    assert validate_graph(graph) == []


def test_reappearance_after_grace_opens_a_new_track(config):
    tight = replace(config, temporal=replace(config.temporal, grace_period=0.5))
    graph = ingest_sequence(
        empty_graph(),
        [
            make_frame_input(1.0, detections=(make_detection(x0=10),)),
            make_frame_input(2.0),
            make_frame_input(3.0),
            make_frame_input(4.0, detections=(make_detection(x0=10),)),
        ],
        tight,
    )
    assert sorted(graph.tracks) == [1, 2]
    assert graph.tracks[1].status is TrackStatus.RETIRED
    assert graph.tracks[2].status is TrackStatus.ACTIVE
    assert edges_of(graph, SAME_INSTANCE) == []
    assert len(edges_of(graph, APPEARED)) == 2
    assert validate_graph(graph) == []


def test_frame_at_operator_time_uses_tagged_arrival(config):
    graph = ingest_sequence(
        empty_graph(),
        [make_frame_input(t, latency=0.5, detections=(make_detection(),)) for t in (1.0, 2.0, 3.0)],
        config,
    )
    assert frame_at_operator_time(graph, 2.5).frame_index == 2  # boundary inclusive
    assert frame_at_operator_time(graph, 2.49).frame_index == 1
    assert frame_at_operator_time(graph, 100.0).frame_index == 3
    with pytest.raises(NoAlignedFrame):
        frame_at_operator_time(graph, 1.49)
    with pytest.raises(NoAlignedFrame):
        frame_at_operator_time(empty_graph(), 1.0)


def test_alignment_sees_only_the_frames_captured_by_the_cutoff(config):
    graph = ingest_sequence(
        empty_graph(),
        [make_frame_input(t, latency=0.5, detections=(make_detection(),)) for t in (1.0, 2.0, 3.0)],
        config,
    )
    assert frame_at_operator_time(graph, 100.0, as_of=2.0).frame_index == 2
    assert frame_at_operator_time(graph, 100.0, as_of=2.99).frame_index == 2
    assert frame_at_operator_time(graph, 2.5, as_of=100.0).frame_index == 2
    assert frame_at_operator_time(graph, 2.49, as_of=2.0).frame_index == 1
    for query_time, as_of in ((100.0, 0.5), (1.49, 3.0), (math.nan, None), (math.nan, 3.0), (100.0, math.nan)):
        with pytest.raises(NoAlignedFrame):
            frame_at_operator_time(graph, query_time, as_of)


def test_lifecycle_events_window(config):
    graph = ingest_sequence(
        empty_graph(),
        [
            make_frame_input(1.0, detections=(make_detection(),)),
            make_frame_input(2.0, detections=(make_detection(),)),
            make_frame_input(3.0),
        ],
        config,
    )
    assert lifecycle_events(graph, 0.0, 10.0) == ((1.0, 1, APPEARED), (3.0, 1, DISAPPEARED))
    assert lifecycle_events(graph, 2.5, 10.0) == ((3.0, 1, DISAPPEARED),)
    assert lifecycle_events(graph, 4.0, 10.0) == ()
    assert lifecycle_events(graph, math.nan, 10.0) == lifecycle_events(graph, 0.0, math.nan) == ()


def test_empty_frames_are_allowed(config):
    graph = ingest_sequence(empty_graph(), [make_frame_input(1.0), make_frame_input(2.0)], config)
    assert len(graph.frames) == 2
    assert graph.tracks == {}
    assert validate_graph(graph) == []


@pytest.mark.parametrize(
    "capture, latency", [(1.0, 0.5), (0.5, 0.5), (2.0, -0.25)], ids=["repeat", "earlier", "latency"]
)
def test_ingest_refuses_a_frame_out_of_time_order_in_the_words_of_validate_graph(config, capture, latency):
    graph = ingest_frame(empty_graph(), make_frame_input(1.0, detections=(make_detection(),)), config)
    frame_input = make_frame_input(capture, latency=latency, detections=(make_detection(),))
    with pytest.raises(InputRejected) as refused:
        ingest_frame(graph, frame_input, config)
    appended = FrameGraph(2, frame_input.latency_tag, (), ())
    assert str(refused.value) in validate_graph(replace(graph, frames=(*graph.frames, appended)))


def test_an_outcome_on_a_frame_out_of_time_order_is_refused(config):
    graph = ingest_frame(empty_graph(), make_frame_input(2.0, detections=(make_detection(),)), config)
    node = make_node(2)
    for frame_index, tag, path in [
        (7, LatencyTag(3.0, 0.5), "frames[1].frame_index"),
        (2, LatencyTag(1.0, 0.5), "frames[1].latency_tag.capture_time"),
        (2, LatencyTag(3.0, -0.5), "frames[1].latency_tag.transmission_latency"),
    ]:
        frame = FrameGraph(frame_index, tag, (node,), ())
        with pytest.raises(InputRejected, match=rf"^{re.escape(path)}: "):
            apply_outcome(graph, AssociationOutcome((), (2,), ()), frame, config, 3)
        assert len(graph.log.frames) == 1


def test_nan_transmission_latency_is_rejected(config):
    message = (
        "frames[0].latency_tag.transmission_latency: nan is negative or NaN (a frame cannot arrive before its capture)"
    )
    frame = make_frame_input(1.0, latency=float("nan"), detections=(make_detection(),))
    with pytest.raises(InputRejected) as refused:
        ingest_frame(empty_graph(), frame, config)
    assert str(refused.value) == message
    graph = ingest_frame(empty_graph(), make_frame_input(1.0, detections=(make_detection(),)), config)
    fg = graph.frames[0]
    bad = replace(fg, latency_tag=replace(fg.latency_tag, transmission_latency=float("nan")))
    problems = validate_graph(replace(graph, frames=(bad,)))
    assert message in problems


# --- snapshots on a shared log -------------------------------------------------


def _mug(x0=10):
    return make_detection(x0=x0)


def _apple(x0=60):
    return make_detection(x0=x0, label="apple", f_img=axis(3), f_txt=axis(4))


def _scene_inputs(count: int, latencies=None):
    """A mug seen in every frame and an apple that comes and goes, one frame a second."""
    latencies = latencies or [0.5] * count
    return [
        make_frame_input(
            float(k + 1),
            latency=latencies[k],
            detections=(_mug(10 + k % 3),) + ((_apple(),) if k % 4 < 2 else ()),
        )
        for k in range(count)
    ]


def _text(graph) -> str:
    return dumps(graph_to_dict(graph))


def test_older_snapshot_keeps_its_frames_and_bytes(config):
    inputs = _scene_inputs(11)
    g10 = ingest_sequence(empty_graph(), inputs[:10], config)
    before = _text(g10)
    g11 = ingest_frame(g10, inputs[10], config)
    assert g11.log is g10.log  # the newest snapshot was extended in place
    assert len(g10.frames) == 10 and len(g11.frames) == 11
    assert _text(g10) == before
    assert validate_graph(g10) == [] and validate_graph(g11) == []
    newest = g11.frames[-1].nodes[0]
    assert g11.node(newest.node_id) is newest
    with pytest.raises(NotFound):
        g10.node(newest.node_id)
    with pytest.raises(NotFound):
        g10.track_of(newest.node_id)
    assert newest.node_id not in g10.node_index and len(g10.node_index) == len(g11.node_index) - 1


def test_branching_from_an_older_snapshot_matches_independent_builds(config):
    inputs = _scene_inputs(12)
    other = make_frame_input(11.0, detections=(_apple(),))
    g10 = ingest_sequence(empty_graph(), inputs[:10], config)
    g11 = ingest_frame(g10, inputs[10], config)
    b11 = ingest_frame(g10, other, config)  # g10 is no longer the newest on its log: copies first
    assert b11.log is not g10.log
    g12 = ingest_frame(g11, inputs[11], config)
    b12 = ingest_frame(b11, inputs[11], config)
    assert _text(g12) == _text(ingest_sequence(empty_graph(), inputs[:12], config))
    assert _text(b12) == _text(ingest_sequence(empty_graph(), inputs[:10] + [other, inputs[11]], config))
    assert _text(g11) == _text(ingest_sequence(empty_graph(), inputs[:11], config))
    assert _text(g10) == _text(ingest_sequence(empty_graph(), inputs[:10], config))
    assert validate_graph(g12) == [] and validate_graph(b12) == []


@pytest.mark.parametrize(
    "made, shares",
    [
        (lambda g: replace(g, frames_dropped=0), True),
        (lambda g: replace(g, frames=tuple(g.frames)), False),
        (lambda g: replace(g, temporal_edges=list(g.temporal_edges)), False),
        (lambda g: graph_from_dict(graph_to_dict(g)), False),
    ],
    ids=["replace-scalar", "replace-frames", "replace-edges", "read-back"],
)
def test_every_snapshot_is_built_on_a_log(config, made, shares):
    inputs = _scene_inputs(9)
    expected = _text(ingest_sequence(empty_graph(), inputs, config))
    g8 = ingest_sequence(empty_graph(), inputs[:8], config)
    start = made(g8)
    assert (start.log is g8.log) is shares  # only a graph whose views cover all of one log takes that log
    assert start.frames.log is start.log and start.temporal_edges.log is start.log
    after = ingest_frame(start, inputs[8], config)
    assert after.log is start.log  # the start is the newest on its log, which is extended in place
    assert _text(after) == expected
    assert _text(g8) == _text(ingest_sequence(empty_graph(), inputs[:8], config))


def test_reading_a_snapshot_never_changes_its_log(config):
    inputs = _scene_inputs(6)
    g5 = ingest_sequence(empty_graph(), inputs[:5], config)
    g6 = ingest_frame(g5, inputs[5], config)
    for graph in (empty_graph(), g5, g6, replace(g5, next_track_id=9), replace(g6, frames=tuple(g6.frames))):
        log = graph.log
        held = (len(log.frames), len(log.edges), len(log.nodes))
        for node_id in graph.node_index:
            graph.node(node_id), graph.track_of(node_id), graph.frame_of(node_id)
        list(graph.tracks.values())
        validate_graph(graph)
        assert graph.log is log and (len(log.frames), len(log.edges), len(log.nodes)) == held


def test_rejected_frame_leaves_the_log_to_the_snapshot(config):
    inputs = _scene_inputs(4)
    g3 = ingest_sequence(empty_graph(), inputs[:3], config)
    with pytest.raises(InputRejected):
        ingest_frame(g3, make_frame_input(3.5, detections=(make_detection(label="  "),)), config)
    g4 = ingest_frame(g3, inputs[3], config)
    assert g4.log is g3.log
    assert _text(g4) == _text(ingest_sequence(empty_graph(), inputs, config))


def test_a_node_id_already_in_the_graph_is_refused(config):
    graph = ingest_sequence(empty_graph(), _scene_inputs(2), config)
    stale = replace(graph, next_node_id=2)
    with pytest.raises(InputRejected, match="node id 2 is already in the graph"):
        ingest_frame(stale, make_frame_input(3.0, detections=(_mug(),)), config)


def test_an_outcome_extending_one_track_twice_is_refused(config):
    graph = ingest_sequence(empty_graph(), _scene_inputs(1), config)
    frame = FrameGraph(
        frame_index=2,
        latency_tag=LatencyTag(capture_time=2.0, transmission_latency=0.5),
        nodes=(make_node(3), make_node(4)),
        spatial_edges=(),
    )
    twice = AssociationOutcome(accepted=((1, 3, 0.1), (1, 4, 0.2)), new_nodes=(), disappeared=())
    with pytest.raises(InputRejected, match="outcome extends track 1 twice"):
        apply_outcome(graph, twice, frame, config, 5)
    both = AssociationOutcome(accepted=((1, 3, 0.1),), new_nodes=(4,), disappeared=(1,))
    with pytest.raises(InputRejected, match="outcome both extends and loses track 1"):
        apply_outcome(graph, both, frame, config, 5)
    once = AssociationOutcome(accepted=((1, 3, 0.1),), new_nodes=(4,), disappeared=(2,))
    after = apply_outcome(graph, once, frame, config, 5)
    assert after.log is graph.log and after.track_of(3) == 1 and after.track_of(4) == 3
    assert histories_oracle(after.temporal_edges) == {1: (1, 3), 2: (2,), 3: (4,)}


# --- time lookups against full-scan oracles -----------------------------------


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(0.0, 3.0), min_size=1, max_size=14), st.data())
def test_time_lookups_match_the_scanning_oracles(latencies, data):
    # uplink latency varies frame to frame, so arrival order differs from capture order
    inputs = _scene_inputs(len(latencies), latencies)
    snapshots = [empty_graph()]
    for frame in inputs:
        snapshots.append(ingest_frame(snapshots[-1], frame, EngineConfig()))
    graph = data.draw(st.sampled_from(snapshots[1:]), label="snapshot")
    frames, edges = tuple(graph.frames), tuple(graph.temporal_edges)
    arrivals = [fg.obs_time for fg in frames] + [fg.capture_time for fg in frames]
    times = st.one_of(st.floats(-1.0, len(latencies) + 4.0), st.sampled_from(arrivals))
    command_cfg = QueryConfig()
    for _ in range(6):
        t = data.draw(times, label="query time")
        expected = frame_at_operator_time_oracle(frames, t)
        if expected is None:
            with pytest.raises(NoAlignedFrame):
                frame_at_operator_time(graph, t)
        else:
            assert frame_at_operator_time(graph, t) is expected

        as_of = data.draw(times, label="as_of")
        cut = frames_as_of_oracle(frames, as_of)
        command = Command(text="mug", embedding=axis(0), issue_time=t)
        aligned = frame_at_operator_time_oracle(cut, t)
        if aligned is None:
            with pytest.raises(NoAlignedFrame):
                _align(graph, command, command_cfg, as_of, True)
        else:
            got_aligned, got_newest, _ = _align(graph, command, command_cfg, as_of, True)
            assert got_aligned is aligned and got_newest is cut[-1]
        if aligned is None:
            with pytest.raises(NoAlignedFrame):
                frame_at_operator_time(graph, t, as_of)
        else:
            assert frame_at_operator_time(graph, t, as_of) is aligned

        start, end = t, data.draw(times, label="window end")
        assert lifecycle_events(graph, start, end) == lifecycle_events_oracle(frames, edges, start, end)
