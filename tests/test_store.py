from __future__ import annotations

import math
import re
from dataclasses import replace
from itertools import islice

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stovsg import (
    APPEARED,
    DISAPPEARED,
    SAME_INSTANCE,
    STATUS_LOST,
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
    centroid_and_size,
    dumps,
    empty_graph,
    frame_at_operator_time,
    generate_stream,
    graph_from_dict,
    graph_to_dict,
    ground_command,
    ingest_frame,
    ingest_sequence,
    lifecycle_events,
    lift_mask,
    make_scenario,
    read_graph,
    validate_graph,
    write_graph,
)
from stovsg.model import AssociationOutcome, FrameGraph, LatencyTag, NodeIndex, vector_norm
from stovsg.query import _align
from stovsg.store import MAX_POINTS, apply_outcome

from churn_probe import DIM as CHURN_DIM, FPS, churn_inputs, transient_feature_axis
from conftest import axis, in_plane, make_camera, make_detection, make_frame_input, make_node
from oracles import (
    frame_at_operator_time_oracle,
    frames_as_of_oracle,
    histories_oracle,
    lifecycle_events_oracle,
    track_states_oracle,
)


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
    assert list(graph.tracks) == [1] and graph.active == {1}
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
    assert {graph.newest_node(tid).label for tid in graph.tracks} == {"red mug", "apple"}


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


def test_a_node_keeps_every_kth_of_more_points_than_the_cap_and_its_geometry_is_theirs(config):
    u, v = np.meshgrid(np.arange(128), np.arange(96))
    values = (1.5 + 0.01 * u + 0.003 * v).astype(np.float32)
    values[:, 20] = 0.0  # a column without readings: the cap counts the lifted points, not the mask's
    depth = DepthImage(values)
    det = make_detection(x0=10, y0=10, w=64, h=40)
    frame = make_frame_input(1.0, detections=(det,), depth=depth)
    lifted = lift_mask(depth, det.mask, frame.camera)
    n = len(lifted)
    assert n == 64 * 40 - 40 > MAX_POINTS == 2048
    kept = lifted[np.arange(2048) * n // 2048]
    node = ingest_frame(empty_graph(), frame, config).frames[0].nodes[0]
    np.testing.assert_array_equal(node.points, kept)
    centroid, size = centroid_and_size(kept)
    assert node.centroid.tobytes() == centroid.tobytes() and node.size.tobytes() == size.tobytes()


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
    track, newest = graph.tracks[1], graph.newest_node(1)
    assert newest.label == "coffee mug"  # corrected to the newest observation
    blended = 0.7 * first + 0.3 * second
    np.testing.assert_allclose(track.descriptor, blended / np.linalg.norm(blended), rtol=1e-12)
    assert graph.frame_of(newest.node_id).obs_time == 2.5


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
        with pytest.raises(InputRejected, match=rf"^zero-norm {name}$"):  # the detection refuses it when built
            bad = make_detection(x0=30, label="apple", **{name: zero})
            ingest_frame(graph, make_frame_input(2.0, detections=(make_detection(), bad)), config)


def test_a_zeroed_detection_in_a_simulated_stream_is_refused_at_ingest(config):
    """Once ingested, every command aligned to its frame would fail to score: the detection refuses it when built."""
    inputs, _ = generate_stream(make_scenario("target_moved", {"seed": 0}))
    first = inputs[0]
    det = first.detections[0]
    with pytest.raises(InputRejected, match=r"^zero-norm f_txt$"):
        zeroed = replace(first, detections=(replace(det, f_txt=np.zeros_like(det.f_txt)), *first.detections[1:]))
        ingest_sequence(empty_graph(), [zeroed, *inputs[1:]], config)


def _without_depth_under(frame, det_index):
    values = frame.depth.values.copy()
    u, v = frame.detections[det_index].mask.pixels.T
    values[v, u] = 0.0
    return replace(frame, depth=DepthImage(values))


def test_an_ingested_frame_has_the_norms_its_feature_checks_took(config, monkeypatch):
    inputs, _ = generate_stream(make_scenario("same_class_distractor", {"seed": 0}))
    graph = ingest_sequence(empty_graph(), inputs[:20], config)
    taken = []
    for where in ("stovsg.model.vector_norm", "stovsg.store.vector_norm"):  # every name ingest could take a norm by
        monkeypatch.setattr(where, lambda v: taken.append(v) or vector_norm(v))
    graph = ingest_frame(graph, inputs[20], config)
    frame = graph.frames[-1]
    features = [f for det in inputs[20].detections for f in (det.f_txt, det.f_img)]
    relations = [edge.relation for edge in graph.temporal_edges if edge.event_frame == frame.frame_index]
    # each detection took its features' norms when built; each new descriptor takes one norm when
    # blended or made unit (a new track's from its node's image feature), and one when its track checks it
    assert sum(any(v is f for f in features) for v in taken) == relations.count(APPEARED)
    assert len(taken) == 2 * (relations.count(SAME_INSTANCE) + relations.count(APPEARED)) == 6
    assert "feature_norms" in vars(frame)  # already kept, not taken on first use
    assert frame.feature_norms == tuple((det.txt_norm, det.img_norm) for det in inputs[20].detections)
    assert frame.feature_norms == FrameGraph(frame.frame_index, frame.latency_tag, frame.nodes, ()).feature_norms


def test_a_frame_with_two_faults_reports_the_invalid_box_before_the_non_finite_points(config):
    # a zero-width box is refused when built, before any frame holds it
    with pytest.raises(InputRejected, match=r"^invalid box \(30.0, 10.0, 30.0, 14.0\)$"):
        BoundingBox2D(30.0, 10.0, 30.0, 14.0)
    # detection 0 lifts to infinite points through a focal length of 1e-308; detection 1's box leaves the image
    outside = replace(make_detection(30, 10), box=BoundingBox2D(120.0, 10.0, 130.0, 14.0))
    frame = make_frame_input(1.0, detections=(make_detection(), outside), camera=make_camera(fx=1e-308))
    # every cloud's centroid and size are taken together, after the loop over the detections
    with pytest.warns(RuntimeWarning), pytest.raises(InputRejected) as refused:
        ingest_frame(empty_graph(), frame, config)
    assert str(refused.value) == "detection 1: box outside 128x96 image"
    with pytest.warns(RuntimeWarning), pytest.raises(InputRejected) as refused:
        ingest_frame(empty_graph(), replace(frame, detections=frame.detections[:1]), config)
    assert str(refused.value) == "point set contains non-finite values"


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
    bad_inputs = [  # each built inside the check: a tag, box, label or feature refuses itself when built
        lambda: make_frame_input(0.5, detections=(make_detection(),)),  # capture time going backwards
        lambda: make_frame_input(1.0, detections=(make_detection(),)),  # exactly equal is also stale
        lambda: make_frame_input(2.0, latency=-0.1, detections=(make_detection(),)),
        lambda: make_frame_input(2.0, detections=(replace(make_detection(), box=BoundingBox2D(5, 5, 5, 9)),)),
        lambda: make_frame_input(
            2.0, detections=(replace(make_detection(), box=BoundingBox2D(120, 90, 130, 98)),)
        ),
        lambda: make_frame_input(2.0, detections=(replace(make_detection(), label="   "),)),
        lambda: make_frame_input(2.0, detections=(make_detection(f_img=np.full(8, np.nan)),)),
        lambda: make_frame_input(2.0, detections=(make_detection(f_img=np.ones(5)),)),  # dim mismatch
    ]
    for make_input in bad_inputs:
        with pytest.raises(InputRejected):
            ingest_frame(graph, make_input(), config)
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
    assert list(graph.tracks) == [1] and graph.active == set()  # disappeared


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
    assert list(graph.tracks) == [1] and graph.active == {1}
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
    assert list(graph.tracks) == [2] and graph.active == {2}  # track 1 retired, and its record went
    assert graph.next_track_id == 3 and graph.track_of(1) == 1
    assert edges_of(graph, SAME_INSTANCE) == []
    assert len(edges_of(graph, APPEARED)) == 2
    assert validate_graph(graph) == []


def _object(obj: int):
    """Object ``obj`` (0-3): its own place, label and feature, so it never matches another object's track."""
    return make_detection(x0=4 + 30 * obj, label=f"object {obj}", f_img=axis(obj), f_txt=axis(obj))


@settings(derandomize=True, max_examples=80, deadline=None)
@given(
    st.sampled_from((0.5, 1.5, 3.0)),
    st.lists(
        st.tuples(st.floats(0.0, 3.0), st.lists(st.integers(0, 3), unique=True, max_size=4)), min_size=1, max_size=14
    ),
)
def test_track_states_match_the_full_scan_oracle(grace, stream):
    # objects appear, vanish and reappear; uplink latency varies frame to frame, so a
    # track can disappear and be past its grace period in one frame
    config = EngineConfig()
    config = replace(config, temporal=replace(config.temporal, grace_period=grace))
    want_edges, states = track_states_oracle([(0.5 * k + lat, objs) for k, (lat, objs) in enumerate(stream, 1)], grace)
    graph = empty_graph()
    for k, ((lat, objs), state) in enumerate(zip(stream, states), 1):
        graph = ingest_frame(graph, make_frame_input(0.5 * k, lat, tuple(map(_object, objs))), config)
        assert set(graph.tracks) == {tid for tid, status in state.items() if status != "retired"}
        assert graph.active == {tid for tid, status in state.items() if status == "active"}
    got = [(e.relation, e.track_id, e.event_frame, e.src_node, e.dst_node) for e in graph.temporal_edges]
    assert got == want_edges
    assert validate_graph(graph) == []


def test_churn_holds_only_the_tracks_that_can_still_match(config, tmp_path):
    grace = 1.0
    config = replace(config, temporal=replace(config.temporal, grace_period=grace))
    inputs = churn_inputs(600)
    graph = empty_graph()
    for k, frame_input in enumerate(inputs, 1):
        graph = ingest_frame(graph, frame_input, config)
        assert len(graph.tracks) <= grace * FPS + 2
        if k == 300:
            write_graph(graph, tmp_path / "half.json")
    assert graph.next_track_id - 1 == 601  # the static object's track, and one for each transient
    # transient 5 is seen only in frame 6, as node 12 on track 7, and is long retired
    assert graph.track_of(12) == 7 and 7 not in graph.tracks
    seen = inputs[5].latency_tag.observed_time
    command = Command("the sixth part", axis(transient_feature_axis(5), CHURN_DIM), issue_time=seen + 0.05)
    result = ground_command(graph, command)
    assert (result.aligned_frame_index, result.track_id, result.status) == (6, 7, STATUS_LOST)
    assert result.aligned_node.node_id == result.current_node.node_id == 12
    lost = inputs[6].latency_tag.capture_time
    assert (lost, 7, DISAPPEARED) in lifecycle_events(graph, 0.0, lost)
    # a graph written mid-stream and read back goes on as the uninterrupted one
    resumed = ingest_sequence(read_graph(tmp_path / "half.json"), inputs[300:], config)
    write_graph(graph, tmp_path / "whole.json")
    write_graph(resumed, tmp_path / "resumed.json")
    assert (tmp_path / "resumed.json").read_bytes() == (tmp_path / "whole.json").read_bytes()


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


def test_lifecycle_events_stop_at_the_window_when_the_next_frame_opens_with_an_event(config):
    # frame 3's first edge, the mug's disappearance, directly follows frame 2's same-instance edge
    graph = ingest_sequence(
        empty_graph(),
        [
            make_frame_input(1.0, detections=(make_detection(),)),
            make_frame_input(2.0, detections=(make_detection(),)),
            make_frame_input(3.0),
        ],
        config,
    )
    assert [e.relation for e in graph.temporal_edges] == [APPEARED, SAME_INSTANCE, DISAPPEARED]
    assert lifecycle_events(graph, 0.0, 2.5) == ((1.0, 1, APPEARED),)
    assert lifecycle_events(graph, 1.5, 2.5) == ()


def test_empty_frames_are_allowed(config):
    graph = ingest_sequence(empty_graph(), [make_frame_input(1.0), make_frame_input(2.0)], config)
    assert len(graph.frames) == 2
    assert graph.tracks == {}
    assert validate_graph(graph) == []


def test_the_feature_dimension_probe_walks_no_frame_before_the_first_node(config, monkeypatch):
    """Ingest reads the stored feature dimension off the log's first node, however many empty frames precede it."""
    graph = ingest_sequence(empty_graph(), [make_frame_input(0.1 * k) for k in range(1, 51)], config)
    graph = ingest_frame(graph, make_frame_input(6.0, detections=(make_detection(),)), config)
    walked: list[int] = []

    def counting_iter(index):
        for fg in islice(index._log.frames, index._n):
            walked.append(fg.frame_index)
            yield from (node.node_id for node in fg.nodes)

    monkeypatch.setattr(NodeIndex, "__iter__", counting_iter)
    graph = ingest_frame(graph, make_frame_input(7.0, detections=(make_detection(),)), config)
    with pytest.raises(InputRejected, match="^detection 0: f_img dimension 4 != 8$"):
        ingest_frame(graph, make_frame_input(8.0, detections=(make_detection(f_img=np.ones(4)),)), config)
    assert walked == [] and len(graph.frames) == 52


@pytest.mark.parametrize(
    "capture, latency", [(1.0, 0.5), (0.5, 0.5), (2.0, -0.25)], ids=["repeat", "earlier", "latency"]
)
def test_ingest_refuses_a_frame_out_of_time_order_in_the_words_of_validate_graph(config, capture, latency):
    graph = ingest_frame(empty_graph(), make_frame_input(1.0, detections=(make_detection(),)), config)
    if latency < 0:  # not a rule of time order: the tag refuses it when built
        with pytest.raises(InputRejected, match=r"^transmission_latency -0.25 is negative or not finite$"):
            make_frame_input(capture, latency=latency)
        return
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
    ]:
        frame = FrameGraph(frame_index, tag, (node,), ())
        with pytest.raises(InputRejected, match=rf"^{re.escape(path)}: "):
            apply_outcome(graph, AssociationOutcome(()), frame, config)
        assert len(graph.log.frames) == 1


def test_nan_transmission_latency_is_rejected(config):
    # the tag refuses it when built, in code and under replace, so no frame or graph can hold it
    message = "^transmission_latency nan is negative or not finite$"
    with pytest.raises(InputRejected, match=message):
        make_frame_input(1.0, latency=float("nan"), detections=(make_detection(),))
    graph = ingest_frame(empty_graph(), make_frame_input(1.0, detections=(make_detection(),)), config)
    with pytest.raises(InputRejected, match=message):
        replace(graph.frames[0].latency_tag, transmission_latency=float("nan"))


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


def _second_frame():
    """Frame 2 after ``_scene_inputs(1)``, whose mug and apple are tracks 1 and 2 (nodes 1 and 2): nodes 3 and 4."""
    return FrameGraph(
        frame_index=2,
        latency_tag=LatencyTag(capture_time=2.0, transmission_latency=0.5),
        nodes=(make_node(3), make_node(4)),
        spatial_edges=(),
    )


def test_an_outcome_extending_one_track_twice_is_refused(config):
    graph = ingest_sequence(empty_graph(), _scene_inputs(1), config)
    frame = _second_frame()
    with pytest.raises(InputRejected, match="outcome extends track 1 twice"):
        apply_outcome(graph, AssociationOutcome(((1, 3), (1, 4))), frame, config)
    # the node no pair took opens track 3, and the track no pair extended is lost
    after = apply_outcome(graph, AssociationOutcome(((1, 3),)), frame, config)
    assert after.log is graph.log and after.track_of(3) == 1 and after.track_of(4) == 3
    assert histories_oracle(after.temporal_edges) == {1: (1, 3), 2: (2,), 3: (4,)}
    assert [(e.track_id, e.src_node) for e in edges_of(after, DISAPPEARED)] == [(2, 2)]
    assert after.next_node_id == 5 and validate_graph(after) == []


def test_an_outcome_putting_one_node_on_two_tracks_is_refused(config):
    graph = ingest_sequence(empty_graph(), _scene_inputs(1), config)
    with pytest.raises(InputRejected, match="^outcome puts node 3 on two tracks$"):
        apply_outcome(graph, AssociationOutcome(((1, 3), (2, 3))), _second_frame(), config)
    assert len(graph.log.frames) == 1


@pytest.mark.parametrize(
    "pair, message",
    [((7, 3), "outcome references unknown track 7"), ((1, 9), "outcome references node 9 not in frame")],
    ids=["track", "node"],
)
def test_an_outcome_naming_a_track_or_node_it_cannot_pair_is_refused(config, pair, message):
    graph = ingest_sequence(empty_graph(), _scene_inputs(1), config)
    with pytest.raises(InputRejected, match=f"^{message}$"):
        apply_outcome(graph, AssociationOutcome((pair,)), _second_frame(), config)
    assert len(graph.log.frames) == 1


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
            assert got_aligned is aligned and got_newest == len(cut) - 1  # the newest frame's log position
        if aligned is None:
            with pytest.raises(NoAlignedFrame):
                frame_at_operator_time(graph, t, as_of)
        else:
            assert frame_at_operator_time(graph, t, as_of) is aligned

        start, end = t, data.draw(times, label="window end")
        assert lifecycle_events(graph, start, end) == lifecycle_events_oracle(frames, edges, start, end)
