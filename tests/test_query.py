from __future__ import annotations

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stovsg import (
    APPEARED,
    BoundingBox2D,
    Command,
    EngineConfig,
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
    cosine,
    empty_graph,
    extract_subgraph,
    generate_stream,
    ground_command,
    ingest_frame,
    ingest_sequence,
    make_scenario,
    read_graph,
    score_nodes,
    serialize_subgraph,
    validate_graph,
    write_graph,
)
from stovsg import query
from stovsg.model import POSE_TOL

from conftest import axis, in_plane, make_detection, make_frame_input, make_node
from oracles import (
    exact_cosine_oracle,
    frame_at_operator_time_oracle,
    frames_as_of_oracle,
    histories_oracle,
    keyframe_history_oracle,
    node_score_oracle,
    score_nodes_oracle,
)

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
    with pytest.raises(InputRejected, match="^beta must be non-negative, got -0.1$"):
        QueryConfig(beta=-0.1)  # refused when built, before any score


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


def _frame_of(nodes) -> FrameGraph:
    return FrameGraph(
        frame_index=1,
        latency_tag=LatencyTag(capture_time=1.0, transmission_latency=0.5),
        nodes=tuple(nodes),
        spatial_edges=(),
    )


@settings(max_examples=80, deadline=None)
@given(
    st.integers(1, 512),
    st.integers(0, 2**32 - 1),
    st.floats(-12.0, 12.0),
    st.integers(1, 12),
    st.sampled_from([0.0, 0.5, 1.0, 2.75]),
)
def test_scores_are_bit_identical_to_the_per_pair_oracle(dim, seed, log_scale, count, beta):
    """``==``, not ``isclose``: exports carry the scores, so every bit counts."""
    rng = np.random.default_rng(seed)
    emb = rng.standard_normal(dim) * 10.0**log_scale
    ids = rng.permutation(3 * count)[:count] + 1  # tie order must come from the ids, not the frame order
    nodes = []
    for node_id in ids:
        kind = rng.integers(0, 3)
        if kind == 2 and nodes:  # an exact copy of an earlier node: an exact tie
            twin = nodes[int(rng.integers(0, len(nodes)))]
            f_txt, f_img = twin.f_txt, twin.f_img
        elif kind == 1:  # near-parallel to the command: rounding lands on or past +-1, so the clamp decides
            sign = rng.choice([-1.0, 1.0])
            f_txt = sign * rng.uniform(0.1, 10.0) * emb * (1.0 + 1e-15 * rng.standard_normal(dim))
            f_img = -f_txt
        else:
            f_txt = rng.standard_normal(dim) * 10.0 ** rng.uniform(-12.0, 12.0)
            f_img = rng.standard_normal(dim) * 10.0 ** rng.uniform(-12.0, 12.0)
        nodes.append(make_node(int(node_id), f_txt=f_txt, f_img=f_img))
    frame = _frame_of(nodes)
    command = Command(text="x", embedding=emb, issue_time=2.0)
    assert score_nodes(frame, command, QueryConfig(beta=beta)) == score_nodes_oracle(nodes, emb, beta)
    for node in nodes:
        for feature in (node.f_txt, node.f_img):
            got = cosine(emb, feature)
            assert got == exact_cosine_oracle(emb, feature)
            assert -1.0 <= got <= 1.0


def test_near_parallel_scores_are_clamped_like_the_oracle():
    rng = np.random.default_rng(5)
    hits = 0
    for _ in range(200):
        emb = rng.standard_normal(int(rng.integers(3, 64)))
        node = make_node(1, f_txt=emb * 3.0, f_img=-emb)
        raw = float(np.dot(emb, node.f_txt) / (np.linalg.norm(emb) * np.linalg.norm(node.f_txt)))
        hits += raw > 1.0
        assert cosine(emb, node.f_txt) == min(1.0, raw)
        (scored,) = score_nodes(_frame_of([node]), Command(text="x", embedding=emb, issue_time=2.0))
        assert scored == score_nodes_oracle([node], emb, 0.5)[0]
    assert hits > 0  # the clamp was exercised, not just passed through


def _refusal(fn, *args) -> str | None:
    """The message ``fn`` refuses its arguments with, or None when it accepts them."""
    try:
        fn(*args)
    except ValueError as exc:  # InputRejected is a ValueError
        return str(exc)
    return None


@pytest.mark.parametrize(
    "emb, f_txt, f_img, beta",
    [
        (axis(0), np.ones(5), axis(1), 0.5),
        (axis(0), axis(0), np.ones(5), 0.5),
        (axis(0), np.zeros(8), axis(1), 0.5),
        (axis(0), axis(0), np.zeros(8), 0.5),
        (np.zeros(8), axis(0), axis(1), 0.5),
        (np.zeros(8), np.ones(5), axis(1), 0.5),  # the dimension is checked before the norm
        (axis(0), axis(0), axis(1), -0.25),
    ],
    ids=["txt-dimension", "img-dimension", "zero-txt", "zero-img", "zero-command", "zero-command-and-dimension", "beta"],
)
def test_score_refusals_match_the_oracle(emb, f_txt, f_img, beta):
    nodes = [make_node(1), make_node(2, f_txt=f_txt, f_img=f_img)]  # refused on the second node
    with pytest.raises(InputRejected) as refused:
        score_nodes(_frame_of(nodes), Command(text="x", embedding=emb, issue_time=2.0), QueryConfig(beta=beta))
    # a zero command refuses itself when built, before any node is scored
    want = "zero-norm embedding" if not emb.any() else _refusal(score_nodes_oracle, nodes, emb, beta)
    assert str(refused.value) == want
    for feature in (f_txt, f_img):
        assert _refusal(cosine, emb, feature) == _refusal(exact_cosine_oracle, emb, feature)


def test_a_frame_without_nodes_scores_nothing_even_for_a_zero_command():
    # the oracle scores a zero command against no node; the engine refuses such a command when it is built
    assert score_nodes_oracle([], np.zeros(8), 0.5) == []
    command = Command(text="x", embedding=axis(0), issue_time=2.0)
    assert score_nodes(_frame_of([]), command) == []
    with pytest.raises(InputRejected, match="^zero-norm embedding$"):
        Command(text="x", embedding=np.zeros(8), issue_time=2.0)


def test_per_frame_norms_keep_every_score_bit_identical(config, tmp_path):
    """Norms are kept on the frame; a frame read back or rebuilt with ``replace`` takes its own."""
    spec = make_scenario("same_class_distractor", {"seed": 4, "delay": 0.5})
    inputs, _ = generate_stream(spec)
    built = ingest_sequence(empty_graph(), inputs, config)
    write_graph(built, tmp_path / "graph.json")
    read_back = read_graph(tmp_path / "graph.json")
    (command,) = commands_from_scenario(spec)
    rng = np.random.default_rng(9)
    for frame, again in zip(built.frames, read_back.frames):
        assert len(frame.nodes) > 1
        for scored in (frame, again):
            for _ in range(2):  # the second call reads the norms the first one kept
                assert score_nodes(scored, command) == score_nodes_oracle(scored.nodes, command.embedding, 0.5)
        # a rebuilt frame with other features in its nodes must not score with the kept norms
        nodes = tuple(replace(n, f_txt=rng.standard_normal(n.f_txt.shape)) for n in frame.nodes[::-1])
        rebuilt = replace(frame, nodes=nodes)
        assert score_nodes(rebuilt, command) == score_nodes_oracle(nodes, command.embedding, 0.5)
        zero = replace(frame, nodes=(replace(frame.nodes[0], f_img=np.zeros_like(frame.nodes[0].f_img)),))
        with pytest.raises(InputRejected, match="^cosine similarity undefined for zero-norm vector$"):
            score_nodes(zero, command)


def test_cosine_keeps_its_shape_and_zero_norm_refusals():
    with pytest.raises(InputRejected, match=r"^feature dimensions differ: \(8,\) vs \(5,\)$"):
        cosine(axis(0), np.ones(5))
    for a, b in ((axis(0), np.zeros(8)), (np.zeros(8), axis(0))):
        with pytest.raises(InputRejected, match="^cosine similarity undefined for zero-norm vector$"):
            cosine(a, b)


def test_grounding_and_export_each_score_the_aligned_frame_once(config, monkeypatch):
    """The benchmark traces ``query.score_nodes`` by rebinding it; scoring past that name would read 0 unseen."""
    graph = mug_scene(config)
    real = query.score_nodes
    frames = []

    def counting(*args, **kwargs):
        frames.append((args[0].frame_index, len(args[0].nodes)))
        return real(*args, **kwargs)

    monkeypatch.setattr(query, "score_nodes", counting)
    command = mug_command(1.6)
    ground_command(graph, command)
    assert frames == [(1, 2)]
    extract_subgraph(graph, command)
    assert frames == [(1, 2), (1, 2)]
    ground_command(graph, command, latency_aware=False)
    extract_subgraph(graph, command, latency_aware=False)
    assert frames[2:] == [(3, 2), (3, 2)]


def test_grounding_follows_the_track_to_the_present(config):
    graph = mug_scene(config)
    result = ground_command(graph, mug_command(1.6))
    assert result.aligned_frame_index == 1  # obs times are 1.5/2.5/3.5
    assert result.aligned_node.node_id == 1
    assert result.track_id == 1
    assert result.status == STATUS_LIVE
    assert graph.frame_of(result.current_node.node_id).frame_index == 3
    # the mug drifted right: execution pose differs from the aligned pose
    assert result.current_node.centroid[0] > result.aligned_node.centroid[0]


def test_a_winner_on_no_track_is_not_found(config):
    graph = mug_scene(config)
    assert histories_oracle(graph.temporal_edges)[1] == (1, 3, 5)
    # without the edge that opened the mug's track, node 1 is on no track
    edges = tuple(e for e in graph.temporal_edges if (e.relation, e.dst_node) != (APPEARED, 1))
    orphaned = replace(graph, temporal_edges=edges)
    assert orphaned.track_of(1) is None and "frame 1 node 1: on no track" in validate_graph(orphaned)
    with pytest.raises(NotFound, match="^node 1 is on no track$"):
        ground_command(orphaned, mug_command(1.6))
    with pytest.raises(NotFound, match="^node 1 is on no track$"):
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
    assert graph.frame_of(aware.current_node.node_id).frame_index == 2
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
    assert graph.frame_of(result.current_node.node_id).frame_index == 2


def test_as_of_cutoff_hides_frames_not_yet_captured(config):
    graph = mug_scene(config)
    result = ground_command(graph, mug_command(1.6), as_of=2.4)
    assert graph.frame_of(result.current_node.node_id).frame_index == 2  # frame 3 (capture 3.0) is the future
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
        assert when == graph.frame_of(result.current_node.node_id).obs_time
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
    assert [node.node_id for node, _ in sub.nodes] == [1, 2]  # partner pulled in
    assert [(e.src, e.dst) for e in sub.edges] == [(1, 2)]

    both = extract_subgraph(graph, command, QueryConfig(top_k=2, neighbor_hops=1))
    # seeds are the mug (1.0) and the phone (cos 60 = 0.5); hop adds partners
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
    # each step is 2 px, 0.04 m at 2 m: frame 2 lies inside the band around frame 1, frame 3 (0.08 m) outside it
    assert [t for t, _ in entries] == [1.5, 3.5]  # aligned frame to the newest, oldest first
    xs = [c[0] for _, c in entries]
    assert xs == sorted(xs) and xs[1] - xs[0] > POSE_TOL
    assert sub.dynamics == ((1.0, 1, "appeared"), (4.0, 1, "disappeared"))

    later = extract_subgraph(graph, mug_command(2.6))
    assert later.aligned_frame_index == 2
    (entries,) = later.history.values()
    # the frame-1 observation is before the window; frame 3 is still the keyframe counted from frame 1
    assert [t for t, _ in entries] == [2.5, 3.5]
    assert later.dynamics == ((4.0, 1, "disappeared"),)


def test_subgraph_respects_as_of(config):
    graph = mug_scene(config)
    sub = extract_subgraph(graph, mug_command(1.6), as_of=2.4)
    (mug_entries, _) = (sub.history[nid] for nid in sorted(sub.history))
    assert [t for t, _ in mug_entries] == [1.5, 2.5]  # frame 3 hidden by the cutoff


def test_history_starts_at_each_nodes_own_observation(config):
    graph = mug_scene(config, frames=5)
    for latency_aware in (True, False):
        sub = extract_subgraph(graph, mug_command(2.6), latency_aware=latency_aware)
        assert len(sub.nodes) == 2
        for node, _ in sub.nodes:
            entries = sub.history[node.node_id]
            when, centroid = entries[0]
            assert when == graph.frame_of(node.node_id).obs_time and np.array_equal(centroid, node.centroid)
            newest = graph.newest_node(graph.track_of(node.node_id))
            assert np.array_equal(entries[-1][1], newest.centroid)
            # the mug moves 0.2 m a frame, so each of frames 2-5 is a keyframe; the parked apple has
            # only its first and last observation in the window
            moving = node.label == "red mug"
            assert len(entries) == ((4 if moving else 2) if latency_aware else 1)


def test_history_length_does_not_grow_with_the_stream(config):
    graph = ingest_sequence(empty_graph(), _coming_and_going(80, [0.5] * 80), config)
    # the same command two frames behind the newest one, early (cut at frame 5) and late (frame 65),
    # at the same phase of the mug's five-frame sweep and where the apple is out of view
    early = extract_subgraph(graph, mug_command(3.6), as_of=5.0)
    late = extract_subgraph(graph, mug_command(63.6), as_of=65.0)
    assert (early.aligned_frame_index, late.aligned_frame_index) == (3, 63)
    # the sweep's keyframes, counted from frame 1, are every frame whose index is 1, 3 or 0 modulo 5
    assert [[t for t, _ in entries] for entries in early.history.values()] == [[3.5, 5.5]]
    assert [[t for t, _ in entries] for entries in late.history.values()] == [[63.5, 65.5]]


def _coming_and_going(count: int, latencies) -> list:
    """A mug moving every frame and an apple seen two frames in four, one frame a second."""
    return [
        make_frame_input(
            float(k + 1),
            latency=latencies[k],
            detections=(make_detection(x0=10 + 2 * (k % 5), f_img=axis(1), f_txt=MUG_TXT),)
            + ((make_detection(x0=100, label="apple", f_img=axis(3), f_txt=APPLE_TXT),) if k % 4 < 2 else ()),
        )
        for k in range(count)
    ]


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(0.0, 3.0), min_size=1, max_size=14), st.data())
def test_subgraph_history_matches_the_scanning_oracle(latencies, data):
    snapshots = [empty_graph()]
    for frame in _coming_and_going(len(latencies), latencies):
        snapshots.append(ingest_frame(snapshots[-1], frame, EngineConfig()))
    graph = data.draw(st.sampled_from(snapshots[1:]), label="snapshot")
    frames = tuple(graph.frames)
    times = st.floats(0.0, len(latencies) + 4.0)
    for _ in range(4):
        issue = data.draw(times, label="issue time")
        as_of = data.draw(st.one_of(st.none(), times), label="as_of")
        latency_aware = data.draw(st.booleans(), label="latency aware")
        cut = frames if as_of is None else frames_as_of_oracle(frames, as_of)
        aligned = frame_at_operator_time_oracle(cut, issue) if latency_aware else (cut[-1] if cut else None)
        command = mug_command(issue)
        if aligned is None:
            with pytest.raises(NoAlignedFrame):
                extract_subgraph(graph, command, as_of=as_of, latency_aware=latency_aware)
            continue
        sub = extract_subgraph(graph, command, as_of=as_of, latency_aware=latency_aware)
        assert sub.aligned_frame_index == aligned.frame_index
        assert sorted(sub.history) == sorted(node.node_id for node, _ in sub.nodes)
        for nid, entries in sub.history.items():
            want = keyframe_history_oracle(cut, graph.temporal_edges, nid, aligned.frame_index, cut[-1].frame_index)
            assert [t for t, _ in entries] == [t for t, _ in want]
            assert all(np.array_equal(got, c) for (_, got), (_, c) in zip(entries, want))


@pytest.mark.parametrize("dropped", [0, 3])
def test_each_snapshot_on_a_shared_log_grounds_and_exports_its_own_window(dropped):
    # every snapshot but the last shares its log with newer ones, whose nodes lie past its newest frame
    snapshots = [replace(empty_graph(), frames_dropped=dropped)]
    for frame in _coming_and_going(10, [0.0, 1.5, 0.5, 2.5, 0.0, 1.0, 0.5, 0.0, 3.0, 0.5]):
        snapshots.append(ingest_frame(snapshots[-1], frame, EngineConfig()))
    for graph in snapshots[1:]:
        assert graph.log is snapshots[-1].log and graph.frames[0].frame_index == dropped + 1
        frames = tuple(graph.frames)
        histories = histories_oracle(graph.temporal_edges)
        frame_by_node = {node.node_id: fg for fg in frames for node in fg.nodes}
        cutoffs, issue_times = (None, frames[len(frames) // 2].capture_time), np.arange(0.5, len(frames) + 4.0)
        for as_of, issue, target, latency_aware in itertools.product(
            cutoffs, issue_times, (MUG_TXT, APPLE_TXT), (True, False)
        ):
            cut = frames if as_of is None else frames_as_of_oracle(frames, as_of)
            aligned = frame_at_operator_time_oracle(cut, issue) if latency_aware else cut[-1]
            if aligned is None:
                continue
            command, newest = Command(text="target", embedding=target, issue_time=float(issue)), cut[-1]
            sub = extract_subgraph(graph, command, as_of=as_of, latency_aware=latency_aware)
            for nid, entries in sub.history.items():
                want = keyframe_history_oracle(cut, graph.temporal_edges, nid, aligned.frame_index, newest.frame_index)
                assert [t for t, _ in entries] == [t for t, _ in want]
                assert all(np.array_equal(got, c) for (_, got), (_, c) in zip(entries, want))
            result = ground_command(graph, command, as_of=as_of, latency_aware=latency_aware)
            # the whole-history scan: the winner's track, cut to the frames from the aligned one to the newest
            (track_id, ids), = ((t, ids) for t, ids in histories.items() if result.aligned_node.node_id in ids)
            span = range(aligned.frame_index, newest.frame_index + 1)
            window = [nid for nid in ids if nid in frame_by_node and frame_by_node[nid].frame_index in span]
            assert (result.track_id, result.current_node.node_id) == (track_id, window[-1])
            assert result.status == (STATUS_LIVE if frame_by_node[window[-1]] is newest else STATUS_LOST)


@settings(max_examples=30, deadline=None)
@given(
    st.lists(st.tuples(st.integers(0, 12), st.floats(0.0, 3.0)), min_size=1, max_size=14),
    st.lists(st.floats(0.0, 18.0), min_size=14, max_size=14),
)
def test_a_live_export_equals_the_export_as_of_its_newest_frame_on_the_final_graph(steps, issue_times):
    # the mug steps 0 to 12 px (0 to 0.24 m) a frame, so its keyframes fall anywhere in its track
    inputs = [
        make_frame_input(
            float(k + 1),
            latency=latency,
            detections=(make_detection(x0=10 + 8 * (k % 2) + step, f_img=axis(1), f_txt=MUG_TXT),)
            + ((make_detection(x0=100, label="apple", f_img=axis(3), f_txt=APPLE_TXT),) if k % 3 else ()),
        )
        for k, (step, latency) in enumerate(steps)
    ]
    graph, answers = empty_graph(), []
    for frame, issue in zip(inputs, issue_times):  # each export is taken while its snapshot is the newest
        graph = ingest_frame(graph, frame, EngineConfig())
        command = mug_command(issue)
        try:
            answers.append((command, graph.frames[-1].capture_time, serialize_subgraph(extract_subgraph(graph, command))))
        except NoAlignedFrame:
            answers.append((command, graph.frames[-1].capture_time, None))
    for command, as_of, want in answers:
        if want is None:
            with pytest.raises(NoAlignedFrame):
                extract_subgraph(graph, command, as_of=as_of)
        else:
            assert serialize_subgraph(extract_subgraph(graph, command, as_of=as_of)) == want
