from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest

from stovsg import (
    APPEARED,
    DISAPPEARED,
    SAME_INSTANCE,
    EngineConfig,
    InputRejected,
    SceneGraph4D,
    TemporalWeights,
    associate,
    build_cost_matrix,
    eligible_tracks,
    empty_graph,
    ingest_frame,
    ingest_sequence,
    temporal_cost,
)
from stovsg.model import FrameGraph, LatencyTag
from stovsg.store import apply_outcome

from conftest import DIM, TrackSpec, axis, in_plane, make_detection, make_frame_input, make_node, one_track, track_graph
from oracles import brute_force_assignment, temporal_cost_oracle

W = TemporalWeights()  # 0.4 / 0.4 / 0.2, d_max 1, eta 0.5, grace 10


def test_zero_cost_for_identical_observation():
    track = one_track(centroid=(0.2, 0.3, 1.0), descriptor=axis(2))
    node = make_node(5, centroid=(0.2, 0.3, 1.0), f_img=axis(2))
    assert temporal_cost(*track, node, W) == 0.0


def test_frozen_mixed_example():
    # half d_max away, orthogonal appearance, label mismatch:
    # 0.4 * 0.5 + 0.4 * 1.0 + 0.2
    track = one_track(centroid=(0.0, 0.0, 1.0), descriptor=axis(1), label="red mug")
    node = make_node(5, centroid=(0.5, 0.0, 1.0), f_img=axis(2), label="apple")
    assert math.isclose(temporal_cost(*track, node, W), 0.8, rel_tol=1e-12)


def test_motion_term_saturates_at_w_pos():
    track = one_track(centroid=(0.0, 0.0, 0.0))
    near = make_node(5, centroid=(1.0, 0.0, 0.0))
    far = make_node(6, centroid=(5.0, 0.0, 0.0))
    assert temporal_cost(*track, far, W) == temporal_cost(*track, near, W) == pytest.approx(0.4, rel=1e-12)


def test_appearance_term_uses_cosine():
    track = one_track(descriptor=axis(0))
    node = make_node(5, centroid=(0.0, 0.0, 1.0), f_img=in_plane(45.0))
    want = 0.4 * (1.0 - math.cos(math.radians(45.0)))
    assert math.isclose(temporal_cost(*track, node, W), want, rel_tol=1e-12)


def test_label_mismatch_adds_exactly_the_class_penalty():
    track = one_track(label="red mug")
    same = make_node(5, centroid=(0.0, 0.0, 1.0), label="red mug")
    other = make_node(6, centroid=(0.0, 0.0, 1.0), label="apple")
    delta = temporal_cost(*track, other, W) - temporal_cost(*track, same, W)
    assert math.isclose(delta, W.delta_cls, rel_tol=1e-12)


def test_cost_rejections():
    node = make_node(5)
    with pytest.raises(InputRejected, match="^d_max must be positive, got 0.0$"):
        replace(W, d_max=0.0)  # refused when built, before any cost is taken
    with pytest.raises(InputRejected):
        temporal_cost(*one_track(descriptor=np.zeros(DIM)), node, W)
    with pytest.raises(InputRejected):
        temporal_cost(*one_track(descriptor=np.ones(3)), node, W)


def test_cost_matches_oracle_on_random_inputs():
    rng = np.random.default_rng(31)
    labels = ("red mug", "apple", "yellow block")
    for _ in range(100):
        tc = rng.uniform(-1, 1, 3)
        nc = rng.uniform(-1, 1, 3)
        td = rng.normal(size=DIM)
        nf = rng.normal(size=DIM)
        tl = labels[rng.integers(3)]
        nl = labels[rng.integers(3)]
        track = one_track(centroid=tc, descriptor=td, label=tl)
        node = make_node(5, centroid=nc, f_img=nf, label=nl)
        want = temporal_cost_oracle(tc, td, tl, nc, nf, nl, W.w_pos, W.w_vis, W.delta_cls, W.d_max)
        assert math.isclose(temporal_cost(*track, node, W), want, rel_tol=1e-12)


def test_matrix_matches_independent_cost_calls():
    graph = track_graph(
        TrackSpec(3, centroid=(0.0, 0.0, 1.0), descriptor=axis(1), label="red mug"),
        TrackSpec(1, centroid=(1.0, 0.0, 1.0), descriptor=axis(2), label="apple"),
    )
    nodes = [
        make_node(10, centroid=(0.1, 0.0, 1.0), f_img=axis(1), label="red mug"),
        make_node(11, centroid=(0.9, 0.0, 1.0), f_img=axis(3), label="phone"),
    ]
    matrix = build_cost_matrix(graph, nodes, W, now=1.0)
    assert matrix.track_ids == (1, 3)  # ascending id order regardless of dict order
    assert matrix.node_ids == (10, 11)
    for i, tid in enumerate(matrix.track_ids):
        for j, node in enumerate(nodes):
            assert matrix.values[i, j] == temporal_cost(graph.tracks[tid], graph.newest_node(tid), node, W)


def test_matrix_empty_sides():
    assert build_cost_matrix(track_graph(), [make_node(1)], W, now=0.0).values.shape == (0, 1)
    assert build_cost_matrix(track_graph(TrackSpec(1)), [], W, now=0.0).values.shape == (1, 0)
    # the cost checks run on a block with cells, so a block without cells passes them
    assert build_cost_matrix(track_graph(), [], W, now=0.0).values.shape == (0, 0)
    assert build_cost_matrix(track_graph(), [make_node(1, f_img=np.zeros(DIM))], W, now=0.0).values.shape == (0, 1)
    with pytest.raises(InputRejected, match="^zero-norm descriptor$"):  # a track refuses one when built
        track_graph(TrackSpec(1, descriptor=np.zeros(DIM)))


def _random_block(rng, n_tracks, n_nodes):
    labels = ("red mug", "apple", "yellow block")
    tracks = [
        TrackSpec(
            tid,
            centroid=rng.uniform(-1, 1, 3),
            descriptor=rng.normal(size=DIM),
            label=labels[rng.integers(3)],
        )
        for tid in range(1, n_tracks + 1)
    ]
    nodes = [
        make_node(
            100 + j,
            centroid=rng.uniform(-1, 1, 3),
            f_img=rng.normal(size=DIM),
            label=labels[rng.integers(3)],
        )
        for j in range(n_nodes)
    ]
    return tracks, nodes


def test_matrix_cells_agree_with_cost_calls_on_random_features():
    # dense random features and centroids, so every term takes the general
    # path; the block's sums run in another order than the per-pair ones
    rng = np.random.default_rng(606)
    for n_tracks, n_nodes in ((1, 1), (3, 5), (7, 2), (12, 12)):
        for _ in range(10):
            tracks, nodes = _random_block(rng, n_tracks, n_nodes)
            graph = track_graph(*tracks)
            matrix = build_cost_matrix(graph, nodes, W, now=0.0)
            assert matrix.values.shape == (n_tracks, n_nodes)
            for i, (tid, track) in enumerate(graph.tracks.items()):
                for j, node in enumerate(nodes):
                    assert abs(matrix.values[i, j] - temporal_cost(track, graph.newest_node(tid), node, W)) <= 1e-15


@pytest.mark.parametrize("where", ["track", "node"])
@pytest.mark.parametrize("fault", ["zero-norm", "dimension"])
def test_one_bad_vector_in_a_block_is_rejected(where, fault):
    rng = np.random.default_rng(77)
    tracks, nodes = _random_block(rng, 4, 5)
    bad = np.zeros(DIM) if fault == "zero-norm" else np.ones(DIM + 1)
    if where == "track":
        tracks[2] = TrackSpec(3, descriptor=bad)
    else:
        nodes[3] = make_node(103, f_img=bad)
    name = "descriptor" if where == "track" else "f_img"
    message = f"zero-norm {name}" if fault == "zero-norm" else f"{name} dimension {DIM + 1} != {DIM}"
    with pytest.raises(InputRejected) as got:  # a zero descriptor is refused when its track is built
        build_cost_matrix(track_graph(*tracks), nodes, W, now=0.0)
    built = where == "track" and fault == "zero-norm"
    assert str(got.value) == (message if built else f"{where} {3 if where == 'track' else 103}: {message}")


def test_non_positive_d_max_rejects_a_block_with_cells():
    rng = np.random.default_rng(78)
    tracks, nodes = _random_block(rng, 3, 3)
    for d_max in (0.0, -1.0):
        with pytest.raises(InputRejected, match="d_max"):
            build_cost_matrix(track_graph(*tracks), nodes, TemporalWeights(d_max=d_max), now=0.0)


def test_eligibility_honors_grace_period_boundary():
    graph = track_graph(
        TrackSpec(2, obs_time=10.0),
        TrackSpec(3, obs_time=9.9),
        TrackSpec(4, obs_time=8.0, retired=True),
        TrackSpec(5, obs_time=15.0),
    )
    # grace 10: disappeared track 2 sits exactly on the boundary (inclusive),
    # track 3 is 0.1 s past it, a retired track has no record to come back to
    assert graph.active == {5} and sorted(graph.tracks) == [2, 3, 5]
    got = [t.track_id for t in eligible_tracks(graph, W, now=20.0)]
    assert got == [2, 5]
    # an active track stays eligible however long ago its newest node was observed
    assert [t.track_id for t in eligible_tracks(track_graph(TrackSpec(1, obs_time=0.0)), W, now=20.0)] == [1]


@pytest.mark.parametrize("now", [3.9, 4.1], ids=["inside-grace", "past-grace"])
def test_an_older_snapshot_associates_as_its_standalone_rebuild(config, now):
    config = replace(config, temporal=replace(config.temporal, grace_period=2.5))
    mug, apple = make_detection(x0=10), make_detection(x0=110, label="apple", f_img=axis(3))
    # the mug (track 1) is observed at 1.5 and then lost, so its grace period ends at 4.0
    inputs = [make_frame_input(t, detections=(mug, apple) if t == 1.0 else (apple,)) for t in (1.0, 2.0, 3.0)]
    older = ingest_sequence(empty_graph(), inputs, config)
    # a newer snapshot on the same log finds the mug again, moved and relabelled, just inside that period
    found = make_frame_input(3.5, detections=(make_detection(x0=12, label="coffee mug"), apple))
    newer = ingest_frame(older, found, config)
    assert newer.log is older.log and 1 in older.tracks and older.active == {2} and newer.active == {1, 2}
    assert older.newest_node(1).node_id == 1 and newer.newest_node(1).label == "coffee mug"
    alone = SceneGraph4D(
        tuple(older.frames), tuple(older.temporal_edges), older.tracks,
        older.next_node_id, older.next_track_id, older.frames_dropped,
    )
    assert alone.log is not older.log
    nodes, w = newer.frames[-1].nodes, config.temporal
    got, want = build_cost_matrix(older, nodes, w, now), build_cost_matrix(alone, nodes, w, now)
    assert (got.track_ids, got.node_ids) == (want.track_ids, want.node_ids)
    assert got.track_ids == ((1, 2) if now - 1.5 <= 2.5 else (2,))
    assert got.values.tobytes() == want.values.tobytes()
    assert associate(older, nodes, w, now) == associate(alone, nodes, w, now)


def _committed(graph, nodes, w, now):
    """The outcome of associating ``nodes`` at ``now``, and the edges that commit it as (relation, track, node).

    The node is the destination of a same-instance or appeared edge and the
    source of a disappeared one.
    """
    out = associate(graph, nodes, w, now)
    frame = FrameGraph(len(graph.frames) + 1, LatencyTag(now, 0.0), tuple(nodes), ())
    after = apply_outcome(graph, out, frame, replace(EngineConfig(), temporal=w))
    added = after.temporal_edges[len(graph.temporal_edges):]
    return out, [(e.relation, e.track_id, e.src_node if e.relation == DISAPPEARED else e.dst_node) for e in added]


def test_weights_that_could_make_a_negative_cost_are_refused_when_built():
    for key in ("w_pos", "w_vis", "delta_cls"):
        with pytest.raises(InputRejected, match=f"^temporal weights must be non-negative, got {key}=-0.5$"):
            replace(W, **{key: -0.5})
    # so with any weights the settings accept, no cell of a block is negative
    rng = np.random.default_rng(8)
    for _ in range(20):
        w = TemporalWeights(*rng.uniform(0.0, 1.0, 3), d_max=float(rng.uniform(1e-3, 2.0)))
        tracks, nodes = _random_block(rng, 6, 7)
        assert build_cost_matrix(track_graph(*tracks), nodes, w, now=0.0).values.min() >= 0.0


def test_associate_prefers_global_optimum_over_greedy():
    # costs [[0.1, 0.2], [0.2, 0.5]]: track 1 would greedily grab node 10,
    # leaving track 2 only the 0.5 cell, which the gate rejects; the optimal
    # matching swaps them
    w = TemporalWeights(w_pos=1.0, w_vis=0.0, delta_cls=0.0, d_max=1.0, eta=0.5)
    graph = track_graph(TrackSpec(1, centroid=(0.0, 0.0, 0.0)), TrackSpec(2, centroid=(0.3, 0.0, 0.0)))
    nodes = [make_node(10, centroid=(0.1, 0.0, 0.0)), make_node(11, centroid=(-0.2, 0.0, 0.0))]
    assert associate(graph, nodes, w, now=1.0).accepted == ((1, 11), (2, 10))


def test_threshold_is_strict():
    w = TemporalWeights(w_pos=1.0, w_vis=0.0, delta_cls=0.0, d_max=1.0, eta=0.5)
    graph = track_graph(TrackSpec(1, centroid=(0.0, 0.0, 0.0)))
    nodes = [make_node(5, centroid=(0.5, 0.0, 0.0))]
    out, added = _committed(graph, nodes, w, now=1.0)
    assert out.accepted == ()  # cost == eta exactly -> rejected
    assert added == [(APPEARED, 2, 5), (DISAPPEARED, 1, 10_001)]
    looser = TemporalWeights(w_pos=1.0, w_vis=0.0, delta_cls=0.0, d_max=1.0, eta=0.6)
    out, added = _committed(graph, nodes, looser, now=1.0)
    assert out.accepted == ((1, 5),)
    assert added == [(SAME_INSTANCE, 1, 5)]


def test_label_term_settles_a_swap_both_sides_would_accept():
    # two co-located tracks and two co-located candidates: either matching
    # clears the threshold, only the label term makes one of them optimal
    graph = track_graph(
        TrackSpec(1, centroid=(0.0, 0.0, 1.0), label="red mug"),
        TrackSpec(2, centroid=(0.0, 0.0, 1.0), label="apple"),
    )
    nodes = [
        make_node(10, centroid=(0.1, 0.0, 1.0), label="apple"),
        make_node(11, centroid=(0.1, 0.0, 1.0), label="red mug"),
    ]
    out = associate(graph, nodes, W, now=1.0)
    assert out.accepted == ((1, 11), (2, 10))
    matrix = build_cost_matrix(graph, nodes, W, now=1.0)
    for t, n in out.accepted:
        cost = matrix.values[matrix.track_ids.index(t), matrix.node_ids.index(n)]
        assert math.isclose(cost, 0.4 * 0.1, rel_tol=1e-12)


def test_associate_matches_brute_force_oracle_on_random_scenes():
    rng = np.random.default_rng(94)
    labels = ("red mug", "apple", "yellow block")
    for _ in range(40):
        now = 20.0
        n_tracks = int(rng.integers(0, 5))
        n_nodes = int(rng.integers(0, 5))
        tracks = []
        for tid in range(1, n_tracks + 1):
            retired = bool(rng.integers(3) == 2)
            tracks.append(TrackSpec(
                tid,
                centroid=rng.uniform(-1, 1, 3),
                descriptor=rng.normal(size=DIM),
                label=labels[rng.integers(3)],
                obs_time=float(rng.uniform(0.0, now)),
                retired=retired,
            ))
        # the tracks in the newest frame are active, and never retired
        newest_time = max((t.obs_time for t in tracks), default=None)
        tracks = [t._replace(retired=t.retired and t.obs_time != newest_time) for t in tracks]
        graph = track_graph(*tracks)
        # active, or disappeared and observed within the grace period
        live = [
            t.track_id for t in tracks
            if not t.retired and (t.obs_time == newest_time or now - t.obs_time <= W.grace_period)
        ]
        nodes = [
            make_node(
                100 + j,
                centroid=rng.uniform(-1, 1, 3),
                f_img=rng.normal(size=DIM),
                label=labels[rng.integers(3)],
            )
            for j in range(n_nodes)
        ]

        out, added = _committed(graph, nodes, W, now)

        rows = eligible_tracks(graph, W, now)
        assert [t.track_id for t in rows] == live
        cost = np.array(
            [
                [
                    temporal_cost_oracle(
                        graph.newest_node(t.track_id).centroid, t.descriptor, graph.newest_node(t.track_id).label,
                        n.centroid, n.f_img, n.label,
                        W.w_pos, W.w_vis, W.delta_cls, W.d_max,
                    )
                    for n in nodes
                ]
                for t in rows
            ]
        ).reshape(len(rows), len(nodes))
        pairs, _ = brute_force_assignment(cost)
        want = [
            (rows[i].track_id, nodes[j].node_id, cost[i, j])
            for i, j in pairs
            if cost[i, j] < W.eta
        ]
        assert out.accepted == tuple((t, n) for t, n, _ in want)
        matrix = build_cost_matrix(graph, nodes, W, now)
        for i, j in pairs:
            assert math.isclose(matrix.values[i, j], cost[i, j], rel_tol=1e-12)

        # the unmatched nodes open tracks in frame order, the unmatched active tracks are lost by ascending id
        matched_t = {t for t, _, _ in want}
        matched_n = {n for _, n, _ in want}
        assert added == (
            [(SAME_INSTANCE, t, n) for t, n, _ in want]
            + [(APPEARED, graph.next_track_id + k, n) for k, n in enumerate(
                n.node_id for n in nodes if n.node_id not in matched_n)]
            + [(DISAPPEARED, t, graph.newest_node(t).node_id) for t in sorted(graph.active - matched_t)]
        )


def test_outcome_partition_invariant():
    rng = np.random.default_rng(5150)
    labels = ("red mug", "apple")
    for _ in range(60):
        now = 5.0
        graph = track_graph(*(
            TrackSpec(
                tid,
                centroid=rng.uniform(-1, 1, 3),
                descriptor=rng.normal(size=DIM),
                label=labels[rng.integers(2)],
                obs_time=float(rng.uniform(0.0, now)),
            )
            for tid in range(1, int(rng.integers(1, 6)))
        ))
        nodes = [
            make_node(
                200 + j,
                centroid=rng.uniform(-1, 1, 3),
                f_img=rng.normal(size=DIM),
                label=labels[rng.integers(2)],
            )
            for j in range(int(rng.integers(0, 6)))
        ]
        out, added = _committed(graph, nodes, W, now)
        pairs = [(t, n) for relation, t, n in added if relation == SAME_INSTANCE]
        extended = [t for t, _ in pairs]
        lost = [t for relation, t, _ in added if relation == DISAPPEARED]
        taken = [n for relation, _, n in added if relation != DISAPPEARED]
        assert not set(extended) & set(lost) and set(extended) | set(lost) >= graph.active
        assert set(lost) <= graph.active and len(set(lost)) == len(lost)
        assert sorted(taken) == sorted(n.node_id for n in nodes)
        assert pairs == list(out.accepted) and set(extended) <= set(graph.tracks)
        matrix = build_cost_matrix(graph, nodes, W, now)
        assert all(matrix.values[matrix.track_ids.index(t), matrix.node_ids.index(n)] < W.eta for t, n in out.accepted)
