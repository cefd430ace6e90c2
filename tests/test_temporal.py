from __future__ import annotations

import math

import numpy as np
import pytest

from stovsg import (
    CostMatrix,
    InputRejected,
    TemporalWeights,
    TrackStatus,
    associate,
    build_cost_matrix,
    eligible_tracks,
    solve_assignment,
    temporal_cost,
)

from conftest import DIM, axis, in_plane, make_node, make_track
from oracles import brute_force_assignment, temporal_cost_oracle

W = TemporalWeights()  # 0.4 / 0.4 / 0.2, d_max 1, eta 0.5, grace 10


def test_zero_cost_for_identical_observation():
    track = make_track(1, centroid=(0.2, 0.3, 1.0), descriptor=axis(2))
    node = make_node(5, centroid=(0.2, 0.3, 1.0), f_img=axis(2))
    assert temporal_cost(track, node, W) == 0.0


def test_frozen_mixed_example():
    # half d_max away, orthogonal appearance, label mismatch:
    # 0.4 * 0.5 + 0.4 * 1.0 + 0.2
    track = make_track(1, centroid=(0.0, 0.0, 1.0), descriptor=axis(1), label="red mug")
    node = make_node(5, centroid=(0.5, 0.0, 1.0), f_img=axis(2), label="apple")
    assert math.isclose(temporal_cost(track, node, W), 0.8, rel_tol=1e-12)


def test_motion_term_saturates_at_w_pos():
    track = make_track(1, centroid=(0.0, 0.0, 0.0))
    near = make_node(5, centroid=(1.0, 0.0, 0.0))
    far = make_node(6, centroid=(5.0, 0.0, 0.0))
    assert temporal_cost(track, far, W) == temporal_cost(track, near, W) == pytest.approx(0.4, rel=1e-12)


def test_appearance_term_uses_cosine():
    track = make_track(1, descriptor=axis(0))
    node = make_node(5, centroid=(0.0, 0.0, 1.0), f_img=in_plane(45.0))
    want = 0.4 * (1.0 - math.cos(math.radians(45.0)))
    assert math.isclose(temporal_cost(track, node, W), want, rel_tol=1e-12)


def test_label_mismatch_adds_exactly_the_class_penalty():
    track = make_track(1, label="red mug")
    same = make_node(5, centroid=(0.0, 0.0, 1.0), label="red mug")
    other = make_node(6, centroid=(0.0, 0.0, 1.0), label="apple")
    delta = temporal_cost(track, other, W) - temporal_cost(track, same, W)
    assert math.isclose(delta, W.delta_cls, rel_tol=1e-12)


def test_cost_rejections():
    track = make_track(1)
    node = make_node(5)
    with pytest.raises(InputRejected):
        temporal_cost(track, node, TemporalWeights(d_max=0.0))
    with pytest.raises(InputRejected):
        temporal_cost(make_track(1, descriptor=np.zeros(DIM)), node, W)
    with pytest.raises(InputRejected):
        temporal_cost(make_track(1, descriptor=np.ones(3)), node, W)


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
        track = make_track(1, centroid=tc, descriptor=td, label=tl)
        node = make_node(5, centroid=nc, f_img=nf, label=nl)
        want = temporal_cost_oracle(tc, td, tl, nc, nf, nl, W.w_pos, W.w_vis, W.delta_cls, W.d_max)
        assert math.isclose(temporal_cost(track, node, W), want, rel_tol=1e-12)


def test_matrix_matches_independent_cost_calls():
    tracks = {
        3: make_track(3, centroid=(0.0, 0.0, 1.0), descriptor=axis(1), label="red mug"),
        1: make_track(1, centroid=(1.0, 0.0, 1.0), descriptor=axis(2), label="apple"),
    }
    nodes = [
        make_node(10, centroid=(0.1, 0.0, 1.0), f_img=axis(1), label="red mug"),
        make_node(11, centroid=(0.9, 0.0, 1.0), f_img=axis(3), label="phone"),
    ]
    matrix = build_cost_matrix(tracks, nodes, W, now=1.0)
    assert matrix.track_ids == (1, 3)  # ascending id order regardless of dict order
    assert matrix.node_ids == (10, 11)
    for i, tid in enumerate(matrix.track_ids):
        for j, node in enumerate(nodes):
            assert matrix.values[i, j] == temporal_cost(tracks[tid], node, W)


def test_matrix_empty_sides():
    assert build_cost_matrix({}, [make_node(1)], W, now=0.0).values.shape == (0, 1)
    assert build_cost_matrix({1: make_track(1)}, [], W, now=0.0).values.shape == (1, 0)
    # the cost checks run per cell, so a block without cells passes them
    bad = TemporalWeights(d_max=0.0)
    zero = make_track(1, descriptor=np.zeros(DIM))
    assert build_cost_matrix({}, [], bad, now=0.0).values.shape == (0, 0)
    assert build_cost_matrix({}, [make_node(1), make_node(2)], bad, now=0.0).values.shape == (0, 2)
    assert build_cost_matrix({1: zero, 2: make_track(2)}, [], bad, now=0.0).values.shape == (2, 0)


def _random_block(rng, n_tracks, n_nodes):
    labels = ("red mug", "apple", "yellow block")
    tracks = {
        tid: make_track(
            tid,
            centroid=rng.uniform(-1, 1, 3),
            descriptor=rng.normal(size=DIM),
            label=labels[rng.integers(3)],
        )
        for tid in range(1, n_tracks + 1)
    }
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
            matrix = build_cost_matrix(tracks, nodes, W, now=0.0)
            assert matrix.values.shape == (n_tracks, n_nodes)
            for i, track in enumerate(tracks.values()):
                for j, node in enumerate(nodes):
                    assert abs(matrix.values[i, j] - temporal_cost(track, node, W)) <= 1e-15


@pytest.mark.parametrize("where", ["track", "node"])
@pytest.mark.parametrize("fault", ["zero-norm", "dimension"])
def test_one_bad_vector_in_a_block_is_rejected(where, fault):
    rng = np.random.default_rng(77)
    tracks, nodes = _random_block(rng, 4, 5)
    bad = np.zeros(DIM) if fault == "zero-norm" else np.ones(DIM + 1)
    if where == "track":
        tracks[3] = make_track(3, descriptor=bad)
    else:
        nodes[3] = make_node(103, f_img=bad)
    with pytest.raises(InputRejected) as got:
        build_cost_matrix(tracks, nodes, W, now=0.0)
    with pytest.raises(InputRejected) as want:  # the first failing pair in row order
        for track in tracks.values():
            for node in nodes:
                temporal_cost(track, node, W)
    assert str(got.value) == str(want.value)


def test_non_positive_d_max_rejects_a_block_with_cells():
    rng = np.random.default_rng(78)
    tracks, nodes = _random_block(rng, 3, 3)
    for d_max in (0.0, -1.0):
        with pytest.raises(InputRejected, match="d_max"):
            build_cost_matrix(tracks, nodes, TemporalWeights(d_max=d_max), now=0.0)


def test_eligibility_honors_grace_period_boundary():
    tracks = {
        1: make_track(1, status=TrackStatus.ACTIVE, last_seen_time=0.0),
        2: make_track(2, status=TrackStatus.DISAPPEARED, last_seen_time=10.0),
        3: make_track(3, status=TrackStatus.DISAPPEARED, last_seen_time=9.9),
        4: make_track(4, status=TrackStatus.RETIRED, last_seen_time=19.9),
    }
    # grace 10: track 2 sits exactly on the boundary (inclusive), track 3 is
    # 0.1 s past it, retired tracks never come back
    got = [t.track_id for t in eligible_tracks(tracks, W, now=20.0)]
    assert got == [1, 2]


def test_solve_assignment_rejects_negative_entries():
    matrix = CostMatrix(values=np.array([[-0.1, 0.2], [0.3, 0.4]]), track_ids=(1, 2), node_ids=(3, 4))
    with pytest.raises(InputRejected):
        solve_assignment(matrix)


def test_solve_assignment_prefers_global_optimum_over_greedy():
    # row 0 would greedily grab column 0, forcing row 1 into the 0.9 cell;
    # the optimal matching swaps them
    matrix = CostMatrix(
        values=np.array([[0.10, 0.20], [0.15, 0.90]]),
        track_ids=(7, 9),
        node_ids=(3, 4),
    )
    assert solve_assignment(matrix) == [(0, 1), (1, 0)]


def test_threshold_is_strict():
    w = TemporalWeights(w_pos=1.0, w_vis=0.0, delta_cls=0.0, d_max=1.0, eta=0.5)
    tracks = {1: make_track(1, centroid=(0.0, 0.0, 0.0))}
    nodes = [make_node(5, centroid=(0.5, 0.0, 0.0))]
    out = associate(tracks, nodes, w, now=1.0)
    assert out.accepted == ()  # cost == eta exactly -> rejected
    assert out.new_nodes == (5,)
    assert out.disappeared == (1,)
    looser = TemporalWeights(w_pos=1.0, w_vis=0.0, delta_cls=0.0, d_max=1.0, eta=0.6)
    out = associate(tracks, nodes, looser, now=1.0)
    assert [(t, n) for t, n, _ in out.accepted] == [(1, 5)]


def test_label_term_settles_a_swap_both_sides_would_accept():
    # two co-located tracks and two co-located candidates: either matching
    # clears the threshold, only the label term makes one of them optimal
    tracks = {
        1: make_track(1, centroid=(0.0, 0.0, 1.0), label="red mug"),
        2: make_track(2, centroid=(0.0, 0.0, 1.0), label="apple"),
    }
    nodes = [
        make_node(10, centroid=(0.1, 0.0, 1.0), label="apple"),
        make_node(11, centroid=(0.1, 0.0, 1.0), label="red mug"),
    ]
    out = associate(tracks, nodes, W, now=1.0)
    assert sorted((t, n) for t, n, _ in out.accepted) == [(1, 11), (2, 10)]
    for _, _, cost in out.accepted:
        assert math.isclose(cost, 0.4 * 0.1, rel_tol=1e-12)


def test_associate_matches_brute_force_oracle_on_random_scenes():
    rng = np.random.default_rng(94)
    labels = ("red mug", "apple", "yellow block")
    for _ in range(40):
        now = 20.0
        n_tracks = int(rng.integers(0, 5))
        n_nodes = int(rng.integers(0, 5))
        tracks = {}
        for tid in range(1, n_tracks + 1):
            status = (TrackStatus.ACTIVE, TrackStatus.DISAPPEARED, TrackStatus.RETIRED)[
                rng.integers(3)
            ]
            tracks[tid] = make_track(
                tid,
                centroid=rng.uniform(-1, 1, 3),
                descriptor=rng.normal(size=DIM),
                label=labels[rng.integers(3)],
                status=status,
                last_seen_time=float(rng.uniform(0.0, now)),
            )
        nodes = [
            make_node(
                100 + j,
                centroid=rng.uniform(-1, 1, 3),
                f_img=rng.normal(size=DIM),
                label=labels[rng.integers(3)],
            )
            for j in range(n_nodes)
        ]

        out = associate(tracks, nodes, W, now=now)

        rows = eligible_tracks(tracks, W, now)
        cost = np.array(
            [
                [
                    temporal_cost_oracle(
                        t.centroid, t.descriptor, t.label,
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
        assert [(t, n) for t, n, _ in out.accepted] == [(t, n) for t, n, _ in want]
        for (_, _, got_c), (_, _, want_c) in zip(out.accepted, want):
            assert math.isclose(got_c, want_c, rel_tol=1e-12)

        matched_t = {t for t, _, _ in want}
        matched_n = {n for _, n, _ in want}
        assert out.new_nodes == tuple(n.node_id for n in nodes if n.node_id not in matched_n)
        assert out.disappeared == tuple(t.track_id for t in rows if t.track_id not in matched_t)


def test_outcome_partition_invariant():
    rng = np.random.default_rng(5150)
    labels = ("red mug", "apple")
    for _ in range(60):
        now = 5.0
        tracks = {
            tid: make_track(
                tid,
                centroid=rng.uniform(-1, 1, 3),
                descriptor=rng.normal(size=DIM),
                label=labels[rng.integers(2)],
                status=(TrackStatus.ACTIVE, TrackStatus.DISAPPEARED)[rng.integers(2)],
                last_seen_time=float(rng.uniform(0.0, now)),
            )
            for tid in range(1, int(rng.integers(1, 6)))
        }
        nodes = [
            make_node(
                200 + j,
                centroid=rng.uniform(-1, 1, 3),
                f_img=rng.normal(size=DIM),
                label=labels[rng.integers(2)],
            )
            for j in range(int(rng.integers(0, 6)))
        ]
        out = associate(tracks, nodes, W, now=now)
        eligible = {t.track_id for t in eligible_tracks(tracks, W, now)}
        matched_t = {t for t, _, _ in out.accepted}
        matched_n = {n for _, n, _ in out.accepted}
        assert matched_t | set(out.disappeared) == eligible
        assert not matched_t & set(out.disappeared)
        assert matched_n | set(out.new_nodes) == {n.node_id for n in nodes}
        assert not matched_n & set(out.new_nodes)
        assert all(c < W.eta for _, _, c in out.accepted)
