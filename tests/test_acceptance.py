"""Top-level acceptance checks, one test per release criterion.

Run ``pytest -v tests/test_acceptance.py`` to get one pass/fail line per
criterion.  Each test is self-contained and recomputes its expectations
with straight-line arithmetic or exhaustive enumeration, never by calling
the code under test a second way.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from stovsg import (
    APPEARED,
    BoundingBox2D,
    CameraModel,
    EngineConfig,
    FAMILIES,
    FAMILY_DISTRACTOR,
    FAMILY_MOVED_REFERENCE,
    FAMILY_OCCLUSION,
    FAMILY_TARGET_MOVED,
    LatencyProfile,
    SAME_INSTANCE,
    ScenarioSpec,
    SimCommand,
    SimObject,
    TemporalWeights,
    associate,
    commands_from_scenario,
    eligible_tracks,
    empty_graph,
    extract_subgraph,
    generate_stream,
    ground_command,
    ingest_frame,
    ingest_sequence,
    iou,
    lift_pixel,
    make_random_scenario,
    make_scenario,
    min_cost_assignment,
    parse_stream,
    parse_subgraph,
    project_point,
    read_graph,
    read_scenario,
    run_suite,
    scenario_from_dict,
    scenario_to_dict,
    serialize_subgraph,
    spatial_cost,
    SpatialWeights,
    temporal_cost,
    write_graph,
    write_scenario,
    write_stream,
)
from conftest import axis, make_node, make_track
from oracles import random_rotation

SWEEP_DELAYS = (0.25, 0.5, 1.0, 2.0, 5.0)


def test_criterion_01_assignment_matches_exhaustive_minimum():
    rng = np.random.default_rng(20260801)
    start = time.perf_counter()
    checked = 0
    for n in range(1, 8):
        perms = np.array(list(itertools.permutations(range(n))), dtype=np.intp)
        rows = np.arange(n)
        for _ in range(200):
            # quarter-integer entries: every value and every <=7-term total
            # is exact in float64, so equality at 0 tolerance is meaningful
            cost = rng.integers(0, 80, size=(n, n)).astype(np.float64) * 0.25
            exhaustive = float(cost[rows, perms].sum(axis=1).min())
            pairs = min_cost_assignment(cost)
            total = float(sum(cost[i, j] for i, j in pairs))
            assert total == exhaustive
            checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(f"criterion 01: {checked} matrices, sizes 1x1..7x7, exact minima, {elapsed:.2f}s")


def test_criterion_02_pixel_lift_reprojects_within_1e9_px():
    rng = np.random.default_rng(20260802)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        camera = CameraModel(
            fx=float(rng.uniform(200, 1200)),
            fy=float(rng.uniform(200, 1200)),
            cx=float(rng.uniform(80, 640)),
            cy=float(rng.uniform(60, 480)),
            rotation=random_rotation(rng),
            translation=rng.uniform(-2.0, 2.0, 3),
        )
        u = float(rng.uniform(0.0, 2.0 * camera.cx))
        v = float(rng.uniform(0.0, 2.0 * camera.cy))
        d = float(rng.uniform(0.05, 20.0))
        u2, v2, d2 = project_point(lift_pixel(u, v, d, camera), camera)
        worst = max(worst, abs(u2 - u), abs(v2 - v))
        assert abs(u2 - u) <= 1e-9 and abs(v2 - v) <= 1e-9
        assert abs(d2 - d) <= 1e-9 * d
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"criterion 02: 1000 lift/reproject samples, worst {worst:.2e}px, {elapsed:.2f}s")


def test_criterion_03_worked_examples_match_straight_line_arithmetic():
    # pixel back-projection: ((u-cx)d/fx, (v-cy)d/fy, d)
    cam = CameraModel(fx=600.0, fy=600.0, cx=320.0, cy=240.0)
    got = lift_pixel(920.0, 240.0, 1.2, cam)
    want = np.array([(920.0 - 320.0) * 1.2 / 600.0, (240.0 - 240.0) * 1.2 / 600.0, 1.2])
    assert np.allclose(got, want, rtol=1e-12, atol=1e-12)

    # box overlap: intersection 1x2, union 4+4-2
    a = BoundingBox2D(0.0, 0.0, 2.0, 2.0)
    b = BoundingBox2D(1.0, 0.0, 3.0, 2.0)
    inter = (min(2.0, 3.0) - max(0.0, 1.0)) * (min(2.0, 2.0) - max(0.0, 0.0))
    union = 2.0 * 2.0 + 2.0 * 2.0 - inter
    assert math.isclose(iou(a, b), inter / union, rel_tol=1e-12)

    # zone-alignment cost at unit weights: overlap + log-area + offset terms
    want_cost = (
        (1.0 - inter / union)
        + abs(math.log((2.0 * 2.0) / (2.0 * 2.0)))
        + math.hypot(2.0 - 1.0, 1.0 - 1.0) / math.sqrt(2.0**2 + 2.0**2)
    )
    got_cost = spatial_cost(a, b, SpatialWeights(1.0, 1.0, 1.0))
    assert math.isclose(got_cost, want_cost, rel_tol=1e-12)

    # identity-matching cost: half of d_max away, orthogonal looks, new label
    track = make_track(1, centroid=(0.0, 0.0, 1.0), descriptor=axis(1), label="red mug")
    node = make_node(7, centroid=(0.5, 0.0, 1.0), f_img=axis(2), label="apple")
    got_cost = temporal_cost(track, node, TemporalWeights())
    want_cost = 0.4 * (0.5 / 1.0) + 0.4 * (1.0 - 0.0) + 0.2
    assert math.isclose(got_cost, want_cost, rel_tol=1e-12)

    # 2x2 assignment: the swapped pairing (2+2) beats the diagonal (1+4)
    cost = np.array([[1.0, 2.0], [2.0, 4.0]])
    pairs = min_cost_assignment(cost)
    assert pairs == [(0, 1), (1, 0)]
    assert math.isclose(cost[0, 1] + cost[1, 0], 4.0, rel_tol=1e-12)
    assert cost[0, 0] + cost[1, 1] == 5.0
    print("criterion 03: 5 worked examples within 1e-12 of hand arithmetic")


def test_criterion_04_association_partitions_nodes_and_tracks():
    config = EngineConfig()
    violations = 0
    frames_checked = 0
    for seed in range(100):
        spec = make_random_scenario(seed)
        inputs, _ = generate_stream(spec)
        graph = empty_graph()
        for frame_input in inputs:
            before, seen = graph.tracks, len(graph.temporal_edges)
            graph = ingest_frame(graph, frame_input, config)
            frame = graph.frames[-1]
            now = frame.latency_tag.observed_time
            outcome = associate(before, frame.nodes, config.temporal, now=now)
            eligible = {t.track_id for t in eligible_tracks(before, config.temporal, now)}
            matched_t = [tid for tid, _, _ in outcome.accepted]
            matched_n = [nid for _, nid, _ in outcome.accepted]
            node_ids = sorted(n.node_id for n in frame.nodes)
            ok = (
                len(set(matched_t)) == len(matched_t)
                and len(set(matched_n)) == len(matched_n)
                and set(matched_t) | set(outcome.disappeared) == eligible
                and not set(matched_t) & set(outcome.disappeared)
                and sorted(matched_n + list(outcome.new_nodes)) == node_ids
                and not set(matched_n) & set(outcome.new_nodes)
            )
            # the stored graph must agree with the recomputed outcome: the frame's edges extend and open its tracks
            added = [(e.relation, e.track_id, e.dst_node) for e in graph.temporal_edges[seen:]]
            for tid, nid, _ in outcome.accepted:
                ok = ok and (SAME_INSTANCE, tid, nid) in added
            for nid in outcome.new_nodes:
                ok = ok and any(relation == APPEARED and dst == nid for relation, _, dst in added)
            violations += 0 if ok else 1
            frames_checked += 1
    assert violations == 0
    print(f"criterion 04: {frames_checked} frames across 100 scenarios, 0 partition violations")


def test_criterion_05_noiseless_sweep_has_perfect_identity_and_grounding():
    start = time.perf_counter()
    suite = run_suite(
        families=FAMILIES,
        delays=SWEEP_DELAYS,
        trials=1,
        base_seed=0,
        config=EngineConfig(),
        latency_aware=True,
    )
    elapsed = time.perf_counter() - start
    assert len(suite.rows) == len(FAMILIES) * len(SWEEP_DELAYS)
    for row in suite.rows:
        assert row.temporal_accuracy == 1.0, row
        assert row.grounding_success_rate == 1.0, row
    assert elapsed < 30.0
    print(f"criterion 05: {len(suite.rows)} family/delay cells all perfect, {elapsed:.1f}s")


def test_criterion_06_latency_awareness_flips_grounding_success():
    families = (FAMILY_TARGET_MOVED, FAMILY_DISTRACTOR)
    kwargs = dict(families=families, delays=SWEEP_DELAYS, trials=1, base_seed=0, config=EngineConfig())
    aware = run_suite(latency_aware=True, **kwargs)
    naive = run_suite(latency_aware=False, **kwargs)
    for row in aware.rows:
        assert row.grounding_success_rate == 1.0, row
    for row in naive.rows:
        assert row.grounding_success_rate == 0.0, row
    print(
        f"criterion 06: {len(aware.rows)} adversarial cells, grounding 1.0 aware vs 0.0 naive"
    )


def test_criterion_07_command_issued_mid_stream_aligns_to_issue_time_frame():
    emb = np.zeros(16)
    emb[0] = 1.0
    img = np.zeros(16)
    img[1] = 1.0
    mug = SimObject(
        true_id=1,
        label="red mug",
        size=(0.12, 0.12, 0.12),
        txt_archetype=emb,
        img_archetype=img,
        waypoints=((0.0, np.array([0.1, 0.0, 1.5])),),
    )
    spec = ScenarioSpec(
        family="scripted",
        seed=0,
        duration=8.0,
        frame_rate=10.0,
        image_width=160,
        image_height=120,
        feature_dim=16,
        camera=CameraModel(fx=130.0, fy=130.0, cx=80.0, cy=60.0),
        objects=(mug,),
        uplink=LatencyProfile.constant(0.5),
        downlink=LatencyProfile.constant(0.5),
        commands=(SimCommand("pick up the red mug", emb, 1, 5.5),),
    )
    inputs, _ = generate_stream(spec)
    graph = ingest_sequence(empty_graph(), inputs, EngineConfig())
    command = commands_from_scenario(spec)[0]
    assert command.issue_time == 5.5
    assert command.arrival_time == 6.0  # 500 ms downlink

    result = ground_command(
        graph, command, EngineConfig().query, latency_aware=True, as_of=command.arrival_time
    )
    aligned = next(f for f in graph.frames if f.frame_index == result.aligned_frame_index)
    # the operator saw the 5.0 s capture at 5.5 s; newer frames were in flight
    assert aligned.capture_time == 5.0
    assert aligned.latency_tag.observed_time == 5.5
    assert result.track_id == 1 and result.status == "live"
    print("criterion 07: issue 5.5s + 0.5s links -> arrival 6.0s, aligned to the 5.0s capture")


def _run_cli(*args) -> subprocess.CompletedProcess:
    proc = subprocess.run(
        [sys.executable, "-m", "stovsg", *map(str, args)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return proc


def _pipeline_outputs(base: Path) -> dict[str, bytes]:
    sim_dir = base / "sim"
    _run_cli(
        "simulate", "--family", FAMILY_TARGET_MOVED, "--seed", 11, "--delay", 0.5,
        "--out-dir", sim_dir,
    )
    _run_cli("build", "--stream", sim_dir / "stream.jsonl", "--out", base / "graph.json")
    _run_cli(
        "score",
        "--graph", base / "graph.json",
        "--truth", sim_dir / "truth.json",
        "--scenario", sim_dir / "scenario.json",
        "--out", base / "metrics.json",
    )
    return {
        str(p.relative_to(base)): p.read_bytes() for p in sorted(base.rglob("*")) if p.is_file()
    }


def test_criterion_08_cli_pipeline_is_byte_deterministic(tmp_path):
    first = _pipeline_outputs(tmp_path / "a")
    second = _pipeline_outputs(tmp_path / "b")
    assert sorted(first) == sorted(second)
    for name in first:
        assert first[name] == second[name], f"{name} differs between runs"
    assert json.loads(first["metrics.json"])["grounding_success_rate"] == 1.0
    print(f"criterion 08: {len(first)} pipeline files byte-identical across two runs")


def test_criterion_09_all_file_formats_round_trip(tmp_path):
    spec = make_scenario(FAMILY_MOVED_REFERENCE, {"seed": 3, "delay": 0.5})

    # scenario: dict level and file level
    assert scenario_to_dict(scenario_from_dict(scenario_to_dict(spec))) == scenario_to_dict(spec)
    write_scenario(spec, tmp_path / "scenario.json")
    write_scenario(read_scenario(tmp_path / "scenario.json"), tmp_path / "scenario2.json")
    assert (tmp_path / "scenario.json").read_bytes() == (tmp_path / "scenario2.json").read_bytes()

    # stream (plus its depth sidecars): parse and re-write byte-identically
    inputs, _ = generate_stream(spec)
    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    dir_a.mkdir(), dir_b.mkdir()
    write_stream(inputs, dir_a / "stream.jsonl")
    _, parsed = parse_stream(dir_a / "stream.jsonl")
    write_stream(parsed, dir_b / "stream.jsonl")
    files_a = {str(p.relative_to(dir_a)): p.read_bytes() for p in sorted(dir_a.rglob("*")) if p.is_file()}
    files_b = {str(p.relative_to(dir_b)): p.read_bytes() for p in sorted(dir_b.rglob("*")) if p.is_file()}
    assert files_a == files_b and len(files_a) > 1

    # graph
    graph = ingest_sequence(empty_graph(), inputs, EngineConfig())
    write_graph(graph, tmp_path / "graph.json")
    write_graph(read_graph(tmp_path / "graph.json"), tmp_path / "graph2.json")
    assert (tmp_path / "graph.json").read_bytes() == (tmp_path / "graph2.json").read_bytes()

    # subgraph: canonical form is a serialize-parse fixed point
    command = commands_from_scenario(spec)[0]
    sub = extract_subgraph(
        graph, command, EngineConfig().query, latency_aware=True, as_of=command.arrival_time
    )
    text = serialize_subgraph(sub)
    assert serialize_subgraph(parse_subgraph(text)) == text
    print("criterion 09: scenario, stream, graph, and subgraph round-trip losslessly")


def test_criterion_10_grace_period_controls_track_identity():
    # the target is hidden for delay + 1 s: a 2 s occlusion
    spec = make_scenario(FAMILY_OCCLUSION, {"seed": 4, "delay": 1.0})
    inputs, _ = generate_stream(spec)

    # default grace (10 s) comfortably exceeds the 2 s occlusion
    graph = ingest_sequence(empty_graph(), inputs, EngineConfig())
    mug_tracks = [t for t in graph.tracks.values() if t.label == "red mug"]
    assert len(mug_tracks) == 1
    gap_edges = [
        e
        for e in graph.temporal_edges
        if e.relation == SAME_INSTANCE and e.dst_frame - graph.frame_of(e.src_node).frame_index > 1
    ]
    assert len(gap_edges) == 1
    assert gap_edges[0].track_id == mug_tracks[0].track_id

    # grace shorter than the gap: identity must not bridge the occlusion
    short = dataclasses.replace(
        EngineConfig(), temporal=dataclasses.replace(TemporalWeights(), grace_period=0.5)
    )
    graph2 = ingest_sequence(empty_graph(), inputs, short)
    mug_tracks2 = [t for t in graph2.tracks.values() if t.label == "red mug"]
    assert len(mug_tracks2) == 2
    assert not [
        e
        for e in graph2.temporal_edges
        if e.relation == SAME_INSTANCE and e.dst_frame - graph2.frame_of(e.src_node).frame_index > 1
    ]
    print("criterion 10: 2s gap vs grace 10s -> one bridged track; vs grace 0.5s -> two tracks")
