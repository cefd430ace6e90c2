"""Work counts, without a clock: how ingest's work grows with the graph and an export's with its window.

Each guard counts the ``sys.settrace`` line events inside ``stovsg`` of one
call, which gives the same number on every run, and prints the counts it
compared, so a failure names the path that grew.
"""

from __future__ import annotations

import os
import sys
from dataclasses import replace

import numpy as np

import stovsg
from stovsg import (
    CameraModel,
    Command,
    EngineConfig,
    SceneGraph4D,
    empty_graph,
    extract_subgraph,
    generate_stream,
    ingest_frame,
    ingest_sequence,
    serialize_subgraph,
)
from stovsg.model import POSE_TOL
from stovsg.sim import LatencyProfile, NoiseModel, ScenarioSpec, SimObject

from churn_probe import churn_inputs
from conftest import axis, make_camera, make_detection, make_frame_input

PACKAGE = os.path.dirname(stovsg.__file__) + os.sep
N = 200  # the short window or graph; the long one is 8N frames


def line_events(call) -> int:
    """How many lines inside ``stovsg`` run during ``call()``."""
    count = 0

    def local(frame, event, arg):
        nonlocal count
        count += event == "line"
        return local

    sys.settrace(lambda frame, event, arg: local if frame.f_code.co_filename.startswith(PACKAGE) else None)
    try:
        call()
    finally:
        sys.settrace(None)
    return count


def one_object(step: float):
    """One mug, seen in each of 9N + 1 frames a second apart; the camera moves ``step`` metres a frame along x."""
    inputs = [
        make_frame_input(
            float(k + 1),
            detections=(make_detection(x0=10, f_txt=axis(0)),),
            camera=make_camera(translation=(step * k, 0.0, 0.0)),
        )
        for k in range(9 * N + 1)
    ]
    return ingest_sequence(empty_graph(), inputs, EngineConfig())


def export_work(graph, window: int) -> tuple[int, int]:
    """History entries and line events of one export whose aligned frame is ``window`` frames behind the newest."""
    aligned = graph.frames[-1 - window]
    command = Command(text="red mug", embedding=axis(0), issue_time=aligned.obs_time + 0.1)
    sub = extract_subgraph(graph, command)
    assert sub.aligned_frame_index == aligned.frame_index
    (entries,) = sub.history.values()
    return len(entries), line_events(lambda: serialize_subgraph(extract_subgraph(graph, command)))


def test_an_exports_work_follows_its_tracks_keyframes_not_its_windows_frames():
    still, moving = one_object(0.0), one_object(1.2 * POSE_TOL)
    (still_short, still_short_lines), (still_long, still_long_lines) = (export_work(still, w) for w in (N, 8 * N))
    (moving_short, _), (moving_long, _) = (export_work(moving, w) for w in (N, 8 * N))
    print(
        f"still object, window {N} -> {8 * N} frames: {still_short} -> {still_long} entries, "
        f"{still_short_lines} -> {still_long_lines} line events; "
        f"moving object: {moving_short} -> {moving_long} entries"
    )
    # a still object's history is its first and last observation, and the window's length costs bisection steps
    assert still_short == still_long == 2
    assert abs(still_long_lines - still_short_lines) <= 30
    # an object that leaves the band every frame has a keyframe in every frame of the window
    assert (moving_short, moving_long) == (N + 1, 8 * N + 1)


def table_scene(frames: int):
    """A long_stream-like stream of ``frames + 1`` frames at 10 fps that sees nothing for its first half.

    Then a mug holds for 2.5 s and slides for 2.5 s, to and fro, a block
    stays put and a plate is hidden for the last 3 s of every 10 s (inside
    the grace period), each 10 s cycle timed from the end of the empty half.
    So the last frame falls at the same point of a cycle for every
    ``frames`` that is a multiple of 200, and the first node comes after an
    empty stretch that grows with the stream.
    """
    start, dim, size = frames / 20.0, 16, (0.08, 0.08, 0.08)
    mug_a, mug_b = np.array([-0.40, 0.12, 1.6]), np.array([-0.10, 0.12, 1.5])
    cycles = [start + 10.0 * j for j in range(frames // 100 + 1)]
    sweep = ((t + dt, at) for t in cycles for dt, at in ((2.5, mug_a), (5.0, mug_b), (7.5, mug_b), (10.0, mug_a)))
    block, plate = ((0.0, [0.35, 0.12, 1.5]),), ((0.0, [0.0, -0.22, 1.4]),)
    objects = (
        SimObject(1, "red mug", size, axis(0, dim), axis(1, dim), ((start, mug_a), *sweep), ((start, np.inf),)),
        SimObject(2, "yellow block", size, axis(2, dim), axis(3, dim), block, ((start, np.inf),)),
        SimObject(3, "green plate", size, axis(4, dim), axis(5, dim), plate, tuple((t, t + 7.0) for t in cycles)),
    )
    camera = CameraModel(fx=130.0, fy=130.0, cx=80.0, cy=60.0)
    spec = ScenarioSpec(
        "long_stream", 7, (frames + 1) / 10.0, 10.0, 160, 120, dim, camera, objects,
        noise=NoiseModel(centroid_sigma=0.003, feature_sigma=0.01),
        uplink=LatencyProfile.constant(0.5),
        downlink=LatencyProfile.constant(0.5),
    )
    return generate_stream(spec)[0]


def ingest_work(graph, inputs, frames: int, config) -> tuple[int, SceneGraph4D]:
    """Line events of ingesting frame ``frames + 1`` of ``inputs`` after the first ``frames``, and the graph then.

    ``graph`` holds a prefix of ``inputs``; the frames it lacks up to ``frames`` are fed first.
    """
    graph = ingest_sequence(graph, inputs[len(graph.frames) : frames], config)
    after = []
    lines = line_events(lambda: after.append(ingest_frame(graph, inputs[frames], config)))
    return lines, after[0]


def test_ingesting_a_frame_costs_the_same_at_n_and_8n_frames():
    config = EngineConfig()
    (short, _), (long, _) = (ingest_work(empty_graph(), table_scene(n), n, config) for n in (N, 8 * N))
    # a grace period between two frame intervals, so that rounding in the capture times moves no retirement
    config = replace(config, temporal=replace(config.temporal, grace_period=1.05))
    churn = churn_inputs(8 * N + 1)
    churn_short, graph = ingest_work(empty_graph(), churn, N, config)
    churn_long, graph = ingest_work(graph, churn, 8 * N, config)
    opened, held = graph.next_track_id - 1, len(graph.tracks)
    print(
        f"ingest of one frame, {N} -> {8 * N} frames: table scene {short} -> {long} line events; "
        f"churn {churn_short} -> {churn_long} line events ({opened} tracks opened, {held} held)"
    )
    assert abs(long - short) <= 30
    assert abs(churn_long - churn_short) <= 30
