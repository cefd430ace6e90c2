"""Work counts, without a clock: how an export's work grows with its window.

Each guard counts the ``sys.settrace`` line events inside ``stovsg`` of one
call, which gives the same number on every run, and prints the counts it
compared, so a failure names the path that grew.
"""

from __future__ import annotations

import os
import sys

import stovsg
from stovsg import Command, EngineConfig, empty_graph, extract_subgraph, ingest_sequence, serialize_subgraph
from stovsg.model import POSE_TOL

from conftest import axis, make_camera, make_detection, make_frame_input

PACKAGE = os.path.dirname(stovsg.__file__) + os.sep
N = 200  # the short window; the long one is 8N frames


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
