"""Time ingest on a churning scene: one static object, and one new transient object in every frame.

Usage::

    PYTHONPATH=src python tests/churn_probe.py [FRAMES]

Each transient is seen in one frame only, with a label and an image
feature that no other object comes near, so it opens a track of its own
that disappears in the next frame and retires once its grace period has
passed.  The stream runs at 10 frames per second with a constant 0.5 s
transmission latency and the default engine config (10 s grace period),
so at most 10 × 10 + 2 tracks can be live at once however long the
stream.  ``FRAMES`` (default 5 000) frames are ingested one at a time;
the probe prints the median ingest time per 1 000-frame block, the last
block's median over the first's, and the tracks opened and held at the
end.  Pytest does not collect this file.
"""

from __future__ import annotations

import statistics
import sys
import time

import numpy as np

from stovsg import (
    BoundingBox2D,
    CameraModel,
    Detection,
    DepthImage,
    EngineConfig,
    FrameInput,
    LatencyTag,
    PixelMask,
    empty_graph,
    ingest_frame,
)

FPS = 10.0
LATENCY = 0.5
DIM = 128  # transient k has feature axis 1 + k % 127: none shares one with a transient still in its grace period
BLOCK = 1000

_CAMERA = CameraModel(fx=100.0, fy=100.0, cx=64.0, cy=48.0)
_DEPTH = DepthImage(np.full((96, 128), 2.0, dtype=np.float32))


def _detection(x0: int, y0: int, label: str, axis: int) -> Detection:
    uu, vv = np.meshgrid(np.arange(x0, x0 + 4), np.arange(y0, y0 + 4))
    feature = np.zeros(DIM)
    feature[axis] = 1.0
    mask = PixelMask.from_pixels(np.stack([uu.ravel(), vv.ravel()], axis=1))
    return Detection(BoundingBox2D(x0, y0, x0 + 4.0, y0 + 4.0), mask, label, feature, feature)


def transient_feature_axis(k: int) -> int:
    """The feature axis of transient ``k`` (counted from 0); the static object has axis 0."""
    return 1 + k % (DIM - 1)


def churn_inputs(frames: int) -> list[FrameInput]:
    """Frame ``k`` (from 1), captured at ``k / FPS``, holds the static object and transient ``k - 1``."""
    static = _detection(10, 10, "table", 0)
    return [
        FrameInput(
            LatencyTag(k / FPS, LATENCY),
            _CAMERA,
            _DEPTH,
            (static, _detection(100, 60, f"part {k - 1}", transient_feature_axis(k - 1))),
        )
        for k in range(1, frames + 1)
    ]


def main(frames: int = 5000) -> None:
    config = EngineConfig()
    graph = empty_graph()
    costs = []
    for frame_input in churn_inputs(frames):
        start = time.perf_counter()
        graph = ingest_frame(graph, frame_input, config)
        costs.append(time.perf_counter() - start)
    medians = [statistics.median(costs[k : k + BLOCK]) * 1e3 for k in range(0, len(costs), BLOCK)]
    for k, ms in enumerate(medians):
        print(f"frames {k * BLOCK + 1}-{min((k + 1) * BLOCK, frames)}: {ms:.3f} ms per frame (median)")
    print(f"last block over first: {medians[-1] / medians[0]:.2f}x")
    print(f"tracks opened: {graph.next_track_id - 1}, held: {len(graph.tracks)}")


if __name__ == "__main__":
    if len(sys.argv) > 2:
        raise SystemExit(__doc__)
    main(int(sys.argv[1]) if len(sys.argv) == 2 else 5000)
