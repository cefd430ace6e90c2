"""A fixed calibration battery that tracks how fast this machine runs right now.

The 2-core virtual machine it was built on switches between a fast and a
slow state (the battery reads about 3.5 ms in one and 6 ms in the other),
within a run and between runs; a state may last for seconds or flip back
within half a second.  Each measuring process times this battery
between operations (never inside one), and :class:`Scale` turns a timing
into its value at the reference speed: it multiplies by ``REFERENCE_MS``
over the median battery time within ``WINDOW_S`` of the timed interval.
The battery uses no engine code, so no change to the engine can move it:
it mixes the interpreter work, JSON encoding and decoding, and small
NumPy calls that the engine's own time is made of.
"""

from __future__ import annotations

import bisect
import gc
import json
import statistics
import time

import numpy as np

REFERENCE_MS = 4.0  # battery time at the reference speed
WINDOW_S = 0.25  # battery readings this close to an interval speak for it


def _work() -> float:
    items = [{"id": i, "xyz": [i * 0.5, i * 0.25, 1.0]} for i in range(1000)]
    back = json.loads(json.dumps(items))
    origin = np.arange(3.0)
    acc = 0.0
    for item in back[:250]:
        acc += float(np.linalg.norm(np.asarray(item["xyz"]) - origin))
    return acc


def battery_ms() -> float:
    """Time one pass of the battery, with the collector held off so the engine's heap cannot slow it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _work()
        return 1000.0 * (time.perf_counter() - start)
    finally:
        if enabled:
            gc.enable()


class Scale:
    """Factor that brings a timing taken at a given moment to the reference speed."""

    def __init__(self, times: list, readings_ms: list) -> None:
        if not readings_ms:
            raise ValueError("no battery readings to scale by")
        self.times, self.readings = times, readings_ms

    def __call__(self, start: float, end: float) -> float:
        lo = bisect.bisect_left(self.times, start - WINDOW_S)
        hi = bisect.bisect_right(self.times, end + WINDOW_S)
        return REFERENCE_MS / statistics.median(self.readings[lo:hi] or self.readings)
