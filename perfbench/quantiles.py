"""Order statistics for benchmark samples."""

from __future__ import annotations

import math
import statistics
from typing import Sequence

MIN_TAIL = 10  # samples that must lie beyond a reported percentile


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile (0 < q < 100).

    Refuses a tail that has fewer than ``MIN_TAIL`` samples beyond the
    returned rank, because such a percentile describes no tail at all.
    """
    if not 0 < q < 100:
        raise ValueError(f"percentile must be in (0, 100), got {q}")
    n = len(samples)
    rank = max(1, math.ceil(q / 100.0 * n))
    if n - rank < MIN_TAIL:
        raise ValueError(
            f"p{q:g} of {n} samples leaves {n - rank} beyond it; at least {MIN_TAIL} are needed"
        )
    return sorted(samples)[rank - 1]


def median(samples: Sequence[float]) -> float:
    if not samples:
        raise ValueError("median of no samples")
    return statistics.median(samples)


def spread(values: Sequence[float]) -> tuple[float, float, float, float]:
    """(median, first quartile, third quartile, IQR / median) of run results."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return mid, q1, q3, (q3 - q1) / mid if mid else math.inf
