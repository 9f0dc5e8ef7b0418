"""Small statistics used by the benchmark: medians, the tail-percentile
rule and log-log growth slopes."""

from __future__ import annotations

import math
import statistics

TAIL_BEYOND = 10


def tail(samples: list[float]) -> tuple[float, float, int]:
    """The sample at the highest percentile with at least ten samples
    beyond it, as (value, percentile, sample count).

    With fewer than twenty samples that percentile would fall below the
    median, so the median is reported instead, with percentile 50.
    """
    ordered = sorted(samples)
    count = len(ordered)
    rank = count - TAIL_BEYOND  # 1-based rank with TAIL_BEYOND samples above it
    if 2 * rank < count:
        return statistics.median(ordered), 50.0, count
    return ordered[rank - 1], 100.0 * rank / count, count


def slope(sizes: list[float], times: list[float]) -> float:
    """Least-squares exponent b of times ~ c * sizes**b."""
    xs = [math.log(s) for s in sizes]
    ys = [math.log(t) for t in times]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)
