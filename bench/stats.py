"""Order statistics and span arithmetic used by the benchmark report."""

from __future__ import annotations

import math
from typing import Sequence


def median(xs: Sequence[float]) -> float:
    s = sorted(xs)
    if not s:
        raise ValueError("median of an empty sample")
    mid = len(s) // 2
    return s[mid] if len(s) % 2 else (s[mid - 1] + s[mid]) / 2


def nearest_rank(xs: Sequence[float], pct: float) -> float:
    """The smallest sample with at least pct percent of the samples at or below it."""
    s = sorted(xs)
    if not s:
        raise ValueError("percentile of an empty sample")
    k = math.ceil(pct / 100 * len(s) - 1e-9)
    return s[min(max(k, 1), len(s)) - 1]


def tail_percentile(n_min: int, beyond: int = 10) -> float:
    """Highest percentile with `beyond` values above it among n_min values.

    Below 2 * beyond samples that percentile would sit under the median, so
    the tail is the maximum (100) instead.
    """
    if n_min < 2 * beyond:
        return 100.0
    return 100.0 * (n_min - beyond) / n_min


def self_times(parents: Sequence[int], durations: Sequence[float]) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Spans come from one thread, so children nest inside their parent and do
    not overlap; a parent index of -1 marks a top-level span.
    """
    out = list(durations)
    for p, d in zip(parents, durations):
        if p >= 0:
            out[p] -= d
    return out


def outermost_time(
    names: Sequence[int], parents: Sequence[int], durations: Sequence[float], group: set
) -> float:
    """Total duration of spans named in group that have no ancestor in group.

    Parents precede their children in the span order, so one forward sweep
    knows, for every span, whether some ancestor is already in the group.
    """
    inside = [False] * len(names)
    total = 0.0
    for i, (name, p) in enumerate(zip(names, parents)):
        covered = p >= 0 and (inside[p] or names[p] in group)
        inside[i] = covered
        if name in group and not covered:
            total += durations[i]
    return total
