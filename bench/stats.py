"""Latency summaries: the median, and a tail percentile only where at
least ten samples lie beyond it."""

from __future__ import annotations

import math
import statistics

TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0)
MIN_BEYOND = 10


def tail(samples: list[float]) -> tuple[float, float] | None:
    """(q, value) for the highest q in TAIL_PERCENTILES with at least
    MIN_BEYOND samples above its nearest-rank value, else None."""
    xs = sorted(samples)
    n = len(xs)
    for q in TAIL_PERCENTILES:
        rank = math.ceil(q / 100 * n)
        if rank >= 1 and n - rank >= MIN_BEYOND:
            return q, xs[rank - 1]
    return None


def describe(name: str, samples: list[float], unit: str) -> str:
    """One human-readable line: median, sample count, and the tail when
    the rule allows one."""
    if not samples:
        return f"{name}: no samples"
    line = f"{name}: p50 {statistics.median(samples):.3f} {unit} (n={len(samples)}"
    t = tail(samples)
    if t:
        line += f", p{t[0]:g} {t[1]:.3f} {unit}"
    return line + ")"
