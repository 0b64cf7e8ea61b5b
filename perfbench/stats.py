"""Summaries of timing samples: median plus the highest tail percentile the
sample count supports."""

from __future__ import annotations

import statistics

# candidate tail percentiles, reported only with at least ten samples beyond them
PERCENTILES = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
MIN_BEYOND = 10


def _rank(p: float, n: int) -> int:
    """1-based nearest rank of the ``p``-th percentile of ``n`` samples, in
    exact integer arithmetic (percentiles have at most one decimal)."""
    return max(1, -(-round(p * 10) * n // 1000))


def tail_percentile(n: int) -> float | None:
    """Highest candidate percentile with at least ``MIN_BEYOND`` of ``n``
    samples above it, or None when ``n`` is too small for any."""
    fitting = [p for p in PERCENTILES if n - _rank(p, n) >= MIN_BEYOND]
    return max(fitting, default=None)


def nearest_rank(samples, p: float) -> float:
    """The ``p``-th percentile by the nearest-rank rule (always a sample)."""
    ordered = sorted(samples)
    return ordered[_rank(p, len(ordered)) - 1]


def summarize(samples) -> dict:
    """Median, tail percentile (or None) and sample count of a nonempty list."""
    samples = list(samples)
    if not samples:
        raise ValueError("no samples to summarize")
    p = tail_percentile(len(samples))
    return {
        "median": statistics.median(samples),
        "percentile": p,
        "percentile_value": nearest_rank(samples, p) if p is not None else None,
        "n": len(samples),
    }
