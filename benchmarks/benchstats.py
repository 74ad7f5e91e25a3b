"""Summary statistics for the benchmark report.

Pure standard library, so the orchestrator can use it without importing
numpy. Timings are summarized as a median plus the highest percentile that
still has at least ten samples beyond it, always with the sample count.
"""

from __future__ import annotations

import math
import statistics

# Percentiles considered for the tail figure, lowest first.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
MIN_BEYOND = 10


def percentile(values, p: float) -> float:
    """Linear-interpolated percentile ``p`` (0..100) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = (len(ordered) - 1) * p / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def tail_percentile(values) -> float | None:
    """Highest percentile of ``TAIL_LADDER`` with at least ten samples beyond it.

    ``n * (1 - p/100) >= 10`` must hold; None when even the lowest rung has
    too few samples (fewer than 20).
    """
    n = len(values)
    best = None
    for p in TAIL_LADDER:
        if n * (1.0 - p / 100.0) >= MIN_BEYOND - 1e-9:
            best = p
    return best


def describe(values, unit: str) -> str:
    """``median X unit, pP Y, n=N`` following the percentile rule."""
    n = len(values)
    if n == 0:
        return "no samples"
    text = f"median {statistics.median(values):.6g} {unit}"
    p = tail_percentile(values)
    if p is not None and p > 50.0:
        text += f", p{p:g} {percentile(values, p):.6g} {unit}"
    return text + f", n={n}"

