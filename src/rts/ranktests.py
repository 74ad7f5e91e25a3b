"""One-sided rank tests for ``rts report``, in numpy and the standard library.

``wilcoxon_greater`` (paired) and ``mann_whitney_greater`` (unpaired) give
the p-value of "the first sample is above" with the method and the
arithmetic that scipy 1.17 picks by default for ``wilcoxon(...,
zero_method="zsplit", alternative="greater")`` and ``mannwhitneyu(...,
alternative="greater")``: bit for bit on the exact and permutation branches,
which are count ratios, and to rounding on the normal approximations, where
the normal tail comes from ``math.erfc`` rather than scipy's ``ndtr``. The
tests hold every branch to scipy.
"""

from __future__ import annotations

import math

import numpy as np


def _average_ranks(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """1-based ranks of ``values``, ties sharing their mean rank, and the size of each group of equal values."""
    _, group, counts = np.unique(values, return_inverse=True, return_counts=True)
    return (np.cumsum(counts) - (counts - 1) / 2.0)[group], counts


def _normal_sf(z: float) -> float:
    return 0.5 * math.erfc(z / math.sqrt(2.0))


def wilcoxon_greater(diff: np.ndarray) -> float:
    """P-value of 'diff is above 0' by the signed-rank test, each zero's rank split half to either side.

    Exact for at most 50 pairs with no tied |diff| and no zero; else every
    sign flip for at most 13 pairs; else the normal approximation with the
    tie-corrected standard error and no continuity correction.
    """
    n = diff.size
    ranks, counts = _average_ranks(np.abs(diff))
    zeros = diff == 0
    zero_half = ranks[zeros].sum() / 2
    r_plus = ranks[diff > 0].sum() + zero_half
    if n <= 50 and counts.size == n and not zeros.any():
        # halving recursion: the distribution of r_plus over n ranks, each equally likely in or out
        pmf = np.ones(1)
        for size in range(1, n + 1):
            prev, pmf = pmf, np.zeros(size * (size + 1) // 2 + 1)
            pmf[:prev.size] = prev * 0.5
            pmf[-prev.size:] += prev * 0.5
        k = int(r_plus)
        return float(pmf[k:].sum() if k <= n * (n + 1) / 4 else 1 - pmf[:k].sum())
    if n <= 13:
        # every sign flip; the statistics are half-integers, so each sum is exact
        flips = (np.arange(2**n)[:, None] >> np.arange(n)) & 1
        null = flips @ np.where(zeros, 0.0, ranks) + zero_half
        tolerance = abs(np.finfo(np.float64).eps * 100 * r_plus)
        return np.count_nonzero(null >= r_plus - tolerance) / 2**n
    variance = (n * (n + 1.0) * (2.0 * n + 1.0) - np.sum(counts**3 - counts) / 2) / 24
    return _normal_sf((r_plus - n * (n + 1.0) * 0.25) / math.sqrt(variance))


def mann_whitney_greater(x: np.ndarray, y: np.ndarray) -> float:
    """P-value of 'x is above y' by the rank-sum (Mann-Whitney U) test.

    Exact when either sample has at most 8 values and no two values tie; else
    the normal approximation with the tie term and a continuity correction.
    """
    n1, n2 = x.size, y.size
    ranks, counts = _average_ranks(np.concatenate([x, y]))
    u = ranks[:n1].sum() - n1 * (n1 + 1) / 2
    if (n1 > 8 and n2 > 8) or counts.size < n1 + n2:
        n = n1 + n2
        tie_term = np.sum(counts**3 - counts)
        scale = math.sqrt(n1 * n2 / 12 * ((n + 1) - tie_term / (n * (n - 1))))
        return _normal_sf((u - n1 * n2 / 2 - 0.5) / scale)
    # Löffler's recursion for the number of orderings with each U up to the
    # tail's end, in uint64 until it would overflow; P(U >= u) = P(U <= n1·n2 − u)
    small, large = min(n1, n2), max(n1, n2)
    k = int(u)
    top = min(k, small * large - k)
    sigma = np.zeros(top + 1, dtype=int)
    for step in range(1, small + 1):
        sigma[step::step] += step
    for step in range(large + 1, large + small + 1):
        sigma[step::step] -= step
    ways = np.zeros(top + 1, dtype=np.uint64)
    ways[0] = 1
    for j in range(1, top + 1):
        value = np.dot(ways[:j], sigma[j:0:-1]) / j
        if value > np.iinfo(np.uint64).max and ways.dtype == np.uint64:
            ways = ways.astype(float)
        ways[j] = value
    num, den = 1.0, 1.0  # C(n1 + n2, small), multiplied out as scipy.special.binom does
    for i in range(1, small + 1):
        num *= i + large
        den *= i
    total = num / den
    cdf = np.cumsum(ways / total)
    p = 1.0 - cdf[k] + ways[k] / total if k < small * large - k else cdf[top]
    return min(max(float(p), 0.0), 1.0)
