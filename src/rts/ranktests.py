"""One-sided rank tests for ``rts report``, in the standard library.

``wilcoxon_greater`` (paired) and ``mann_whitney_greater`` (unpaired) give
the p-value of "the first sample is above" with the method and the
arithmetic that scipy 1.17 picks by default for ``wilcoxon(...,
zero_method="zsplit", alternative="greater")`` and ``mannwhitneyu(...,
alternative="greater")``: bit for bit on the exact and permutation branches,
which are count ratios, and to rounding on the normal approximations, where
the normal tail comes from ``math.erfc`` rather than scipy's ``ndtr``. The
counts are Python integers, exact at any size; scipy builds its U counts
from float sums, which round past 2**53. The tests hold every branch to scipy.
"""

from __future__ import annotations

import math
from itertools import accumulate, groupby


def _doubled_ranks(values: list[float]) -> tuple[list[int], list[int]]:
    """Twice the 1-based rank of each of ``values``, ties sharing their mean rank, and the size of each group of equal values."""
    ranks, counts, end = [0] * len(values), [], 0
    for _, group in groupby(sorted(range(len(values)), key=values.__getitem__), key=values.__getitem__):
        members = list(group)
        start, end = end, end + len(members)
        for i in members:
            ranks[i] = start + end + 1  # twice the mean of ranks start + 1 .. end
        counts.append(len(members))
    return ranks, counts


def _normal_sf(z: float) -> float:
    return 0.5 * math.erfc(z / math.sqrt(2.0))


def wilcoxon_greater(diff: list[float]) -> float:
    """P-value of 'diff is above 0' by the signed-rank test, each zero's rank split half to either side.

    Exact for at most 50 pairs with no tied |diff| and no zero; else every
    sign flip for at most 13 pairs; else the normal approximation with the
    tie-corrected standard error and no continuity correction.
    """
    n = len(diff)
    ranks, counts = _doubled_ranks([abs(d) for d in diff])
    above = sum(r for r, d in zip(ranks, diff) if d > 0)
    zeros = [r for r, d in zip(ranks, diff) if d == 0]
    if (n <= 50 and len(counts) == n and not zeros) or n <= 13:
        # the number of the 2**n sign flips at or above the observed statistic:
        # the coefficients of prod(1 + q**rank) over the doubled ranks, a zero's
        # rank counting on both sides and so adding 0 to either
        ways = [1]
        for rank in (0 if d == 0 else r for r, d in zip(ranks, diff)):
            ways = [a + b for a, b in zip(ways + [0] * rank, [0] * rank + ways)]
        return sum(ways[above:]) / 2**n
    r_plus = (above + sum(zeros) / 2) / 2
    variance = (n * (n + 1.0) * (2.0 * n + 1.0) - sum(c**3 - c for c in counts) / 2) / 24
    return _normal_sf((r_plus - n * (n + 1.0) * 0.25) / math.sqrt(variance))


def _u_counts(small: int, large: int, top: int) -> list[int]:
    """The orderings of ``small`` values among ``large`` others with each U up to ``top``: the coefficients of the
    Gaussian binomial, the product of (1 - q**(large + i)) / (1 - q**i) over i = 1 .. small, cut at q**top."""
    ways = [1] + [0] * top
    for i in range(1, small + 1):
        ways[large + i:] = [a - b for a, b in zip(ways[large + i:], ways)]
        for start in range(min(i, top + 1)):
            ways[start::i] = accumulate(ways[start::i])
    return ways


def mann_whitney_greater(x: list[float], y: list[float]) -> float:
    """P-value of 'x is above y' by the rank-sum (Mann-Whitney U) test.

    Exact when either sample has at most 8 values and no two values tie; else
    the normal approximation with the tie term and a continuity correction.
    """
    n1, n2 = len(x), len(y)
    ranks, counts = _doubled_ranks([*x, *y])
    u = (sum(ranks[:n1]) - n1 * (n1 + 1)) / 2
    if (n1 > 8 and n2 > 8) or len(counts) < n1 + n2:
        n = n1 + n2
        tie_term = sum(c**3 - c for c in counts)
        scale = math.sqrt(n1 * n2 / 12 * ((n + 1) - tie_term / (n * (n - 1))))
        return _normal_sf((u - n1 * n2 / 2 - 0.5) / scale)
    # P(U >= u) = P(U <= n1·n2 − u)
    small, large = min(n1, n2), max(n1, n2)
    k = int(u)
    top = min(k, small * large - k)
    ways = _u_counts(small, large, top)
    # the tail in floats, summed as scipy sums it over C(n1 + n2, small), multiplied out as scipy.special.binom does
    total = math.prod(range(large + 1, large + small + 1), start=1.0) / math.prod(range(1, small + 1), start=1.0)
    cdf = list(accumulate(w / total for w in ways))
    p = 1.0 - cdf[k] + ways[k] / total if k < small * large - k else cdf[top]
    return min(max(p, 0.0), 1.0)
