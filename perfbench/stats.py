"""Order statistics used by the benchmark report.

Percentiles use the nearest-rank rule.  A percentile is only reported
when at least :data:`MIN_TAIL` samples lie beyond it, so a p99 needs at
least 1000 samples; asking for one with fewer raises
:class:`InsufficientSamples` instead of returning a number that one
outlier decides.
"""

from __future__ import annotations

import math
import statistics
from typing import Sequence

__all__ = [
    "MIN_TAIL",
    "InsufficientSamples",
    "tail_count",
    "percentile",
    "median",
    "quartile_spread",
]

#: Samples that must lie strictly beyond a reported percentile.
MIN_TAIL = 10


class InsufficientSamples(ValueError):
    """Too few samples for the requested percentile."""


def _rank(n: int, p: float) -> int:
    """1-based nearest rank of percentile ``p`` among ``n`` samples."""
    return max(1, math.ceil(p / 100.0 * n))


def tail_count(n: int, p: float) -> int:
    """Samples strictly beyond the ``p``-th percentile of ``n`` samples."""
    if n <= 0:
        return 0
    return n - _rank(n, p)


def percentile(sorted_values: Sequence[float], p: float) -> float:
    """Nearest-rank ``p``-th percentile of already-sorted samples.

    Raises :class:`InsufficientSamples` unless at least ``MIN_TAIL``
    samples lie beyond it.
    """
    n = len(sorted_values)
    if not 0.0 < p < 100.0:
        raise ValueError("percentile must lie strictly between 0 and 100")
    if tail_count(n, p) < MIN_TAIL:
        raise InsufficientSamples(
            f"p{p:g} needs {MIN_TAIL} samples beyond it; have {n} samples"
        )
    return sorted_values[_rank(n, p) - 1]


def median(values: Sequence[float]) -> float:
    """Median of a non-empty sequence (mean of the middle pair when even)."""
    if not values:
        raise ValueError("median of no values")
    return statistics.median(values)


def quartile_spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median.

    Quartiles are those of ``statistics.quantiles(values, n=4)``.
    """
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return (q3 - q1) / mid if mid else math.inf
