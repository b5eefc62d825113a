"""Order statistics the benchmark reports."""

from __future__ import annotations

import statistics
from typing import Optional, Sequence, Tuple

#: a tail percentile is reported only with this many samples beyond it
TAIL_BEYOND = 10


def tail(values: Sequence[float]) -> Optional[Tuple[float, float]]:
    """The highest percentile that has at least ten samples beyond it.

    Nearest-rank: the sample of rank ``r`` (1-based, ascending) is the
    ``100 * r / n`` th percentile and has ``n - r`` samples beyond it, so
    the answer is rank ``n - 10``.  Returns ``(value, percentile)``, or
    ``None`` when there are fewer than eleven samples.
    """
    n = len(values)
    rank = n - TAIL_BEYOND
    if rank < 1:
        return None
    return sorted(values)[rank - 1], 100.0 * rank / n


def quartile_spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile, over the median."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2
