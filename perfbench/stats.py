"""Summary statistics for the benchmark: medians, tail percentile, failure share.

Pure functions on lists of floats, so the parent process never imports numpy.
"""

from __future__ import annotations

import statistics


def median(values) -> float:
    return float(statistics.median(values))


def tail_percentile(samples, beyond: int = 10):
    """Highest whole percentile with at least ``beyond`` samples above it.

    Uses the nearest-rank percentile: the p-th percentile of n sorted samples
    is the one at rank ceil(p * n / 100).  Returns ``(p, value)``, or None
    when there are too few samples for any percentile to qualify.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= beyond:
        return None
    # p * n / 100 <= n - beyond, so rank <= n - beyond leaves enough above it
    p = (100 * (n - beyond)) // n
    return p, ordered[-(-p * n // 100) - 1]


def fail_frac(failed: int, attempted: int) -> float:
    """Share of attempted timed calls that raised or failed their output check."""
    if attempted < 1:
        raise ValueError("no timed call was attempted")
    if not 0 <= failed <= attempted:
        raise ValueError(f"failed count {failed} outside [0, {attempted}]")
    return failed / attempted


def relative_spread(values) -> float:
    """Distance between the first and third quartile, as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
