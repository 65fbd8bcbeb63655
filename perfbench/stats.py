"""Statistics helpers for the benchmark's reported figures.

Percentiles are nearest-rank: the reported value is always one that was
measured.  Each series holds one kind of operation only; callers keep
different kinds (a campaign sample, a plain replay, a query pass) in
different series, so a median and a tail are never taken over a mix.
"""

import math
from fractions import Fraction

# The tail is the highest percentile with at least this many samples
# strictly beyond it.
TAIL_MIN_BEYOND = 10

# Candidate tail percentiles, highest first.
TAIL_LADDER = (99.9, 99.0, 90.0)


def _rank(n, p):
    """1-based nearest rank of percentile p in n samples, computed exactly
    (0.99 * 1000 is not 990 in binary floating point)."""
    if n < 1:
        raise ValueError("percentile of an empty series")
    if not 0 < p <= 100:
        raise ValueError(f"percentile {p} outside (0, 100]")
    return max(1, math.ceil(Fraction(str(p)) * n / 100))


def percentile(values, p):
    """The nearest-rank p-th percentile of values."""
    return sorted(values)[_rank(len(values), p) - 1]


def beyond(n, p):
    """How many of n samples lie strictly beyond the p-th percentile."""
    return n - _rank(n, p)


def tail_percentile(n, ladder=TAIL_LADDER):
    """The highest percentile in ladder with at least TAIL_MIN_BEYOND of n
    samples beyond it, or None when n is too small for any."""
    for p in sorted(ladder, reverse=True):
        if beyond(n, p) >= TAIL_MIN_BEYOND:
            return p
    return None


def summarize(values, tail_p):
    """Median and tail of one series.  tail_p is fixed per workload so the
    metric means the same thing on every commit; the summary says whether
    enough samples lie beyond it."""
    n = len(values)
    return {
        "n": n,
        "p50": percentile(values, 50),
        "tail_p": tail_p,
        "tail": percentile(values, tail_p),
        "beyond": beyond(n, tail_p),
        "rule_p": tail_percentile(n),
    }
