"""Small statistics shared by the benchmark runner and the spread check."""

from __future__ import annotations

import statistics


def median(values: list[float]) -> float:
    """Median, or 0.0 for no values (a layer that was never called)."""
    return statistics.median(values) if values else 0.0


def quartile_spread(values: list[float]) -> float:
    """(Q3 - Q1) / median, with quartiles as `statistics.quantiles(values, n=4)` gives them."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
