"""Percentile selection for the end-to-end latencies."""

from __future__ import annotations

import math


def percentile(values, q: float, min_tail: int = 10) -> float:
    """Nearest-rank ``q``-th percentile of ``values``.

    Raises ``ValueError`` unless at least ``min_tail`` samples lie beyond
    the selected one, so a reported high percentile is never a lone
    outlier.
    """
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    beyond = len(ordered) - rank
    if beyond < min_tail:
        raise ValueError(
            f"p{q:g} of {len(ordered)} samples has {beyond} beyond it; "
            f"need at least {min_tail}"
        )
    return ordered[rank - 1]

