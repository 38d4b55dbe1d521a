"""Percentiles that refuse to report what the sample cannot support."""

from __future__ import annotations

import math

__all__ = ["MIN_BEYOND", "InsufficientSamples", "percentile"]

#: Samples that must lie beyond a reported percentile.
MIN_BEYOND = 10


class InsufficientSamples(ValueError):
    """Fewer than :data:`MIN_BEYOND` samples lie beyond the percentile."""


def percentile(samples, q: float) -> float:
    """Nearest-rank ``q``-th percentile of ``samples`` (0 < q < 100).

    Raises :class:`InsufficientSamples` unless at least
    :data:`MIN_BEYOND` samples rank above it.  A failed operation is
    passed in as ``math.inf``, so it counts as missing every limit.
    """
    if not 0 < q < 100:
        raise ValueError(f"q must be in (0, 100), got {q}")
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100 * len(ordered)))
    beyond = len(ordered) - rank
    if beyond < MIN_BEYOND:
        raise InsufficientSamples(
            f"p{q:g} of {len(ordered)} samples has {beyond} beyond it; "
            f"need {MIN_BEYOND}"
        )
    return ordered[rank - 1]
