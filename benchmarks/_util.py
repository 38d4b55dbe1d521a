"""Shared helpers for the ``bench_e*.py`` experiment files.

The benches run in two modes: timed (pytest-benchmark collects stats)
and smoke (``--benchmark-disable`` in CI, where ``benchmark.stats`` is
``None`` and any timing-derived assertion must be skipped).  Every
bench that reads ``benchmark.stats`` or asserts a speedup goes through
these helpers instead of copy-pasting the ``stats is None`` guard.
"""

import numpy as np

from repro.utils.clock import timed

__all__ = [
    "timing_enabled", "median_seconds",
    "ab_compare", "ab_line", "assert_speedup",
]


def timing_enabled(benchmark) -> bool:
    """Whether pytest-benchmark actually timed this test.

    ``False`` under ``--benchmark-disable`` (the CI smoke mode), where
    ``benchmark.stats`` is ``None`` — timing-derived assertions and
    table rows must be gated on this; correctness/equivalence
    assertions must not be.
    """
    return getattr(benchmark, "stats", None) is not None


def median_seconds(benchmark) -> float | None:
    """Median measured seconds, or ``None`` when timing is disabled."""
    if not timing_enabled(benchmark):
        return None
    return benchmark.stats["median"]


def ab_compare(name, packed_fn, legacy_fn, *, repeats, legacy_repeats=None,
               equal=np.array_equal, **fields):
    """Time two arms as interleaved best-of-N pairs; return the
    ``BENCH_<pr>.json`` row, ``fields`` describing its configuration.

    ``legacy_repeats`` (default ``repeats``) caps a slow legacy arm's
    runs.  ``equal`` must hold on the arms' outputs, else this raises
    ``AssertionError``; ``equal=None`` compares nothing (arms that are
    different algorithms) and leaves ``exact_equal`` out of the row.
    """
    if legacy_repeats is None:
        legacy_repeats = repeats
    packed_s = legacy_s = float("inf")
    for i in range(max(repeats, legacy_repeats)):
        if i < repeats:
            packed_out, elapsed = timed(packed_fn)
            packed_s = min(packed_s, elapsed)
        if i < legacy_repeats:
            legacy_out, elapsed = timed(legacy_fn)
            legacy_s = min(legacy_s, elapsed)
    row = {
        "name": name,
        "legacy_seconds": legacy_s,
        "packed_seconds": packed_s,
        "speedup": legacy_s / packed_s,
    }
    if equal is not None:
        if not equal(packed_out, legacy_out):
            raise AssertionError(f"{name}: packed output != legacy output")
        row["exact_equal"] = True
    row.update(fields)
    return row


def ab_line(row) -> str:
    """One results-table line for an :func:`ab_compare` row."""
    return (
        f"{row['name']:<36} {row['legacy_seconds']:>8.3f}s "
        f"{row['packed_seconds']:>8.3f}s {row['speedup']:>6.2f}x"
    )


def assert_speedup(benchmark, row, minimum):
    """Gate an :func:`ab_compare` row's speedup when timing is on."""
    if timing_enabled(benchmark):
        speedup = row["speedup"]
        assert speedup >= minimum, (
            f"{row['name']}: speedup {speedup:.2f}x < {minimum}x"
        )
