"""Memoization of KernelSHAP coalition designs.

KernelSHAP's enumeration of coalition masks and kernel weights is pure
Python combinatorics: it depends only on the feature dimension and the
sampling configuration, never on the explained instance, and one build
costs a fifth or more of a small ``explain_batch``.  Designs drawn from
an integer seed are therefore memoized here, keyed by
``(d, n_samples, paired, seed)`` and shared read-only by every explainer
in the process.  A live ``Generator`` must advance between calls, so
explainers seeded with one bypass the memo.

The memo is a bounded :func:`functools.lru_cache`, which is safe under
the thread backend: racing misses may build the same deterministic
design twice, which costs work, never correctness.  Process workers
each hold their own memo.  Call :func:`clear_cache` between unrelated
experiments for cold timings, and :func:`cache_stats` to see hit rates.
"""

from __future__ import annotations

from functools import lru_cache

__all__ = ["MAX_DESIGNS", "cache_stats", "clear_cache", "coalition_design"]

#: Distinct designs kept; the least recently used one is dropped first.
MAX_DESIGNS = 64


@lru_cache(maxsize=MAX_DESIGNS)
def coalition_design(build, d: int, n_samples: int, paired: bool, seed: int):
    """``build(d, n_samples, paired, seed) -> (masks, weights)``, memoized.

    ``build`` is part of the key, so it must be a plain function with a
    stable identity (not a bound method or a fresh lambda), and it must
    be deterministic in its arguments.  The returned arrays are read-only
    and shared between callers.
    """
    masks, weights = build(d, n_samples, paired, seed)
    masks.flags.writeable = False
    weights.flags.writeable = False
    return masks, weights


def clear_cache() -> None:
    """Drop every memoized design and reset the counters."""
    coalition_design.cache_clear()


def cache_stats() -> dict:
    """Hit/miss counters and the number of memoized designs."""
    info = coalition_design.cache_info()
    return {
        "hits": info.hits,
        "misses": info.misses,
        # each miss stores one design; the ones no longer held were evicted
        # (a racing duplicate miss under the thread backend also counts)
        "evictions": info.misses - info.currsize,
        # no token tier exists any more; the key stays for existing readers
        "token_evictions": 0,
        "design_entries": info.currsize,
    }
