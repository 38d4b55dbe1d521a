"""Cross-explainer agreement measures (experiment E7).

Different explainers rarely produce identical attribution values, but a
trustworthy deployment wants them to at least *rank* features
similarly.  We measure Spearman/Kendall rank correlation of
|attributions| and top-k Jaccard overlap.

Both rank correlations are plain numpy and return the same bytes as
``scipy.stats.spearmanr`` / ``kendalltau`` (tau-b); the tests pin them
to scipy, which stays a test-only oracle.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "spearman_correlation",
    "kendall_tau",
    "topk_jaccard",
    "agreement_matrix",
]


def _validate_pair(a, b):
    a = np.asarray(a, dtype=float).ravel()
    b = np.asarray(b, dtype=float).ravel()
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    if len(a) < 2:
        raise ValueError("need at least 2 features to correlate")
    return a, b


def _undefined(a, b) -> bool:
    """Constant or NaN-bearing input: rank correlation is undefined."""
    return bool(
        (a == a[0]).all()
        or (b == b[0]).all()
        or np.isnan(a).any()
        or np.isnan(b).any()
    )


def _average_ranks(x):
    """1-based ranks, ties sharing their mean rank (``rankdata``'s
    ``"average"``); every rank is an integer or a half, so exact."""
    order = np.argsort(x, kind="stable")
    y = x[order]
    head = np.flatnonzero(np.r_[True, y[1:] != y[:-1]])
    counts = np.diff(np.r_[head, len(x)])
    ranks = np.empty(len(x))
    ranks[order] = np.repeat(head + 1 + (counts - 1) / 2, counts)
    return ranks


def _dense_ranks(x):
    """Dense 1-based integer ranks of an already sorted array."""
    return np.r_[True, x[1:] != x[:-1]].cumsum(dtype=np.intp)


def _pairs_within(sizes) -> int:
    """Pairs inside groups of the given sizes."""
    sizes = sizes.astype(np.int64, copy=False)
    return int((sizes * (sizes - 1) // 2).sum())


def _inversions(y) -> int:
    """Pairs ``i < j`` with ``y[i] > y[j]`` for non-negative ints.

    One pass per bit, most significant first.  Before the pass for bit
    ``b``, ``y`` is stably grouped by its bits above ``b``; a pair first
    differing at ``b`` is an inversion when its 1 precedes its 0 within
    a group.  Each pass then stably moves a group's 0s ahead of its 1s,
    so the whole count is O(n log n) time in O(n) memory.
    """
    n = len(y)
    total = 0
    for b in reversed(range(int(y.max()).bit_length())):
        bit = (y >> b) & 1
        above = y >> (b + 1)
        head = np.flatnonzero(np.r_[True, above[1:] != above[:-1]])
        size = np.diff(np.r_[head, n])
        start = np.repeat(head, size)
        ones = np.cumsum(bit) - bit
        ones_before = ones - ones[start]
        zero = bit == 0
        total += int(ones_before[zero].sum())
        zeros_before = np.arange(n) - start - ones_before
        n_zeros = np.repeat(np.add.reduceat(zero, head), size)
        y_next = np.empty_like(y)
        y_next[
            np.where(zero, start + zeros_before, start + n_zeros + ones_before)
        ] = y
        y = y_next
    return total


def spearman_correlation(a, b, *, by_abs: bool = True) -> float:
    """Spearman rank correlation of two attribution vectors.

    Returns 0.0 where the correlation is undefined (a constant or a NaN
    input).
    """
    a, b = _validate_pair(a, b)
    if by_abs:
        a, b = np.abs(a), np.abs(b)
    if _undefined(a, b):
        return 0.0
    ranked = np.column_stack((_average_ranks(a), _average_ranks(b)))
    return float(np.corrcoef(ranked, rowvar=False)[1, 0])


def kendall_tau(a, b, *, by_abs: bool = True) -> float:
    """Kendall's tau-b of two attribution vectors.

    Returns 0.0 where the correlation is undefined (a constant or a NaN
    input).
    """
    a, b = _validate_pair(a, b)
    if by_abs:
        a, b = np.abs(a), np.abs(b)
    if _undefined(a, b):
        return 0.0
    # sort on b, then stably on a: within a tie in a, b ascends, so the
    # discordant pairs are exactly the inversions of b's ranks
    perm = np.argsort(b)
    a, b = a[perm], _dense_ranks(b[perm])
    perm = np.argsort(a, kind="mergesort")
    a, b = _dense_ranks(a[perm]), b[perm]
    dis = _inversions(b)
    joint = np.r_[True, (a[1:] != a[:-1]) | (b[1:] != b[:-1]), True]
    ntie = _pairs_within(np.diff(np.flatnonzero(joint)))
    xtie = _pairs_within(np.bincount(a))
    ytie = _pairs_within(np.bincount(b))
    tot = (len(a) * (len(a) - 1)) // 2
    con_minus_dis = tot - xtie - ytie + ntie - 2 * dis
    tau = con_minus_dis / np.sqrt(tot - xtie) / np.sqrt(tot - ytie)
    return float(np.minimum(1.0, max(-1.0, tau)))


def topk_jaccard(a, b, k: int = 5, *, by_abs: bool = True) -> float:
    """Jaccard overlap of the two top-k feature sets."""
    a, b = _validate_pair(a, b)
    if not 1 <= k <= len(a):
        raise ValueError(f"k must be in [1, {len(a)}], got {k}")
    key_a = np.abs(a) if by_abs else a
    key_b = np.abs(b) if by_abs else b
    top_a = set(np.argsort(-key_a)[:k].tolist())
    top_b = set(np.argsort(-key_b)[:k].tolist())
    return len(top_a & top_b) / len(top_a | top_b)


def agreement_matrix(
    attribution_sets: dict[str, np.ndarray],
    *,
    measure: str = "spearman",
    k: int = 5,
) -> tuple[list[str], np.ndarray]:
    """Pairwise agreement between named attribution vectors.

    ``attribution_sets`` maps method name to an attribution vector (or
    to a 2-D array of per-instance attributions, in which case the
    per-instance agreements are averaged).

    Returns ``(names, matrix)``.
    """
    measures = {
        "spearman": spearman_correlation,
        "kendall": kendall_tau,
        "jaccard": lambda a, b: topk_jaccard(a, b, k=k),
    }
    if measure not in measures:
        raise ValueError(
            f"unknown measure {measure!r}; choose from {sorted(measures)}"
        )
    fn = measures[measure]
    names = list(attribution_sets)
    arrays = {}
    n_rows = None
    for name in names:
        arr = np.asarray(attribution_sets[name], dtype=float)
        arr = arr.reshape(1, -1) if arr.ndim == 1 else arr
        if n_rows is None:
            n_rows = len(arr)
        elif len(arr) != n_rows:
            raise ValueError(
                "all attribution sets must cover the same instances"
            )
        arrays[name] = arr
    matrix = np.eye(len(names))
    for i, a_name in enumerate(names):
        for j in range(i + 1, len(names)):
            b_name = names[j]
            per_row = [
                fn(arrays[a_name][r], arrays[b_name][r]) for r in range(n_rows)
            ]
            matrix[i, j] = matrix[j, i] = float(np.mean(per_row))
    return names, matrix
