"""Vectorized TreeSHAP kernels on the packed ensemble node block.

PR 5 fused tree *prediction* into one frontier loop over the packed
node arrays, but forest attribution still walked Python recursions:
the path-dependent explainer recursed per (row, tree) and the
interventional explainer per (row, background, tree).  Under the
matrix and streaming engines those recursions are the slowest cell
left in the hot path (BENCH_5: ~1.5 s per 16-row forest batch even
through KernelSHAP's sampled coalitions).

This module computes the *exact* same Shapley values directly on the
:class:`~repro.ml.packed.PackedEnsemble` block, with no per-tree
Python loop:

* :class:`PackedPathTable` — a pack-time index of every root-to-leaf
  path in the whole ensemble.  Splits on the same feature along one
  path are merged (their coverage ratios multiply, their decision
  intervals intersect), so each leaf carries a flat list of *unique*
  path features ``(feature, zero_fraction, lo, hi]``.  Whether an
  instance "follows" a path feature is then a single interval test —
  no descent at all.

* :func:`packed_tree_shap` — path-dependent TreeSHAP (Lundberg et
  al. 2018, Algorithm 2).  Per leaf the conditional-expectation game
  is multilinear in the unique path features, so Algorithm 2's
  EXTEND recursion becomes a lock-step polynomial sweep: one
  vectorized update per path position, then one batched UNWIND (a
  backward recurrence shared by every position) to read off each
  feature's permutation-weight sum.  Because a feature the instance
  does *not* follow contributes the same weight sum regardless of its
  coverage (the ``z_i`` factors cancel analytically), the cold side
  needs no unwind at all.  A (row, leaf) pair's game depends on the
  row only through its *follow pattern* — which of the leaf's path
  features it satisfies — so the sweep runs once per distinct
  (leaf, follow-pattern) pair of a row block (the idea of Fast
  TreeSHAP v2, Yang 2021, without its pattern tables) and the result
  is gathered back onto every (row, leaf) pair.  Rows of one window
  are alike, so most pairs repeat.  Windows of one stream are alike
  too, so the path table keeps each swept pair's contribution per
  output column (the *pair store*, capped at ``_PAIR_STORE_BUDGET``
  floats) and later calls on the same fitted model sweep only the
  pairs it does not hold yet.

* :func:`packed_interventional_shap` — interventional TreeSHAP
  (Lundberg et al. 2020, "Independent TreeSHAP").  A leaf's
  single-reference game depends only on which unique path features
  the instance ``x`` satisfies and which the reference ``z``
  satisfies; its Shapley values are ``+W(a-1, b)`` per x-feature and
  ``-W(a, b-1)`` per z-feature with ``W(a, b) = a! b! / (a+b+1)!``.
  The cross terms factor into per-leaf batched matmuls over the path
  positions, so the whole (row × background × leaf) game matrix is
  three ``einsum`` contractions instead of a recursion per pair.

Both kernels reproduce the per-tree recursions kept in
``tests/oracles/tree_shap_recursion.py`` to <= 1e-10 (floating-point
reassociation is the only difference); the equality sweep lives in
``tests/ml/test_packed_shap.py`` and the Shapley-axiom
properties in ``tests/core/test_properties_explainers.py``.  The
deduplicated path-dependent kernel equals the all-pairs grid it
replaced bit for bit (``tests/ml/test_packed_shap_oracle.py``).  Both
kernels reject NaN and infinite inputs, as the models' ``predict``
does.  The
Shapley ordering weights come from :func:`interventional_weight_table`
/ :func:`path_weight_table` — lgamma-based float tables, so deep paths
never touch Python big-int factorials.
"""

from __future__ import annotations

import threading
from math import exp, lgamma

import numpy as np

from repro.ml.packed import _check_finite

__all__ = [
    "PackedPathTable",
    "interventional_weight_table",
    "packed_interventional_shap",
    "packed_tree_shap",
    "path_weight_table",
]

#: Soft cap on ``row_block * n_leaves * (max_path + 1)``: the (row,
#: leaf, path position) entries one row block of the path-dependent
#: kernel holds.  Pairs are deduplicated within a row block.
_PAIR_STATE_BUDGET = 1 << 22

#: Cap on the contribution floats one path table's pair store holds
#: across its output columns (8 MiB).  Pairs swept once it is full are
#: used but not stored.
_PAIR_STORE_BUDGET = 1 << 20

#: Soft cap on ``rows * backgrounds * leaf_chunk`` floats held by the
#: interventional game matrices.
_GAME_STATE_BUDGET = 1 << 21


def path_weight_table(m_max: int) -> np.ndarray:
    """Permutation weights of the path-dependent game.

    ``W[a, m] = a! (m - 1 - a)! / m!`` for ``0 <= a < m <= m_max``
    (zero elsewhere): the probability weight of a coalition of size
    ``a`` among ``m`` players, lgamma-based so no big-int factorials.
    """
    table = np.zeros((m_max + 1, m_max + 1))
    for m in range(1, m_max + 1):
        for a in range(m):
            table[a, m] = exp(
                lgamma(a + 1) + lgamma(m - a) - lgamma(m + 1)
            )
    return table


def interventional_weight_table(n_max: int) -> np.ndarray:
    """Shapley ordering weights of the single-reference game.

    ``W[a, b] = a! b! / (a + b + 1)!`` for ``0 <= a, b <= n_max``,
    computed through ``lgamma`` in float space — exact to one ulp for
    every path depth a tree can reach, with none of the unbounded
    big-int blowup of the ``factorial``-ratio formulation.
    """
    table = np.empty((n_max + 1, n_max + 1))
    for a in range(n_max + 1):
        for b in range(a, n_max + 1):
            w = exp(lgamma(a + 1) + lgamma(b + 1) - lgamma(a + b + 2))
            table[a, b] = w
            table[b, a] = w
    return table


class PackedPathTable:
    """Flat index of every root-to-leaf path of a packed ensemble.

    Built once per :class:`~repro.ml.packed.PackedEnsemble` (and
    memoized there via :meth:`~repro.ml.packed.PackedEnsemble.
    path_table`); everything the SHAP kernels need per instance is
    then a gather against these arrays.

    Attributes
    ----------
    leaves:
        Packed node id of every leaf, ``(n_leaves,)``.
    elem_leaf, elem_feature, elem_zero, elem_lo, elem_hi:
        One row per *unique* (leaf, path feature) pair, grouped by
        leaf: the feature index, the merged coverage fraction
        (product of ``n_child / n_parent`` over that feature's splits
        on the path), and the merged decision interval — an instance
        follows the feature's splits iff ``lo < x[f] <= hi``.
    leaf_m:
        Unique path features per leaf (0 for a root leaf).
    max_path:
        ``leaf_m.max()`` — the polynomial degree bound of the sweep.
    elem_index:
        ``(n_leaves, max_path)`` element ids padded with ``n_elems``
        (a sentinel element that no instance follows and whose
        coverage is 1.0, i.e. the identity extension).
    zero_pos, feature_pos, valid_pos:
        The element table gathered onto the padded position grid.
    leaf_weights:
        ``(n_leaves, max_path + 1)`` — row ``k`` holds the
        permutation weights ``W[., leaf_m[k]]`` of that leaf's game.
    factor:
        The ensemble aggregation weight shared by every tree
        (``1 / n_trees`` for mean mode, ``scale`` for boosting).

    The table also keeps the pair store of :func:`packed_tree_shap`:
    per output column, the swept contribution of every (leaf,
    follow-pattern) pair, keyed by its stable pair id, up to
    ``_PAIR_STORE_BUDGET`` floats.  A pair's floats depend only on the
    leaf, the pattern and the column, so a stored pair reads back the
    bytes a fresh sweep would produce.  A lock guards the store: the
    thread backend explains chunks of one model concurrently.  The
    store lives and dies with the table (a refit packs a new ensemble),
    and a pickled table starts with an empty one.
    """

    def __init__(self, packed):
        is_leaf = packed._is_leaf
        self.n_features = int(packed.n_features)
        self.value = packed.value
        self.factor = (
            1.0 / packed.n_trees if packed.mode == "mean" else packed.scale
        )
        self.leaves = np.flatnonzero(is_leaf)
        n_leaves = len(self.leaves)

        parent = np.arange(packed.n_nodes, dtype=np.int64)
        nonleaf = np.flatnonzero(~is_leaf)
        parent[packed.children_left[nonleaf]] = nonleaf
        parent[packed.children_right[nonleaf]] = nonleaf

        # every (leaf, on-path child) edge, by chasing parents level
        # by level — vectorized over all leaves at once
        k_parts, c_parts = [], []
        k = np.arange(n_leaves)
        cur = self.leaves.copy()
        live = packed.node_depth[cur] > 0
        k, cur = k[live], cur[live]
        while cur.size:
            k_parts.append(k)
            c_parts.append(cur)
            cur = parent[cur]
            live = packed.node_depth[cur] > 0
            k, cur = k[live], cur[live]

        if k_parts:
            ek = np.concatenate(k_parts)
            ec = np.concatenate(c_parts)
            es = parent[ec]
            ef = packed.feature[es]
            ratio = packed.n_node_samples[ec] / packed.n_node_samples[es]
            went_left = packed.children_left[es] == ec
            lo = np.where(went_left, -np.inf, packed.threshold[es])
            hi = np.where(went_left, packed.threshold[es], np.inf)
            # merge repeated features within each leaf's path
            order = np.lexsort((ef, ek))
            ek, ef = ek[order], ef[order]
            ratio, lo, hi = ratio[order], lo[order], hi[order]
            new = np.empty(len(ek), dtype=bool)
            new[0] = True
            new[1:] = (ek[1:] != ek[:-1]) | (ef[1:] != ef[:-1])
            starts = np.flatnonzero(new)
            self.elem_leaf = ek[starts]
            self.elem_feature = ef[starts]
            self.elem_zero = np.multiply.reduceat(ratio, starts)
            self.elem_lo = np.maximum.reduceat(lo, starts)
            self.elem_hi = np.minimum.reduceat(hi, starts)
        else:
            self.elem_leaf = np.empty(0, dtype=np.int64)
            self.elem_feature = np.empty(0, dtype=np.int64)
            self.elem_zero = np.empty(0)
            self.elem_lo = np.empty(0)
            self.elem_hi = np.empty(0)

        n_elems = len(self.elem_leaf)
        self.n_elems = n_elems
        self.leaf_m = np.bincount(self.elem_leaf, minlength=n_leaves)
        self.max_path = int(self.leaf_m.max()) if n_leaves else 0

        # padded (leaf, position) grid; the sentinel element n_elems is
        # never followed (empty interval) and has coverage 1.0, so it
        # extends the game polynomial by exactly nothing
        elem_start = np.concatenate(([0], np.cumsum(self.leaf_m)))
        self.elem_index = np.full(
            (n_leaves, self.max_path), n_elems, dtype=np.int64
        )
        if n_elems:
            pos = np.arange(n_elems) - elem_start[self.elem_leaf]
            self.elem_index[self.elem_leaf, pos] = np.arange(n_elems)

        self._gather_feature = np.append(self.elem_feature, 0)
        self._gather_lo = np.append(self.elem_lo, np.inf)
        self._gather_hi = np.append(self.elem_hi, np.inf)
        self.zero_pos = np.append(self.elem_zero, 1.0)[self.elem_index]
        self.feature_pos = self._gather_feature[self.elem_index]
        self.valid_pos = self.elem_index < n_elems
        weights = path_weight_table(self.max_path)
        self.leaf_weights = weights[:, self.leaf_m].T.copy()
        self._store_lock = threading.Lock()
        self.clear_pair_store()

    def clear_pair_store(self) -> None:
        """Drop every stored pair contribution, so the next
        :func:`packed_tree_shap` calls sweep from cold."""
        with self._store_lock:
            self._stores: dict[int, _PairStore] = {}
            self._stored_floats = 0

    def __getstate__(self):
        state = self.__dict__.copy()
        for key in ("_stores", "_stored_floats", "_store_lock"):
            del state[key]
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._store_lock = threading.Lock()
        self.clear_pair_store()

    @property
    def n_leaves(self) -> int:
        return len(self.leaves)

    def follows(self, X: np.ndarray) -> np.ndarray:
        """Interval test per (row, element): does the row satisfy every
        split of that path feature?  Shape ``(len(X), n_elems + 1)``;
        the trailing sentinel column is always ``False``."""
        gathered = X[:, self._gather_feature]
        return (gathered > self._gather_lo) & (gathered <= self._gather_hi)

    def _recall(self, column: int, ids: np.ndarray, contrib: np.ndarray):
        """Copy the stored contributions of the sorted pair ``ids`` into
        the matching rows of ``contrib``; return the mask of the pairs
        the store does not hold."""
        with self._store_lock:
            store = self._stores.get(column)
            if store is None:
                return np.ones(len(ids), dtype=bool)
            pos = np.searchsorted(store.keys, ids)
            hit = store.keys.take(pos, mode="clip") == ids
            contrib[hit] = store.values[store.slots[pos[hit]]]
        return ~hit

    def _remember(self, column: int, ids: np.ndarray, contrib: np.ndarray):
        """Store the swept ``contrib`` of the sorted pair ``ids`` while
        the budget lasts; pairs another thread stored first are
        skipped.  A column's store exists only once it holds a pair."""
        m = self.max_path
        with self._store_lock:
            store = self._stores.get(column)
            if store is None:
                store = _PairStore(m)
            else:
                pos = np.searchsorted(store.keys, ids)
                new = store.keys.take(pos, mode="clip") != ids
                ids, contrib = ids[new], contrib[new]
            size, capacity = len(store.keys), len(store.values)
            if size + len(ids) > capacity:
                room = (_PAIR_STORE_BUDGET - self._stored_floats) // m
                grown = min(max(size + len(ids), 2 * capacity), capacity + room)
                if grown > capacity:
                    store.values = np.concatenate(
                        (store.values[:size], np.empty((grown - size, m)))
                    )
                    self._stored_floats += (grown - capacity) * m
            count = min(len(ids), len(store.values) - size)
            if count == 0:
                return
            ids = ids[:count]
            store.values[size:size + count] = contrib[:count]
            pos = np.searchsorted(store.keys, ids)
            store.keys = np.insert(store.keys, pos, ids)
            store.slots = np.insert(
                store.slots, pos, np.arange(size, size + count)
            )
            self._stores[column] = store


class _PairStore:
    """Swept pair contributions of one output column: ``keys`` holds
    the sorted pair ids, ``values[slots[i]]`` the contribution row of
    ``keys[i]``.  Rows are appended, never rewritten."""

    def __init__(self, m: int):
        self.keys = np.empty(0, dtype=np.int64)
        self.slots = np.empty(0, dtype=np.int64)
        self.values = np.empty((0, m))


def _pair_ids(one_pos: np.ndarray) -> np.ndarray:
    """One int64 id per (row, leaf) pair of ``one_pos`` ``(r, L, m)``:
    two pairs share an id iff they share the leaf and the follow
    pattern (which of the leaf's path positions the row follows).

    The id is ``leaf << m | pattern bits``.  When that would not fit
    in 62 bits (very deep paths), the positions are folded in chunks,
    re-ranking the partial ids between chunks so they stay small."""
    r, n_leaves, m = one_pos.shape
    pattern = one_pos.reshape(r * n_leaves, m)
    ids = np.tile(np.arange(n_leaves, dtype=np.int64), r)
    bound, p = n_leaves, 0
    while True:
        width = min(m - p, 62 - (bound - 1).bit_length())
        place = np.left_shift(1, np.arange(width, dtype=np.int64))
        ids = (ids << width) | (pattern[:, p:p + width] @ place)
        p += width
        if p == m:
            return ids
        ids = np.unique(ids, return_inverse=True)[1]
        bound = int(ids.max()) + 1


def packed_tree_shap(packed, X, *, column: int = 0) -> np.ndarray:
    """Path-dependent SHAP values of every row against one output
    column, shape ``(n_rows, n_features)`` — the ensemble-aggregated
    equivalent of summing the per-tree path-dependent recursion over
    all trees.  Raises ``ValueError`` on NaN or
    infinite entries in ``X``.

    A (row, leaf) pair's contribution at every path position depends
    only on the leaf, on which of its path features the row follows
    and on the column, so each row block runs the vectorized sweep over
    its *distinct* (leaf, follow-pattern) pairs only and gathers the
    result back onto every (row, leaf) pair.  Pairs an earlier call on
    the same path table already swept for this column are read from the
    table's pair store instead of swept again (see
    :class:`PackedPathTable`).  Every pair's floats are computed by the
    same operations in the same order as a sweep over all pairs would,
    so the output does not depend on how many pairs repeat or were
    stored, and a batch equals its rows explained one at a time."""
    X = _check_finite(packed._check_X(X), "X")
    table = packed.path_table()
    n = len(X)
    d = table.n_features
    phi = np.zeros((n, d))
    if n == 0 or table.max_path == 0:
        return phi

    m = table.max_path
    n_leaves = table.n_leaves
    leaf_value = table.value[table.leaves, column] * table.factor
    block = max(1, _PAIR_STATE_BUDGET // max(1, n_leaves * (m + 1)))
    # folded pair ids are ranks within one row block, not stable keys
    stable = m + (n_leaves - 1).bit_length() <= 62

    for start in range(0, n, block):
        Xb = X[start:start + block]
        r = len(Xb)
        follows = table.follows(Xb)                    # (r, E + 1)
        one_pos = follows[:, table.elem_index]         # (r, L, m) bool
        ids, first, inverse = np.unique(
            _pair_ids(one_pos), return_index=True, return_inverse=True
        )
        contrib = np.empty((len(ids), m))
        if stable:
            todo = np.flatnonzero(table._recall(column, ids, contrib))
        else:
            todo = np.arange(len(ids))
        one_u = one_pos.reshape(r * n_leaves, m)[first[todo]]
        leaf = first[todo] % n_leaves
        # sweep the missing pairs n_leaves at a time: no sweep holds
        # more state than a one-row call does, so batching removes
        # work without pushing the sweep state out of cache
        swept = np.empty((len(todo), m))
        for lo in range(0, len(todo), n_leaves):
            hi = lo + n_leaves
            swept[lo:hi] = _pattern_contrib(
                table, one_u[lo:hi], leaf[lo:hi], leaf_value
            )
        contrib[todo] = swept
        if stable and len(todo):
            table._remember(column, ids[todo], swept)
        flat = (
            np.arange(r, dtype=np.int64)[:, None, None] * d
            + table.feature_pos[None]
        )
        phi[start:start + r] = np.bincount(
            flat.ravel(),
            weights=np.take(contrib, inverse, axis=0).ravel(),
            minlength=r * d,
        ).reshape(r, d)
    return phi


def _pattern_contrib(table, one, leaf, leaf_value) -> np.ndarray:
    """Contribution ``(P, m)`` (a transposed view) of each of P
    (leaf, follow-pattern) pairs at each path position: ``one`` is the
    ``(P, m)`` follow pattern, ``leaf`` the leaf of each pair.

    The sweep state is position-major, ``(position, pair)``, so every
    op streams over contiguous rows of P floats.  Each float is the
    same operation on the same operands as in the ``(pair, position)``
    layout; only the ``einsum`` reduction, whose summation order
    depends on the layout, runs on a pair-major copy."""
    m = table.max_path
    n_pairs = len(leaf)
    one = np.ascontiguousarray(one.T)                     # (m, P) bool
    z_pos = np.ascontiguousarray(table.zero_pos[leaf].T)  # (m, P)
    weights = table.leaf_weights[leaf]                    # (P, m + 1)
    w_pos = np.ascontiguousarray(weights.T)               # (m + 1, P)

    # EXTEND, lock-step over path positions: c[a] is the weightless
    # Algorithm-2 polynomial — the sum over coalitions of a followed
    # path features of the unfollowed features' coverage product.  The
    # sentinel position (one=0, zero=1) is the identity, so ragged
    # paths need no masking.  After p steps only degrees 0..p are
    # populated, so each step touches a growing slice of c.
    c = np.zeros((m + 1, n_pairs))
    c[0] = 1.0
    scratch = np.empty((m, n_pairs))
    for p in range(m):
        shifted = scratch[: p + 1]
        np.multiply(c[: p + 1], one[p], out=shifted)
        c[: p + 1] *= z_pos[p]
        c[1 : p + 2] += shifted

    # a feature the row does not follow contributes the same
    # permutation-weight sum regardless of its coverage (the z_i
    # cancels), so one weighted reduction serves every cold feature
    cold_sum = np.einsum(
        "rla,la->rl", np.ascontiguousarray(c.T)[None], weights
    )[0]

    # UNWIND, batched across positions: u walks the backward
    # recurrence c_without_i[a] = c[a+1] - z_i * c_without_i[a+1]
    # for every position i at once, accumulating the weighted sum
    unwound = scratch
    unwound.fill(0.0)
    hot_sum = np.zeros((m, n_pairs))
    weighted = np.empty((m, n_pairs))
    for a in range(m - 1, -1, -1):
        np.multiply(unwound, z_pos, out=unwound)
        np.subtract(c[a + 1], unwound, out=unwound)
        np.multiply(unwound, w_pos[a], out=weighted)
        hot_sum += weighted

    contrib = np.where(one, (1.0 - z_pos) * hot_sum, -cold_sum)
    contrib *= leaf_value[leaf]
    contrib *= table.valid_pos[leaf].T
    return contrib.T


def packed_interventional_shap(
    packed, X, background, *, column: int = 0
) -> np.ndarray:
    """Interventional SHAP values of every row against ``background``,
    shape ``(n_rows, n_features)`` — the ensemble-aggregated
    equivalent of the per-tree interventional recursion summed over
    trees, computed as batched per-leaf game contractions.  Raises
    ``ValueError`` on NaN or infinite entries in ``X`` or
    ``background``."""
    X = _check_finite(packed._check_X(X), "X")
    background = _check_finite(packed._check_X(background), "background")
    table = packed.path_table()
    n, n_bg = len(X), len(background)
    d = table.n_features
    phi = np.zeros((n, d))
    if n == 0 or n_bg == 0 or table.max_path == 0:
        return phi

    m = table.max_path
    leaf_value = table.value[table.leaves, column] * table.factor
    w_table = interventional_weight_table(m)
    x_follows = table.follows(X)            # (n, E + 1)
    z_follows = table.follows(background)   # (n_bg, E + 1)

    chunk = max(1, _GAME_STATE_BUDGET // max(1, n * n_bg))
    rows = np.arange(n, dtype=np.int64)[:, None, None] * d

    for lo in range(0, table.n_leaves, chunk):
        idx = table.elem_index[lo:lo + chunk]          # (Lc, m)
        x_pos = x_follows[:, idx].astype(float)        # (n, Lc, m)
        z_pos = z_follows[:, idx].astype(float)        # (n_bg, Lc, m)
        x_count = x_pos.sum(axis=-1)                   # (n, Lc)
        z_count = z_pos.sum(axis=-1)                   # (n_bg, Lc)
        both = np.einsum("rkm,zkm->rzk", x_pos, z_pos, optimize=True)

        # per (row, reference, leaf): a features only x satisfies,
        # b features only z satisfies; a feature neither satisfies
        # makes the leaf unreachable in every coalition
        a = np.rint(x_count[:, None, :] - both).astype(np.int64)
        b = np.rint(z_count[None, :, :] - both).astype(np.int64)
        dead = (
            table.leaf_m[lo:lo + chunk][None, None, :]
            - x_count[:, None, :] - z_count[None, :, :] + both
        ) > 0.5
        value = leaf_value[lo:lo + chunk]
        w_x = np.where(dead, 0.0, w_table[np.maximum(a - 1, 0), b]) * value
        w_z = np.where(dead, 0.0, w_table[a, np.maximum(b - 1, 0)]) * value

        # x-side: sum_z (1 - oz) * w_x factors through two
        # contractions; z-side likewise.  Sentinel positions have
        # oz = ox = 0, so they cancel to exactly zero.
        x_weight = w_x.sum(axis=1)                      # (n, Lc)
        g_x = np.einsum("zkm,rzk->rkm", z_pos, w_x, optimize=True)
        g_z = np.einsum("zkm,rzk->rkm", z_pos, w_z, optimize=True)
        contrib = x_pos * (x_weight[..., None] - g_x) - (1.0 - x_pos) * g_z
        contrib *= table.valid_pos[lo:lo + chunk][None]

        flat = rows + table.feature_pos[lo:lo + chunk][None]
        phi += np.bincount(
            flat.ravel(), weights=contrib.ravel(), minlength=n * d
        ).reshape(n, d)
    return phi / n_bg
