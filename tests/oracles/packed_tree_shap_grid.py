"""Reference grid kernel for :func:`repro.ml.packed_shap.packed_tree_shap`.

This is path-dependent TreeSHAP as it ran before the kernel learned to
sweep each distinct (leaf, follow-pattern) pair once, kept verbatim: it
sweeps every (row, leaf) pair of a row block.  The deduplicated kernel
must reproduce its output bit for bit
(``tests/ml/test_packed_shap_oracle.py``).
"""

from __future__ import annotations

import numpy as np

#: Soft cap on ``row_block * n_leaves * (max_path + 1)`` floats held by
#: the path-dependent sweep; keeps the polynomial state cache-friendly.
_PAIR_STATE_BUDGET = 1 << 22


def packed_tree_shap_grid(packed, X, *, column: int = 0) -> np.ndarray:
    """Path-dependent SHAP values of every row against one output
    column, shape ``(n_rows, n_features)`` — the ensemble-aggregated
    equivalent of summing :func:`repro.core.explainers.shap_tree.
    tree_shap_values` over all trees, computed as one vectorized
    sweep over all (row, leaf, path position) states."""
    X = packed._check_X(X)
    table = packed.path_table()
    n = len(X)
    d = table.n_features
    phi = np.zeros((n, d))
    if n == 0 or table.max_path == 0:
        return phi

    m = table.max_path
    n_leaves = table.n_leaves
    leaf_value = table.value[table.leaves, column] * table.factor
    weights = table.leaf_weights            # (L, m + 1)
    z_pos = table.zero_pos                  # (L, m)
    block = max(1, _PAIR_STATE_BUDGET // max(1, n_leaves * (m + 1)))

    for start in range(0, n, block):
        Xb = X[start:start + block]
        r = len(Xb)
        follows = table.follows(Xb)                    # (r, E + 1)
        one_pos = follows[:, table.elem_index]         # (r, L, m) bool
        one_f = one_pos.astype(float)

        # EXTEND, lock-step over path positions: c[..., a] is the
        # weightless Algorithm-2 polynomial — the sum over coalitions
        # of a followed path features of the unfollowed features'
        # coverage product.  The sentinel position (one=0, zero=1) is
        # the identity, so ragged paths need no masking.
        # after p steps only degrees 0..p are populated, so each step
        # touches a growing slice instead of the full (m + 1) columns
        c = np.zeros((r, n_leaves, m + 1))
        c[..., 0] = 1.0
        for p in range(m):
            shifted = c[..., : p + 1] * one_f[..., p, None]
            c[..., : p + 1] *= z_pos[:, p][None, :, None]
            c[..., 1 : p + 2] += shifted

        # a feature the row does not follow contributes the same
        # permutation-weight sum regardless of its coverage (the z_i
        # cancels), so one weighted reduction serves every cold feature
        cold_sum = np.einsum("rla,la->rl", c, weights)

        # UNWIND, batched across positions: u walks the backward
        # recurrence c_without_i[a] = c[a+1] - z_i * c_without_i[a+1]
        # for every position i at once, accumulating the weighted sum
        unwound = np.zeros((r, n_leaves, m))
        hot_sum = np.zeros((r, n_leaves, m))
        weighted = np.empty_like(unwound)
        for a in range(m - 1, -1, -1):
            np.multiply(unwound, z_pos[None], out=unwound)
            np.subtract(c[..., a + 1, None], unwound, out=unwound)
            np.multiply(unwound, weights[:, a][None, :, None], out=weighted)
            hot_sum += weighted

        contrib = np.where(
            one_pos,
            (1.0 - z_pos)[None] * hot_sum,
            -cold_sum[..., None],
        )
        contrib *= leaf_value[None, :, None]
        contrib *= table.valid_pos[None]

        flat = (
            np.arange(r, dtype=np.int64)[:, None, None] * d
            + table.feature_pos[None]
        )
        phi[start:start + r] = np.bincount(
            flat.ravel(), weights=contrib.ravel(), minlength=r * d
        ).reshape(r, d)
    return phi
