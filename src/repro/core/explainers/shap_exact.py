"""Exact Shapley values by subset enumeration.

Exponential in the number of features (guarded at 15), so this is the
*reference implementation*: KernelSHAP and TreeSHAP are validated
against it in the test suite, and the E8 ablation measures KernelSHAP's
convergence toward it.

The value function is the standard interventional expectation
``v(S) = E_b[f(x_S, b_{\\bar S})]`` over a background dataset: features
in the coalition keep their values from ``x``, the rest are filled from
background rows.
"""

from __future__ import annotations

from itertools import combinations
from math import comb

import numpy as np

from repro.core.explainers.base import BatchExplanation, Explainer

__all__ = ["ExactShapleyExplainer"]

MAX_EXACT_FEATURES = 15

#: Upper bound on rows per stacked model call when batching subsets.
_ROW_BUDGET = 8192


class ExactShapleyExplainer(Explainer):
    """Brute-force Shapley attribution.

    Parameters
    ----------
    predict_fn:
        ``f(X) -> 1-D scores`` (see
        :func:`~repro.core.explainers.base.model_output_fn`).
    background:
        Background rows defining the "feature absent" distribution.
    feature_names:
        Optional column names (defaults to ``x0..``).
    """

    method_name = "exact_shapley"

    def __init__(self, predict_fn, background, feature_names=None):
        self.predict_fn = predict_fn
        self.background = self._set_background(background, feature_names)
        d = self.background.shape[1]
        if d > MAX_EXACT_FEATURES:
            raise ValueError(
                f"exact Shapley enumerates 2^d subsets; d={d} exceeds the "
                f"limit of {MAX_EXACT_FEATURES} — use KernelShapExplainer"
            )
        self.expected_value_ = float(
            np.mean(np.asarray(predict_fn(self.background), dtype=float))
        )

    def explain_batch(self, X) -> BatchExplanation:
        """Exact Shapley values for every row of ``X`` at once.

        The ``2^d`` coalition values of *all* rows are computed by
        stacking each subset's background hybrids for every row into
        large model calls, so the subset enumeration and the Shapley
        weight accumulation are paid once per batch instead of once per
        sample.
        """
        X = self._check_batch(X, self.background.shape[1])
        if X.shape[0] == 0:
            return self._empty_batch(X)
        n, d = X.shape
        n_bg = len(self.background)
        # a huge fleet alone can exceed the row budget: chunk the rows
        # first, then the subsets within each row chunk
        max_rows = max(1, _ROW_BUDGET // n_bg)
        phi = np.zeros((n, d))
        base_values = np.empty(n)
        for start in range(0, n, max_rows):
            rows = X[start : start + max_rows]
            chunk_phi, chunk_base = self._batch_shapley(rows)
            phi[start : start + len(rows)] = chunk_phi
            base_values[start : start + len(rows)] = chunk_base
        predictions = np.asarray(self.predict_fn(X), dtype=float)
        return self._batch_from_matrix(
            X, phi, base_values, predictions, extras={"n_subsets": 2**d}
        )

    def _batch_shapley(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Shapley values and base values for one row chunk."""
        n, d = X.shape
        n_bg = len(self.background)
        subsets = [
            subset
            for size in range(d + 1)
            for subset in combinations(range(d), size)
        ]
        # v(S) per subset for all rows, stacked into blocked model calls
        values: dict[frozenset, np.ndarray] = {}
        block = max(1, _ROW_BUDGET // max(1, n * n_bg))
        for start in range(0, len(subsets), block):
            chunk = subsets[start : start + block]
            masks = np.zeros((len(chunk), d), dtype=bool)
            for j, subset in enumerate(chunk):
                masks[j, list(subset)] = True
            # hybrid(j, i, r) = x_i where mask_j, background_r elsewhere
            tiled = np.where(
                masks[:, None, None, :],
                X[None, :, None, :],
                self.background[None, None, :, :],
            )
            preds = np.asarray(
                self.predict_fn(tiled.reshape(-1, d)), dtype=float
            ).reshape(len(chunk), n, n_bg)
            for j, subset in enumerate(chunk):
                values[frozenset(subset)] = preds[j].mean(axis=1)

        phi = np.zeros((n, d))
        features = range(d)
        for i in features:
            others = [j for j in features if j != i]
            for size in range(d):
                weight = 1.0 / (d * comb(d - 1, size))
                for subset in combinations(others, size):
                    s = frozenset(subset)
                    phi[:, i] += weight * (values[s | {i}] - values[s])
        return phi, values[frozenset()].copy()
