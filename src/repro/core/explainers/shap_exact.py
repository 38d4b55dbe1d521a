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

from repro.core.explainers.base import (
    BatchExplanation,
    Explainer,
    coalition_values,
)

__all__ = ["ExactShapleyExplainer"]

MAX_EXACT_FEATURES = 15


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

        The ``2^d`` coalition values of *all* rows come from one
        :func:`~repro.core.explainers.base.coalition_values` call, so
        the subset enumeration and the Shapley weight accumulation are
        paid once per batch instead of once per sample.
        """
        X = self._check_batch(X, self.background.shape[1])
        if X.shape[0] == 0:
            return self._empty_batch(X)
        n, d = X.shape
        subsets = [
            subset
            for size in range(d + 1)
            for subset in combinations(range(d), size)
        ]
        masks = np.zeros((len(subsets), d), dtype=bool)
        for j, subset in enumerate(subsets):
            masks[j, list(subset)] = True
        V = coalition_values(self.predict_fn, X, masks, self.background)
        values = {frozenset(subset): v for subset, v in zip(subsets, V)}

        phi = np.zeros((n, d))
        features = range(d)
        for i in features:
            others = [j for j in features if j != i]
            for size in range(d):
                weight = 1.0 / (d * comb(d - 1, size))
                for subset in combinations(others, size):
                    s = frozenset(subset)
                    phi[:, i] += weight * (values[s | {i}] - values[s])
        predictions = np.asarray(self.predict_fn(X), dtype=float)
        return self._batch_from_matrix(
            X, phi, values[frozenset()].copy(), predictions,
            extras={"n_subsets": 2**d},
        )
