"""Monte-Carlo permutation sampling of Shapley values.

The third canonical Shapley estimator (besides kernel regression and
tree traversal): draw random feature permutations and accumulate each
feature's marginal contribution when it joins the coalition of features
preceding it (Castro et al. 2009; `shap.SamplingExplainer`).

Compared to KernelSHAP it needs no linear solve and its estimates are
unbiased per-feature, but it converges slower per model evaluation —
the E8 bench quantifies this trade-off.
"""

from __future__ import annotations

import numpy as np

from repro.core.explainers.base import BatchExplanation, Explainer
from repro.utils.rng import check_random_state

__all__ = ["SamplingShapleyExplainer"]

#: Upper bound on rows per stacked model call when batching walks.
_ROW_BUDGET = 32768


class SamplingShapleyExplainer(Explainer):
    """Permutation-sampling Shapley attribution.

    Parameters
    ----------
    predict_fn:
        ``f(X) -> 1-D scores``.
    background:
        Background rows defining the "feature absent" distribution.
    n_permutations:
        Random permutations per explanation; each costs ``d + 1``
        coalition evaluations (``d * n_background`` model rows total).
    antithetic:
        Also walk each permutation in reverse order — pairs the
        marginal contributions and reduces variance at no extra model
        cost beyond the second walk.
    """

    method_name = "sampling_shapley"

    def __init__(
        self,
        predict_fn,
        background,
        feature_names=None,
        *,
        n_permutations: int = 64,
        antithetic: bool = True,
        random_state=None,
    ):
        if n_permutations < 1:
            raise ValueError(
                f"n_permutations must be >= 1, got {n_permutations}"
            )
        self.predict_fn = predict_fn
        self.background = self._set_background(background, feature_names)
        self.n_permutations = int(n_permutations)
        self.antithetic = antithetic
        self.random_state = random_state
        self.expected_value_ = float(
            np.mean(np.asarray(predict_fn(self.background), dtype=float))
        )

    # ------------------------------------------------------------------
    def _walk_batch(
        self, X: np.ndarray, order: np.ndarray, phi: np.ndarray
    ) -> None:
        """Add one permutation walk's contributions for every row of
        ``X`` to ``phi`` (shape ``(n, d)``), evaluating all rows' hybrid
        datasets in a single batched model call."""
        n, d = X.shape
        n_bg = len(self.background)
        steps = np.empty((d + 1, n, n_bg, d))
        current = np.broadcast_to(self.background, (n, n_bg, d)).copy()
        steps[0] = current
        for k, j in enumerate(order):
            current = current.copy()
            current[:, :, j] = X[:, j][:, None]
            steps[k + 1] = current
        values = np.asarray(
            self.predict_fn(steps.reshape(-1, d)), dtype=float
        ).reshape(d + 1, n, n_bg).mean(axis=2)
        phi[:, order] += np.diff(values, axis=0).T

    def explain_batch(self, X) -> BatchExplanation:
        """Permutation sampling over every row of ``X``.

        The random permutations are drawn once and shared by all rows
        (so a row's attributions do not depend on the batch it rides
        in, for integer seeds), and each walk evaluates the hybrid
        datasets of every row in one stacked model call.  Rows are
        processed in blocks to bound the size of the stacked arrays.
        """
        X = self._check_batch(X, self.background.shape[1])
        if X.shape[0] == 0:
            return self._empty_batch(X)
        n, d = X.shape
        rng = check_random_state(self.random_state)
        orders = [rng.permutation(d) for _ in range(self.n_permutations)]

        n_bg = len(self.background)
        phi = np.zeros((n, d))
        block = max(1, _ROW_BUDGET // max(1, (d + 1) * n_bg))
        n_walks = (1 + int(self.antithetic)) * self.n_permutations
        for start in range(0, n, block):
            rows = X[start : start + block]
            view = phi[start : start + len(rows)]
            for order in orders:
                self._walk_batch(rows, order, view)
                if self.antithetic:
                    self._walk_batch(rows, order[::-1], view)
        phi /= n_walks
        predictions = np.asarray(self.predict_fn(X), dtype=float)
        return self._batch_from_matrix(
            X, phi, np.full(n, self.expected_value_), predictions,
            extras={"n_walks": n_walks},
        )
