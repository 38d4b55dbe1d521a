"""Integrated Gradients for the MLP models (Sundararajan et al. 2017).

The gradient-based member of the explainer family: attribute by
integrating the model's analytic input gradient along the straight
path from a baseline to the instance,

    phi_i = (x_i - b_i) * mean_k  dF/dx_i (b + alpha_k (x - b)).

Satisfies completeness (= Shapley efficiency against the baseline
output) in the limit of many steps; the midpoint rule used here
converges fast for smooth MLPs.  Only works for models that expose
``input_gradients`` (:class:`~repro.ml.mlp.MLPClassifier` /
:class:`~repro.ml.mlp.MLPRegressor`).
"""

from __future__ import annotations

import numpy as np

from repro.core.explainers.base import BatchExplanation, Explainer

__all__ = ["IntegratedGradientsExplainer"]

#: Upper bound on path points per stacked ``input_gradients`` call.
_ROW_BUDGET = 32768


class IntegratedGradientsExplainer(Explainer):
    """Path-integrated gradient attribution for MLPs.

    Parameters
    ----------
    model:
        A fitted MLP exposing ``input_gradients(X, output_index)``.
    background:
        Rows whose mean is the integration baseline (or pass
        ``baseline`` explicitly).
    n_steps:
        Riemann-midpoint steps along the path; more steps shrink the
        completeness gap.
    class_index:
        For classifiers: which logit to explain.  The ``prediction``
        field of the returned explanation is that logit.
    """

    method_name = "integrated_gradients"

    def __init__(
        self,
        model,
        background=None,
        feature_names=None,
        *,
        baseline=None,
        n_steps: int = 64,
        class_index: int = 1,
    ):
        if not hasattr(model, "input_gradients"):
            raise TypeError(
                "IntegratedGradientsExplainer needs a model with "
                f"input_gradients(); got {type(model).__name__}"
            )
        if n_steps < 1:
            raise ValueError(f"n_steps must be >= 1, got {n_steps}")
        if (background is None) == (baseline is None):
            raise ValueError("pass exactly one of background or baseline")
        d = model.n_features_in_
        if baseline is None:
            baseline = self._set_background(
                background, feature_names, n_features=d
            ).mean(axis=0)
        else:
            self._set_feature_names(feature_names, d)
        self.baseline = np.asarray(baseline, dtype=float).ravel()
        if len(self.baseline) != d:
            raise ValueError(
                f"baseline has {len(self.baseline)} features, model expects {d}"
            )
        self.model = model
        self.n_steps = int(n_steps)
        # regressors have a single output column; classifiers one per class
        self.output_index = (
            class_index if getattr(model, "classes_", None) is not None else 0
        )
        out_dim = model.weights_[-1].shape[1]
        if not 0 <= self.output_index < out_dim:
            raise ValueError(
                f"class_index {class_index} out of range for {out_dim} outputs"
            )
        self.expected_value_ = self._raw_output(self.baseline.reshape(1, -1))[0]

    def _raw_output(self, X: np.ndarray) -> np.ndarray:
        """The explained scalar: logit column for classifiers, the
        prediction for regressors."""
        _, activations = self.model._forward(np.asarray(X, dtype=float))
        return activations[-1][:, self.output_index]

    def explain_batch(self, X) -> BatchExplanation:
        """Integrated gradients for every row of ``X``.

        The ``n_steps`` midpoint-rule points on each row's straight path
        from the baseline are stacked, and one ``input_gradients`` call
        per block of rows evaluates them all.
        """
        X = self._check_batch(X, len(self.baseline))
        if X.shape[0] == 0:
            return self._empty_batch(X)
        n, d = X.shape
        alphas = (np.arange(self.n_steps) + 0.5) / self.n_steps
        delta = X - self.baseline
        phi = np.empty((n, d))
        block = max(1, _ROW_BUDGET // self.n_steps)
        for start in range(0, n, block):
            rows = delta[start : start + block]
            points = self.baseline + alphas[None, :, None] * rows[:, None, :]
            grads = self.model.input_gradients(
                points.reshape(-1, d), self.output_index
            ).reshape(len(rows), self.n_steps, d)
            phi[start : start + len(rows)] = rows * grads.mean(axis=1)
        return self._batch_from_matrix(
            X, phi, np.full(n, float(self.expected_value_)),
            self._raw_output(X), extras={"n_steps": self.n_steps},
        )
