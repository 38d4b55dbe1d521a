"""LinearSHAP: closed-form Shapley values for linear models.

For ``f(x) = w . x + b`` and independent features, the Shapley value of
feature ``i`` is exactly ``w_i * (x_i - E[x_i])`` — no sampling needed.
For logistic regression the explained output is the log-odds margin
(the additive quantity); probabilities are not additive in the
features.
"""

from __future__ import annotations

import numpy as np

from repro.core.explainers.base import BatchExplanation, Explainer
from repro.ml.linear import LinearRegression, LogisticRegression, RidgeRegression

__all__ = ["LinearShapExplainer"]


class LinearShapExplainer(Explainer):
    """Exact Shapley attribution for linear/logistic models.

    Parameters
    ----------
    model:
        A fitted :class:`LinearRegression`, :class:`RidgeRegression` or
        :class:`LogisticRegression`.
    background:
        Data whose column means define ``E[x]``.
    class_index:
        For logistic models: which class's margin to explain.
    """

    method_name = "linear_shap"

    def __init__(self, model, background, feature_names=None, *, class_index: int = 1):
        if isinstance(model, (LinearRegression, RidgeRegression)):
            coef = np.asarray(model.coef_, dtype=float)
            intercept = float(model.intercept_)
        elif isinstance(model, LogisticRegression):
            if not 0 <= class_index < len(model.classes_):
                raise ValueError(
                    f"class_index {class_index} out of range for "
                    f"{len(model.classes_)} classes"
                )
            coef = np.asarray(model.coef_[:, class_index], dtype=float)
            intercept = float(model.intercept_[class_index])
        else:
            raise TypeError(
                "LinearShapExplainer supports LinearRegression, "
                f"RidgeRegression and LogisticRegression; got "
                f"{type(model).__name__}"
            )
        background = self._set_background(
            background, feature_names, n_features=len(coef)
        )
        self.model = model
        self.coef_ = coef
        self.intercept_ = intercept
        self.mean_ = background.mean(axis=0)
        self.expected_value_ = float(self.mean_ @ coef + intercept)

    def explain_batch(self, X) -> BatchExplanation:
        """Closed-form LinearSHAP for every row at once:
        ``phi = coef * (X - E[x])`` — a single broadcasted product."""
        X = self._check_batch(X, len(self.coef_))
        if X.shape[0] == 0:
            return self._empty_batch(X)
        phi = self.coef_ * (X - self.mean_)
        predictions = X @ self.coef_ + self.intercept_
        return self._batch_from_matrix(
            X, phi, np.full(len(X), self.expected_value_), predictions
        )
