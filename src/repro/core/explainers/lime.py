"""LIME for tabular data (Ribeiro, Singh & Guestrin, KDD 2016).

The classic recipe: sample perturbations of the instance in
*standardized* feature space, query the black box, weight samples by an
exponential kernel on distance to the instance, and fit a (weighted)
ridge surrogate.  The surrogate's weighted R² is reported as the local
fidelity — experiment E4 sweeps it against the sampling width.

Attribution convention: we report ``coef_i * (x_i - mean_i) / std_i``,
i.e. the LinearSHAP values *of the local surrogate* w.r.t. the training
mean.  This makes LIME's output directly comparable to the SHAP-family
explainers in faithfulness/agreement experiments (E5, E7), instead of
mixing "sensitivities" with "contributions".
"""

from __future__ import annotations

import numpy as np

from repro.core.explainers.base import BatchExplanation, Explainer
from repro.ml.linear import solve_weighted_ridge
from repro.utils.rng import check_random_state

__all__ = ["LimeExplainer"]

#: Upper bound on rows per stacked model call when batching instances.
_ROW_BUDGET = 32768


class LimeExplainer(Explainer):
    """Local surrogate explanations for any model.

    Parameters
    ----------
    predict_fn:
        ``f(X) -> 1-D scores``.
    training_data:
        Data defining feature means/stds for standardization and
        perturbation scales.
    n_samples:
        Perturbations per explanation.
    kernel_width:
        Width of the exponential weighting kernel in standardized
        distance units; defaults to ``0.75 * sqrt(d)`` (the reference
        implementation's default).
    sampling_scale:
        Standard deviation of the perturbations, in units of each
        feature's std.
    n_features:
        If set, keep only the ``k`` largest-|coef| features and refit
        the surrogate on them (classic LIME feature selection); the
        remaining attributions are exactly zero.
    alpha:
        Ridge regularization of the surrogate.
    """

    method_name = "lime"

    def __init__(
        self,
        predict_fn,
        training_data,
        feature_names=None,
        *,
        n_samples: int = 1000,
        kernel_width: float | None = None,
        sampling_scale: float = 1.0,
        n_features: int | None = None,
        alpha: float = 1e-3,
        random_state=None,
    ):
        if n_samples < 10:
            raise ValueError(f"n_samples must be >= 10, got {n_samples}")
        if sampling_scale <= 0:
            raise ValueError(f"sampling_scale must be positive, got {sampling_scale}")
        if alpha < 0:
            raise ValueError(f"alpha must be >= 0, got {alpha}")
        training_data = self._set_background(
            training_data, feature_names, name="training_data"
        )
        d = training_data.shape[1]
        if n_features is not None and not 1 <= n_features <= d:
            raise ValueError(
                f"n_features must be in [1, {d}], got {n_features}"
            )
        self.predict_fn = predict_fn
        self.mean_ = training_data.mean(axis=0)
        std = training_data.std(axis=0)
        self.std_ = np.where(std > 0, std, 1.0)
        self.n_samples = int(n_samples)
        self.kernel_width = (
            float(kernel_width) if kernel_width is not None else 0.75 * np.sqrt(d)
        )
        if self.kernel_width <= 0:
            raise ValueError(f"kernel_width must be positive, got {kernel_width}")
        self.sampling_scale = float(sampling_scale)
        self.n_features = n_features
        self.alpha = float(alpha)
        self.random_state = random_state

    # ------------------------------------------------------------------
    def _fit_local_surrogate(
        self, x_std: np.ndarray, z_std: np.ndarray, targets: np.ndarray
    ) -> tuple[np.ndarray, dict]:
        """Fit the weighted ridge surrogate around one standardized
        instance and return ``(attributions, extras)``."""
        d = len(x_std)
        distances = np.sqrt(np.sum((z_std - x_std) ** 2, axis=1))
        weights = np.exp(-(distances**2) / self.kernel_width**2)

        coef, intercept = solve_weighted_ridge(
            z_std, targets, weights, alpha=self.alpha
        )
        selected = np.arange(d)
        if self.n_features is not None and self.n_features < d:
            selected = np.argsort(-np.abs(coef))[: self.n_features]
            coef_sel, intercept = solve_weighted_ridge(
                z_std[:, selected], targets, weights, alpha=self.alpha
            )
            coef = np.zeros(d)
            coef[selected] = coef_sel

        fidelity = self._weighted_r2(z_std, targets, weights, coef, intercept)
        phi = coef * x_std
        extras = {
            "fidelity_r2": fidelity,
            "coefficients": coef,
            "intercept": float(intercept),
            "selected_features": selected,
            "kernel_width": self.kernel_width,
        }
        return phi, extras

    def explain_batch(self, X) -> BatchExplanation:
        """LIME over every row of ``X``.

        One perturbation noise matrix is drawn and shared by all rows
        (so a row's attributions do not depend on the batch it rides
        in, for integer seeds), and the black-box queries of many rows
        are stacked into large ``predict_fn`` calls — the dominant
        cost.  Each row gets its own weighted ridge surrogate
        (:meth:`_fit_local_surrogate`).
        """
        X = self._check_batch(X, len(self.mean_))
        if X.shape[0] == 0:
            return self._empty_batch(X)
        n, d = X.shape
        rng = check_random_state(self.random_state)
        noise = rng.normal(
            0.0, self.sampling_scale, size=(self.n_samples, d)
        )
        X_std = (X - self.mean_) / self.std_

        values = np.empty((n, d))
        base_values = np.empty(n)
        predictions = np.empty(n)
        sample_extras: list[dict] = []
        chunk = max(1, _ROW_BUDGET // self.n_samples)
        for start in range(0, n, chunk):
            Xc = X_std[start : start + chunk]
            z_std = Xc[:, None, :] + noise[None, :, :]
            z_std[:, 0, :] = Xc  # always include the instance itself
            z_raw = z_std * self.std_ + self.mean_
            targets = np.asarray(
                self.predict_fn(z_raw.reshape(-1, d)), dtype=float
            ).reshape(len(Xc), self.n_samples)
            for i in range(len(Xc)):
                phi, extras = self._fit_local_surrogate(
                    Xc[i], z_std[i], targets[i]
                )
                row = start + i
                values[row] = phi
                predictions[row] = targets[i, 0]
                base_values[row] = predictions[row] - float(phi.sum())
                sample_extras.append(extras)
        return self._batch_from_matrix(
            X, values, base_values, predictions, sample_extras=sample_extras
        )

    @staticmethod
    def _weighted_r2(Z, y, w, coef, intercept) -> float:
        pred = Z @ coef + intercept
        w_sum = w.sum()
        if w_sum <= 0:
            return 0.0
        y_bar = float(np.sum(w * y) / w_sum)
        ss_res = float(np.sum(w * (y - pred) ** 2))
        ss_tot = float(np.sum(w * (y - y_bar) ** 2))
        if ss_tot == 0.0:
            return 1.0 if ss_res == 0.0 else 0.0
        return 1.0 - ss_res / ss_tot
