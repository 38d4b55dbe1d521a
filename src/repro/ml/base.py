"""Estimator base classes and shared conventions.

Every estimator follows the scikit-learn convention: hyper-parameters are
constructor arguments stored verbatim as attributes; state learned by
``fit`` is stored in attributes ending with an underscore; ``fit`` returns
``self`` so calls can be chained.
"""

from __future__ import annotations

import inspect

import numpy as np

from repro.ml import metrics as _metrics

__all__ = ["BaseEstimator", "ClassifierMixin", "RegressorMixin"]


class BaseEstimator:
    """Common plumbing: parameter introspection and ``repr``."""

    @classmethod
    def _param_names(cls) -> list[str]:
        init = cls.__init__
        sig = inspect.signature(init)
        return [
            name
            for name, p in sig.parameters.items()
            if name != "self" and p.kind != inspect.Parameter.VAR_KEYWORD
        ]

    def get_params(self) -> dict:
        """Return the constructor hyper-parameters as a dict."""
        return {name: getattr(self, name) for name in self._param_names()}

    def set_params(self, **params) -> "BaseEstimator":
        """Set hyper-parameters; unknown names raise ``ValueError``."""
        valid = set(self._param_names())
        for key, value in params.items():
            if key not in valid:
                raise ValueError(
                    f"unknown parameter {key!r} for {type(self).__name__}; "
                    f"valid: {sorted(valid)}"
                )
            setattr(self, key, value)
        return self

    def clone(self) -> "BaseEstimator":
        """Return an unfitted copy with the same hyper-parameters."""
        return type(self)(**self.get_params())

    def __repr__(self) -> str:
        params = ", ".join(f"{k}={v!r}" for k, v in self.get_params().items())
        return f"{type(self).__name__}({params})"


class ClassifierMixin:
    """Adds ``score`` (accuracy) and class-label plumbing."""

    _estimator_type = "classifier"

    def score(self, X, y) -> float:
        """Mean accuracy of ``predict(X)`` against ``y``."""
        return _metrics.accuracy_score(np.asarray(y), self.predict(X))

    def _encode_labels(self, y: np.ndarray, *, allow_single_class: bool = False) -> np.ndarray:
        """Store ``classes_`` and return ``y`` as integer codes.

        ``allow_single_class`` is used by single trees, which may fit
        one class only (as a forest member whose bootstrap missed a
        class does).
        """
        self.classes_, codes = np.unique(y, return_inverse=True)
        if len(self.classes_) < 2 and not allow_single_class:
            raise ValueError(
                f"need at least 2 classes, got {len(self.classes_)}"
            )
        return codes

    def _decode_labels(self, codes: np.ndarray) -> np.ndarray:
        return self.classes_[codes]


class RegressorMixin:
    """Adds ``score`` (coefficient of determination R^2)."""

    _estimator_type = "regressor"

    def score(self, X, y) -> float:
        """R^2 of ``predict(X)`` against ``y``."""
        return _metrics.r2_score(np.asarray(y, dtype=float), self.predict(X))
