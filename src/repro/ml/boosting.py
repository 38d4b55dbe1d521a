"""Gradient-boosted decision trees.

* :class:`GradientBoostingRegressor` — squared loss; each stage fits a
  regression tree to the current residuals.
* :class:`GradientBoostingClassifier` — binary logistic loss; each stage
  fits a tree to the gradient residuals and then re-optimizes each leaf
  with a single Newton step (the classic Friedman update).

Both expose ``estimators_`` (list of fitted trees), ``learning_rate`` and
``init_prediction_`` so TreeSHAP can explain the ensemble margin exactly.
"""

from __future__ import annotations

import numpy as np

from repro.ml.base import BaseEstimator, ClassifierMixin, RegressorMixin
from repro.ml.packed import PackedModelMixin
from repro.ml.tree import DecisionTreeRegressor
from repro.utils.rng import check_random_state, spawn_rngs
from repro.utils.validation import check_array, check_fitted, check_X_y

__all__ = ["GradientBoostingRegressor", "GradientBoostingClassifier"]


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z, dtype=float)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


class _BaseGradientBoosting(PackedModelMixin, BaseEstimator):
    def __init__(
        self,
        n_estimators: int = 100,
        learning_rate: float = 0.1,
        max_depth: int = 3,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        subsample: float = 1.0,
        random_state=None,
    ):
        if n_estimators < 1:
            raise ValueError(f"n_estimators must be >= 1, got {n_estimators}")
        if learning_rate <= 0:
            raise ValueError(f"learning_rate must be positive, got {learning_rate}")
        if not 0.0 < subsample <= 1.0:
            raise ValueError(f"subsample must be in (0, 1], got {subsample}")
        self.n_estimators = n_estimators
        self.learning_rate = learning_rate
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.subsample = subsample
        self.random_state = random_state
        self.estimators_ = None
        self.init_prediction_ = None

    def _make_tree(self, rng) -> DecisionTreeRegressor:
        return DecisionTreeRegressor(
            max_depth=self.max_depth,
            min_samples_split=self.min_samples_split,
            min_samples_leaf=self.min_samples_leaf,
            random_state=rng,
        )

    def _stage_rows(self, rng, n: int) -> np.ndarray:
        if self.subsample >= 1.0:
            return np.arange(n)
        size = max(1, int(self.subsample * n))
        return rng.choice(n, size=size, replace=False)

    def _raw_predict(self, X: np.ndarray) -> np.ndarray:
        """Additive margin via the packed ensemble engine
        (byte-identical to the per-stage loop
        ``init + sum(learning_rate * tree.predict(X))``)."""
        return self.packed_ensemble().predict(X)[:, 0]

    def staged_raw_predict(self, X):
        """Yield raw predictions after each boosting stage (for tests
        of monotone training-loss decrease and early-stopping studies):
        the rows of the packed ensemble's running sums, the last of
        which is the final margin."""
        check_fitted(self, "estimators_")
        X = check_array(X, name="X")
        yield from self.packed_ensemble().staged_sums(X)[1:, :, 0]


class GradientBoostingRegressor(_BaseGradientBoosting, RegressorMixin):
    """Least-squares gradient boosting."""

    packed_output = "predict"

    def fit(self, X, y) -> "GradientBoostingRegressor":
        X, y = check_X_y(X, y, y_numeric=True)
        self._invalidate_packed()
        rng = check_random_state(self.random_state)
        stage_rngs = spawn_rngs(rng, self.n_estimators)
        self.init_prediction_ = float(np.mean(y))
        current = np.full(len(y), self.init_prediction_)
        self.estimators_ = []
        self.train_score_ = []
        for stage_rng in stage_rngs:
            rows = self._stage_rows(stage_rng, len(y))
            residual = y - current
            tree = self._make_tree(stage_rng)
            tree.fit(X[rows], residual[rows])
            # read the tree directly: X was validated at fit entry, and
            # tree.predict would build a throwaway per-stage packed form
            current += self.learning_rate * tree.tree_.predict_value(X)[:, 0]
            self.estimators_.append(tree)
            self.train_score_.append(float(np.mean((y - current) ** 2)))
        self.n_features_in_ = X.shape[1]
        return self

    def predict(self, X) -> np.ndarray:
        check_fitted(self, "estimators_")
        X = check_array(X, name="X")
        return self._raw_predict(X)


class GradientBoostingClassifier(_BaseGradientBoosting, ClassifierMixin):
    """Binary logistic-loss gradient boosting with Newton leaf updates.

    Multi-class problems are out of scope (raise); the NFV SLA-violation
    task this library targets is binary.
    """

    packed_output = "margin"

    def fit(self, X, y) -> "GradientBoostingClassifier":
        X, y = check_X_y(X, y)
        codes = self._encode_labels(y)
        if len(self.classes_) != 2:
            raise ValueError(
                "GradientBoostingClassifier supports binary targets only; "
                f"got {len(self.classes_)} classes"
            )
        self._invalidate_packed()
        rng = check_random_state(self.random_state)
        stage_rngs = spawn_rngs(rng, self.n_estimators)
        target = codes.astype(float)
        p0 = np.clip(target.mean(), 1e-6, 1 - 1e-6)
        self.init_prediction_ = float(np.log(p0 / (1 - p0)))
        margin = np.full(len(target), self.init_prediction_)
        self.estimators_ = []
        self.train_score_ = []
        for stage_rng in stage_rngs:
            rows = self._stage_rows(stage_rng, len(target))
            p = _sigmoid(margin)
            residual = target - p
            tree = self._make_tree(stage_rng)
            tree.fit(X[rows], residual[rows])
            self._newton_leaf_update(tree, X[rows], residual[rows], p[rows])
            margin += self.learning_rate * tree.tree_.predict_value(X)[:, 0]
            self.estimators_.append(tree)
            p_now = _sigmoid(margin)
            loss = -np.mean(
                target * np.log(np.clip(p_now, 1e-12, 1))
                + (1 - target) * np.log(np.clip(1 - p_now, 1e-12, 1))
            )
            self.train_score_.append(float(loss))
        self.n_features_in_ = X.shape[1]
        return self

    @staticmethod
    def _newton_leaf_update(tree, X, residual, p) -> None:
        """Replace each leaf value by ``sum(res) / sum(p(1-p))``."""
        leaves = tree.tree_.apply(X)
        hess = np.maximum(p * (1 - p), 1e-12)
        for leaf in np.unique(leaves):
            rows = leaves == leaf
            tree.tree_.value[leaf, 0] = residual[rows].sum() / hess[rows].sum()
        # leaf values changed in place: drop any packed snapshot so a
        # later tree.predict cannot serve the pre-update values
        tree._invalidate_packed()

    def decision_function(self, X) -> np.ndarray:
        """Additive log-odds margin (what TreeSHAP explains)."""
        check_fitted(self, "estimators_")
        X = check_array(X, name="X")
        return self._raw_predict(X)

    def predict_proba(self, X) -> np.ndarray:
        p = _sigmoid(self.decision_function(X))
        return np.column_stack([1 - p, p])

    def predict(self, X) -> np.ndarray:
        return self._decode_labels(
            (self.decision_function(X) > 0).astype(int)
        )
