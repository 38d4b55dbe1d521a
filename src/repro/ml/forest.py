"""Random forests built on the CART trees in :mod:`repro.ml.tree`.

Bootstrap aggregation with per-tree feature subsampling.  The fitted
``estimators_`` list exposes each tree's :class:`TreeStructure`, which is
what :class:`repro.core.explainers.TreeShapExplainer` consumes.
"""

from __future__ import annotations

import numpy as np

from repro.ml.base import BaseEstimator, ClassifierMixin, RegressorMixin
from repro.ml.packed import PackedModelMixin
from repro.ml.tree import (
    DecisionTreeClassifier,
    DecisionTreeRegressor,
    training_columns,
)
from repro.utils.rng import check_random_state, spawn_rngs
from repro.utils.validation import check_array, check_fitted, check_X_y

__all__ = ["RandomForestClassifier", "RandomForestRegressor"]


class _BaseForest(PackedModelMixin, BaseEstimator):
    def __init__(
        self,
        n_estimators: int = 100,
        max_depth=None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features="sqrt",
        bootstrap: bool = True,
        oob_score: bool = False,
        random_state=None,
    ):
        if n_estimators < 1:
            raise ValueError(f"n_estimators must be >= 1, got {n_estimators}")
        if oob_score and not bootstrap:
            raise ValueError("oob_score requires bootstrap=True")
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.bootstrap = bootstrap
        self.oob_score = oob_score
        self.random_state = random_state
        self.estimators_ = None

    def _make_tree(self, rng):
        raise NotImplementedError

    def _fit_member(self, tree, XT, ranks, y, sample, counts) -> None:
        raise NotImplementedError

    def _fit_forest(self, X: np.ndarray, y: np.ndarray):
        self._invalidate_packed()
        rng = check_random_state(self.random_state)
        tree_rngs = spawn_rngs(rng, self.n_estimators)
        n = len(X)
        XT, ranks = training_columns(X)
        self.estimators_ = []
        self._oob_masks = []
        for tree_rng in tree_rngs:
            if self.bootstrap:
                sample = tree_rng.integers(0, n, size=n)
            else:
                sample = np.arange(n)
            counts = np.bincount(sample, minlength=n)
            tree = self._make_tree(tree_rng)
            self._fit_member(tree, XT, ranks, y, sample, counts)
            self.estimators_.append(tree)
            if self.oob_score:
                self._oob_masks.append(counts == 0)
        self.n_features_in_ = X.shape[1]
        importances = np.mean(
            [t.feature_importances_ for t in self.estimators_], axis=0
        )
        s = importances.sum()
        self.feature_importances_ = importances / s if s > 0 else importances


class RandomForestClassifier(_BaseForest, ClassifierMixin):
    """Bagged CART classifier; predictions average per-tree class
    probabilities (soft voting)."""

    packed_output = "proba"

    def fit(self, X, y) -> "RandomForestClassifier":
        X, y = check_X_y(X, y)
        codes = self._encode_labels(y)
        self._codes_seen = np.unique(codes)
        self._fit_forest(X, codes)
        if self.oob_score:
            self.oob_score_ = self._compute_oob(X, codes)
        return self

    def _fit_member(self, tree, XT, ranks, codes, sample, counts) -> None:
        # gini rests on integer class counts, which do not depend on the
        # order of the rows: grow on the distinct drawn rows, weighted
        rows = np.flatnonzero(counts)
        tree._fit_rows(XT, ranks, codes, rows, counts[rows])

    def _make_tree(self, rng):
        return DecisionTreeClassifier(
            max_depth=self.max_depth,
            min_samples_split=self.min_samples_split,
            min_samples_leaf=self.min_samples_leaf,
            max_features=self.max_features,
            random_state=rng,
        )

    def predict_proba(self, X) -> np.ndarray:
        """Mean of per-tree class probabilities, columns as ``classes_``.

        Evaluated by the packed ensemble engine (one fused traversal of
        all trees); byte-identical to the per-tree reference loop.
        """
        check_fitted(self, "estimators_")
        X = check_array(X, name="X")
        return self.packed_ensemble().predict(X)

    def predict(self, X) -> np.ndarray:
        return self._decode_labels(np.argmax(self.predict_proba(X), axis=1))

    def _compute_oob(self, X, codes) -> float:
        packed = self.packed_ensemble()
        leaves = packed.apply(X)
        votes = np.zeros((len(X), len(self.classes_)))
        counts = np.zeros(len(X))
        for t, mask in enumerate(self._oob_masks):
            if not np.any(mask):
                continue
            votes[mask] += packed.value[leaves[mask, t]]
            counts[mask] += 1
        covered = counts > 0
        if not np.any(covered):
            return float("nan")
        pred = np.argmax(votes[covered], axis=1)
        return float(np.mean(pred == codes[covered]))


class RandomForestRegressor(_BaseForest, RegressorMixin):
    """Bagged CART regressor; predictions average per-tree outputs."""

    packed_output = "predict"

    def __init__(
        self,
        n_estimators: int = 100,
        max_depth=None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features=1.0,
        bootstrap: bool = True,
        oob_score: bool = False,
        random_state=None,
    ):
        super().__init__(
            n_estimators=n_estimators,
            max_depth=max_depth,
            min_samples_split=min_samples_split,
            min_samples_leaf=min_samples_leaf,
            max_features=max_features,
            bootstrap=bootstrap,
            oob_score=oob_score,
            random_state=random_state,
        )

    def fit(self, X, y) -> "RandomForestRegressor":
        X, y = check_X_y(X, y, y_numeric=True)
        self._fit_forest(X, y)
        if self.oob_score:
            self.oob_score_ = self._compute_oob(X, y)
        return self

    def _fit_member(self, tree, XT, ranks, y, sample, counts) -> None:
        # running sums of float y round by row order: keep the draws
        tree._fit_rows(XT, ranks, y, sample)

    def _make_tree(self, rng):
        return DecisionTreeRegressor(
            max_depth=self.max_depth,
            min_samples_split=self.min_samples_split,
            min_samples_leaf=self.min_samples_leaf,
            max_features=self.max_features,
            random_state=rng,
        )

    def predict(self, X) -> np.ndarray:
        """Mean of per-tree predictions, evaluated by the packed
        ensemble engine (byte-identical to the per-tree loop)."""
        check_fitted(self, "estimators_")
        X = check_array(X, name="X")
        return self.packed_ensemble().predict(X)[:, 0]

    def _compute_oob(self, X, y) -> float:
        packed = self.packed_ensemble()
        leaves = packed.apply(X)
        sums = np.zeros(len(X))
        counts = np.zeros(len(X))
        for t, mask in enumerate(self._oob_masks):
            if not np.any(mask):
                continue
            sums[mask] += packed.value[leaves[mask, t], 0]
            counts[mask] += 1
        covered = counts > 0
        if not np.any(covered):
            return float("nan")
        pred = sums[covered] / counts[covered]
        resid = y[covered] - pred
        ss_tot = np.sum((y[covered] - y[covered].mean()) ** 2)
        if ss_tot == 0:
            return 0.0
        return float(1.0 - np.sum(resid**2) / ss_tot)
