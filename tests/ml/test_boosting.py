"""Tests for repro.ml.boosting."""

import numpy as np
import pytest
from oracles.per_tree_loops import staged_raw

from repro.ml import (
    GradientBoostingClassifier,
    GradientBoostingRegressor,
)
from repro.ml.metrics import log_loss


class TestGradientBoostingRegressor:
    def test_training_loss_decreases_monotonically(self, regression_data):
        X, y = regression_data
        model = GradientBoostingRegressor(
            n_estimators=30, learning_rate=0.2, random_state=0
        ).fit(X, y)
        losses = np.asarray(model.train_score_)
        assert np.all(np.diff(losses) <= 1e-12)

    def test_fits_nonlinear_function(self, rng):
        X = rng.uniform(-2, 2, size=(400, 2))
        y = X[:, 0] ** 2 + np.sin(2 * X[:, 1])
        model = GradientBoostingRegressor(
            n_estimators=80, learning_rate=0.2, random_state=0
        ).fit(X, y)
        assert model.score(X, y) > 0.95

    def test_more_stages_fit_train_better(self, regression_data):
        X, y = regression_data
        few = GradientBoostingRegressor(n_estimators=5, random_state=0).fit(X, y)
        many = GradientBoostingRegressor(n_estimators=60, random_state=0).fit(X, y)
        assert many.score(X, y) > few.score(X, y)

    def test_staged_predictions_converge_to_final(self, regression_data):
        X, y = regression_data
        model = GradientBoostingRegressor(n_estimators=10, random_state=0).fit(X, y)
        stages = list(model.staged_raw_predict(X[:20]))
        assert len(stages) == 10
        for stage, want in zip(stages, staged_raw(model, X[:20])):
            assert np.array_equal(stage, want)
        assert np.array_equal(stages[-1], model.predict(X[:20]))

    def test_init_prediction_is_mean(self, regression_data):
        X, y = regression_data
        model = GradientBoostingRegressor(n_estimators=1, random_state=0).fit(X, y)
        assert model.init_prediction_ == pytest.approx(float(np.mean(y)))

    def test_subsample(self, regression_data):
        X, y = regression_data
        model = GradientBoostingRegressor(
            n_estimators=20, subsample=0.5, random_state=0
        ).fit(X, y)
        assert model.score(X, y) > 0.5

    def test_param_validation(self):
        with pytest.raises(ValueError, match="n_estimators"):
            GradientBoostingRegressor(n_estimators=0)
        with pytest.raises(ValueError, match="learning_rate"):
            GradientBoostingRegressor(learning_rate=0.0)
        with pytest.raises(ValueError, match="subsample"):
            GradientBoostingRegressor(subsample=1.5)


class TestGradientBoostingClassifier:
    def test_log_loss_decreases(self, classification_data):
        X, y = classification_data
        model = GradientBoostingClassifier(
            n_estimators=30, random_state=0
        ).fit(X, y)
        losses = np.asarray(model.train_score_)
        assert losses[-1] < losses[0]

    def test_accuracy_on_nonlinear_boundary(self, classification_data):
        X, y = classification_data
        model = GradientBoostingClassifier(
            n_estimators=60, learning_rate=0.2, random_state=0
        ).fit(X, y)
        assert model.score(X, y) > 0.9

    def test_predict_proba_valid(self, classification_data):
        X, y = classification_data
        proba = GradientBoostingClassifier(
            n_estimators=15, random_state=0
        ).fit(X, y).predict_proba(X)
        np.testing.assert_allclose(proba.sum(axis=1), 1.0, atol=1e-12)
        assert proba.min() >= 0.0 and proba.max() <= 1.0

    def test_margin_consistent_with_proba(self, classification_data):
        X, y = classification_data
        model = GradientBoostingClassifier(n_estimators=10, random_state=0).fit(X, y)
        margin = model.decision_function(X[:30])
        proba = model.predict_proba(X[:30])[:, 1]
        np.testing.assert_allclose(proba, 1.0 / (1.0 + np.exp(-margin)))

    def test_newton_update_beats_raw_residual_fit(self, classification_data):
        """The Newton leaf step should reach low loss quickly."""
        X, y = classification_data
        model = GradientBoostingClassifier(
            n_estimators=20, learning_rate=0.3, random_state=0
        ).fit(X, y)
        assert log_loss(y, model.predict_proba(X)[:, 1]) < 0.3

    def test_multiclass_rejected(self, rng):
        X = rng.normal(size=(60, 2))
        y = rng.integers(0, 3, 60)
        with pytest.raises(ValueError, match="binary"):
            GradientBoostingClassifier().fit(X, y)

    def test_string_labels(self, rng):
        X = rng.normal(size=(150, 2))
        y = np.where(X[:, 0] > 0, "yes", "no")
        model = GradientBoostingClassifier(n_estimators=10, random_state=0).fit(X, y)
        assert set(model.predict(X)) <= {"yes", "no"}
