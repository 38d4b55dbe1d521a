"""Tests for repro.ml.linear."""

import numpy as np
import pytest

from repro.ml import LinearRegression, LogisticRegression, RidgeRegression
from repro.ml.linear import solve_weighted_ridge
from repro.utils.validation import NotFittedError


class TestLinearRegression:
    def test_recovers_coefficients(self, rng):
        X = rng.normal(size=(200, 3))
        w = np.array([2.0, -1.0, 0.5])
        y = X @ w + 3.0
        model = LinearRegression().fit(X, y)
        np.testing.assert_allclose(model.coef_, w, atol=1e-8)
        assert model.intercept_ == pytest.approx(3.0, abs=1e-8)

    def test_no_intercept(self, rng):
        X = rng.normal(size=(100, 2))
        y = X @ np.array([1.0, 2.0])
        model = LinearRegression(fit_intercept=False).fit(X, y)
        assert model.intercept_ == 0.0
        np.testing.assert_allclose(model.coef_, [1.0, 2.0], atol=1e-8)

    def test_score_perfect(self, rng):
        X = rng.normal(size=(50, 2))
        y = X @ np.array([1.0, -1.0]) + 0.5
        assert LinearRegression().fit(X, y).score(X, y) == pytest.approx(1.0)

    def test_unfitted_predict(self):
        with pytest.raises(NotFittedError):
            LinearRegression().predict([[1.0]])


class TestRidgeRegression:
    def test_shrinks_towards_zero(self, rng):
        X = rng.normal(size=(100, 3))
        y = X @ np.array([5.0, -5.0, 2.0]) + rng.normal(0, 0.1, 100)
        ols = LinearRegression().fit(X, y)
        ridge = RidgeRegression(alpha=100.0).fit(X, y)
        assert np.linalg.norm(ridge.coef_) < np.linalg.norm(ols.coef_)

    def test_alpha_zero_matches_ols(self, rng):
        X = rng.normal(size=(80, 3))
        y = X @ np.array([1.0, 2.0, -1.0]) + 1.0
        ols = LinearRegression().fit(X, y)
        ridge = RidgeRegression(alpha=0.0).fit(X, y)
        np.testing.assert_allclose(ridge.coef_, ols.coef_, atol=1e-8)

    def test_negative_alpha_rejected(self):
        with pytest.raises(ValueError, match="alpha"):
            RidgeRegression(alpha=-1.0)

    def test_sample_weight_focuses_fit(self, rng):
        # two clusters with different slopes; weighting one cluster
        # should recover that cluster's slope
        X = np.vstack([np.linspace(0, 1, 50), np.linspace(0, 1, 50)]).reshape(
            100, 1
        )
        y = np.concatenate([2 * X[:50, 0], 10 * X[50:, 0]])
        w = np.concatenate([np.ones(50), np.zeros(50)])
        model = RidgeRegression(alpha=1e-9).fit(X, y, sample_weight=w)
        assert model.coef_[0] == pytest.approx(2.0, abs=1e-6)


class TestSolveWeightedRidge:
    def test_matches_closed_form_ols(self, rng):
        X = rng.normal(size=(60, 2))
        y = X @ np.array([3.0, -1.0]) + 2.0
        coef, intercept = solve_weighted_ridge(X, y)
        np.testing.assert_allclose(coef, [3.0, -1.0], atol=1e-8)
        assert intercept == pytest.approx(2.0, abs=1e-8)

    def test_intercept_not_regularized(self, rng):
        X = rng.normal(size=(100, 1))
        y = np.full(100, 42.0)
        coef, intercept = solve_weighted_ridge(X, y, alpha=1e6)
        assert abs(coef[0]) < 1e-3
        assert intercept == pytest.approx(42.0, abs=0.1)

    def test_negative_weights_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            solve_weighted_ridge(
                np.ones((2, 1)), np.ones(2), np.array([1.0, -1.0])
            )

    def test_singular_design_does_not_crash(self):
        # duplicated column -> singular gram matrix; lstsq must handle it
        X = np.ones((10, 2))
        y = np.arange(10.0)
        coef, intercept = solve_weighted_ridge(X, y)
        assert np.all(np.isfinite(coef))


class TestLogisticRegression:
    def test_separable_data_high_accuracy(self, rng):
        X = rng.normal(size=(300, 2))
        y = (X[:, 0] + X[:, 1] > 0).astype(int)
        model = LogisticRegression(max_iter=300).fit(X, y)
        assert model.score(X, y) > 0.95

    def test_predict_proba_rows_sum_to_one(self, rng):
        X = rng.normal(size=(100, 3))
        y = (X[:, 0] > 0).astype(int)
        proba = LogisticRegression().fit(X, y).predict_proba(X)
        np.testing.assert_allclose(proba.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(proba >= 0)

    def test_multiclass(self, rng):
        X = rng.normal(size=(400, 2))
        y = np.digitize(X[:, 0], [-0.5, 0.5])  # 3 classes
        model = LogisticRegression(max_iter=400).fit(X, y)
        assert len(model.classes_) == 3
        assert model.score(X, y) > 0.8
        assert model.predict_proba(X).shape == (400, 3)

    def test_string_labels(self, rng):
        X = rng.normal(size=(100, 2))
        y = np.where(X[:, 0] > 0, "violate", "ok")
        model = LogisticRegression().fit(X, y)
        assert set(model.predict(X)) <= {"violate", "ok"}

    def test_regularization_shrinks(self, rng):
        X = rng.normal(size=(150, 2))
        y = (X[:, 0] > 0).astype(int)
        weak = LogisticRegression(c=100.0, max_iter=500).fit(X, y)
        strong = LogisticRegression(c=0.01, max_iter=500).fit(X, y)
        assert np.linalg.norm(strong.coef_) < np.linalg.norm(weak.coef_)

    def test_single_class_rejected(self):
        with pytest.raises(ValueError, match="2 classes"):
            LogisticRegression().fit(np.ones((5, 1)), np.zeros(5))

    def test_bad_c_rejected(self):
        with pytest.raises(ValueError, match="c must be positive"):
            LogisticRegression(c=0.0)

    @pytest.mark.parametrize(
        "params, message",
        [
            ({"max_iter": 0}, "max_iter must be >= 1"),
            ({"max_iter": -5}, "max_iter must be >= 1"),
            ({"tol": -1e-6}, "tol must be non-negative"),
            ({"tol": float("nan")}, "tol must be non-negative"),
            ({"learning_rate": -1.0}, "learning_rate must be positive"),
            ({"learning_rate": 0.0}, "learning_rate must be positive"),
            ({"learning_rate": float("nan")}, "learning_rate must be positive"),
        ],
    )
    def test_bad_hyper_parameters_rejected(self, params, message):
        with pytest.raises(ValueError, match=message):
            LogisticRegression(**params)

    def test_single_iteration_and_zero_tol_accepted(self, rng):
        X = rng.normal(size=(20, 2))
        y = (X[:, 0] > 0).astype(int)
        model = LogisticRegression(max_iter=1, tol=0.0).fit(X, y)
        assert model.n_iter_ == 1

    @pytest.mark.parametrize("k", [4, 7, 8, 9])
    def test_many_classes_match_reference_loop(self, rng, k):
        """The fit's row sums are folds over column views below 8
        classes and numpy's pairwise row reduction from 8: both must
        give the reference loop's bytes."""
        from oracles.logistic_gd import logistic_gd

        X = rng.normal(size=(120, 5)) * 3.0
        y = np.arange(120) % k
        model = LogisticRegression(max_iter=150).fit(X, y)
        coef, intercept, n_iter = logistic_gd(X, y, k, max_iter=150)
        assert model.n_iter_ == n_iter
        assert model.coef_.tobytes() == coef.tobytes()
        assert model.intercept_.tobytes() == intercept.tobytes()
