"""Tests for repro.ml.naive_bayes."""

import numpy as np
import pytest

from repro.ml import GaussianNB


class TestGaussianNB:
    def test_well_separated_gaussians(self, rng):
        X = np.vstack(
            [rng.normal(-3, 1, size=(100, 2)), rng.normal(3, 1, size=(100, 2))]
        )
        y = np.repeat([0, 1], 100)
        model = GaussianNB().fit(X, y)
        assert model.score(X, y) > 0.95

    def test_proba_valid(self, classification_data):
        X, y = classification_data
        proba = GaussianNB().fit(X, y).predict_proba(X)
        np.testing.assert_allclose(proba.sum(axis=1), 1.0, atol=1e-9)

    def test_priors_match_frequencies(self, rng):
        X = rng.normal(size=(100, 2))
        y = np.array([0] * 80 + [1] * 20)
        model = GaussianNB().fit(X, y)
        np.testing.assert_allclose(model.class_prior_, [0.8, 0.2])

    def test_constant_feature_does_not_crash(self, rng):
        X = np.column_stack([rng.normal(size=60), np.ones(60)])
        y = (X[:, 0] > 0).astype(int)
        model = GaussianNB().fit(X, y)
        assert np.all(np.isfinite(model.predict_proba(X)))

    def test_string_labels(self, rng):
        X = rng.normal(size=(60, 2))
        y = np.where(X[:, 0] > 0, "a", "b")
        model = GaussianNB().fit(X, y)
        assert set(model.predict(X)) <= {"a", "b"}

    def test_negative_smoothing_rejected(self):
        with pytest.raises(ValueError, match="var_smoothing"):
            GaussianNB(var_smoothing=-1.0)
