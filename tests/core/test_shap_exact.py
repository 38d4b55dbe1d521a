"""Tests for the exact Shapley reference implementation.

These are the anchor tests of the whole explainer stack: the exact
enumerator is validated against closed-form ground truth, and the other
explainers are validated against the enumerator.
"""

import numpy as np
import pytest
from oracles.shapley_per_row import coalition_value

from repro.core.explainers import ExactShapleyExplainer, model_output_fn
from repro.datasets import make_linear_regression
from repro.ml import LinearRegression


@pytest.fixture(scope="module")
def linear_setup():
    X, y, coef = make_linear_regression(
        n_samples=300, coefficients=(3.0, -2.0, 1.0, 0.0), noise=0.01,
        random_state=0,
    )
    model = LinearRegression().fit(X.values, y)
    background = X.values[:60]
    fn = model_output_fn(model)
    return X, model, background, fn


class TestCoalitionValue:
    def test_empty_coalition_is_background_mean(self, linear_setup):
        X, model, background, fn = linear_setup
        v0 = coalition_value(fn, X.values[0], background, [])
        assert v0 == pytest.approx(float(np.mean(fn(background))))

    def test_full_coalition_is_prediction(self, linear_setup):
        X, model, background, fn = linear_setup
        x = X.values[0]
        v_full = coalition_value(fn, x, background, range(4))
        assert v_full == pytest.approx(float(fn(x.reshape(1, -1))[0]))

    def test_monotone_in_subset_for_positive_direction(self, linear_setup):
        """Adding a positively-contributing feature raises v(S)."""
        X, model, background, fn = linear_setup
        x = X.values[np.argmax(X.values[:, 0])]  # large x0, coef +3
        v_without = coalition_value(fn, x, background, [1])
        v_with = coalition_value(fn, x, background, [0, 1])
        assert v_with > v_without


class TestExactShapley:
    def test_matches_closed_form_linear(self, linear_setup):
        X, model, background, fn = linear_setup
        explainer = ExactShapleyExplainer(fn, background, X.feature_names)
        for row in (0, 5, 17):
            x = X.values[row]
            expected = model.coef_ * (x - background.mean(axis=0))
            e = explainer.explain(x)
            np.testing.assert_allclose(e.values, expected, atol=1e-10)

    def test_efficiency(self, linear_setup):
        X, model, background, fn = linear_setup
        e = ExactShapleyExplainer(fn, background).explain(X.values[3])
        assert e.additivity_gap() < 1e-10

    def test_dummy_feature_zero(self, linear_setup):
        """A function that provably ignores feature 3 must assign it
        exactly zero (the dummy axiom)."""
        X, model, background, fn = linear_setup

        def ignores_last(Z):
            return 3.0 * Z[:, 0] - 2.0 * Z[:, 1] + Z[:, 2]

        e = ExactShapleyExplainer(ignores_last, background).explain(X.values[2])
        assert abs(e.values[3]) < 1e-12

    def test_symmetry_on_symmetric_model(self):
        """f = x0 + x1 with exchangeable background columns: equal
        attributions at a point with x0 == x1 (the symmetry axiom).

        Exchangeability of the background matters — symmetry is a
        property of the *value function*, which includes the
        feature-absent distribution.
        """
        def fn(X):
            return X[:, 0] + X[:, 1]

        gen = np.random.default_rng(1)
        background = gen.normal(size=(50, 3))
        background[:, 1] = background[:, 0]
        explainer = ExactShapleyExplainer(fn, background)
        x = np.array([0.7, 0.7, -1.0])
        e = explainer.explain(x)
        assert e.values[0] == pytest.approx(e.values[1], abs=1e-10)

    def test_interaction_split_equally(self):
        """f = x0 * x1 with exchangeable background: credit shared
        equally between the interacting features."""
        def fn(X):
            return X[:, 0] * X[:, 1]

        gen = np.random.default_rng(2)
        background = gen.normal(size=(200, 2))
        background[:, 1] = background[:, 0]
        e = ExactShapleyExplainer(fn, background).explain(np.array([2.0, 2.0]))
        assert e.values[0] == pytest.approx(e.values[1], rel=1e-9)

    def test_too_many_features_rejected(self):
        background = np.zeros((5, 16))
        with pytest.raises(ValueError, match="exceeds"):
            ExactShapleyExplainer(lambda X: X[:, 0], background)

    def test_wrong_x_width_rejected(self, linear_setup):
        X, model, background, fn = linear_setup
        explainer = ExactShapleyExplainer(fn, background)
        with pytest.raises(ValueError, match="features"):
            explainer.explain(np.zeros(7))

    def test_feature_name_passthrough(self, linear_setup):
        X, model, background, fn = linear_setup
        e = ExactShapleyExplainer(fn, background, X.feature_names).explain(
            X.values[0]
        )
        assert e.feature_names == X.feature_names
