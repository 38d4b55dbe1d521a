"""Dedicated suite for interventional TreeSHAP.

The interventional explainer previously had only incidental coverage
in ``test_new_explainers.py``.  This suite pins down the algorithm's
defining identities: the Shapley ordering weights ``W(a, b)``, the
single-reference game (attributions sum to ``f(x) - f(z)``),
background averaging, the boosting learning-rate decomposition, and
exact agreement with brute-force Shapley enumeration on small-feature
models — the third independent oracle next to the recursion in
``tests/oracles/tree_shap_recursion.py`` and the vectorized kernel.
"""

from math import factorial

import numpy as np
import pytest
from oracles.tree_shap_recursion import _weight, tree_shap_interventional

from repro.core.explainers import (
    ExactShapleyExplainer,
    InterventionalTreeShapExplainer,
    KernelShapExplainer,
    model_output_fn,
)
from repro.ml import (
    DecisionTreeClassifier,
    GradientBoostingClassifier,
    RandomForestClassifier,
    RandomForestRegressor,
)
from repro.ml.packed_shap import interventional_weight_table
from repro.utils.rng import check_random_state


class TestOrderingWeights:
    def test_matches_factorial_formula(self):
        for a in range(8):
            for b in range(8):
                expected = factorial(a) * factorial(b) / factorial(a + b + 1)
                assert _weight(a, b) == pytest.approx(expected, rel=1e-12)

    def test_symmetry(self):
        for a in range(10):
            for b in range(10):
                assert _weight(a, b) == _weight(b, a)

    def test_pascal_recurrence(self):
        """``W(a, b) = W(a+1, b) + W(a, b+1)`` — splitting orderings by
        which side the next player joins."""
        for a in range(6):
            for b in range(6):
                assert _weight(a, b) == pytest.approx(
                    _weight(a + 1, b) + _weight(a, b + 1), rel=1e-12
                )

    def test_normalization(self):
        """``sum_a C(n, a) W(a, n - a) == 1``: over a full divergence
        list of ``n`` features, every permutation is counted once."""
        from math import comb

        for n in range(9):
            total = sum(comb(n, a) * _weight(a, n - a) for a in range(n + 1))
            assert total == pytest.approx(1.0, rel=1e-12)

    def test_deep_paths_stay_finite_floats(self):
        """The lgamma table never builds huge-int factorials: W(60, 60)
        is a tiny but normal float, computed instantly."""
        w = _weight(60, 60)
        assert 0.0 < w < 1e-30
        assert np.isfinite(w)

    def test_table_matches_scalar(self):
        table = interventional_weight_table(12)
        for a in range(13):
            for b in range(13):
                assert table[a, b] == pytest.approx(_weight(a, b), rel=1e-12)


@pytest.fixture(scope="module")
def forest_setup():
    gen = np.random.default_rng(7)
    X = gen.normal(size=(300, 6))
    y = X[:, 0] + np.sin(2 * X[:, 1]) + 0.2 * gen.normal(size=300)
    model = RandomForestRegressor(
        n_estimators=10, max_depth=5, random_state=0
    ).fit(X, y)
    return model, X


class TestSingleReferenceGame:
    def test_attributions_sum_to_prediction_gap(self, forest_setup):
        """With one reference ``z``, efficiency reads
        ``sum(phi) = f(x) - f(z)`` exactly."""
        model, X = forest_setup
        z = X[10:11]
        explainer = InterventionalTreeShapExplainer(model, z)
        for row in (0, 3, 42):
            e = explainer.explain(X[row])
            gap = (
                model.predict(X[row].reshape(1, -1))[0]
                - model.predict(z)[0]
            )
            assert e.values.sum() == pytest.approx(gap, abs=1e-9)

    def test_base_value_is_reference_prediction(self, forest_setup):
        model, X = forest_setup
        z = X[10:11]
        explainer = InterventionalTreeShapExplainer(model, z)
        assert explainer.expected_value_ == pytest.approx(
            model.predict(z)[0], abs=1e-9
        )

    def test_identical_x_and_z_gives_zero(self, forest_setup):
        """When the instance *is* the reference, no feature diverges."""
        model, X = forest_setup
        explainer = InterventionalTreeShapExplainer(model, X[5:6])
        e = explainer.explain(X[5])
        assert np.array_equal(e.values, np.zeros(X.shape[1]))


class TestBackgroundAveraging:
    def test_multi_reference_is_mean_of_single_references(self, forest_setup):
        model, X = forest_setup
        background = X[20:28]
        explainer = InterventionalTreeShapExplainer(model, background)
        e = explainer.explain(X[0])
        singles = np.array(
            [
                InterventionalTreeShapExplainer(model, z.reshape(1, -1))
                .explain(X[0])
                .values
                for z in background
            ]
        )
        np.testing.assert_allclose(e.values, singles.mean(axis=0), atol=1e-12)

    def test_efficiency_against_background_mean(self, forest_setup):
        model, X = forest_setup
        background = X[30:45]
        explainer = InterventionalTreeShapExplainer(model, background)
        e = explainer.explain(X[2])
        assert e.prediction == pytest.approx(
            model.predict(X[2].reshape(1, -1))[0], abs=1e-9
        )
        assert e.base_value == pytest.approx(
            model.predict(background).mean(), abs=1e-9
        )


class TestBoostingScaling:
    def test_learning_rate_scales_tree_games(self):
        """The explainer's attribution must be exactly the
        learning-rate-weighted sum of per-tree interventional games."""
        gen = np.random.default_rng(3)
        X = gen.normal(size=(250, 5))
        y = (X[:, 0] - X[:, 3] > 0).astype(int)
        model = GradientBoostingClassifier(
            n_estimators=12, max_depth=3, learning_rate=0.25, random_state=0
        ).fit(X, y)
        background = X[:6]
        explainer = InterventionalTreeShapExplainer(model, background)
        manual = np.zeros(X.shape[1])
        for est in model.estimators_:
            manual += model.learning_rate * tree_shap_interventional(
                est.tree_, X[0], background, output=0
            )
        np.testing.assert_allclose(
            explainer.explain(X[0]).values, manual, atol=1e-12
        )

    def test_margin_efficiency_includes_init_offset(self):
        gen = np.random.default_rng(4)
        X = gen.normal(size=(250, 5))
        y = (X[:, 1] + X[:, 2] > 0).astype(int)
        model = GradientBoostingClassifier(
            n_estimators=10, random_state=0
        ).fit(X, y)
        explainer = InterventionalTreeShapExplainer(model, X[:8])
        e = explainer.explain(X[3])
        assert e.prediction == pytest.approx(
            model.decision_function(X[3].reshape(1, -1))[0], abs=1e-9
        )
        assert e.base_value == pytest.approx(
            model.decision_function(X[:8]).mean(), abs=1e-9
        )


def _base_value_model(kind, forest_setup):
    """``(fitted model, X)`` of one model kind: a standalone tree and a
    forest on three classes (some bootstraps miss the rare one), the
    shared forest regressor, and a binary boosting ensemble."""
    if kind == "forest_regressor":
        return forest_setup
    gen = check_random_state(19)
    X = gen.normal(size=(200, 4))
    y = (X[:, 0] + X[:, 2] > 0).astype(int)
    if kind == "boosting":
        model = GradientBoostingClassifier(
            n_estimators=30, max_depth=2, random_state=0
        )
        return model.fit(X, y), X
    y[:5] = 2
    if kind == "tree":
        model = DecisionTreeClassifier(max_depth=4, random_state=0)
    else:
        model = RandomForestClassifier(
            n_estimators=25, max_depth=4, random_state=0
        )
    return model.fit(X, y), X


class TestExactAgreement:
    """Interventional TreeSHAP vs brute-force Shapley enumeration —
    both play the same game ``v(S) = E_z[f(x_S, z_!S)]``, so on
    <= 8-feature models they must agree to float precision."""

    def test_forest_regressor(self, forest_setup):
        model, X = forest_setup
        background = X[:10]
        tree_explainer = InterventionalTreeShapExplainer(model, background)
        exact = ExactShapleyExplainer(
            model_output_fn(model, output="predict"), background
        )
        for row in (0, 7):
            np.testing.assert_allclose(
                tree_explainer.explain(X[row]).values,
                exact.explain(X[row]).values,
                atol=1e-10,
            )

    def test_tree_classifier_probability(self):
        gen = np.random.default_rng(11)
        X = gen.normal(size=(200, 4))
        y = (X[:, 0] * X[:, 1] > 0).astype(int)
        model = DecisionTreeClassifier(max_depth=4, random_state=0).fit(X, y)
        background = X[:12]
        tree_explainer = InterventionalTreeShapExplainer(
            model, background, class_index=1
        )
        exact = ExactShapleyExplainer(
            model_output_fn(model, class_index=1), background
        )
        np.testing.assert_allclose(
            tree_explainer.explain(X[0]).values,
            exact.explain(X[0]).values,
            atol=1e-10,
        )

    def test_forest_classifier_with_rare_class(self):
        gen = np.random.default_rng(13)
        X = gen.normal(size=(150, 4))
        y = (X[:, 0] > 0).astype(int)
        y[:5] = 2
        model = RandomForestClassifier(
            n_estimators=10, max_depth=4, random_state=0
        ).fit(X, y)
        background = X[:10]
        tree_explainer = InterventionalTreeShapExplainer(
            model, background, class_index=2
        )
        exact = ExactShapleyExplainer(
            model_output_fn(model, class_index=2), background
        )
        np.testing.assert_allclose(
            tree_explainer.explain(X[20]).values,
            exact.explain(X[20]).values,
            atol=1e-10,
        )

    def test_boosting_margin(self):
        gen = np.random.default_rng(17)
        X = gen.normal(size=(200, 4))
        y = (X[:, 0] + X[:, 2] > 0).astype(int)
        model = GradientBoostingClassifier(
            n_estimators=10, max_depth=2, random_state=0
        ).fit(X, y)
        background = X[:8]
        tree_explainer = InterventionalTreeShapExplainer(model, background)
        exact = ExactShapleyExplainer(
            model_output_fn(model, output="margin"), background
        )
        np.testing.assert_allclose(
            tree_explainer.explain(X[1]).values,
            exact.explain(X[1]).values,
            atol=1e-10,
        )

    @pytest.mark.parametrize(
        "kind, output, class_index",
        [
            ("tree", "proba", 0),
            ("tree", "proba", 1),
            ("forest", "proba", 0),
            ("forest", "proba", 1),
            ("forest", "proba", 2),
            ("forest_regressor", "predict", 1),
            ("boosting", "margin", 1),
        ],
    )
    def test_base_value_is_the_exact_shapley_base_value(
        self, forest_setup, kind, output, class_index
    ):
        """``v(empty)`` of all three explainers is one number, bit for
        bit: the background mean of the explained model output."""
        model, X = _base_value_model(kind, forest_setup)
        background = X[:37]
        tree_explainer = InterventionalTreeShapExplainer(
            model, background, class_index=class_index
        )
        exact = ExactShapleyExplainer(
            model_output_fn(model, output=output, class_index=class_index),
            background,
        )
        kernel = KernelShapExplainer(
            model_output_fn(model, output=output, class_index=class_index),
            background, n_samples=64, random_state=0,
        )
        assert tree_explainer.expected_value_ == exact.expected_value_
        assert tree_explainer.expected_value_ == kernel.expected_value_

    def test_vectorized_batch_agrees_with_exact(self, forest_setup):
        """The full chain: vectorized packed kernel == brute force."""
        model, X = forest_setup
        background = X[:10]
        tree_explainer = InterventionalTreeShapExplainer(model, background)
        batch = tree_explainer.explain_batch(X[:3])
        assert batch.extras.get("vectorized") is True
        exact = ExactShapleyExplainer(
            model_output_fn(model, output="predict"), background
        )
        for row in range(3):
            np.testing.assert_allclose(
                batch.values[row], exact.explain(X[row]).values, atol=1e-10
            )


class TestBackgroundValidation:
    def test_empty_background_rejected(self, forest_setup):
        """An empty background has no mean game: the base value would
        be NaN, so construction refuses it."""
        model, X = forest_setup
        with pytest.raises(ValueError, match="at least one row"):
            InterventionalTreeShapExplainer(model, X[:0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_background_rejected(self, forest_setup, bad):
        """A non-finite reference row fails at construction, with the
        kernel's message, not later in ``explain``."""
        model, X = forest_setup
        background = X[:4].copy()
        background[2, 1] = bad
        with pytest.raises(ValueError, match="NaN or infinite"):
            InterventionalTreeShapExplainer(model, background)
