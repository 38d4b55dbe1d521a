"""Tests for TreeSHAP, including the brute-force equivalence proof."""

from itertools import combinations
from math import comb

import numpy as np
import pytest
from oracles.tree_shap_recursion import tree_expected_value, tree_shap_values

from repro.core.explainers import TreeShapExplainer
from repro.ml import (
    DecisionTreeClassifier,
    DecisionTreeRegressor,
    GradientBoostingClassifier,
    GradientBoostingRegressor,
    LinearRegression,
    RandomForestClassifier,
    RandomForestRegressor,
)


def path_dependent_value(tree, x, subset, output=0):
    """Brute-force conditional expectation the path-dependent algorithm
    is defined over: in-coalition features follow the decision path,
    absent features average children by training coverage."""

    def recurse(node):
        if tree.is_leaf(node):
            return tree.value[node, output]
        feature = tree.feature[node]
        if feature in subset:
            if x[feature] <= tree.threshold[node]:
                return recurse(tree.children_left[node])
            return recurse(tree.children_right[node])
        left = tree.children_left[node]
        right = tree.children_right[node]
        n = tree.n_node_samples[node]
        return (
            tree.n_node_samples[left] * recurse(left)
            + tree.n_node_samples[right] * recurse(right)
        ) / n

    return recurse(0)


def brute_force_tree_shap(tree, x, d, output=0):
    phi = np.zeros(d)
    for i in range(d):
        others = [j for j in range(d) if j != i]
        for size in range(d):
            weight = 1.0 / (d * comb(d - 1, size))
            for subset in combinations(others, size):
                s = set(subset)
                phi[i] += weight * (
                    path_dependent_value(tree, x, s | {i}, output)
                    - path_dependent_value(tree, x, s, output)
                )
    return phi


class TestSingleTreeCorrectness:
    @pytest.fixture(scope="class")
    def tree_setup(self, regression_data):
        X, y = regression_data
        model = DecisionTreeRegressor(max_depth=5, random_state=0).fit(X, y)
        return model, X

    def test_matches_brute_force(self, tree_setup):
        model, X = tree_setup
        tree = model.tree_
        d = X.shape[1]
        for row in (0, 13, 57, 101):
            fast = tree_shap_values(tree, X[row])
            slow = brute_force_tree_shap(tree, X[row], d)
            np.testing.assert_allclose(fast, slow, atol=1e-10)

    def test_efficiency(self, tree_setup):
        model, X = tree_setup
        tree = model.tree_
        base = tree_expected_value(tree)
        for row in range(5):
            phi = tree_shap_values(tree, X[row])
            prediction = model.predict(X[row].reshape(1, -1))[0]
            assert base + phi.sum() == pytest.approx(prediction, abs=1e-9)

    def test_expected_value_is_coverage_weighted_mean(self, tree_setup):
        model, X = tree_setup
        tree = model.tree_
        # for a tree fitted without bootstrap, the coverage-weighted
        # leaf mean equals the training-target mean
        leaves = tree.apply(X)
        manual = np.average(
            tree.value[:, 0],
            weights=[
                tree.n_node_samples[n] if tree.is_leaf(n) else 0.0
                for n in range(tree.n_nodes)
            ],
        )
        assert tree_expected_value(tree) == pytest.approx(manual)

    def test_unused_feature_gets_zero(self):
        """Features the tree never splits on must get exactly zero
        attribution (the dummy axiom for the path-dependent game)."""
        gen = np.random.default_rng(12345)
        X = gen.normal(size=(200, 4))
        y = 3.0 * X[:, 1]
        model = DecisionTreeRegressor(max_depth=3, random_state=0).fit(X, y)
        tree = model.tree_
        used = set(tree.feature[tree.feature >= 0].tolist())
        unused = set(range(4)) - used
        assert unused, "test setup: expected at least one unused feature"
        phi = tree_shap_values(tree, X[0])
        for j in unused:
            assert abs(phi[j]) < 1e-12

    def test_stump_attribution(self):
        """Depth-1 tree: closed-form Shapley value."""
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([0.0, 0.0, 10.0, 10.0])
        model = DecisionTreeRegressor(max_depth=1).fit(X, y)
        tree = model.tree_
        phi = tree_shap_values(tree, np.array([3.0]))
        # prediction 10, base 5 -> phi = 5
        assert phi[0] == pytest.approx(10.0 - tree_expected_value(tree))

    def test_repeated_feature_along_path(self, rng):
        """Trees that split the same feature twice exercise the unwind
        path of the algorithm."""
        X = rng.uniform(0, 1, size=(500, 2))
        y = np.where(X[:, 0] < 0.25, 0.0, np.where(X[:, 0] < 0.75, 1.0, 2.0))
        model = DecisionTreeRegressor(max_depth=3, random_state=0).fit(X, y)
        # ensure feature 0 is actually split more than once
        used = model.tree_.feature[model.tree_.feature >= 0]
        assert np.sum(used == 0) >= 2
        for row in range(4):
            fast = tree_shap_values(model.tree_, X[row])
            slow = brute_force_tree_shap(model.tree_, X[row], 2)
            np.testing.assert_allclose(fast, slow, atol=1e-10)


class TestEnsembles:
    def test_forest_regressor_efficiency(self, regression_data):
        X, y = regression_data
        model = RandomForestRegressor(
            n_estimators=12, max_depth=5, random_state=0
        ).fit(X, y)
        explainer = TreeShapExplainer(model)
        for row in (0, 3):
            e = explainer.explain(X[row])
            assert e.prediction == pytest.approx(
                model.predict(X[row].reshape(1, -1))[0], abs=1e-9
            )
            assert e.additivity_gap() < 1e-9

    def test_forest_classifier_explains_probability(self, classification_data):
        X, y = classification_data
        model = RandomForestClassifier(
            n_estimators=12, max_depth=5, random_state=0
        ).fit(X, y)
        explainer = TreeShapExplainer(model, class_index=1)
        e = explainer.explain(X[0])
        assert e.prediction == pytest.approx(
            model.predict_proba(X[:1])[0, 1], abs=1e-9
        )

    def test_classifier_class_probabilities_sum(self, classification_data):
        """Attributions for class 0 and class 1 must be exact opposites
        (probabilities sum to 1)."""
        X, y = classification_data
        model = DecisionTreeClassifier(max_depth=4, random_state=0).fit(X, y)
        e0 = TreeShapExplainer(model, class_index=0).explain(X[0])
        e1 = TreeShapExplainer(model, class_index=1).explain(X[0])
        np.testing.assert_allclose(e0.values, -e1.values, atol=1e-10)

    def test_gbm_regressor_efficiency(self, regression_data):
        X, y = regression_data
        model = GradientBoostingRegressor(
            n_estimators=20, random_state=0
        ).fit(X, y)
        e = TreeShapExplainer(model).explain(X[5])
        assert e.prediction == pytest.approx(
            model.predict(X[5].reshape(1, -1))[0], abs=1e-8
        )

    def test_gbm_classifier_explains_margin(self, classification_data):
        X, y = classification_data
        model = GradientBoostingClassifier(
            n_estimators=15, random_state=0
        ).fit(X, y)
        e = TreeShapExplainer(model).explain(X[3])
        assert e.prediction == pytest.approx(
            model.decision_function(X[3].reshape(1, -1))[0], abs=1e-8
        )

    def test_forest_with_rare_class(self, rng):
        X = rng.normal(size=(120, 3))
        y = np.zeros(120, dtype=int)
        y[:5] = 1
        model = RandomForestClassifier(n_estimators=15, random_state=0).fit(X, y)
        e = TreeShapExplainer(model, class_index=1).explain(X[0])
        assert e.prediction == pytest.approx(
            model.predict_proba(X[:1])[0, 1], abs=1e-9
        )

    def test_unsupported_model_rejected(self, regression_data):
        X, y = regression_data
        model = LinearRegression().fit(X, y)
        with pytest.raises(TypeError, match="TreeShapExplainer supports"):
            TreeShapExplainer(model)

    def test_feature_names(self, regression_data):
        X, y = regression_data
        model = DecisionTreeRegressor(max_depth=3).fit(X, y)
        names = [f"f{i}" for i in range(X.shape[1])]
        e = TreeShapExplainer(model, feature_names=names).explain(X[0])
        assert e.feature_names == names

    def test_wrong_width_rejected(self, regression_data):
        X, y = regression_data
        model = DecisionTreeRegressor(max_depth=3).fit(X, y)
        with pytest.raises(ValueError, match="features"):
            TreeShapExplainer(model).explain(np.zeros(2))

    def test_bad_class_index(self, classification_data):
        X, y = classification_data
        model = DecisionTreeClassifier(max_depth=3).fit(X, y)
        with pytest.raises(ValueError, match="class_index"):
            TreeShapExplainer(model, class_index=5)

    def test_negative_class_index_rejected_for_forest(self, classification_data):
        """A negative index names no class column: rejected rather than
        explained as all zeros next to a last-class model output."""
        X, y = classification_data
        model = RandomForestClassifier(n_estimators=5, random_state=0).fit(X, y)
        with pytest.raises(ValueError, match="class_index -1 out of range"):
            TreeShapExplainer(model, class_index=-1)
