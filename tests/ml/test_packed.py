"""Equivalence and structure tests for the packed inference engine.

:class:`repro.ml.packed.PackedEnsemble` must be **exactly** equal
(``np.array_equal``, not ``allclose``) to the per-tree evaluation loops
on every supported model — the packed engine is a faster arrangement of
the same arithmetic, never a numerical approximation.  The reference
loops live in ``tests/oracles/per_tree_loops.py``.
"""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles.per_tree_loops import (
    boosting_raw,
    decompose,
    ensemble_loop,
    forest_predict,
    forest_proba,
    staged_raw,
    tree_proba,
)
from oracles.tree_shap_recursion import tree_expected_value

from repro.core.explainers.shap_tree import TreeShapExplainer
from repro.ml import (
    DecisionTreeClassifier,
    DecisionTreeRegressor,
    GradientBoostingClassifier,
    GradientBoostingRegressor,
    RandomForestClassifier,
    RandomForestRegressor,
)
from repro.ml.packed import PackedEnsemble
from repro.utils.rng import check_random_state


def _toy_data(seed=0, n=300, d=6):
    gen = np.random.default_rng(seed)
    X = gen.normal(size=(n, d))
    y = (X[:, 0] + 0.5 * X[:, 1] ** 2 - X[:, 2] > 0).astype(int)
    return X, y


class TestExactEquivalence:
    def test_forest_classifier_proba(self, sla_split, fitted_rf):
        _, X_test, _, _ = sla_split
        packed = fitted_rf.predict_proba(X_test)
        assert np.array_equal(packed, forest_proba(fitted_rf, X_test))

    def test_forest_classifier_predict_labels(self, sla_split, fitted_rf):
        _, X_test, _, _ = sla_split
        legacy_labels = fitted_rf.classes_[
            np.argmax(forest_proba(fitted_rf, X_test), axis=1)
        ]
        assert np.array_equal(fitted_rf.predict(X_test), legacy_labels)

    def test_forest_regressor(self, regression_data):
        X, y = regression_data
        forest = RandomForestRegressor(
            n_estimators=20, max_depth=6, random_state=0
        ).fit(X, y)
        assert np.array_equal(forest.predict(X), forest_predict(forest, X))

    def test_unbounded_depth_forest(self):
        X, y = _toy_data(3)
        forest = RandomForestClassifier(n_estimators=15, random_state=1).fit(X, y)
        assert np.array_equal(
            forest.predict_proba(X), forest_proba(forest, X)
        )

    def test_forest_with_bootstrap_missing_classes(self):
        """Rare third class: some bootstraps never see it, so their
        trees carry fewer value columns than the forest — the packed
        realignment must reproduce ``tree_proba`` exactly."""
        X, y = _toy_data(7, n=250)
        y = y.copy()
        y[:4] = 2  # rare class
        forest = RandomForestClassifier(
            n_estimators=30, max_depth=5, random_state=2
        ).fit(X, y)
        n_classes_seen = {len(t.classes_) for t in forest.estimators_}
        assert min(n_classes_seen) < 3, "fixture should produce missing classes"
        assert np.array_equal(
            forest.predict_proba(X), forest_proba(forest, X)
        )

    def test_boosting_classifier_margin_and_proba(self):
        X, y = _toy_data(11)
        model = GradientBoostingClassifier(
            n_estimators=40, max_depth=2, random_state=0
        ).fit(X, y)
        raw = boosting_raw(model, X)
        assert np.array_equal(model.decision_function(X), raw)

    def test_boosting_regressor(self, regression_data):
        X, y = regression_data
        model = GradientBoostingRegressor(
            n_estimators=30, max_depth=3, random_state=0
        ).fit(X, y)
        assert np.array_equal(model.predict(X), boosting_raw(model, X))

    def test_boosting_with_subsample(self):
        X, y = _toy_data(13)
        model = GradientBoostingClassifier(
            n_estimators=25, subsample=0.6, random_state=5
        ).fit(X, y)
        assert np.array_equal(
            model.decision_function(X), boosting_raw(model, X)
        )

    def test_single_tree_classifier(self):
        X, y = _toy_data(17)
        tree = DecisionTreeClassifier(max_depth=4, random_state=0).fit(X, y)
        assert np.array_equal(tree.predict_proba(X), tree.tree_.predict_value(X))

    def test_single_tree_regressor(self, regression_data):
        X, y = regression_data
        tree = DecisionTreeRegressor(max_depth=5, random_state=0).fit(X, y)
        assert np.array_equal(tree.predict(X), tree.tree_.predict_value(X)[:, 0])

    def test_pure_leaf_tree(self):
        """A constant-target fit yields a single-node tree: the packed
        traversal must short-circuit at depth 0."""
        gen = np.random.default_rng(0)
        X = gen.normal(size=(40, 3))
        tree = DecisionTreeRegressor().fit(X, np.full(40, 2.5))
        assert tree.tree_.n_nodes == 1
        packed = tree.packed_ensemble()
        assert packed.max_depth == 0
        assert np.array_equal(tree.predict(X), np.full(40, 2.5))

    def test_pure_leaf_forest(self):
        """Constant features admit no split: every tree is a single
        root leaf, and the packed ensemble has ``max_depth == 0``."""
        X = np.zeros((30, 4))
        y = np.array([0, 1] * 15)
        forest = RandomForestClassifier(n_estimators=8, random_state=0).fit(X, y)
        assert all(t.tree_.n_nodes == 1 for t in forest.estimators_)
        assert forest.packed_ensemble().max_depth == 0
        assert np.array_equal(
            forest.predict_proba(X), forest_proba(forest, X)
        )

    def test_oob_score_matches_legacy_formula(self):
        X, y = _toy_data(23, n=400)
        forest = RandomForestClassifier(
            n_estimators=20, max_depth=6, oob_score=True, random_state=4
        ).fit(X, y)
        codes = np.searchsorted(forest.classes_, y)
        votes = np.zeros((len(X), len(forest.classes_)))
        counts = np.zeros(len(X))
        for tree, mask in zip(forest.estimators_, forest._oob_masks):
            if not np.any(mask):
                continue
            votes[mask] += tree_proba(forest, tree, X[mask])
            counts[mask] += 1
        covered = counts > 0
        expected = float(
            np.mean(np.argmax(votes[covered], axis=1) == codes[covered])
        )
        assert forest.oob_score_ == expected

    def test_regressor_oob_matches_legacy_formula(self, regression_data):
        X, y = regression_data
        forest = RandomForestRegressor(
            n_estimators=15, max_depth=5, oob_score=True, random_state=6
        ).fit(X, y)
        sums = np.zeros(len(X))
        counts = np.zeros(len(X))
        for tree, mask in zip(forest.estimators_, forest._oob_masks):
            if not np.any(mask):
                continue
            sums[mask] += tree.tree_.predict_value(X[mask])[:, 0]
            counts[mask] += 1
        covered = counts > 0
        pred = sums[covered] / counts[covered]
        resid = y[covered] - pred
        ss_tot = np.sum((y[covered] - y[covered].mean()) ** 2)
        expected = float(1.0 - np.sum(resid**2) / ss_tot)
        assert forest.oob_score_ == expected

    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        n_estimators=st.integers(min_value=1, max_value=12),
        max_depth=st.one_of(st.none(), st.integers(min_value=1, max_value=8)),
    )
    def test_property_forest_equivalence(self, seed, n_estimators, max_depth):
        """For any seed/size/depth, packed == legacy exactly."""
        X, y = _toy_data(seed, n=120, d=4)
        forest = RandomForestClassifier(
            n_estimators=n_estimators, max_depth=max_depth, random_state=seed
        ).fit(X, y)
        assert np.array_equal(
            forest.predict_proba(X), forest_proba(forest, X)
        )


def _accumulate_models():
    """One fitted model per aggregation shape: mean over a 3-class
    forest whose bootstraps miss a class, over a regression forest and
    over a lone tree; scaled sums over a margin and a regressor."""
    X, y = _toy_data(59, n=200)
    y3 = y.copy()
    y3[:3] = 2
    target = X[:, 0] - X[:, 1] ** 2
    return X, [
        RandomForestClassifier(n_estimators=17, max_depth=5, random_state=0)
        .fit(X, y3),
        RandomForestRegressor(n_estimators=5, max_depth=4, random_state=1)
        .fit(X, target),
        DecisionTreeClassifier(max_depth=4, random_state=2).fit(X, y),
        GradientBoostingClassifier(
            n_estimators=30, max_depth=2, random_state=3
        ).fit(X, y),
        GradientBoostingRegressor(
            n_estimators=9, subsample=0.7, random_state=4
        ).fit(X, target),
    ]


def _loop(model, X):
    """The model's per-tree loop, shaped like ``PackedEnsemble.predict``."""
    if hasattr(model, "tree_"):
        return model.tree_.predict_value(X)
    if hasattr(model, "init_prediction_"):
        return boosting_raw(model, X)[:, None]
    if hasattr(model, "classes_"):
        return forest_proba(model, X)
    return forest_predict(model, X)[:, None]


class TestAccumulateEquivalence:
    """``predict`` sums each row block with one ``np.add.accumulate``;
    every row count and block boundary must give the loop's bytes."""

    def test_small_slices_and_block_boundaries(self):
        X, models = _accumulate_models()
        gen = check_random_state(61)
        for model in models:
            packed = model.packed_ensemble()
            block = packed._block_rows()
            fleet = X[gen.integers(0, len(X), size=2 * block + 3)]
            edges = (block - 1, block, block + 1, 2 * block + 3)
            for n in (1, 2, 3, 5, 17, *edges):
                for start in (0, 1, 7):
                    rows = fleet[start:start + n]
                    want = _loop(model, rows)
                    assert np.array_equal(packed.predict(rows), want)

    @pytest.mark.parametrize("n_trees", [1, 2, 5])
    @pytest.mark.parametrize("mode", ["mean", "scaled_sum"])
    def test_signed_zero_leaves(self, mode, n_trees):
        """Leaves holding -0.0 and +0.0 keep the loop's zero signs: a
        lone tree's raw -0.0 survives, a sum from +0.0 does not."""
        X, y = _toy_data(67, n=120, d=3)
        trees = [
            DecisionTreeRegressor(max_depth=3, random_state=t)
            .fit(X, X[:, t % 3] + y).tree_
            for t in range(n_trees)
        ]
        values = []
        for t, tree in enumerate(trees):
            value = np.where(np.arange(tree.n_nodes) % 2 == t % 2, -0.0, 0.0)
            values.append(value[:, None])
        kwargs = {"mode": mode}
        if mode == "scaled_sum":
            kwargs.update(scale=0.5, base_offset=-0.0)
        packed = PackedEnsemble(trees, values, n_features=3, **kwargs)
        for n in (1, 2, 3, 5, 17, len(X)):
            got = packed.predict(X[:n])
            want = ensemble_loop(trees, values, X[:n], **kwargs)
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))
        if mode == "mean" and n_trees == 1:
            assert np.signbit(packed.predict(X)).any()

    def test_staged_sums_are_the_loop_stages(self):
        X, models = _accumulate_models()
        for model in models[3:]:
            sums = model.packed_ensemble().staged_sums(X)
            start = np.full((len(X), 1), model.init_prediction_)
            assert np.array_equal(sums[0], start)
            for stage, want in zip(sums[1:], staged_raw(model, X)):
                assert np.array_equal(stage[:, 0], want)


class TestPickleRoundTrip:
    def test_packed_dropped_from_state_and_rebuilt(self, fitted_rf, sla_split):
        _, X_test, _, _ = sla_split
        before = fitted_rf.predict_proba(X_test)  # forces the pack
        assert fitted_rf.__dict__.get("_packed") is not None
        clone = pickle.loads(pickle.dumps(fitted_rf))
        assert "_packed" not in clone.__dict__
        assert np.array_equal(clone.predict_proba(X_test), before)

    def test_boosting_round_trip(self):
        X, y = _toy_data(29)
        model = GradientBoostingClassifier(
            n_estimators=15, random_state=0
        ).fit(X, y)
        raw = model.decision_function(X)
        clone = pickle.loads(pickle.dumps(model))
        assert np.array_equal(clone.decision_function(X), raw)

    def test_single_tree_round_trip(self):
        X, y = _toy_data(31)
        tree = DecisionTreeClassifier(max_depth=3, random_state=0).fit(X, y)
        proba = tree.predict_proba(X)
        clone = pickle.loads(pickle.dumps(tree))
        assert np.array_equal(clone.predict_proba(X), proba)


class TestPackedStructure:
    def test_memoized_and_invalidated_on_refit(self):
        X, y = _toy_data(37)
        forest = RandomForestClassifier(n_estimators=5, random_state=0).fit(X, y)
        packed = forest.packed_ensemble()
        assert forest.packed_ensemble() is packed
        forest.fit(X, 1 - y)
        repacked = forest.packed_ensemble()
        assert repacked is not packed
        assert np.array_equal(
            forest.predict_proba(X), forest_proba(forest, X)
        )

    def test_apply_matches_per_tree_apply(self, fitted_rf, sla_split):
        _, X_test, _, _ = sla_split
        packed = fitted_rf.packed_ensemble()
        leaves = packed.apply(X_test[:50])
        for t, tree in enumerate(fitted_rf.estimators_):
            position = int(packed._inverse_order[t])
            offset = int(packed._offsets[position])
            assert np.array_equal(
                leaves[:, t] - offset, tree.tree_.apply(X_test[:50])
            )

    def test_trees_sorted_by_depth(self, fitted_rf):
        packed = fitted_rf.packed_ensemble()
        assert np.all(np.diff(packed.tree_depths) <= 0)
        assert packed.max_depth == max(
            t.tree_.max_depth for t in fitted_rf.estimators_
        )
        reordered = [
            fitted_rf.estimators_[i].tree_.n_nodes for i in packed.tree_order
        ]
        assert np.array_equal(np.diff(packed._offsets), reordered)

    def test_feature_mismatch_rejected(self, fitted_rf):
        with pytest.raises(ValueError, match="features"):
            fitted_rf.predict_proba(np.zeros((3, 2)))

    def test_unsupported_model_rejected(self):
        from repro.ml import LogisticRegression

        X, y = _toy_data(41)
        model = LogisticRegression(max_iter=50).fit(X, y)
        with pytest.raises(TypeError, match="PackedEnsemble supports"):
            PackedEnsemble.from_model(model)

    def test_expected_values_match_tree_expected_value(self, fitted_rf):
        packed = fitted_rf.packed_ensemble()
        per_tree = packed.expected_values()
        for t, tree in enumerate(fitted_rf.estimators_):
            for j, code in enumerate(tree.classes_):
                assert per_tree[t, int(code)] == pytest.approx(
                    tree_expected_value(tree.tree_, j), rel=1e-12
                )

    def test_tree_shap_expected_value_rides_packed(self, fitted_rf, sla_split):
        _, X_test, _, _ = sla_split
        explainer = TreeShapExplainer(fitted_rf, class_index=1)
        legacy = sum(
            weight * tree_expected_value(tree, output)
            for tree, weight, output in decompose(fitted_rf, 1)[1]
        )
        assert explainer.expected_value_ == pytest.approx(legacy, rel=1e-12)
        # and the efficiency axiom still closes through the packed base
        explanation = explainer.explain(X_test[0])
        assert explanation.additivity_gap() < 1e-9

    def test_tree_shap_out_of_range_class_matches_legacy_zero(self):
        """A class no tree ever saw explains as all-zero with a zero
        base value — the legacy skip-everything behavior."""
        X, y = _toy_data(43)
        forest = RandomForestClassifier(n_estimators=4, random_state=0).fit(X, y)
        explainer = TreeShapExplainer(forest, class_index=5)
        assert explainer.expected_value_ == 0.0
        assert np.array_equal(explainer.explain(X[0]).values, np.zeros(X.shape[1]))


class TestMaxDepthCache:
    def test_cached_value_stable_and_correct(self):
        X, y = _toy_data(47)
        tree = DecisionTreeClassifier(max_depth=5, random_state=0).fit(X, y)
        structure = tree.tree_

        def reference_depth(tree):
            depth = np.zeros(tree.n_nodes, dtype=int)
            out = 0
            for node in range(tree.n_nodes):
                if not tree.is_leaf(node):
                    for child in (
                        tree.children_left[node],
                        tree.children_right[node],
                    ):
                        depth[child] = depth[node] + 1
                        out = max(out, depth[child])
            return out

        first = structure.max_depth
        assert first == reference_depth(structure)
        assert "max_depth" in structure.__dict__  # cached_property fired
        assert structure.max_depth == first

    def test_single_node_depth_zero(self):
        gen = np.random.default_rng(2)
        tree = DecisionTreeRegressor().fit(gen.normal(size=(20, 2)), np.ones(20))
        assert tree.tree_.max_depth == 0
        assert tree.get_depth() == 0

    def test_depth_survives_pickle(self):
        X, y = _toy_data(53)
        tree = DecisionTreeClassifier(max_depth=3, random_state=0).fit(X, y)
        depth = tree.tree_.max_depth
        clone = pickle.loads(pickle.dumps(tree))
        assert clone.tree_.max_depth == depth
