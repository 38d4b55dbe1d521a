"""Exact-equality sweep for the vectorized TreeSHAP kernels.

The vectorized kernels in :mod:`repro.ml.packed_shap` must agree with
the per-tree recursions kept in ``tests/oracles/tree_shap_recursion.py``
(``tree_shap_values`` and ``tree_shap_interventional``) to <= 1e-10 on
**every** supported model shape — the kernels are a faster arrangement
of the same games, never an approximation.  ``reference_batch`` builds
each reference batch from those recursions, never through a kernel.
The sweep mirrors ``test_packed.py``'s adversarial shapes: stumps, pure
leaves, unbounded depth, missing-class bootstraps, subsampled boosting,
single-row and single-background batches, and pickle round-trips.
"""

import pickle
import sys
from functools import partial

import numpy as np
import pytest
from oracles.tree_shap_recursion import reference_batch, tree_shap_values

from repro.core.executor import ThreadExecutor
from repro.core.explainers import (
    InterventionalTreeShapExplainer,
    TreeShapExplainer,
    shap_tree,
    shap_tree_interventional,
)
from repro.ml import (
    DecisionTreeClassifier,
    DecisionTreeRegressor,
    GradientBoostingClassifier,
    GradientBoostingRegressor,
    RandomForestClassifier,
    RandomForestRegressor,
)
from repro.ml import packed_shap
from repro.ml.packed import PackedEnsemble
from repro.ml.packed_shap import packed_tree_shap

ATOL = 1e-10


def _toy_data(seed=0, n=300, d=6):
    gen = np.random.default_rng(seed)
    X = gen.normal(size=(n, d))
    y = (X[:, 0] + 0.5 * X[:, 1] ** 2 - X[:, 2] > 0).astype(int)
    return X, y


def assert_batches_equal(vectorized, reference):
    assert vectorized.values.shape == reference.values.shape
    np.testing.assert_allclose(vectorized.values, reference.values, atol=ATOL)
    np.testing.assert_allclose(
        vectorized.base_values, reference.base_values, atol=ATOL
    )
    np.testing.assert_allclose(
        vectorized.predictions, reference.predictions, atol=ATOL
    )


class TestPathDependentEquality:
    def test_forest_classifier(self, fitted_rf, sla_split):
        _, X_test, _, _ = sla_split
        explainer = TreeShapExplainer(fitted_rf, class_index=1)
        assert_batches_equal(
            explainer.explain_batch(X_test[:12]),
            reference_batch(explainer, X_test[:12]),
        )

    def test_forest_classifier_other_class(self, fitted_rf, sla_split):
        _, X_test, _, _ = sla_split
        explainer = TreeShapExplainer(fitted_rf, class_index=0)
        assert_batches_equal(
            explainer.explain_batch(X_test[:6]),
            reference_batch(explainer, X_test[:6]),
        )

    def test_forest_regressor(self, regression_data):
        X, y = regression_data
        forest = RandomForestRegressor(
            n_estimators=15, max_depth=6, random_state=0
        ).fit(X, y)
        explainer = TreeShapExplainer(forest)
        assert_batches_equal(
            explainer.explain_batch(X[:10]),
            reference_batch(explainer, X[:10]),
        )

    def test_unbounded_depth_forest(self):
        X, y = _toy_data(3)
        forest = RandomForestClassifier(n_estimators=10, random_state=1).fit(X, y)
        explainer = TreeShapExplainer(forest, class_index=1)
        assert_batches_equal(
            explainer.explain_batch(X[:8]), reference_batch(explainer, X[:8])
        )

    def test_missing_class_bootstraps(self):
        """Rare third class: bootstraps that never saw it carry zero
        value columns after packing; the recursion skips those trees
        entirely.  Both paths must agree for the rare class itself."""
        X, y = _toy_data(7, n=250)
        y = y.copy()
        y[:4] = 2
        forest = RandomForestClassifier(
            n_estimators=20, max_depth=5, random_state=2
        ).fit(X, y)
        assert min(len(t.classes_) for t in forest.estimators_) < 3
        for class_index in (1, 2):
            explainer = TreeShapExplainer(forest, class_index=class_index)
            assert_batches_equal(
                explainer.explain_batch(X[:8]),
                reference_batch(explainer, X[:8]),
            )

    def test_boosting_classifier_margin(self):
        X, y = _toy_data(11)
        model = GradientBoostingClassifier(
            n_estimators=25, max_depth=3, random_state=0
        ).fit(X, y)
        explainer = TreeShapExplainer(model)
        assert_batches_equal(
            explainer.explain_batch(X[:8]), reference_batch(explainer, X[:8])
        )

    def test_boosting_with_subsample(self):
        X, y = _toy_data(13)
        model = GradientBoostingClassifier(
            n_estimators=20, subsample=0.6, random_state=5
        ).fit(X, y)
        explainer = TreeShapExplainer(model)
        assert_batches_equal(
            explainer.explain_batch(X[:8]), reference_batch(explainer, X[:8])
        )

    def test_boosting_regressor(self, regression_data):
        X, y = regression_data
        model = GradientBoostingRegressor(
            n_estimators=20, max_depth=3, random_state=0
        ).fit(X, y)
        explainer = TreeShapExplainer(model)
        assert_batches_equal(
            explainer.explain_batch(X[:8]), reference_batch(explainer, X[:8])
        )

    def test_single_tree_classifier(self):
        X, y = _toy_data(17)
        tree = DecisionTreeClassifier(max_depth=4, random_state=0).fit(X, y)
        explainer = TreeShapExplainer(tree, class_index=0)
        assert_batches_equal(
            explainer.explain_batch(X[:8]), reference_batch(explainer, X[:8])
        )

    def test_stump_forest(self):
        """Depth-1 trees: every path is a single split."""
        X, y = _toy_data(19)
        forest = RandomForestClassifier(
            n_estimators=12, max_depth=1, random_state=0
        ).fit(X, y)
        explainer = TreeShapExplainer(forest, class_index=1)
        assert_batches_equal(
            explainer.explain_batch(X[:10]),
            reference_batch(explainer, X[:10]),
        )

    def test_pure_leaf_tree_all_zero(self):
        """A single-node tree has no splits: zero attributions, and the
        prediction equals the base value."""
        gen = np.random.default_rng(0)
        X = gen.normal(size=(40, 3))
        tree = DecisionTreeRegressor().fit(X, np.full(40, 2.5))
        assert tree.tree_.n_nodes == 1
        explainer = TreeShapExplainer(tree)
        batch = explainer.explain_batch(X[:5])
        assert np.array_equal(batch.values, np.zeros((5, 3)))
        np.testing.assert_allclose(batch.predictions, np.full(5, 2.5))

    def test_single_row_batch(self, fitted_rf, sla_split):
        _, X_test, _, _ = sla_split
        explainer = TreeShapExplainer(fitted_rf, class_index=1)
        batch = explainer.explain_batch(X_test[:1])
        single = explainer.explain(X_test[0])
        np.testing.assert_allclose(batch.values[0], single.values, atol=ATOL)
        assert batch.predictions[0] == pytest.approx(single.prediction, abs=ATOL)

    def test_single_row_explain_rides_packed_kernel(self, fitted_rf, sla_split):
        """``explain`` is a 1-row batch through the packed kernel: it
        carries the batch's ``vectorized`` marker and agrees with the
        per-tree recursion to the sweep tolerance."""
        _, X_test, _, _ = sla_split
        explainer = TreeShapExplainer(fitted_rf, class_index=1)
        single = explainer.explain(X_test[0])
        assert single.extras.get("vectorized") is True
        recursion = reference_batch(explainer, X_test[:1])[0]
        np.testing.assert_allclose(single.values, recursion.values, atol=ATOL)
        assert single.prediction == pytest.approx(
            recursion.prediction, abs=ATOL
        )
        assert single.base_value == recursion.base_value

    def test_single_row_explain_falls_back_without_packed_column(self):
        """A class column no tree carries skips the kernel: ``explain``
        returns the recursion's skip-every-component zeros."""
        X, y = _toy_data(43)
        forest = RandomForestClassifier(n_estimators=4, random_state=0).fit(X, y)
        explainer = TreeShapExplainer(forest, class_index=5)
        single = explainer.explain(X[0])
        assert np.array_equal(single.values, np.zeros(X.shape[1]))

    def test_empty_batch(self, fitted_rf, sla_split):
        _, X_test, _, _ = sla_split
        explainer = TreeShapExplainer(fitted_rf, class_index=1)
        batch = explainer.explain_batch(X_test[:0])
        assert batch.n_samples == 0
        assert batch.values.shape == (0, X_test.shape[1])

    def test_out_of_range_class_batch_is_zero(self):
        """A class no tree ever saw skips the kernel and explains as
        all-zero with a zero base value."""
        X, y = _toy_data(43)
        forest = RandomForestClassifier(n_estimators=4, random_state=0).fit(X, y)
        explainer = TreeShapExplainer(forest, class_index=5)
        batch = explainer.explain_batch(X[:3])
        assert np.array_equal(batch.values, np.zeros((3, X.shape[1])))
        assert np.array_equal(batch.base_values, np.zeros(3))

    def test_matches_per_tree_recursion_directly(self):
        """The kernel against the raw per-tree recursion (not just the
        explainer wrapper): sum of tree_shap_values over trees."""
        X, y = _toy_data(23, n=200, d=4)
        forest = RandomForestClassifier(
            n_estimators=8, max_depth=4, random_state=3
        ).fit(X, y)
        packed = forest.packed_ensemble()
        phi = packed_tree_shap(packed, X[:6], column=1)
        for row in range(6):
            expected = np.zeros(4)
            for tree_model in forest.estimators_:
                output = np.flatnonzero(tree_model.classes_ == 1)
                if len(output) == 0:
                    continue
                expected += tree_shap_values(
                    tree_model.tree_, X[row], output=int(output[0])
                )
            expected /= len(forest.estimators_)
            np.testing.assert_allclose(phi[row], expected, atol=ATOL)


class TestOracleIndependence:
    def test_reference_batch_never_calls_a_kernel(self, monkeypatch):
        """The reference is the recursion itself: with both packed
        kernels raising, it still builds, and the explainers' own
        batches (taken before the patch) still match it."""
        X, y = _toy_data(53, n=200, d=4)
        forest = RandomForestClassifier(
            n_estimators=6, max_depth=4, random_state=0
        ).fit(X, y)
        path = TreeShapExplainer(forest, class_index=1)
        interventional = InterventionalTreeShapExplainer(
            forest, X[:6], class_index=1
        )
        expected = [
            path.explain_batch(X[:4]),
            interventional.explain_batch(X[:4]),
        ]

        def kernel_called(*args, **kwargs):
            raise AssertionError("the reference reached a packed kernel")

        for name in ("packed_tree_shap", "packed_interventional_shap"):
            monkeypatch.setattr(packed_shap, name, kernel_called)
        monkeypatch.setattr(shap_tree, "packed_tree_shap", kernel_called)
        monkeypatch.setattr(
            shap_tree_interventional, "packed_interventional_shap",
            kernel_called,
        )
        with pytest.raises(AssertionError, match="packed kernel"):
            path.explain_batch(X[:1])
        for explainer, vectorized in zip((path, interventional), expected):
            assert_batches_equal(vectorized, reference_batch(explainer, X[:4]))


class TestInterventionalEquality:
    def test_forest_classifier(self, fitted_rf, sla_split):
        X_train, X_test, _, _ = sla_split
        explainer = InterventionalTreeShapExplainer(
            fitted_rf, X_train[:10], class_index=1
        )
        assert_batches_equal(
            explainer.explain_batch(X_test[:5]),
            reference_batch(explainer, X_test[:5]),
        )

    def test_forest_regressor(self, regression_data):
        X, y = regression_data
        forest = RandomForestRegressor(
            n_estimators=10, max_depth=5, random_state=0
        ).fit(X, y)
        explainer = InterventionalTreeShapExplainer(forest, X[:12])
        assert_batches_equal(
            explainer.explain_batch(X[:6]), reference_batch(explainer, X[:6])
        )

    def test_unbounded_depth_forest(self):
        X, y = _toy_data(3, n=150)
        forest = RandomForestClassifier(n_estimators=6, random_state=1).fit(X, y)
        explainer = InterventionalTreeShapExplainer(
            forest, X[:8], class_index=1
        )
        assert_batches_equal(
            explainer.explain_batch(X[:5]), reference_batch(explainer, X[:5])
        )

    def test_missing_class_bootstraps(self):
        X, y = _toy_data(7, n=250)
        y = y.copy()
        y[:4] = 2
        forest = RandomForestClassifier(
            n_estimators=15, max_depth=4, random_state=2
        ).fit(X, y)
        assert min(len(t.classes_) for t in forest.estimators_) < 3
        explainer = InterventionalTreeShapExplainer(
            forest, X[:10], class_index=2
        )
        assert_batches_equal(
            explainer.explain_batch(X[:5]), reference_batch(explainer, X[:5])
        )

    def test_boosting_with_subsample(self):
        X, y = _toy_data(13)
        model = GradientBoostingClassifier(
            n_estimators=15, subsample=0.6, random_state=5
        ).fit(X, y)
        explainer = InterventionalTreeShapExplainer(model, X[:10])
        assert_batches_equal(
            explainer.explain_batch(X[:5]), reference_batch(explainer, X[:5])
        )

    def test_stump_forest(self):
        X, y = _toy_data(19)
        forest = RandomForestClassifier(
            n_estimators=10, max_depth=1, random_state=0
        ).fit(X, y)
        explainer = InterventionalTreeShapExplainer(
            forest, X[:15], class_index=1
        )
        assert_batches_equal(
            explainer.explain_batch(X[:8]), reference_batch(explainer, X[:8])
        )

    def test_pure_leaf_tree_all_zero(self):
        gen = np.random.default_rng(0)
        X = gen.normal(size=(40, 3))
        tree = DecisionTreeRegressor().fit(X, np.full(40, 2.5))
        explainer = InterventionalTreeShapExplainer(tree, X[:5])
        batch = explainer.explain_batch(X[5:10])
        assert np.array_equal(batch.values, np.zeros((5, 3)))
        np.testing.assert_allclose(batch.predictions, np.full(5, 2.5))

    def test_single_background_row(self):
        """One reference row: the background mean is that row's game."""
        X, y = _toy_data(29, n=200, d=4)
        forest = RandomForestClassifier(
            n_estimators=8, max_depth=4, random_state=0
        ).fit(X, y)
        explainer = InterventionalTreeShapExplainer(
            forest, X[:1], class_index=1
        )
        assert_batches_equal(
            explainer.explain_batch(X[:6]), reference_batch(explainer, X[:6])
        )

    def test_single_row_batch(self):
        X, y = _toy_data(31, n=200, d=4)
        forest = RandomForestClassifier(
            n_estimators=8, max_depth=4, random_state=0
        ).fit(X, y)
        explainer = InterventionalTreeShapExplainer(
            forest, X[:10], class_index=1
        )
        batch = explainer.explain_batch(X[:1])
        single = explainer.explain(X[0])
        np.testing.assert_allclose(batch.values[0], single.values, atol=ATOL)
        assert batch.predictions[0] == pytest.approx(single.prediction, abs=ATOL)

    def test_empty_batch(self):
        X, y = _toy_data(31, n=100, d=4)
        forest = RandomForestClassifier(n_estimators=4, random_state=0).fit(X, y)
        explainer = InterventionalTreeShapExplainer(
            forest, X[:5], class_index=1
        )
        batch = explainer.explain_batch(X[:0])
        assert batch.n_samples == 0

    def test_out_of_range_class_batch_is_zero(self):
        X, y = _toy_data(43)
        forest = RandomForestClassifier(n_estimators=4, random_state=0).fit(X, y)
        explainer = InterventionalTreeShapExplainer(
            forest, X[:6], class_index=5
        )
        batch = explainer.explain_batch(X[:3])
        assert np.array_equal(batch.values, np.zeros((3, X.shape[1])))


class TestPickleRoundTrip:
    def test_path_dependent_explainer_round_trip(self):
        X, y = _toy_data(37, n=200, d=4)
        forest = RandomForestClassifier(
            n_estimators=6, max_depth=4, random_state=0
        ).fit(X, y)
        explainer = TreeShapExplainer(forest, class_index=1)
        before = explainer.explain_batch(X[:5])
        clone = pickle.loads(pickle.dumps(explainer))
        # the packed snapshot (and its path table) is dropped from the
        # pickled state and rebuilt on first use
        assert "_packed" not in clone.model.__dict__
        after = clone.explain_batch(X[:5])
        np.testing.assert_allclose(after.values, before.values, atol=ATOL)

    def test_interventional_explainer_round_trip(self):
        X, y = _toy_data(41, n=200, d=4)
        forest = RandomForestClassifier(
            n_estimators=6, max_depth=4, random_state=0
        ).fit(X, y)
        explainer = InterventionalTreeShapExplainer(
            forest, X[:8], class_index=1
        )
        before = explainer.explain_batch(X[:4])
        clone = pickle.loads(pickle.dumps(explainer))
        after = clone.explain_batch(X[:4])
        np.testing.assert_allclose(after.values, before.values, atol=ATOL)


class TestPathTableStructure:
    def test_memoized_on_packed_ensemble(self):
        X, y = _toy_data(47, n=150, d=4)
        forest = RandomForestClassifier(n_estimators=5, random_state=0).fit(X, y)
        packed = forest.packed_ensemble()
        assert packed.path_table() is packed.path_table()

    def test_leaf_coverage_products_match_node_weights(self, fitted_rf):
        """Per-leaf product of merged coverage fractions must equal the
        packed engine's own node weights at the leaves — the two
        derivations of the feature-absent descent mass."""
        packed = fitted_rf.packed_ensemble()
        table = packed.path_table()
        products = np.ones(table.n_leaves)
        np.multiply.at(products, table.elem_leaf, table.elem_zero)
        np.testing.assert_allclose(
            products, packed.node_weights()[table.leaves], rtol=1e-12
        )

    def test_reached_leaf_is_the_one_with_all_features_followed(
        self, fitted_rf, sla_split
    ):
        """A row follows every unique path feature of exactly the leaf
        it lands in (per tree) — the interval merge is faithful."""
        _, X_test, _, _ = sla_split
        packed = fitted_rf.packed_ensemble()
        table = packed.path_table()
        row = X_test[:1]
        follows = table.follows(row)[0]
        per_elem = np.concatenate((follows[:-1], [False]))
        followed_count = np.zeros(table.n_leaves, dtype=int)
        np.add.at(followed_count, table.elem_leaf, per_elem[:table.n_elems])
        fully_followed = np.flatnonzero(followed_count == table.leaf_m)
        reached = packed.apply(row)[0]
        # packed.apply returns global node ids in estimator order;
        # every reached leaf must be fully followed, one per tree
        reached_positions = np.searchsorted(table.leaves, reached)
        assert set(reached_positions) <= set(fully_followed.tolist())
        assert len(fully_followed) == packed.n_trees

    def test_max_path_bounded_by_depth_and_features(self, fitted_rf):
        packed = fitted_rf.packed_ensemble()
        table = packed.path_table()
        assert table.max_path <= min(packed.max_depth, packed.n_features)
        assert table.leaf_m.max() == table.max_path


# ----------------------------------------------------------------------
# the pair store: warm calls return the bytes cold calls do


def _store_models():
    """``name -> (model, columns)`` for every model shape the path
    table serves; the forest classifier explains two columns through
    one store, so a pair filed under the wrong column shows."""
    X, y = _toy_data(61, n=400)
    y_reg = 2.0 * X[:, 0] + X[:, 1] ** 2 - X[:, 2]
    return {
        "tree": (
            DecisionTreeClassifier(max_depth=6, random_state=0).fit(X, y),
            (1,),
        ),
        "forest_classifier": (
            RandomForestClassifier(
                n_estimators=12, max_depth=6, random_state=0
            ).fit(X, y),
            (0, 1),
        ),
        "forest_regressor": (
            RandomForestRegressor(
                n_estimators=10, max_depth=6, random_state=0
            ).fit(X, y_reg),
            (0,),
        ),
        "boosting_classifier": (
            GradientBoostingClassifier(
                n_estimators=15, max_depth=3, random_state=0
            ).fit(X, y),
            (0,),
        ),
        "boosting_regressor": (
            GradientBoostingRegressor(
                n_estimators=15, max_depth=3, random_state=0
            ).fit(X, y_reg),
            (0,),
        ),
    }, X


STORE_MODELS, STORE_X = _store_models()


def _cold(model, X, column):
    """The kernel on a freshly packed ensemble: nothing stored."""
    return packed_tree_shap(
        PackedEnsemble.from_model(model), X, column=column
    )


def _windows(X, size=16, count=8):
    """Consecutive 16-row windows, then the first one again."""
    windows = [X[i * size:(i + 1) * size] for i in range(count)]
    return windows + windows[:1]


class TestPairStore:
    @pytest.mark.parametrize("name", sorted(STORE_MODELS))
    def test_warm_store_equals_cold(self, name):
        model, columns = STORE_MODELS[name]
        packed = PackedEnsemble.from_model(model)
        table = packed.path_table()
        assert table.max_path + (table.n_leaves - 1).bit_length() <= 62
        for window in _windows(STORE_X):
            for column in columns:
                warm = packed_tree_shap(packed, window, column=column)
                assert warm.tobytes() == _cold(model, window, column).tobytes()
        assert sorted(table._stores) == sorted(columns)

    def test_repeated_window_sweeps_nothing(self, monkeypatch):
        model, _ = STORE_MODELS["forest_classifier"]
        packed = PackedEnsemble.from_model(model)
        window = STORE_X[:16]
        first = packed_tree_shap(packed, window, column=1)

        def swept(*args, **kwargs):
            raise AssertionError("a stored pair was swept again")

        monkeypatch.setattr(packed_shap, "_pattern_contrib", swept)
        again = packed_tree_shap(packed, window, column=1)
        assert again.tobytes() == first.tobytes()
        with pytest.raises(AssertionError, match="swept again"):
            packed_tree_shap(packed, window, column=0)

    def test_folded_ids_are_swept_not_stored(self):
        """The 70-deep caterpillar tree folds its pair ids into
        batch-relative ranks: they are never stored, and warm calls
        still equal cold ones."""
        n = 72
        X = np.tril(np.ones((n, n - 1)), k=-1)
        tree = DecisionTreeRegressor().fit(X, 4.0 ** np.arange(n))
        packed = PackedEnsemble.from_model(tree)
        table = packed.path_table()
        assert table.max_path + (table.n_leaves - 1).bit_length() > 62
        rows = np.concatenate((X, X[::-1], X[::3]))
        for window in _windows(rows, count=9):
            warm = packed_tree_shap(packed, window)
            assert warm.tobytes() == _cold(tree, window, 0).tobytes()
        assert table._stores == {}

    def test_full_store_keeps_sweeping(self, monkeypatch):
        """Past the cap new pairs are used but not stored, and the
        store never holds more floats than the cap."""
        model, _ = STORE_MODELS["forest_classifier"]
        packed = PackedEnsemble.from_model(model)
        table = packed.path_table()
        budget = 40 * table.max_path
        monkeypatch.setattr(packed_shap, "_PAIR_STORE_BUDGET", budget)
        for window in _windows(STORE_X):
            for column in (1, 0):
                warm = packed_tree_shap(packed, window, column=column)
                assert warm.tobytes() == _cold(model, window, column).tobytes()
        held = sum(store.values.size for store in table._stores.values())
        assert held == table._stored_floats <= budget
        assert sum(len(store.keys) for store in table._stores.values()) == 40

    def test_thread_chunks_on_one_model_equal_serial(self):
        """Four threads explain 4-row chunks through one shared store
        (switching threads every few microseconds); the stacked result
        is the serial cold result, byte for byte."""
        model, _ = STORE_MODELS["forest_classifier"]
        X = STORE_X[:96]
        serial = _cold(model, X, 1)
        packed = PackedEnsemble.from_model(model)
        chunks = [X[i:i + 4] for i in range(0, len(X), 4)]
        explain = partial(packed_tree_shap, packed, column=1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadExecutor(4) as executor:
                for _ in range(10):
                    packed.path_table().clear_pair_store()
                    for _ in range(2):  # cold, then warm
                        phi = np.vstack(executor.map(explain, chunks))
                        assert phi.tobytes() == serial.tobytes()
        finally:
            sys.setswitchinterval(interval)
        store = packed.path_table()._stores[1]
        assert np.all(np.diff(store.keys) > 0)  # no pair stored twice
        assert sorted(store.slots.tolist()) == list(range(len(store.keys)))

    def test_pickles_keep_their_size_after_explaining(self):
        model, _ = STORE_MODELS["forest_classifier"]
        model = pickle.loads(pickle.dumps(model))
        packed = model.packed_ensemble()
        packed.path_table()
        model_before = len(pickle.dumps(model))
        packed_before = len(pickle.dumps(packed))
        explainer = TreeShapExplainer(model, class_index=1)
        for window in _windows(STORE_X):
            explainer.explain_batch(window)
        assert packed.path_table()._stores
        assert len(pickle.dumps(model)) == model_before
        assert len(pickle.dumps(packed)) == packed_before
        clone = pickle.loads(pickle.dumps(packed))
        assert clone.path_table()._stores == {}
        window = STORE_X[:16]
        assert (
            packed_tree_shap(clone, window, column=1).tobytes()
            == packed_tree_shap(packed, window, column=1).tobytes()
        )
