"""Batch explanation: the BatchExplanation container, each explainer's
``explain_batch`` (its one attribution path), and ``explain`` as the
one-row batch.

``explain_batch`` must reproduce the independent per-row formulations
in ``tests/oracles/shapley_per_row.py`` to 1e-12 (KernelSHAP, sampling
and exact Shapley, Integrated Gradients; an integer ``random_state``
re-seeds per call, so one shared design equals the per-row designs).
LinearSHAP is checked against its closed form and LIME against its own
one-row batches: neither has a second formulation.  The edge cases
(empty batch, single row, one feature, bad shapes, non-finite input and
background) are covered for every explainer in the grid.
"""

import ast
from pathlib import Path

import numpy as np
import pytest
from oracles import shapley_per_row
from oracles.shapley_per_row import (
    exact_shapley_row,
    integrated_gradients_row,
    kernel_shap_row,
    sampling_shapley_row,
)

from repro.core.explainers import (
    BatchExplanation,
    ExactShapleyExplainer,
    Explanation,
    IntegratedGradientsExplainer,
    KernelShapExplainer,
    LimeExplainer,
    LinearShapExplainer,
    SamplingShapleyExplainer,
    TreeShapExplainer,
)
from repro.ml import LinearRegression, MLPRegressor, RandomForestRegressor
from repro.utils.rng import check_random_state

GRID = [
    "kernel_shap", "sampling_shapley", "lime", "exact_shapley",
    "linear_shap", "integrated_gradients",
]


def _nonlinear(Z):
    Z = np.atleast_2d(Z)
    return Z[:, 0] * Z[:, 1] + np.sin(Z[:, 2]) + 0.5 * Z[:, 3]


def _one_feature(Z):
    Z = np.atleast_2d(Z)
    return np.sin(Z[:, 0]) + 0.3 * Z[:, 0] ** 2


@pytest.fixture(scope="module")
def nonlinear_problem():
    rng = np.random.default_rng(3)
    return rng.normal(size=(90, 6)), _nonlinear


def _builders(X, fn):
    """``name -> build(background)`` for one explainer of each kind
    over ``fn`` (LinearSHAP and IG over a linear model and an MLP
    fitted to it)."""
    y = fn(X)
    linear = LinearRegression().fit(X, y)
    mlp = MLPRegressor(
        hidden_layer_sizes=(16,), max_epochs=40, random_state=0
    ).fit(X, y)
    return {
        "kernel_shap": lambda bg: KernelShapExplainer(
            fn, bg, n_samples=100, random_state=7
        ),
        "sampling_shapley": lambda bg: SamplingShapleyExplainer(
            fn, bg, n_permutations=6, random_state=7
        ),
        "lime": lambda bg: LimeExplainer(
            fn, bg, n_samples=150, random_state=7
        ),
        "exact_shapley": lambda bg: ExactShapleyExplainer(fn, bg),
        "linear_shap": lambda bg: LinearShapExplainer(linear, bg),
        "integrated_gradients": lambda bg: IntegratedGradientsExplainer(
            mlp, bg, n_steps=16
        ),
    }


def _explainer_grid(X, fn):
    """The grid over the first 30 rows as background (LIME
    standardises by all of ``X``)."""
    return {
        name: build(X if name == "lime" else X[:30])
        for name, build in _builders(X, fn).items()
    }


@pytest.fixture(scope="module")
def grid(nonlinear_problem):
    return _explainer_grid(*nonlinear_problem)


@pytest.fixture(scope="module")
def grid_one_feature():
    X = check_random_state(4).normal(size=(60, 1))
    return X, _one_feature, _explainer_grid(X, _one_feature)


def _linear_closed_form(explainer, x):
    return (
        explainer.coef_ * (x - explainer.mean_),
        explainer.expected_value_,
        float(x @ explainer.coef_ + explainer.intercept_),
    )


def _reference(name, explainer, x):
    """``(values, base_value, prediction)`` of one row, computed
    without the batch path where a second formulation exists."""
    if name == "kernel_shap":
        return kernel_shap_row(explainer, x)
    if name == "sampling_shapley":
        rng = check_random_state(explainer.random_state)
        return sampling_shapley_row(explainer, x, rng)
    if name == "exact_shapley":
        return exact_shapley_row(explainer, x)
    if name == "integrated_gradients":
        return integrated_gradients_row(explainer, x)
    if name == "linear_shap":
        return _linear_closed_form(explainer, x)
    # LIME: its one-row batch (the shared noise is the only coupling)
    e = explainer.explain(x)
    return e.values, e.base_value, e.prediction


class TestBatchExplanationContainer:
    @pytest.fixture()
    def batch(self):
        return BatchExplanation(
            feature_names=["a", "b", "c"],
            values=np.arange(12, dtype=float).reshape(4, 3),
            base_values=np.zeros(4),
            predictions=np.arange(12, dtype=float).reshape(4, 3).sum(axis=1),
            X=np.ones((4, 3)),
            method="test",
            extras={"shared": 1},
            sample_extras=[{"i": i} for i in range(4)],
        )

    def test_len_and_shape(self, batch):
        assert len(batch) == 4
        assert batch.n_samples == 4
        assert batch.n_features == 3

    def test_getitem_returns_explanation(self, batch):
        e = batch[1]
        assert isinstance(e, Explanation)
        assert e.method == "test"
        np.testing.assert_allclose(e.values, [3.0, 4.0, 5.0])
        assert e.extras == {"shared": 1, "i": 1}

    def test_negative_and_out_of_range_index(self, batch):
        np.testing.assert_allclose(batch[-1].values, batch[3].values)
        with pytest.raises(IndexError):
            batch[4]

    def test_slice_and_iter(self, batch):
        assert [e.prediction for e in batch] == [
            e.prediction for e in batch.to_list()
        ]
        assert len(batch[1:3]) == 2

    def test_additivity_gaps(self, batch):
        np.testing.assert_allclose(batch.additivity_gaps(), np.zeros(4))

    def test_global_importance(self, batch):
        gi = batch.global_importance()
        np.testing.assert_allclose(
            gi.importances, np.abs(batch.values).mean(axis=0)
        )
        assert gi.method == "mean_abs_test"

    def test_empty_global_importance_raises(self):
        empty = BatchExplanation(
            feature_names=["a"],
            values=np.zeros((0, 1)),
            base_values=np.zeros(0),
            predictions=np.zeros(0),
            X=np.zeros((0, 1)),
            method="test",
        )
        with pytest.raises(ValueError, match="empty"):
            empty.global_importance()

    def test_validation_errors(self):
        with pytest.raises(ValueError, match="names"):
            BatchExplanation(
                feature_names=["a"],
                values=np.zeros((2, 3)),
                base_values=np.zeros(2),
                predictions=np.zeros(2),
                X=np.zeros((2, 3)),
                method="test",
            )
        with pytest.raises(ValueError, match="base values"):
            BatchExplanation(
                feature_names=["a", "b"],
                values=np.zeros((2, 2)),
                base_values=np.zeros(3),
                predictions=np.zeros(2),
                X=np.zeros((2, 2)),
                method="test",
            )

    def test_from_explanations_roundtrip(self, batch):
        rebuilt = BatchExplanation.from_explanations(batch.to_list())
        np.testing.assert_allclose(rebuilt.values, batch.values)
        np.testing.assert_allclose(rebuilt.predictions, batch.predictions)
        assert rebuilt.method == "test"

    def test_from_explanations_empty_raises(self):
        with pytest.raises(ValueError, match="zero explanations"):
            BatchExplanation.from_explanations([])


class TestBatchConcat:
    def _slices(self, batch, *bounds):
        def piece(lo, hi):
            return BatchExplanation(
                feature_names=batch.feature_names,
                values=batch.values[lo:hi],
                base_values=batch.base_values[lo:hi],
                predictions=batch.predictions[lo:hi],
                X=batch.X[lo:hi],
                method=batch.method,
                extras=dict(batch.extras),
                sample_extras=batch.sample_extras[lo:hi],
            )
        edges = [0, *bounds, len(batch)]
        return [piece(lo, hi) for lo, hi in zip(edges, edges[1:])]

    def test_roundtrip_of_chunks(self, batch=None):
        batch = BatchExplanation(
            feature_names=["a", "b", "c"],
            values=np.arange(12, dtype=float).reshape(4, 3),
            base_values=np.zeros(4),
            predictions=np.arange(4, dtype=float),
            X=np.ones((4, 3)),
            method="test",
            extras={"shared": 1},
            sample_extras=[{"i": i} for i in range(4)],
        )
        rebuilt = BatchExplanation.concat(self._slices(batch, 1, 3))
        np.testing.assert_array_equal(rebuilt.values, batch.values)
        np.testing.assert_array_equal(rebuilt.predictions, batch.predictions)
        np.testing.assert_array_equal(rebuilt.X, batch.X)
        assert rebuilt.extras == batch.extras
        assert rebuilt.sample_extras == batch.sample_extras
        assert rebuilt.method == "test"

    def test_single_chunk_passthrough(self):
        only = BatchExplanation(
            feature_names=["a"],
            values=np.ones((2, 1)),
            base_values=np.zeros(2),
            predictions=np.ones(2),
            X=np.ones((2, 1)),
            method="test",
        )
        assert BatchExplanation.concat([only]) is only

    def test_mismatched_chunks_rejected(self):
        def make(names, method):
            return BatchExplanation(
                feature_names=names,
                values=np.ones((1, len(names))),
                base_values=np.zeros(1),
                predictions=np.ones(1),
                X=np.ones((1, len(names))),
                method=method,
            )
        with pytest.raises(ValueError, match="feature names"):
            BatchExplanation.concat([make(["a"], "m"), make(["b"], "m")])
        with pytest.raises(ValueError, match="cannot concatenate"):
            BatchExplanation.concat([make(["a"], "m"), make(["a"], "other")])
        with pytest.raises(ValueError, match="zero batches"):
            BatchExplanation.concat([])

    def test_missing_sample_extras_drops_them(self):
        with_extras = BatchExplanation(
            feature_names=["a"],
            values=np.ones((1, 1)),
            base_values=np.zeros(1),
            predictions=np.ones(1),
            X=np.ones((1, 1)),
            method="m",
            sample_extras=[{"k": 1}],
        )
        without = BatchExplanation(
            feature_names=["a"],
            values=np.ones((1, 1)),
            base_values=np.zeros(1),
            predictions=np.ones(1),
            X=np.ones((1, 1)),
            method="m",
        )
        merged = BatchExplanation.concat([with_extras, without])
        assert merged.n_samples == 2
        assert merged.sample_extras is None


class TestBatchEquivalence:
    """explain_batch must match the per-row references."""

    @pytest.mark.parametrize("name", GRID)
    def test_matches_per_sample_loop(self, nonlinear_problem, grid, name):
        X, _ = nonlinear_problem
        explainer = grid[name]
        rows = X[30:46]
        batch = explainer.explain_batch(rows)
        assert isinstance(batch, BatchExplanation)
        assert len(batch) == len(rows)
        for b, row in zip(batch, rows):
            values, base_value, prediction = _reference(name, explainer, row)
            np.testing.assert_allclose(b.values, values, atol=1e-12, rtol=0)
            assert abs(b.prediction - prediction) < 1e-12
            assert abs(b.base_value - base_value) < 1e-12

    @pytest.mark.parametrize("name", GRID)
    def test_single_row_batch(self, nonlinear_problem, grid, name):
        """``explain`` is the one-row batch, for a row of shape (d,) or
        (1, d), and matches the per-row reference."""
        X, _ = nonlinear_problem
        explainer = grid[name]
        batch = explainer.explain_batch(X[40:41])
        assert len(batch) == 1
        for single in (explainer.explain(X[40]), explainer.explain(X[40:41])):
            assert isinstance(single, Explanation)
            np.testing.assert_array_equal(single.values, batch[0].values)
            assert single.prediction == batch[0].prediction
        values, _, _ = _reference(name, explainer, X[40])
        np.testing.assert_allclose(
            batch[0].values, values, atol=1e-12, rtol=0
        )

    @pytest.mark.parametrize("name", GRID)
    def test_empty_batch(self, nonlinear_problem, grid, name):
        X, _ = nonlinear_problem
        batch = grid[name].explain_batch(np.zeros((0, X.shape[1])))
        assert len(batch) == 0
        assert batch.values.shape == (0, X.shape[1])
        assert list(batch) == []

    @pytest.mark.parametrize("name", GRID)
    def test_bad_shapes_raise(self, nonlinear_problem, grid, name):
        X, _ = nonlinear_problem
        explainer = grid[name]
        with pytest.raises(ValueError, match="2-D"):
            explainer.explain_batch(X[0])
        with pytest.raises(ValueError, match="features"):
            explainer.explain_batch(np.zeros((3, X.shape[1] + 2)))

    @pytest.mark.parametrize("name", GRID)
    def test_explain_takes_exactly_one_row(self, nonlinear_problem, grid, name):
        """Two rows (or a higher-rank array) are not flattened into one
        wide row."""
        X, _ = nonlinear_problem
        explainer = grid[name]
        for bad in (X[:2], X[:2, :3], X[:1][None], np.float64(1.0)):
            with pytest.raises(ValueError, match="one row"):
                explainer.explain(bad)
        with pytest.raises(ValueError, match="features"):
            explainer.explain(X[0, :3])

    @pytest.mark.parametrize("name", GRID)
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rows_rejected(self, nonlinear_problem, grid, name, bad):
        X, _ = nonlinear_problem
        explainer = grid[name]
        rows = X[:3].copy()
        rows[1, 2] = bad
        with pytest.raises(ValueError, match="X contains NaN or infinite"):
            explainer.explain_batch(rows)
        with pytest.raises(ValueError, match="X contains NaN or infinite"):
            explainer.explain(rows[1])

    @pytest.mark.parametrize("name", GRID)
    def test_background_checked_at_construction(self, nonlinear_problem, name):
        X, fn = nonlinear_problem
        build = _builders(X, fn)[name]
        nan_background = X[:6].copy()
        nan_background[2, 4] = np.nan
        for background, message in (
            (X[:0], "at least one row"),
            (X[0], "2-D"),
            (nan_background, "NaN or infinite"),
        ):
            with pytest.raises(ValueError, match=message):
                build(background)

    @pytest.mark.parametrize("name", GRID)
    def test_one_feature(self, grid_one_feature, name):
        """``d == 1``: the efficiency constraint alone fixes a Shapley
        value, ``f(x) - E[f]``, and every explainer still attributes."""
        X, fn, explainers = grid_one_feature
        explainer = explainers[name]
        rows = X[:8]
        batch = explainer.explain_batch(rows)
        assert batch.values.shape == (8, 1)
        assert np.all(np.isfinite(batch.values))
        if name in ("kernel_shap", "sampling_shapley", "exact_shapley"):
            np.testing.assert_allclose(
                batch.values[:, 0],
                fn(rows) - explainer.expected_value_, atol=1e-12, rtol=0,
            )
        if name != "kernel_shap":  # the per-row oracle needs d >= 2
            values, _, _ = _reference(name, explainer, rows[3])
            np.testing.assert_allclose(
                batch.values[3], values, atol=1e-12, rtol=0
            )

    def test_batch_is_deterministic_for_int_seed(self, nonlinear_problem):
        X, fn = nonlinear_problem
        rows = X[:8]
        first = KernelShapExplainer(
            fn, X[:30], n_samples=100, random_state=11
        ).explain_batch(rows)
        second = KernelShapExplainer(
            fn, X[:30], n_samples=100, random_state=11
        ).explain_batch(rows)
        np.testing.assert_array_equal(first.values, second.values)

    def test_generator_random_state_supported(self, nonlinear_problem):
        X, fn = nonlinear_problem
        rng = np.random.default_rng(0)
        explainer = KernelShapExplainer(
            fn, X[:30], n_samples=100, random_state=rng
        )
        batch = explainer.explain_batch(X[:4])
        assert len(batch) == 4
        assert np.all(np.isfinite(batch.values))

    def test_fallback_loop_for_tree_shap(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(120, 5))
        y = X[:, 0] - 2.0 * X[:, 1] + rng.normal(0, 0.1, 120)
        model = RandomForestRegressor(
            n_estimators=8, max_depth=4, random_state=0
        ).fit(X, y)
        explainer = TreeShapExplainer(model)
        batch = explainer.explain_batch(X[:5])
        assert isinstance(batch, BatchExplanation)
        for b, row in zip(batch, X[:5]):
            np.testing.assert_allclose(
                b.values, explainer.explain(row).values, atol=1e-12, rtol=0
            )

    def test_kernel_row_chunking_matches_unchunked(
        self, nonlinear_problem, monkeypatch
    ):
        """A fleet large enough to overflow the row budget is chunked
        by rows without changing the result."""
        import repro.core.explainers.base as base

        X, fn = nonlinear_problem
        explainer = KernelShapExplainer(
            fn, X[:30], n_samples=60, random_state=1
        )
        full = explainer.explain_batch(X[:20])
        monkeypatch.setattr(base, "_ROW_BUDGET", 90)  # 3 rows/chunk
        chunked = explainer.explain_batch(X[:20])
        np.testing.assert_allclose(
            chunked.values, full.values, atol=1e-10, rtol=0
        )

    def test_exact_row_chunking_matches_unchunked(
        self, nonlinear_problem, monkeypatch
    ):
        import repro.core.explainers.base as base

        X, fn = nonlinear_problem
        explainer = ExactShapleyExplainer(fn, X[:10])
        full = explainer.explain_batch(X[:8])
        monkeypatch.setattr(base, "_ROW_BUDGET", 20)  # 2 rows/chunk
        chunked = explainer.explain_batch(X[:8])
        np.testing.assert_allclose(
            chunked.values, full.values, atol=1e-10, rtol=0
        )
        np.testing.assert_allclose(
            chunked.base_values, full.base_values, atol=1e-10, rtol=0
        )

    def test_additivity_holds_across_batch(self, nonlinear_problem, grid):
        X, _ = nonlinear_problem
        explainer = grid["kernel_shap"]
        batch = explainer.explain_batch(X[:10])
        assert batch.additivity_gaps().max() < 1e-6

    def test_global_importance_uses_batch_path(self, nonlinear_problem, grid):
        X, _ = nonlinear_problem
        explainer = grid["linear_shap"]
        gi = explainer.global_importance(X[:20])
        batch = explainer.explain_batch(X[:20])
        np.testing.assert_allclose(
            gi.importances, np.abs(batch.values).mean(axis=0)
        )


def test_per_row_oracle_imports_nothing_from_repro():
    """The oracle stays an independent formulation: it may read an
    explainer's configuration but never import the code it checks."""
    tree = ast.parse(Path(shapley_per_row.__file__).read_text())
    imported = [
        alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
        for alias in node.names
    ] + [
        node.module or "" for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
    ]
    assert not any(name.split(".")[0] == "repro" for name in imported), imported
