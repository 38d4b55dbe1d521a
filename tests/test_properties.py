"""Property-based tests (hypothesis) on core invariants.

These cover the invariants that must hold for *any* input, not just the
fixtures: metric bounds, scaler round-trips, queueing monotonicity,
Shapley efficiency, and tree prediction containment.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from oracles.tree_shap_recursion import tree_expected_value, tree_shap_values

from repro.core.explainers import KernelShapExplainer
from repro.ml import (
    DecisionTreeRegressor,
    MinMaxScaler,
    StandardScaler,
)
from repro.ml.metrics import (
    accuracy_score,
    f1_score,
    mean_absolute_error,
    mean_squared_error,
    precision_score,
    r2_score,
    recall_score,
)
from repro.nfv.queueing import (
    mg1_waiting_time,
    mm1_waiting_time,
    mm1k_loss_probability,
)

# ---------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------
finite_floats = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)
small_matrix = arrays(
    dtype=np.float64,
    shape=st.tuples(st.integers(5, 30), st.integers(1, 6)),
    elements=st.floats(-100, 100, allow_nan=False),
)
binary_labels = st.lists(st.integers(0, 1), min_size=2, max_size=60)


class TestMetricProperties:
    @given(y=binary_labels)
    def test_accuracy_identity(self, y):
        assert accuracy_score(y, y) == 1.0

    @given(y_true=binary_labels, seed=st.integers(0, 100))
    def test_classification_metrics_bounded(self, y_true, seed):
        gen = np.random.default_rng(seed)
        y_pred = gen.integers(0, 2, len(y_true))
        for metric in (precision_score, recall_score, f1_score):
            value = metric(y_true, y_pred)
            assert 0.0 <= value <= 1.0

    @given(
        y=st.lists(finite_floats, min_size=2, max_size=50),
    )
    def test_mse_mae_nonnegative_and_zero_on_identity(self, y):
        y = np.asarray(y)
        assert mean_squared_error(y, y) == 0.0
        assert mean_absolute_error(y, y) == 0.0

    @given(
        y=st.lists(st.floats(-100, 100, allow_nan=False), min_size=3, max_size=50),
        shift=st.floats(-10, 10, allow_nan=False),
    )
    def test_r2_le_one(self, y, shift):
        y = np.asarray(y)
        pred = y + shift
        assert r2_score(y, pred) <= 1.0 + 1e-12


class TestScalerProperties:
    @given(X=small_matrix)
    @settings(max_examples=30)
    def test_standard_scaler_roundtrip(self, X):
        scaler = StandardScaler().fit(X)
        back = scaler.inverse_transform(scaler.transform(X))
        np.testing.assert_allclose(back, X, atol=1e-6)

    @given(X=small_matrix)
    @settings(max_examples=30)
    def test_minmax_scaler_output_in_unit_box(self, X):
        Z = MinMaxScaler().fit_transform(X)
        assert Z.min() >= -1e-12
        assert Z.max() <= 1.0 + 1e-12


class TestQueueingProperties:
    @given(
        rho=st.floats(0.01, 0.94),
        mu=st.floats(0.1, 1000.0),
    )
    def test_mm1_wait_positive_and_monotone_locally(self, rho, mu):
        lam = rho * mu
        w = mm1_waiting_time(lam, mu)
        assert w >= 0.0
        assert mm1_waiting_time(lam * 1.05, mu) >= w

    @given(
        rho=st.floats(0.01, 0.9),
        mu=st.floats(0.1, 100.0),
        scv=st.floats(0.0, 5.0),
    )
    def test_mg1_scales_linearly_with_scv(self, rho, mu, scv):
        lam = rho * mu
        base = mg1_waiting_time(lam, mu, scv=1.0)
        scaled = mg1_waiting_time(lam, mu, scv=scv)
        assert scaled == pytest.approx(base * (1.0 + scv) / 2.0, rel=1e-9)

    @given(
        lam=st.floats(0.0, 50.0),
        mu=st.floats(0.1, 50.0),
        k=st.integers(1, 200),
    )
    def test_loss_is_probability(self, lam, mu, k):
        p = mm1k_loss_probability(lam, mu, k)
        assert 0.0 <= p <= 1.0


class TestTreeProperties:
    @given(seed=st.integers(0, 50), depth=st.integers(1, 6))
    @settings(max_examples=15, deadline=None)
    def test_tree_prediction_within_target_range(self, seed, depth):
        gen = np.random.default_rng(seed)
        X = gen.normal(size=(80, 3))
        y = gen.normal(size=80)
        model = DecisionTreeRegressor(max_depth=depth).fit(X, y)
        pred = model.predict(gen.normal(size=(40, 3)))
        assert pred.min() >= y.min() - 1e-9
        assert pred.max() <= y.max() + 1e-9

    @given(seed=st.integers(0, 50))
    @settings(max_examples=10, deadline=None)
    def test_treeshap_efficiency_random_trees(self, seed):
        """Efficiency must hold for any tree and any query point —
        including points far outside the training distribution."""
        gen = np.random.default_rng(seed)
        X = gen.normal(size=(100, 4))
        y = gen.normal(size=100) + X[:, 0] * 2
        model = DecisionTreeRegressor(max_depth=5).fit(X, y)
        x = gen.normal(size=4) * 5.0
        phi = tree_shap_values(model.tree_, x)
        prediction = model.predict(x.reshape(1, -1))[0]
        base = tree_expected_value(model.tree_)
        assert base + phi.sum() == pytest.approx(prediction, abs=1e-8)


class TestKernelShapProperties:
    @given(seed=st.integers(0, 30))
    @settings(max_examples=8, deadline=None)
    def test_efficiency_for_arbitrary_functions(self, seed):
        """KernelSHAP's constraint construction guarantees efficiency
        for any model function, sample budget, and query point."""
        gen = np.random.default_rng(seed)
        background = gen.normal(size=(15, 5))
        w = gen.normal(size=5)

        def fn(Z):
            return np.tanh(Z @ w) + 0.3 * Z[:, 0] * Z[:, 1]

        explainer = KernelShapExplainer(
            fn, background, n_samples=40, random_state=seed
        )
        x = gen.normal(size=5)
        e = explainer.explain(x)
        assert e.additivity_gap() < 1e-7
