"""Property-based axiom tests for the attribution engines.

Three Shapley-flavoured properties, each checked across >= 3 model
families (logistic regression, random forest, MLP):

* **dummy** — a feature the model provably ignores (the predict
  function drops it before calling the model) gets ~0 attribution;
* **efficiency** — attributions sum to ``prediction - base_value``
  exactly for the exact/linear/full-enumeration engines;
* **permutation invariance** — ``explain_batch`` is a per-row map
  under integer seeds: reordering the rows reorders the attributions
  and nothing else.

Hypothesis drives the seeds, explained rows, and permutations; the
properties must hold for *any* of them, not just the committed ones.
KernelSHAP runs with ``n_samples >= 2^d - 2`` here so its coalition
design is fully enumerated and the estimator is exact — the dummy and
efficiency axioms are theorems in that regime, not approximations.

The vectorized TreeSHAP kernels (``repro.ml.packed_shap``) get the
same treatment plus an equivalence property: for random seeds, sizes,
and depths, the packed array sweep must match the per-tree recursions
of ``tests/oracles/tree_shap_recursion.py`` to <= 1e-10 on both the
path-dependent and interventional variants.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles.tree_shap_recursion import reference_batch

from repro.core.explainers import (
    ExactShapleyExplainer,
    InterventionalTreeShapExplainer,
    KernelShapExplainer,
    LimeExplainer,
    LinearShapExplainer,
    SamplingShapleyExplainer,
    TreeShapExplainer,
    model_output_fn,
)
from repro.ml import (
    GradientBoostingClassifier,
    LinearRegression,
    LogisticRegression,
    MLPClassifier,
    RandomForestClassifier,
    RandomForestRegressor,
)

MODEL_NAMES = ("logistic", "forest", "mlp")


@pytest.fixture(scope="module")
def fitted_fns(classification_data):
    """``name -> (score_fn, X)`` for three fitted model families."""
    X, y = classification_data
    models = {
        "logistic": LogisticRegression(max_iter=200),
        "forest": RandomForestClassifier(
            n_estimators=10, max_depth=5, random_state=0
        ),
        "mlp": MLPClassifier(
            hidden_layer_sizes=(16,), max_epochs=25, random_state=0
        ),
    }
    return {
        name: (model_output_fn(model.fit(X, y)), X)
        for name, model in models.items()
    }


class _DropLastColumn:
    """Predict function that provably ignores its last input column."""

    def __init__(self, fn):
        self.fn = fn

    def __call__(self, X):
        return self.fn(np.asarray(X)[:, :-1])


def _augmented(X, rng):
    """``X`` plus one appended column of noise (the dummy feature)."""
    return np.column_stack([X, rng.normal(size=len(X))])


class TestDummyAxiom:
    """A feature with zero effect on the model gets ~0 attribution."""

    @pytest.mark.parametrize("model_name", MODEL_NAMES)
    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_kernel_shap_full_enumeration(self, fitted_fns, model_name, seed):
        fn, X = fitted_fns[model_name]
        rng = np.random.default_rng(seed)
        Xa = _augmented(X[:40], rng)
        explainer = KernelShapExplainer(
            _DropLastColumn(fn), Xa[:24], n_samples=256, random_state=seed
        )
        phi = explainer.explain(Xa[-1]).values
        assert abs(phi[-1]) < 1e-7

    @pytest.mark.parametrize("model_name", MODEL_NAMES)
    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_sampling_shapley(self, fitted_fns, model_name, seed):
        fn, X = fitted_fns[model_name]
        rng = np.random.default_rng(seed)
        Xa = _augmented(X[:40], rng)
        explainer = SamplingShapleyExplainer(
            _DropLastColumn(fn), Xa[:16], n_permutations=8, random_state=seed
        )
        phi = explainer.explain(Xa[-1]).values
        # a permutation's marginal contribution for the dummy is 0 by
        # construction, for every draw — exactly, not approximately
        assert phi[-1] == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("model_name", MODEL_NAMES)
    def test_exact_shapley(self, fitted_fns, model_name):
        fn, X = fitted_fns[model_name]
        rng = np.random.default_rng(0)
        Xa = _augmented(X[:40], rng)
        explainer = ExactShapleyExplainer(_DropLastColumn(fn), Xa[:16])
        batch = explainer.explain_batch(Xa[-3:])
        np.testing.assert_allclose(batch.values[:, -1], 0.0, atol=1e-10)


class TestEfficiencyAxiom:
    """base_value + sum(values) == prediction for the exact engines."""

    @pytest.mark.parametrize("model_name", MODEL_NAMES)
    def test_exact_shapley_efficiency(self, fitted_fns, model_name):
        fn, X = fitted_fns[model_name]
        explainer = ExactShapleyExplainer(fn, X[:24])
        for row in X[-3:]:
            assert explainer.explain(row).additivity_gap() < 1e-8

    @pytest.mark.parametrize("model_name", MODEL_NAMES)
    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_kernel_shap_efficiency(self, fitted_fns, model_name, seed):
        fn, X = fitted_fns[model_name]
        explainer = KernelShapExplainer(
            fn, X[:24], n_samples=128, random_state=seed
        )
        batch = explainer.explain_batch(X[-4:])
        np.testing.assert_allclose(batch.additivity_gaps(), 0.0, atol=1e-8)

    def test_linear_shap_efficiency_classifier(self, classification_data):
        X, y = classification_data
        model = LogisticRegression(max_iter=200).fit(X, y)
        explainer = LinearShapExplainer(model, X[:50])
        for row in X[-5:]:
            assert explainer.explain(row).additivity_gap() < 1e-10

    def test_linear_shap_efficiency_regressor(self, regression_data):
        X, y = regression_data
        model = LinearRegression().fit(X, y)
        explainer = LinearShapExplainer(model, X[:50])
        batch = explainer.explain_batch(X[-5:])
        np.testing.assert_allclose(batch.additivity_gaps(), 0.0, atol=1e-10)


class TestPermutationInvariance:
    """Row order in explain_batch must not change any row's result."""

    @pytest.mark.parametrize("model_name", MODEL_NAMES)
    @settings(max_examples=5, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_kernel_shap_batch(self, fitted_fns, model_name, seed):
        fn, X = fitted_fns[model_name]
        rows = X[-12:]
        perm = np.random.default_rng(seed).permutation(len(rows))
        explainer = KernelShapExplainer(
            fn, X[:24], n_samples=64, random_state=0
        )
        direct = explainer.explain_batch(rows).values
        permuted = explainer.explain_batch(rows[perm]).values
        np.testing.assert_allclose(permuted, direct[perm], atol=1e-10)

    @pytest.mark.parametrize("model_name", MODEL_NAMES)
    @settings(max_examples=5, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_lime_batch(self, fitted_fns, model_name, seed):
        fn, X = fitted_fns[model_name]
        rows = X[-10:]
        perm = np.random.default_rng(seed).permutation(len(rows))
        explainer = LimeExplainer(fn, X, n_samples=200, random_state=1)
        direct = explainer.explain_batch(rows).values
        permuted = explainer.explain_batch(rows[perm]).values
        np.testing.assert_allclose(permuted, direct[perm], atol=1e-10)

    @pytest.mark.parametrize("model_name", MODEL_NAMES)
    def test_sampling_shapley_batch(self, fitted_fns, model_name):
        fn, X = fitted_fns[model_name]
        rows = X[-10:]
        perm = np.random.default_rng(7).permutation(len(rows))
        explainer = SamplingShapleyExplainer(
            fn, X[:16], n_permutations=8, random_state=2
        )
        direct = explainer.explain_batch(rows).values
        permuted = explainer.explain_batch(rows[perm]).values
        np.testing.assert_allclose(permuted, direct[perm], atol=1e-10)


def _random_tree_model(seed, n_estimators, max_depth, *, boosting=False):
    """A model and data drawn from a hypothesis-provided seed — the
    vectorized kernels must agree with the legacy recursions for any
    of them, not just the committed fixtures."""
    gen = np.random.default_rng(seed)
    n, d = 150, 5
    X = gen.normal(size=(n, d))
    if boosting:
        y = (X[:, 0] + 0.5 * X[:, 1] > 0).astype(int)
        model = GradientBoostingClassifier(
            n_estimators=n_estimators, max_depth=max_depth,
            random_state=seed % 2**31,
        ).fit(X, y)
    else:
        y = X[:, 0] - np.abs(X[:, 2]) + 0.1 * gen.normal(size=n)
        model = RandomForestRegressor(
            n_estimators=n_estimators, max_depth=max_depth,
            random_state=seed % 2**31,
        ).fit(X, y)
    return model, X


class TestVectorizedTreeShapProperties:
    """The vectorized packed kernels vs the per-row recursions, across
    random seeds, ensemble sizes, and depths (the ISSUE 6 contract:
    equality to <= 1e-10 everywhere, plus the Shapley axioms)."""

    @settings(max_examples=8, deadline=None)
    @given(
        seed=st.integers(0, 10**6),
        n_estimators=st.integers(1, 10),
        max_depth=st.integers(1, 7),
        boosting=st.booleans(),
    )
    def test_path_dependent_equals_legacy(
        self, seed, n_estimators, max_depth, boosting
    ):
        model, X = _random_tree_model(
            seed, n_estimators, max_depth, boosting=boosting
        )
        explainer = TreeShapExplainer(model)
        vectorized = explainer.explain_batch(X[:6])
        legacy = reference_batch(explainer, X[:6])
        np.testing.assert_allclose(
            vectorized.values, legacy.values, atol=1e-10
        )
        np.testing.assert_allclose(
            vectorized.predictions, legacy.predictions, atol=1e-10
        )

    @settings(max_examples=6, deadline=None)
    @given(
        seed=st.integers(0, 10**6),
        n_estimators=st.integers(1, 8),
        max_depth=st.integers(1, 6),
        boosting=st.booleans(),
    )
    def test_interventional_equals_legacy(
        self, seed, n_estimators, max_depth, boosting
    ):
        model, X = _random_tree_model(
            seed, n_estimators, max_depth, boosting=boosting
        )
        explainer = InterventionalTreeShapExplainer(model, X[:8])
        vectorized = explainer.explain_batch(X[:4])
        legacy = reference_batch(explainer, X[:4])
        np.testing.assert_allclose(
            vectorized.values, legacy.values, atol=1e-10
        )

    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_efficiency_path_dependent(self, seed):
        """base + sum(phi) == the model's prediction, for every row."""
        model, X = _random_tree_model(seed, 8, 5)
        batch = TreeShapExplainer(model).explain_batch(X[:8])
        np.testing.assert_allclose(
            batch.predictions, model.predict(X[:8]), atol=1e-8
        )
        np.testing.assert_allclose(batch.additivity_gaps(), 0.0, atol=1e-10)

    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_efficiency_interventional(self, seed):
        """base + sum(phi) == prediction, with base the background mean."""
        model, X = _random_tree_model(seed, 6, 5)
        explainer = InterventionalTreeShapExplainer(model, X[:10])
        batch = explainer.explain_batch(X[:6])
        np.testing.assert_allclose(
            batch.predictions, model.predict(X[:6]), atol=1e-8
        )
        np.testing.assert_allclose(
            batch.base_values, np.full(6, model.predict(X[:10]).mean()),
            atol=1e-8,
        )

    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_dummy_feature_zero(self, seed):
        """A constant column admits no split, so no tree uses it and
        both kernels must attribute exactly zero to it."""
        gen = np.random.default_rng(seed)
        X = gen.normal(size=(150, 4))
        X[:, -1] = 1.5  # constant: unsplittable
        y = X[:, 0] - X[:, 1] + 0.1 * gen.normal(size=150)
        model = RandomForestRegressor(
            n_estimators=6, max_depth=4, random_state=0
        ).fit(X, y)
        path = TreeShapExplainer(model).explain_batch(X[:5])
        np.testing.assert_allclose(path.values[:, -1], 0.0, atol=1e-12)
        interventional = InterventionalTreeShapExplainer(
            model, X[:8]
        ).explain_batch(X[:5])
        np.testing.assert_allclose(
            interventional.values[:, -1], 0.0, atol=1e-12
        )

    @settings(max_examples=5, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_batch_permutation_invariance(self, seed):
        model, X = _random_tree_model(seed, 6, 5)
        rows = X[:10]
        perm = np.random.default_rng(seed).permutation(len(rows))
        for explainer in (
            TreeShapExplainer(model),
            InterventionalTreeShapExplainer(model, X[:8]),
        ):
            direct = explainer.explain_batch(rows).values
            permuted = explainer.explain_batch(rows[perm]).values
            np.testing.assert_allclose(permuted, direct[perm], atol=1e-10)
