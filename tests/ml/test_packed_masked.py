"""Masked coalition evaluation on packed ensembles.

:meth:`repro.ml.packed.PackedEnsemble.coalition_values` walks tabled
branch bits instead of scoring the ``where(mask, x, background)``
hybrids, and must return **exactly** (``np.array_equal``) what scoring
the materialised hybrids through the model and averaging over the
background returns.  KernelSHAP and exact Shapley reach it through
:func:`repro.core.explainers.base.coalition_values` whenever their
``predict_fn`` is a :class:`ModelOutputFn` over a packed column; the
same model behind a plain lambda takes the generic path, and both must
produce the same bytes.
"""

import numpy as np
import pytest

import repro.ml.packed as packed_module
from repro.core.explainers import (
    ExactShapleyExplainer,
    KernelShapExplainer,
    model_output_fn,
)
from repro.core.explainers.base import coalition_values
from repro.ml import (
    DecisionTreeClassifier,
    DecisionTreeRegressor,
    GradientBoostingClassifier,
    GradientBoostingRegressor,
    LogisticRegression,
    RandomForestClassifier,
    RandomForestRegressor,
)
from repro.ml.packed import PackedEnsemble
from repro.utils.rng import check_random_state


def _data(seed=0, n=240, d=6):
    gen = check_random_state(seed)
    X = gen.normal(size=(n, d))
    y = (X[:, 0] + 0.5 * X[:, 1] ** 2 - X[:, 2] > 0).astype(int)
    target = 2.0 * X[:, 0] - X[:, 3] + np.sin(X[:, 4])
    return X, y, target


def _missing_class_forest():
    """A rare third class that some bootstraps never see."""
    X, y, _ = _data(7, n=250)
    y = y.copy()
    y[:4] = 2
    forest = RandomForestClassifier(
        n_estimators=30, max_depth=5, random_state=2
    ).fit(X, y)
    assert min(len(t.classes_) for t in forest.estimators_) < 3
    return forest, X


def _models():
    """``(id, fitted model, output, class_index, X)`` of every model whose
    score is a packed column."""
    X, y, target = _data()
    forest_c = RandomForestClassifier(
        n_estimators=12, max_depth=6, random_state=0
    ).fit(X, y)
    rare, X_rare = _missing_class_forest()
    return [
        ("forest_proba_1", forest_c, "proba", 1, X),
        ("forest_proba_0", forest_c, "proba", 0, X),
        ("forest_unbounded", RandomForestClassifier(
            n_estimators=8, random_state=1).fit(X, y), "proba", 1, X),
        ("forest_missing_class", rare, "proba", 2, X_rare),
        ("tree_proba", DecisionTreeClassifier(
            max_depth=5, random_state=0).fit(X, y), "proba", 1, X),
        ("forest_regressor", RandomForestRegressor(
            n_estimators=10, max_depth=5, random_state=0).fit(X, target),
         "predict", 1, X),
        ("tree_regressor", DecisionTreeRegressor(
            max_depth=7, random_state=0).fit(X, target), "predict", 1, X),
        ("boosting_margin", GradientBoostingClassifier(
            n_estimators=20, max_depth=3, random_state=0).fit(X, y),
         "margin", 1, X),
        ("boosting_regressor", GradientBoostingRegressor(
            n_estimators=15, max_depth=3, random_state=0).fit(X, target),
         "predict", 1, X),
    ]


MODELS = _models()
IDS = [case[0] for case in MODELS]


def _masks(d, seed=0, m=29):
    masks = check_random_state(seed).random((m, d)) < 0.5
    masks[0] = False  # the empty coalition: background only
    masks[1] = True  # the full coalition: the row itself
    return masks


def _materialised(fn, X, masks, background):
    """Score every hybrid through the model and average over the
    background — the formula :func:`coalition_values` must reproduce."""
    n, d = X.shape
    tiled = np.where(
        masks[:, None, None, :], X[None, :, None, :], background[None, None]
    )
    preds = np.asarray(fn(tiled.reshape(-1, d)), dtype=float)
    return preds.reshape(len(masks), n, len(background)).mean(axis=2)


def _packed(model, output, class_index):
    fn = model_output_fn(model, output=output, class_index=class_index)
    ensemble, column = fn.packed_column()
    return fn, ensemble, column


@pytest.mark.parametrize("case", MODELS, ids=IDS)
@pytest.mark.parametrize("n_bg", [1, 3, 9, 40])
def test_equals_materialised_hybrids(case, n_bg):
    _, model, output, class_index, X = case
    fn, ensemble, column = _packed(model, output, class_index)
    masks = _masks(X.shape[1])
    rows, background = X[:5], X[100:100 + n_bg]
    got = ensemble.coalition_values(rows, masks, background, column=column)
    assert np.array_equal(got, _materialised(fn, rows, masks, background))


@pytest.mark.parametrize("case", MODELS, ids=IDS)
def test_blocked_walk_equals_materialised(case, monkeypatch):
    """A tiny state budget splits the coalitions, the rows and the
    trees into many blocks; the bytes must not move."""
    _, model, output, class_index, X = case
    fn, ensemble, column = _packed(model, output, class_index)
    masks = _masks(X.shape[1], seed=1, m=23)
    rows, background = X[:11], X[60:67]
    want = _materialised(fn, rows, masks, background)
    monkeypatch.setattr(packed_module, "_STATE_BUDGET", 20)
    got = ensemble.coalition_values(rows, masks, background, column=column)
    assert np.array_equal(got, want)


def test_rows_above_the_state_budget(monkeypatch):
    _, model, output, class_index, X = MODELS[0]
    fn, ensemble, column = _packed(model, output, class_index)
    masks = _masks(X.shape[1], seed=2, m=8)
    background = X[200:204]
    monkeypatch.setattr(packed_module, "_STATE_BUDGET", 8 * 4 * 16)
    rows = X[:70]  # 16 rows per block
    got = ensemble.coalition_values(rows, masks, background, column=column)
    assert np.array_equal(got, _materialised(fn, rows, masks, background))


def test_empty_and_full_masks_are_background_mean_and_prediction():
    _, model, output, class_index, X = MODELS[0]
    fn, ensemble, column = _packed(model, output, class_index)
    d = X.shape[1]
    masks = np.array([np.zeros(d, bool), np.ones(d, bool)])
    rows, background = X[:6], X[100:130]
    V = ensemble.coalition_values(rows, masks, background, column=column)
    assert np.array_equal(V, _materialised(fn, rows, masks, background))
    assert np.array_equal(V[0], np.full(6, fn(background).mean()))
    # the mean of identical copies of f(x), equal up to rounding
    np.testing.assert_allclose(V[1], fn(rows), rtol=1e-14, atol=0)


def test_single_leaf_trees():
    """Constant features admit no split: every tree is one root leaf,
    whose output no mask can change."""
    X = np.zeros((30, 4))
    forest = RandomForestClassifier(n_estimators=5, random_state=0).fit(
        X, np.array([0, 1] * 15)
    )
    fn, ensemble, column = _packed(forest, "proba", 1)
    masks = _masks(4, m=6)
    got = ensemble.coalition_values(X[:3], masks, X[:5], column=column)
    assert np.array_equal(got, _materialised(fn, X[:3], masks, X[:5]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_input_rejected(bad):
    _, model, output, class_index, X = MODELS[0]
    _, ensemble, column = _packed(model, output, class_index)
    masks = _masks(X.shape[1], m=4)
    broken = X[:5].copy()
    broken[2, 1] = bad
    with pytest.raises(ValueError, match="X contains NaN or infinite"):
        ensemble.coalition_values(broken, masks, X[:5], column=column)
    with pytest.raises(ValueError, match="background contains NaN or inf"):
        ensemble.coalition_values(X[:5], masks, broken, column=column)


def test_mask_and_feature_shapes_checked():
    _, model, output, class_index, X = MODELS[0]
    _, ensemble, _ = _packed(model, output, class_index)
    with pytest.raises(ValueError, match="at least one row"):
        ensemble.coalition_values(X[:2], _masks(6, m=3), X[:0])
    with pytest.raises(ValueError, match="masks must have shape"):
        ensemble.coalition_values(X[:2], np.ones((3, 2), bool), X[:4])
    with pytest.raises(ValueError, match="features"):
        ensemble.coalition_values(X[:2, :3], _masks(6, m=3), X[:4])


class TestDispatch:
    """Which scores :func:`coalition_values` evaluates on the packed
    ensemble, and that those never score a materialised hybrid."""

    @pytest.mark.parametrize("case", MODELS, ids=IDS)
    def test_packed_column_skips_predict(self, case, monkeypatch):
        _, model, output, class_index, X = case
        fn = model_output_fn(model, output=output, class_index=class_index)
        masks = _masks(X.shape[1], m=9)
        want = _materialised(fn, X[:4], masks, X[50:60])

        def no_predict(self, X):
            raise AssertionError("a hybrid row was scored")

        monkeypatch.setattr(PackedEnsemble, "predict", no_predict)
        got = coalition_values(fn, X[:4], masks, X[50:60])
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("output", ["proba", "predict"])
    def test_boosting_classifier_proba_and_labels_are_generic(self, output):
        _, model, _, _, _ = MODELS[IDS.index("boosting_margin")]
        fn = model_output_fn(model, output=output)
        assert fn.packed_column() is None

    def test_forest_labels_and_linear_models_are_generic(self):
        X, y, _ = _data()
        forest = MODELS[0][1]
        assert model_output_fn(forest, output="predict").packed_column() is None
        linear = LogisticRegression(max_iter=50).fit(X, y)
        assert model_output_fn(linear).packed_column() is None

    def test_instance_scorer_override_is_honoured(self):
        """A scoring method pinned on the instance (bench E15's legacy
        twin does this) replaces the packed column: the generic path
        must call it."""
        X, y, _ = _data()
        forest = RandomForestClassifier(
            n_estimators=4, max_depth=3, random_state=0
        ).fit(X, y)
        calls = []

        def pinned(Z):
            calls.append(len(Z))
            return RandomForestClassifier.predict_proba(forest, Z)

        forest.predict_proba = pinned
        fn = model_output_fn(forest)
        assert fn.packed_column() is None
        masks = _masks(X.shape[1], m=5)
        got = coalition_values(fn, X[:3], masks, X[10:14])
        assert calls == [5 * 3 * 4]
        del forest.predict_proba
        assert np.array_equal(got, coalition_values(fn, X[:3], masks, X[10:14]))

    def test_column_follows_the_output(self):
        forest = MODELS[0][1]
        for class_index in (0, 1):
            fn = model_output_fn(forest, class_index=class_index)
            assert fn.packed_column() == (forest.packed_ensemble(), class_index)
        margin = MODELS[IDS.index("boosting_margin")][1]
        fn = model_output_fn(margin, output="margin", class_index=1)
        assert fn.packed_column() == (margin.packed_ensemble(), 0)


def _forest_problem():
    X, y, _ = _data(5, n=200, d=5)
    forest = RandomForestClassifier(
        n_estimators=10, max_depth=5, random_state=0
    ).fit(X, y)
    return forest, X


@pytest.mark.parametrize("explainer_cls", ["kernel", "exact"])
def test_explainers_match_the_generic_path(explainer_cls):
    """The same forest behind a plain lambda forces the materialised
    path: attributions, base values and predictions must be the same
    bytes."""
    forest, X = _forest_problem()
    fast = model_output_fn(forest)
    assert fast.packed_column() is not None

    def plain(Z):
        return fast(Z)

    background = X[100:130]

    def build(fn):
        if explainer_cls == "kernel":
            return KernelShapExplainer(
                fn, background, n_samples=40, random_state=3
            )
        return ExactShapleyExplainer(fn, background)

    packed = build(fast).explain_batch(X[:7])
    generic = build(plain).explain_batch(X[:7])
    assert np.array_equal(packed.values, generic.values)
    assert np.array_equal(packed.base_values, generic.base_values)
    assert np.array_equal(packed.predictions, generic.predictions)
