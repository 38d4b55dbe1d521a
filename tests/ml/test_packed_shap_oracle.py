"""``packed_tree_shap`` against the reference grid kernel, bit for bit.

The kernel sweeps each distinct (leaf, follow-pattern) pair of a row
block once and gathers the result back onto every (row, leaf) pair.
Every float it returns must still equal the grid kernel kept in
``tests/oracles/packed_tree_shap_grid.py``, which sweeps every
(row, leaf) pair.  Equality is checked on the raw bytes, so a signed
zero or a last-bit difference fails.
"""

import numpy as np
import pytest
from oracles.packed_tree_shap_grid import packed_tree_shap_grid

from repro.core.explainers import (
    InterventionalTreeShapExplainer,
    TreeShapExplainer,
)
from repro.ml import (
    DecisionTreeRegressor,
    GradientBoostingClassifier,
    GradientBoostingRegressor,
    RandomForestClassifier,
)
from repro.ml import packed_shap
from repro.ml.packed_shap import packed_interventional_shap, packed_tree_shap
from repro.utils.rng import check_random_state


def _assert_matches_oracle(model, X, column=0):
    packed = model.packed_ensemble()
    phi = packed_tree_shap(packed, X, column=column)
    expected = packed_tree_shap_grid(packed, X, column=column)
    assert phi.shape == expected.shape
    assert phi.tobytes() == expected.tobytes()
    return phi


@pytest.fixture(scope="module")
def telemetry(sla_dataset):
    return sla_dataset.X.values, np.asarray(sla_dataset.y)


@pytest.fixture(scope="module")
def stream_forest(telemetry):
    """The streaming engine's forest: 60 trees of depth 10, fitted on
    a 384-row history."""
    X, y = telemetry
    return RandomForestClassifier(
        n_estimators=60, max_depth=10, random_state=0
    ).fit(X[:384], y[:384])


@pytest.mark.parametrize("rows", [96, 192, 384])
def test_stream_windows(telemetry, stream_forest, rows):
    X, _ = telemetry
    _assert_matches_oracle(stream_forest, X[400:400 + rows], column=1)


def test_multiclass_columns():
    gen = check_random_state(3)
    X = gen.normal(size=(300, 5))
    y = np.digitize(X[:, 0] + 0.5 * X[:, 1], [-0.5, 0.5])
    forest = RandomForestClassifier(
        n_estimators=12, max_depth=6, random_state=1
    ).fit(X, y)
    for column in range(3):
        _assert_matches_oracle(forest, X[:40], column=column)


@pytest.mark.parametrize(
    "model_cls", [GradientBoostingClassifier, GradientBoostingRegressor]
)
def test_gradient_boosting(model_cls):
    gen = check_random_state(5)
    X = gen.normal(size=(250, 6))
    y = X[:, 0] - X[:, 1] * X[:, 2]
    if model_cls is GradientBoostingClassifier:
        y = (y > 0).astype(int)
    model = model_cls(n_estimators=30, max_depth=4, random_state=0).fit(X, y)
    assert model.packed_ensemble().mode == "scaled_sum"
    _assert_matches_oracle(model, X[:32])


def test_forest_with_root_leaf_tree():
    """One positive row among 20: some bootstraps miss it and grow a
    single-node tree, whose leaf has no path positions at all."""
    gen = check_random_state(0)
    X = gen.normal(size=(20, 4))
    y = np.zeros(20, dtype=int)
    y[0] = 1
    forest = RandomForestClassifier(n_estimators=10, random_state=0).fit(X, y)
    assert any(tree.tree_.n_nodes == 1 for tree in forest.estimators_)
    assert not all(tree.tree_.n_nodes == 1 for tree in forest.estimators_)
    _assert_matches_oracle(forest, X, column=0)


def test_single_row(telemetry, stream_forest):
    X, _ = telemetry
    _assert_matches_oracle(stream_forest, X[500:501], column=1)


def test_duplicated_rows(telemetry, stream_forest):
    """Repeated rows share every follow pattern: each must still get
    exactly the attributions the grid gives it."""
    X, _ = telemetry
    rows = np.repeat(X[600:608], [1, 5, 2, 9, 1, 3, 7, 4], axis=0)
    phi = _assert_matches_oracle(stream_forest, rows, column=1)
    assert phi[1].tobytes() == phi[5].tobytes()


def test_batch_spanning_row_blocks(telemetry, stream_forest, monkeypatch):
    """A budget a few rows wide splits the batch into several row
    blocks; the grid runs it as one."""
    X, _ = telemetry
    table = stream_forest.packed_ensemble().path_table()
    per_row = table.n_leaves * (table.max_path + 1)
    monkeypatch.setattr(packed_shap, "_PAIR_STATE_BUDGET", 7 * per_row)
    _assert_matches_oracle(stream_forest, X[700:750], column=1)


def test_path_too_deep_for_one_key_word():
    """A caterpillar tree whose deepest path has 70 unique features:
    ``leaf << max_path`` cannot fit an int64, so the pair ids are
    folded in chunks.  Targets ``4**i`` make isolating the top row the
    best split at every level."""
    n = 72
    X = np.tril(np.ones((n, n - 1)), k=-1)
    y = 4.0 ** np.arange(n)
    tree = DecisionTreeRegressor().fit(X, y)
    table = tree.packed_ensemble().path_table()
    assert table.max_path + table.n_leaves.bit_length() > 62
    rows = np.concatenate((X, X[::-1], X[::3]))
    _assert_matches_oracle(tree, rows)


# ----------------------------------------------------------------------
# non-finite rows: both packed kernels refuse them, as predict does


@pytest.fixture(scope="module")
def small_forest():
    gen = check_random_state(9)
    X = gen.normal(size=(200, 4))
    y = (X[:, 0] + X[:, 1] > 0).astype(int)
    forest = RandomForestClassifier(
        n_estimators=5, max_depth=4, random_state=0
    ).fit(X, y)
    return forest, X


NON_FINITE = [np.nan, np.inf, -np.inf]


@pytest.mark.parametrize("value", NON_FINITE)
def test_tree_shap_rejects_non_finite(small_forest, value):
    forest, X = small_forest
    row = X[:3].copy()
    row[1, 0] = value
    with pytest.raises(ValueError, match="X contains NaN or infinite"):
        packed_tree_shap(forest.packed_ensemble(), row, column=1)
    with pytest.raises(ValueError, match="X contains NaN or infinite"):
        forest.predict_proba(row)


@pytest.mark.parametrize("value", NON_FINITE)
def test_single_row_explain_rejects_non_finite(small_forest, value):
    forest, X = small_forest
    row = X[0].copy()
    row[0] = value
    explainer = TreeShapExplainer(forest, class_index=1)
    with pytest.raises(ValueError, match="X contains NaN or infinite"):
        explainer.explain(row)


@pytest.mark.parametrize("value", NON_FINITE)
def test_interventional_rejects_non_finite(small_forest, value):
    forest, X = small_forest
    packed = forest.packed_ensemble()
    bad = X[:4].copy()
    bad[2, 1] = value
    with pytest.raises(ValueError, match="X contains NaN or infinite"):
        packed_interventional_shap(packed, bad, X[:6], column=1)
    with pytest.raises(
        ValueError, match="background contains NaN or infinite"
    ):
        packed_interventional_shap(packed, X[:4], bad, column=1)
    explainer = InterventionalTreeShapExplainer(forest, X[:6], class_index=1)
    with pytest.raises(ValueError, match="X contains NaN or infinite"):
        explainer.explain(bad[2])
