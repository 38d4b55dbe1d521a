"""The CART builder against the reference per-feature loop, bit for bit.

The builder scans each node's drawn features as one ``(n, k)`` array
program.  Every tree it grows must still equal the one grown by the
per-feature loop kept in ``tests/oracles/cart_builder.py``: all seven
``TreeStructure`` arrays and ``feature_importances_`` are compared on
their raw bytes, so a signed zero or a last-bit difference fails.

Each model is fitted twice from the same integer seed, once as shipped
and once with the oracle builder and importance loop patched into
:mod:`repro.ml.tree`, so forests (bootstrap samples, spawned per-tree
streams) and gradient boosting (residual targets, Newton leaf updates)
are compared through their real fit paths.
"""

import ast
from pathlib import Path

import numpy as np
import pytest
from oracles import cart_builder

from repro.ml import (
    DecisionTreeClassifier,
    DecisionTreeRegressor,
    GradientBoostingClassifier,
    GradientBoostingRegressor,
    RandomForestClassifier,
    RandomForestRegressor,
)
from repro.ml import tree as tree_module
from repro.utils.rng import check_random_state

FIELDS = (
    "children_left",
    "children_right",
    "feature",
    "threshold",
    "value",
    "n_node_samples",
    "impurity",
)


class _OracleBuilder(cart_builder._TreeBuilder):
    """The reference builder, returning the library's tree type."""

    def build(self, X, y):
        ref = super().build(X, y)
        return tree_module.TreeStructure(**{f: getattr(ref, f) for f in FIELDS})


def _assert_same_bytes(a, b, what):
    assert a.dtype == b.dtype, what
    assert a.shape == b.shape, what
    assert a.tobytes() == b.tobytes(), what


def _assert_matches_oracle(monkeypatch, make, X, y):
    """Fit ``make()`` as shipped and with the oracle patched in; return
    both models after comparing their trees."""
    fast = make().fit(X, y)
    with monkeypatch.context() as patch:
        patch.setattr(tree_module, "_TreeBuilder", _OracleBuilder)
        patch.setattr(
            tree_module,
            "_compute_feature_importances",
            cart_builder._compute_feature_importances,
        )
        ref = make().fit(X, y)
    trees = getattr(fast, "estimators_", None) or [fast]
    ref_trees = getattr(ref, "estimators_", None) or [ref]
    assert len(trees) == len(ref_trees)
    for t, (a, b) in enumerate(zip(trees, ref_trees)):
        for name in FIELDS:
            _assert_same_bytes(
                getattr(a.tree_, name), getattr(b.tree_, name), f"tree {t} {name}"
            )
        _assert_same_bytes(
            a.feature_importances_, b.feature_importances_, f"tree {t} importances"
        )
    if hasattr(fast, "feature_importances_"):
        _assert_same_bytes(
            fast.feature_importances_, ref.feature_importances_, "importances"
        )
    return fast, ref


def _data(seed, n, d, n_classes=None, *, levels=None):
    """Gaussian rows; ``levels`` rounds every value onto that many
    distinct levels per unit, so columns carry heavy ties."""
    rng = check_random_state(seed)
    X = rng.normal(size=(n, d)) * rng.uniform(0.1, 10.0, size=d)
    if levels is not None:
        X = np.round(X * levels) / levels
    signal = X[:, 0] - 0.5 * X[:, 1] + rng.normal(size=n)
    if n_classes is None:
        return X, signal + X[:, 2] * X[:, 3]
    y = np.digitize(signal, np.quantile(signal, np.linspace(0, 1, n_classes + 1)[1:-1]))
    return X, y


@pytest.fixture(scope="module")
def telemetry(sla_dataset):
    """SLA telemetry rows (31 features) with both classes present."""
    return sla_dataset.X.values, np.asarray(sla_dataset.y)


@pytest.mark.parametrize("n_classes", [2, 3, 4, 5, 7])
@pytest.mark.parametrize("max_features", [None, "sqrt", "log2", 0.5, 3])
def test_classifier_classes_and_max_features(monkeypatch, n_classes, max_features):
    X, y = _data(n_classes, 150, 8, n_classes)
    _assert_matches_oracle(
        monkeypatch,
        lambda: DecisionTreeClassifier(max_features=max_features, random_state=1),
        X,
        y,
    )


@pytest.mark.parametrize("max_features", [None, "sqrt", "log2", 0.5, 3])
def test_regressor_max_features(monkeypatch, max_features):
    X, y = _data(11, 150, 8)
    _assert_matches_oracle(
        monkeypatch,
        lambda: DecisionTreeRegressor(max_features=max_features, random_state=2),
        X,
        y,
    )


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("n_classes", [None, 2, 3])
def test_tied_and_constant_columns(monkeypatch, seed, n_classes):
    X, y = _data(20 + seed, 120, 6, n_classes, levels=1)
    X[:, 4] = 3.0  # a constant feature has no admissible split
    make_tree = DecisionTreeRegressor if n_classes is None else DecisionTreeClassifier
    _assert_matches_oracle(
        monkeypatch,
        lambda: make_tree(max_features="sqrt", random_state=seed),
        X,
        y,
    )


@pytest.mark.parametrize("min_samples_leaf", [2, 3, 7])
@pytest.mark.parametrize("max_depth", [None, 4])
@pytest.mark.parametrize("n_classes", [None, 3])
def test_min_samples_leaf_and_depth(monkeypatch, min_samples_leaf, max_depth, n_classes):
    X, y = _data(30 + min_samples_leaf, 140, 7, n_classes, levels=4)
    make_tree = DecisionTreeRegressor if n_classes is None else DecisionTreeClassifier
    _assert_matches_oracle(
        monkeypatch,
        lambda: make_tree(
            max_depth=max_depth,
            min_samples_leaf=min_samples_leaf,
            min_samples_split=5,
            max_features=0.6,
            random_state=3,
        ),
        X,
        y,
    )


def test_all_columns_constant_is_a_stump(monkeypatch):
    X = np.ones((30, 4))
    y = np.arange(30) % 2
    model, _ = _assert_matches_oracle(
        monkeypatch, lambda: DecisionTreeClassifier(random_state=0), X, y
    )
    assert model.tree_.n_nodes == 1


def test_gini_rounding_decides_a_mirrored_tie(monkeypatch):
    """Two splits with mirrored class counts, (2, 1, 0 | 1, 1, 3) and
    (0, 1, 2 | 3, 1, 1), have the same gini score in exact arithmetic.
    Summing ``p * p`` over the classes in order makes feature 1's score
    one ulp lower, so the class order of that sum decides the root."""
    y = np.array([0, 0, 0, 1, 1, 2, 2, 2])
    X = np.column_stack(
        [[0, 0, 1, 0, 1, 1, 1, 1], [1, 1, 1, 0, 1, 0, 0, 1]]
    ).astype(float)
    model, _ = _assert_matches_oracle(
        monkeypatch, lambda: DecisionTreeClassifier(max_depth=1, random_state=0), X, y
    )
    assert model.tree_.feature[0] == 1


@pytest.mark.parametrize("seed", range(12))
def test_tie_order_rounds_regression_sums(monkeypatch, seed):
    """Complementary binary columns split the rows into the same two
    halves, so the root's choice between them rests on how the running
    sums of y round.  Those sums add tied rows in row order only when
    the sort is stable."""
    rng = check_random_state(seed)
    b = rng.integers(0, 2, size=40).astype(float)
    X = np.column_stack([b, 1.0 - b])
    y = rng.normal(size=40) * 10.0 ** rng.integers(-3, 4, size=40)
    _assert_matches_oracle(
        monkeypatch, lambda: DecisionTreeRegressor(max_depth=1, random_state=0), X, y
    )


@pytest.mark.parametrize("n_classes", [2, 4])
def test_forest_classifier_bootstrap(monkeypatch, n_classes):
    X, y = _data(40 + n_classes, 160, 9, n_classes, levels=2)
    _assert_matches_oracle(
        monkeypatch,
        lambda: RandomForestClassifier(n_estimators=12, max_depth=6, random_state=5),
        X,
        y,
    )


def test_forest_regressor_bootstrap(monkeypatch):
    X, y = _data(50, 160, 9)
    _assert_matches_oracle(
        monkeypatch,
        lambda: RandomForestRegressor(
            n_estimators=10, min_samples_leaf=2, random_state=6
        ),
        X,
        y,
    )


@pytest.mark.parametrize("subsample", [1.0, 0.7])
def test_gradient_boosting(monkeypatch, telemetry, subsample):
    X, y = telemetry
    X, y = X[:300], y[:300]
    clf, ref = _assert_matches_oracle(
        monkeypatch,
        lambda: GradientBoostingClassifier(
            n_estimators=15, max_depth=3, subsample=subsample, random_state=7
        ),
        X,
        y,
    )
    _assert_same_bytes(clf.predict_proba(X), ref.predict_proba(X), "probabilities")
    Xr, yr = _data(60, 200, 6)
    _assert_matches_oracle(
        monkeypatch,
        lambda: GradientBoostingRegressor(
            n_estimators=10, subsample=subsample, random_state=8
        ),
        Xr,
        yr,
    )


@pytest.mark.parametrize("start, rows", [(0, 72), (200, 192), (500, 376)])
def test_sla_telemetry_stream_forest(monkeypatch, telemetry, start, rows):
    """The streaming engine's forest shape on SLA telemetry windows."""
    X, y = telemetry
    model, _ = _assert_matches_oracle(
        monkeypatch,
        lambda: RandomForestClassifier(n_estimators=20, max_depth=10, random_state=0),
        X[start:start + rows],
        y[start:start + rows],
    )
    assert model.estimators_[0].tree_.n_nodes > 1


def test_oracle_does_not_import_the_fast_builder():
    source = Path(cart_builder.__file__).read_text()
    imported = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            imported.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.append(node.module or "")
    assert not any(
        name == "repro.ml" or name.startswith("repro.ml.") for name in imported
    ), imported
