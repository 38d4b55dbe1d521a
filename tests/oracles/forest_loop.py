"""Reference random-forest fit for :mod:`repro.ml.forest`.

This is the per-tree loop as it ran before forest classifier trees grew
on a bootstrap's distinct rows, kept verbatim: each tree draws its
bootstrap from its own spawned stream, copies ``X[sample]`` and
``y[sample]``, encodes the labels that sample holds, and grows on the
copied rows, repeats included and in draw order, with the reference
builder in :mod:`oracles.cart_builder`.  The out-of-bag score walks
each tree per row and adds its leaf values in tree order.

The shipped forest must reproduce every tree array, ``classes_`` per
tree, ``feature_importances_`` and ``oob_score_`` bit for bit
(``tests/ml/test_cart_oracle.py``).  Like the builder, the module
imports nothing from :mod:`repro.ml`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from oracles.cart_builder import (
    LEAF,
    TreeStructure,
    _compute_feature_importances,
    _TreeBuilder,
)
from repro.utils.rng import check_random_state, spawn_rngs


@dataclass
class ReferenceTree:
    tree_: TreeStructure
    feature_importances_: np.ndarray
    classes_: np.ndarray | None  # None for regression trees


@dataclass
class ReferenceForest:
    estimators_: list
    feature_importances_: np.ndarray
    classes_: np.ndarray | None
    oob_score_: float | None


def _fit_tree(params: dict, X, y, rng, *, is_classifier: bool) -> ReferenceTree:
    """``DecisionTree*.fit(X[sample], y[sample])`` as the loop called it."""
    classes = None
    n_classes = 0
    if is_classifier:
        classes, y = np.unique(y, return_inverse=True)
        n_classes = len(classes)
    builder = _TreeBuilder(
        is_classifier=is_classifier,
        n_classes=n_classes,
        max_depth=params["max_depth"],
        min_samples_split=params["min_samples_split"],
        min_samples_leaf=params["min_samples_leaf"],
        max_features=params["max_features"],
        rng=check_random_state(rng),
    )
    tree = builder.build(X, y)
    return ReferenceTree(
        tree, _compute_feature_importances(tree, X.shape[1]), classes
    )


def _apply(tree: TreeStructure, X: np.ndarray) -> np.ndarray:
    """Leaf reached by each row, one root-to-leaf walk per row."""
    leaves = np.empty(len(X), dtype=np.int64)
    for i, x in enumerate(X):
        node = 0
        while tree.children_left[node] != LEAF:
            if x[tree.feature[node]] <= tree.threshold[node]:
                node = tree.children_left[node]
            else:
                node = tree.children_right[node]
        leaves[i] = node
    return leaves


def fit_forest(params: dict, X, y, *, is_classifier: bool) -> ReferenceForest:
    """Fit a forest from ``params`` (a ``RandomForest*.get_params()``)
    on validated ``X`` and ``y``."""
    X = np.asarray(X, dtype=float)
    classes = None
    if is_classifier:
        classes, y = np.unique(y, return_inverse=True)
    else:
        y = np.asarray(y, dtype=float)
    rng = check_random_state(params["random_state"])
    tree_rngs = spawn_rngs(rng, params["n_estimators"])
    n = len(X)
    estimators = []
    oob_masks = []
    for tree_rng in tree_rngs:
        if params["bootstrap"]:
            sample = tree_rng.integers(0, n, size=n)
        else:
            sample = np.arange(n)
        tree = _fit_tree(
            params, X[sample], y[sample], tree_rng, is_classifier=is_classifier
        )
        estimators.append(tree)
        if params["oob_score"]:
            mask = np.ones(n, dtype=bool)
            mask[np.unique(sample)] = False
            oob_masks.append(mask)
    importances = np.mean([t.feature_importances_ for t in estimators], axis=0)
    s = importances.sum()
    importances = importances / s if s > 0 else importances
    oob = None
    if params["oob_score"]:
        oob = _oob_score(estimators, oob_masks, X, y, classes)
    return ReferenceForest(estimators, importances, classes, oob)


def _oob_score(estimators, masks, X, y, classes) -> float:
    n_outputs = 1 if classes is None else len(classes)
    sums = np.zeros((len(X), n_outputs))
    counts = np.zeros(len(X))
    for est, mask in zip(estimators, masks):
        if not np.any(mask):
            continue
        value = est.tree_.value
        if classes is not None:
            # a bootstrap may miss a class: realign to the forest's columns
            value = np.zeros((est.tree_.n_nodes, n_outputs))
            value[:, est.classes_.astype(np.int64)] = est.tree_.value
        sums[mask] += value[_apply(est.tree_, X[mask])]
        counts[mask] += 1
    covered = counts > 0
    if not np.any(covered):
        return float("nan")
    if classes is not None:
        pred = np.argmax(sums[covered], axis=1)
        return float(np.mean(pred == y[covered]))
    pred = sums[covered, 0] / counts[covered]
    resid = y[covered] - pred
    ss_tot = np.sum((y[covered] - y[covered].mean()) ** 2)
    if ss_tot == 0:
        return 0.0
    return float(1.0 - np.sum(resid**2) / ss_tot)
