"""Per-tree evaluation loops: the reference for how a tree model's
trees combine.

:class:`repro.ml.packed.PackedEnsemble` evaluates every tree of a model
at once and sums the per-tree terms with one ``np.add.accumulate``.
This module keeps the loops it replaced, one estimator at a time, which
its outputs must equal byte for byte:

* :func:`tree_proba` — one forest tree's class probabilities,
  realigned to the forest's class set (a bootstrap may miss a class);
* :func:`forest_proba`, :func:`forest_predict` — the mean over trees;
* :func:`boosting_raw`, :func:`staged_raw` — the additive margin
  ``init + sum(learning_rate * tree value)``, finally or per stage;
* :func:`ensemble_loop` — either aggregation mode over any trees and
  per-tree value tables, as ``PackedEnsemble``'s constructor takes them;
* :func:`decompose` — any supported model as ``(base offset,
  [(tree, weight, output column)])``, which the per-tree TreeSHAP
  recursions in :mod:`oracles.tree_shap_recursion` sum over.
"""

from __future__ import annotations

import numpy as np

from repro.ml import (
    DecisionTreeClassifier,
    DecisionTreeRegressor,
    GradientBoostingClassifier,
    GradientBoostingRegressor,
    RandomForestClassifier,
    RandomForestRegressor,
)


def tree_proba(forest, tree, X):
    """Probabilities of one of ``forest``'s trees, columns as the
    forest's ``classes_`` (zero for a class the tree never saw)."""
    proba = np.zeros((len(X), len(forest.classes_)))
    tree_proba = tree.tree_.predict_value(X)
    for j, code in enumerate(tree.classes_):
        proba[:, int(code)] = tree_proba[:, j]
    return proba


def forest_proba(forest, X):
    out = np.zeros((len(X), len(forest.classes_)))
    for tree in forest.estimators_:
        out += tree_proba(forest, tree, X)
    return out / len(forest.estimators_)


def forest_predict(forest, X):
    out = np.zeros(len(X))
    for tree in forest.estimators_:
        out += tree.tree_.predict_value(X)[:, 0]
    return out / len(forest.estimators_)


def boosting_raw(model, X):
    out = np.full(len(X), model.init_prediction_)
    for tree in model.estimators_:
        out += model.learning_rate * tree.tree_.predict_value(X)[:, 0]
    return out


def staged_raw(model, X):
    """The margin after each boosting stage, one array per stage."""
    out = np.full(len(X), model.init_prediction_)
    stages = []
    for tree in model.estimators_:
        out = out + model.learning_rate * tree.tree_.predict_value(X)[:, 0]
        stages.append(out.copy())
    return stages


def ensemble_loop(trees, values, X, *, mode, scale=1.0, base_offset=0.0):
    """What ``PackedEnsemble(trees, values, mode=..., ...).predict(X)``
    computes, one tree at a time in estimator order: a lone tree's raw
    leaf values; else the sum from zero divided by the tree count
    (``"mean"``), or the sum of ``scale * value`` from ``base_offset``
    (``"scaled_sum"``)."""
    if mode == "mean" and len(trees) == 1:
        return values[0][trees[0].apply(X)]
    start = 0.0 if mode == "mean" else base_offset
    out = np.full((len(X), values[0].shape[1]), start)
    for tree, value in zip(trees, values):
        if mode == "mean":
            out += value[tree.apply(X)]
        else:
            out += scale * value[tree.apply(X)]
    return out / len(trees) if mode == "mean" else out


def decompose(model, class_index):
    """``(base_offset, components)``: ``model``'s explained output as
    ``base_offset + sum(weight * tree.value[leaf, output])`` over the
    ``(tree, weight, output)`` components.  A forest tree that never
    saw ``class_index`` contributes a constant zero and is left out."""
    if isinstance(model, DecisionTreeRegressor):
        return 0.0, [(model.tree_, 1.0, 0)]
    if isinstance(model, DecisionTreeClassifier):
        # a standalone tree's value columns are indexed by class code
        return 0.0, [(model.tree_, 1.0, class_index)]
    if isinstance(model, RandomForestRegressor):
        w = 1.0 / len(model.estimators_)
        return 0.0, [(t.tree_, w, 0) for t in model.estimators_]
    if isinstance(model, RandomForestClassifier):
        w = 1.0 / len(model.estimators_)
        components = []
        for t in model.estimators_:
            matches = np.flatnonzero(t.classes_ == class_index)
            if len(matches):
                components.append((t.tree_, w, int(matches[0])))
        return 0.0, components
    if isinstance(model, (GradientBoostingRegressor, GradientBoostingClassifier)):
        return model.init_prediction_, [
            (t.tree_, model.learning_rate, 0) for t in model.estimators_
        ]
    raise TypeError(f"no per-tree decomposition of {type(model).__name__}")
