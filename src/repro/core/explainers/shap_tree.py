"""TreeSHAP: exact Shapley values for tree ensembles in polynomial time.

Implements the path-dependent algorithm of Lundberg, Erion & Lee
("Consistent Individualized Feature Attribution for Tree Ensembles",
2018, Algorithm 2).  The conditional expectation for a coalition S is
defined by the trees themselves: descending a node whose split feature
is *in* S follows the decision path, while a node whose feature is
*absent* averages both children weighted by training-sample coverage
(``n_node_samples``).  For that value function the algorithm computes
*exact* Shapley values in ``O(L * D^2)`` per tree instead of ``O(2^d)``
— the property the overhead experiment (E2) demonstrates.

Attributions come from one path, the packed kernel
:func:`repro.ml.packed_shap.packed_tree_shap`, which sweeps every tree
of the model's packed node block at once.  The per-tree recursion it
must reproduce lives in ``tests/oracles/tree_shap_recursion.py``.

Supported models: :class:`~repro.ml.tree.DecisionTreeRegressor` /
``Classifier``, :class:`~repro.ml.forest.RandomForestRegressor` /
``Classifier`` (attributions average over trees),
:class:`~repro.ml.boosting.GradientBoostingRegressor` / ``Classifier``
(attributions explain the additive margin, scaled by the learning
rate).
"""

from __future__ import annotations

import numpy as np

from repro.core.explainers.base import BatchExplanation, Explainer
from repro.ml.packed import PackedModelMixin
from repro.ml.packed_shap import packed_tree_shap
from repro.ml.tree import DecisionTreeClassifier

__all__ = ["TreeShapExplainer"]


def packed_output_column(model, class_index: int):
    """``(packed, column)``: ``model``'s packed ensemble and the output
    column ``class_index`` selects
    (:meth:`~repro.ml.packed.PackedEnsemble.output_column`; ``None``, so
    all-zero attributions, for a forest class past the class set).
    Raises ``TypeError`` for a model that is not a tree ensemble, and
    ``ValueError`` for a negative classifier class index or one past a
    standalone tree's classes."""
    if not isinstance(model, PackedModelMixin):
        raise TypeError(
            "TreeShapExplainer supports this library's decision trees, "
            f"random forests and gradient boosting; got {type(model).__name__}"
        )
    packed = model.packed_ensemble()
    column = packed.output_column(class_index)
    if packed.outputs_are_classes and (
        class_index < 0
        or (column is None and isinstance(model, DecisionTreeClassifier))
    ):
        raise ValueError(
            f"class_index {class_index} out of range for "
            f"{packed.n_outputs} classes"
        )
    return packed, column


class TreeShapExplainer(Explainer):
    """SHAP values for this library's tree-based models.

    Parameters
    ----------
    model:
        A fitted tree, random forest, or gradient-boosting model.
    feature_names:
        Optional column names.
    class_index:
        For classifiers: which class's probability (trees/forests) or
        margin (boosting) to explain.

    Notes
    -----
    For :class:`GradientBoostingClassifier` the explained output is the
    *log-odds margin* (the additive quantity); ``prediction`` in the
    returned :class:`Explanation` is therefore the margin, not the
    probability.
    """

    method_name = "tree_shap"

    def __init__(self, model, feature_names=None, *, class_index: int = 1):
        packed, column = packed_output_column(model, class_index)
        self.model = model
        self.class_index = class_index
        self._set_feature_names(feature_names, model.n_features_in_)
        # coverage-weighted mean output: a cost streaming refits re-pay
        # every window, so one vectorized level walk over all trees
        self.expected_value_ = (
            0.0 if column is None else float(packed.expected_value()[column])
        )

    # ------------------------------------------------------------------
    def explain_batch(self, X) -> BatchExplanation:
        """Vectorized path-dependent TreeSHAP over all rows at once.

        Runs :func:`repro.ml.packed_shap.packed_tree_shap` on the
        model's packed node block — a polynomial sweep over every
        distinct (leaf, follow-pattern) pair of the batch that the
        path table's pair store does not hold yet, instead of a Python
        recursion per (row, tree).  Results match the per-tree
        recursion to <= 1e-10, and equal one-row calls on each row
        exactly.
        """
        X = self._check_batch(X, expected_d=len(self.feature_names))
        if X.shape[0] == 0:
            return self._empty_batch(X)
        packed, column = packed_output_column(self.model, self.class_index)
        if column is None:
            phi = np.zeros(X.shape)
        else:
            phi = packed_tree_shap(packed, X, column=column)
        return self._batch_from_matrix(
            X,
            phi,
            np.full(len(X), self.expected_value_),
            self.expected_value_ + phi.sum(axis=1),
            extras={"n_trees": packed.n_trees, "vectorized": True},
        )
