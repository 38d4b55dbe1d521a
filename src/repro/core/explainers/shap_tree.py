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
from repro.ml.boosting import GradientBoostingClassifier, GradientBoostingRegressor
from repro.ml.forest import RandomForestClassifier, RandomForestRegressor
from repro.ml.packed_shap import packed_tree_shap
from repro.ml.tree import DecisionTreeClassifier, DecisionTreeRegressor

__all__ = ["TreeShapExplainer"]


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
        self._components = self._decompose(model, class_index)
        self.model = model
        self.class_index = class_index
        self._set_feature_names(feature_names, model.n_features_in_)
        self.expected_value_ = self._expected_value()

    def _expected_value(self) -> float:
        """The ensemble's base value (coverage-weighted mean output):
        one vectorized level walk over all trees of the packed form
        (:meth:`PackedEnsemble.expected_value`), the construction-time
        cost that streaming refits re-pay every window."""
        packed, column = self._packed_column()
        if column is None:
            # no tree ever saw this class: every component was skipped
            return self._base_offset
        return float(packed.expected_value()[column])

    # ------------------------------------------------------------------
    def _decompose(self, model, class_index):
        """Flatten any supported model into ``(tree, weight, output)``
        triples whose weighted sum reproduces the explained output."""
        self._base_offset = 0.0
        if isinstance(model, (DecisionTreeRegressor,)):
            return [(model.tree_, 1.0, 0)]
        if isinstance(model, DecisionTreeClassifier):
            # a standalone tree's value columns are indexed by class code,
            # i.e. by predict_proba column — class_index maps directly
            if not 0 <= class_index < len(model.classes_):
                raise ValueError(
                    f"class_index {class_index} out of range for "
                    f"{len(model.classes_)} classes"
                )
            return [(model.tree_, 1.0, class_index)]
        if isinstance(model, RandomForestRegressor):
            w = 1.0 / len(model.estimators_)
            return [(t.tree_, w, 0) for t in model.estimators_]
        if isinstance(model, RandomForestClassifier):
            if class_index < 0:
                raise ValueError(
                    f"class_index {class_index} out of range for "
                    f"{len(model.classes_)} classes"
                )
            w = 1.0 / len(model.estimators_)
            components = []
            for t in model.estimators_:
                output = self._tree_output_column(t, class_index)
                if output is None:
                    # this bootstrap never saw the class: constant 0
                    # probability, which contributes nothing
                    continue
                components.append((t.tree_, w, output))
            return components
        if isinstance(
            model, (GradientBoostingRegressor, GradientBoostingClassifier)
        ):
            self._base_offset = model.init_prediction_
            return [
                (t.tree_, model.learning_rate, 0) for t in model.estimators_
            ]
        raise TypeError(
            "TreeShapExplainer supports this library's decision trees, "
            f"random forests and gradient boosting; got {type(model).__name__}"
        )

    @staticmethod
    def _tree_output_column(tree_model, class_index):
        """Column of ``tree_.value`` matching the requested class code,
        or ``None`` when this tree never saw the class."""
        matches = np.flatnonzero(tree_model.classes_ == class_index)
        return int(matches[0]) if len(matches) else None

    def _packed_column(self):
        """``(packed, column)``: the model's packed ensemble and the
        output column the kernel explains.  ``column`` is ``None`` for a
        class no tree in the ensemble carries, whose attributions are
        all zero."""
        packed = self.model.packed_ensemble()
        column = self.class_index if packed.outputs_are_classes else 0
        return packed, (column if column < packed.n_outputs else None)

    # ------------------------------------------------------------------
    def explain_batch(self, X) -> BatchExplanation:
        """Vectorized path-dependent TreeSHAP over all rows at once.

        Runs :func:`repro.ml.packed_shap.packed_tree_shap` on the
        model's packed node block — a polynomial sweep over every
        distinct (leaf, follow-pattern) pair of the batch instead of a
        Python recursion per (row, tree).  Results match the per-tree
        recursion to <= 1e-10, and equal one-row calls on each row
        exactly.
        """
        X = self._check_batch(X, expected_d=len(self.feature_names))
        if X.shape[0] == 0:
            return self._empty_batch(X)
        packed, column = self._packed_column()
        if column is None:
            phi = np.zeros(X.shape)
        else:
            phi = packed_tree_shap(packed, X, column=column)
        return self._batch_from_matrix(
            X,
            phi,
            np.full(len(X), self.expected_value_),
            self.expected_value_ + phi.sum(axis=1),
            extras={"n_trees": len(self._components), "vectorized": True},
        )
