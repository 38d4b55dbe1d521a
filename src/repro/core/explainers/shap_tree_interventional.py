"""Interventional (background-data) TreeSHAP.

The path-dependent variant in :mod:`repro.core.explainers.shap_tree`
defines "feature absent" via training-coverage averaging inside the
tree; the *interventional* variant defines it against an explicit
background dataset — the same value function KernelSHAP and exact
enumeration use, so the three agree (DESIGN.md ablation #1 measures how
far path-dependent drifts from it).

Algorithm: for each background row ``z``, Shapley values of the
single-reference game ``v(S) = tree(hybrid of x_S, z_{not S})`` are
computed exactly in one traversal (Lundberg et al. 2020, "Independent
TreeSHAP"): descend the tree; where x and z route the same way just
follow; where they diverge, branch into an "x took it" path and a
"z took it" path.  A leaf reached with ``a`` x-features and ``b``
z-features on its divergence list contributes

    +W(a-1, b) * leaf_value   to every x-feature on the path,
    -W(a, b-1) * leaf_value   to every z-feature on the path,

with ``W(a, b) = a! b! / (a + b + 1)!``.  Averaging over the background
rows yields interventional SHAP values.  Cost is O(leaves) per
(instance, reference) pair per tree.

Attributions come from one path, the packed kernel
:func:`repro.ml.packed_shap.packed_interventional_shap`, which
contracts every (row, reference, tree) game at once.  The per-tree
recursion it must reproduce lives in
``tests/oracles/tree_shap_recursion.py``.
"""

from __future__ import annotations

import numpy as np

from repro.core.explainers.base import BatchExplanation, Explainer
from repro.core.explainers.shap_tree import TreeShapExplainer
from repro.ml.packed_shap import packed_interventional_shap

__all__ = ["InterventionalTreeShapExplainer"]


class InterventionalTreeShapExplainer(Explainer):
    """Background-data TreeSHAP for this library's tree models.

    Shares model decomposition with :class:`TreeShapExplainer` (same
    supported model set, same output conventions) but computes the
    interventional value function against ``background``, so its
    results are directly comparable to KernelSHAP / exact enumeration.

    Parameters
    ----------
    model:
        Fitted tree / random forest / gradient boosting model.
    background:
        Reference rows (keep to tens of rows: cost scales linearly).
    """

    method_name = "interventional_tree_shap"

    def __init__(self, model, background, feature_names=None, *, class_index: int = 1):
        background = self._set_background(
            background, feature_names, n_features=model.n_features_in_
        )
        # reuse the ensemble decomposition logic from the path-dependent
        # explainer (same weights, offsets, and output-column handling)
        self._delegate = TreeShapExplainer(
            model, feature_names, class_index=class_index
        )
        self.background = background
        self.model = model
        base = self._delegate._base_offset
        for tree, weight, output in self._delegate._components:
            values = np.array(
                [
                    self._leaf_value_at(tree, z, output)
                    for z in background
                ]
            )
            base += weight * float(values.mean())
        self.expected_value_ = base

    @staticmethod
    def _leaf_value_at(tree, z: np.ndarray, output: int) -> float:
        node = 0
        while not tree.is_leaf(node):
            if z[tree.feature[node]] <= tree.threshold[node]:
                node = tree.children_left[node]
            else:
                node = tree.children_right[node]
        return float(tree.value[node, output])

    def explain_batch(self, X) -> BatchExplanation:
        """Vectorized interventional TreeSHAP over all rows at once.

        Runs :func:`repro.ml.packed_shap.packed_interventional_shap`
        on the model's packed node block — batched per-leaf game
        contractions over every (row, background, tree) triple instead
        of a Python recursion per pair.  Results match the per-tree
        recursion to <= 1e-10.
        """
        X = self._check_batch(X, expected_d=len(self.feature_names))
        if X.shape[0] == 0:
            return self._empty_batch(X)
        packed, column = self._delegate._packed_column()
        if column is None:
            phi = np.zeros(X.shape)
        else:
            phi = packed_interventional_shap(
                packed, X, self.background, column=column
            )
        return self._batch_from_matrix(
            X,
            phi,
            np.full(len(X), self.expected_value_),
            self.expected_value_ + phi.sum(axis=1),
            extras={
                "n_background": len(self.background),
                "vectorized": True,
            },
        )
