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
from repro.core.explainers.shap_tree import packed_output_column
from repro.ml.packed_shap import packed_interventional_shap

__all__ = ["InterventionalTreeShapExplainer"]


class InterventionalTreeShapExplainer(Explainer):
    """Background-data TreeSHAP for this library's tree models.

    Same supported model set and output conventions as
    :class:`TreeShapExplainer`, but computes the interventional value
    function against ``background``, so its results are directly
    comparable to KernelSHAP / exact enumeration.  Its base value is
    theirs too, bit for bit: the background mean of the explained
    model output.

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
        packed, column = packed_output_column(model, class_index)
        self.background = background
        self.model = model
        self.class_index = class_index
        self.expected_value_ = (
            0.0 if column is None
            else float(np.mean(packed.predict(background)[:, column]))
        )

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
        packed, column = packed_output_column(self.model, self.class_index)
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
