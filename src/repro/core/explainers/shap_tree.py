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

Supported models: :class:`~repro.ml.tree.DecisionTreeRegressor` /
``Classifier``, :class:`~repro.ml.forest.RandomForestRegressor` /
``Classifier`` (attributions average over trees),
:class:`~repro.ml.boosting.GradientBoostingRegressor` / ``Classifier``
(attributions explain the additive margin, scaled by the learning
rate).
"""

from __future__ import annotations

import numpy as np

from repro.core.explainers.base import BatchExplanation, Explainer, Explanation
from repro.ml.boosting import GradientBoostingClassifier, GradientBoostingRegressor
from repro.ml.forest import RandomForestClassifier, RandomForestRegressor
from repro.ml.packed_shap import packed_tree_shap
from repro.ml.tree import DecisionTreeClassifier, DecisionTreeRegressor, TreeStructure

__all__ = ["TreeShapExplainer", "tree_expected_value", "tree_shap_values"]


def tree_expected_value(tree: TreeStructure, output: int = 0) -> float:
    """Coverage-weighted mean leaf value — the tree's base value."""
    total = tree.n_node_samples[0]
    expected = 0.0
    stack = [(0, 1.0)]
    while stack:
        node, weight = stack.pop()
        if tree.is_leaf(node):
            expected += weight * tree.value[node, output]
            continue
        left = tree.children_left[node]
        right = tree.children_right[node]
        n = tree.n_node_samples[node]
        stack.append((left, weight * tree.n_node_samples[left] / n))
        stack.append((right, weight * tree.n_node_samples[right] / n))
    return float(expected)


class _Path:
    """The decision-path bookkeeping of Algorithm 2.

    Parallel arrays over path elements: the feature that split,
    the fraction of "zero" (feature-absent) paths that flow through,
    the fraction of "one" (feature-present) paths, and the permutation
    weights ``pweights``.
    """

    __slots__ = ("features", "zeros", "ones", "pweights")

    def __init__(self):
        self.features: list[int] = []
        self.zeros: list[float] = []
        self.ones: list[float] = []
        self.pweights: list[float] = []

    def copy(self) -> "_Path":
        new = _Path()
        new.features = self.features.copy()
        new.zeros = self.zeros.copy()
        new.ones = self.ones.copy()
        new.pweights = self.pweights.copy()
        return new

    def __len__(self) -> int:
        return len(self.features)


def _extend(path: _Path, pz: float, po: float, pi: int) -> _Path:
    """Grow the path with a new feature split (returns a copy)."""
    m = path.copy()
    length = len(m)
    m.features.append(pi)
    m.zeros.append(pz)
    m.ones.append(po)
    m.pweights.append(1.0 if length == 0 else 0.0)
    for i in range(length - 1, -1, -1):
        m.pweights[i + 1] += po * m.pweights[i] * (i + 1) / (length + 1)
        m.pweights[i] = pz * m.pweights[i] * (length - i) / (length + 1)
    return m


def _unwind(path: _Path, index: int) -> _Path:
    """Undo the extension that added element ``index`` (returns a copy)."""
    m = path.copy()
    length = len(m)
    one = m.ones[index]
    zero = m.zeros[index]
    n = m.pweights[length - 1]
    for j in range(length - 2, -1, -1):
        if one != 0.0:
            t = m.pweights[j]
            m.pweights[j] = n * length / ((j + 1) * one)
            n = t - m.pweights[j] * zero * (length - 1 - j) / length
        else:
            m.pweights[j] = m.pweights[j] * length / (zero * (length - 1 - j))
    for j in range(index, length - 1):
        m.features[j] = m.features[j + 1]
        m.zeros[j] = m.zeros[j + 1]
        m.ones[j] = m.ones[j + 1]
    del m.features[-1], m.zeros[-1], m.ones[-1], m.pweights[-1]
    return m


def _unwound_sum(path: _Path, index: int) -> float:
    """Sum of permutation weights after (virtually) unwinding ``index``."""
    length = len(path)
    one = path.ones[index]
    zero = path.zeros[index]
    total = 0.0
    n = path.pweights[length - 1]
    for j in range(length - 2, -1, -1):
        if one != 0.0:
            t = n * length / ((j + 1) * one)
            total += t
            n = path.pweights[j] - t * zero * (length - 1 - j) / length
        else:
            total += path.pweights[j] * length / (zero * (length - 1 - j))
    return total


def tree_shap_values(
    tree: TreeStructure, x: np.ndarray, *, output: int = 0
) -> np.ndarray:
    """Path-dependent SHAP values of a single tree at instance ``x``."""
    x = np.asarray(x, dtype=float).ravel()
    phi = np.zeros(len(x))

    def recurse(node: int, path: _Path, pz: float, po: float, pi: int) -> None:
        path = _extend(path, pz, po, pi)
        if tree.is_leaf(node):
            leaf_value = tree.value[node, output]
            for i in range(1, len(path)):
                w = _unwound_sum(path, i)
                phi[path.features[i]] += (
                    w * (path.ones[i] - path.zeros[i]) * leaf_value
                )
            return
        feature = tree.feature[node]
        left = tree.children_left[node]
        right = tree.children_right[node]
        if x[feature] <= tree.threshold[node]:
            hot, cold = left, right
        else:
            hot, cold = right, left
        incoming_zero = 1.0
        incoming_one = 1.0
        # if this feature already split higher on the path, merge with it
        previous = None
        for k in range(1, len(path)):
            if path.features[k] == feature:
                previous = k
                break
        if previous is not None:
            incoming_zero = path.zeros[previous]
            incoming_one = path.ones[previous]
            path = _unwind(path, previous)
        n = tree.n_node_samples[node]
        recurse(
            hot,
            path,
            incoming_zero * tree.n_node_samples[hot] / n,
            incoming_one,
            feature,
        )
        recurse(
            cold,
            path,
            incoming_zero * tree.n_node_samples[cold] / n,
            0.0,
            feature,
        )

    recurse(0, _Path(), 1.0, 1.0, -1)
    return phi


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
        d = model.n_features_in_
        self.feature_names = (
            list(feature_names)
            if feature_names is not None
            else [f"x{i}" for i in range(d)]
        )
        if len(self.feature_names) != d:
            raise ValueError(f"{len(self.feature_names)} names for {d} features")
        self.expected_value_ = self._expected_value(model)

    def _expected_value(self, model) -> float:
        """The ensemble's base value (coverage-weighted mean output).

        Models wired to the packed inference engine expose their flat
        node arrays, so the background summary is one vectorized level
        walk over all trees (:meth:`PackedEnsemble.expected_value`)
        instead of a Python stack per tree — the construction-time
        cost that streaming refits re-pay every window.  Models
        without a packed form fall back to the per-tree
        :func:`tree_expected_value` sum.
        """
        packed_fn = getattr(model, "packed_ensemble", None)
        if callable(packed_fn):
            packed = packed_fn()
            column = self.class_index if packed.outputs_are_classes else 0
            if 0 <= column < packed.n_outputs:
                return float(packed.expected_value()[column])
            # no tree ever saw this class: every component was skipped
            return self._base_offset
        return self._base_offset + sum(
            weight * tree_expected_value(tree, output)
            for tree, weight, output in self._components
        )

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
            w = 1.0 / len(model.estimators_)
            components = []
            for t in model.estimators_:
                output = self._tree_output_column(t, class_index, required=False)
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
    def _tree_output_column(tree_model, class_index, *, required: bool = True):
        """Column of ``tree_.value`` matching the requested class code."""
        matches = np.flatnonzero(tree_model.classes_ == class_index)
        if len(matches) == 0:
            if required:
                raise ValueError(
                    f"class index {class_index} not in {tree_model.classes_}"
                )
            return None
        return int(matches[0])

    def _packed_column(self):
        """``(packed, column)`` when the vectorized kernel applies,
        ``(None, None)`` otherwise (unpacked model, or a class column
        no tree in the packed ensemble carries — the legacy loop then
        reproduces the skip-every-component zeros)."""
        packed_fn = getattr(self.model, "packed_ensemble", None)
        if not callable(packed_fn):
            return None, None
        packed = packed_fn()
        column = self.class_index if packed.outputs_are_classes else 0
        if not 0 <= column < packed.n_outputs:
            return None, None
        return packed, column

    # ------------------------------------------------------------------
    def explain(self, x) -> Explanation:
        """Attributions for one instance.

        Routed through :meth:`explain_batch` as a 1-row batch, so the
        single-row path exercises the same vectorized kernel as fleet
        triage (one code path to trust, and the packed snapshot is
        shared across calls).  Models without a packed form — or a
        class column no tree carries — fall back to the per-tree
        recursion (:meth:`_explain_recursion`).
        """
        x = np.asarray(x, dtype=float).ravel()
        d = len(self.feature_names)
        if len(x) != d:
            raise ValueError(f"x has {len(x)} features, expected {d}")
        packed, _ = self._packed_column()
        if packed is None:
            return self._explain_recursion(x)
        return self.explain_batch(x[np.newaxis, :])[0]

    def _explain_recursion(self, x) -> Explanation:
        """Per-tree recursive TreeSHAP (:func:`tree_shap_values`) — the
        reference implementation the packed kernel must reproduce, and
        the fallback for models without a packed form."""
        x = np.asarray(x, dtype=float).ravel()
        d = len(self.feature_names)
        if len(x) != d:
            raise ValueError(f"x has {len(x)} features, expected {d}")
        phi = np.zeros(d)
        for tree, weight, output in self._components:
            phi += weight * tree_shap_values(tree, x, output=output)
        prediction = self.expected_value_ + float(phi.sum())
        return Explanation(
            feature_names=self.feature_names,
            values=phi,
            base_value=self.expected_value_,
            prediction=prediction,
            x=x,
            method=self.method_name,
            extras={"n_trees": len(self._components)},
        )

    def explain_batch(self, X) -> BatchExplanation:
        """Vectorized path-dependent TreeSHAP over all rows at once.

        Runs :func:`repro.ml.packed_shap.packed_tree_shap` on the
        model's packed node block — a polynomial sweep over every
        distinct (leaf, follow-pattern) pair of the batch instead of a
        Python recursion per (row, tree).  Results match the per-row
        loop to <= 1e-10, and equal one-row calls on each row exactly;
        models without a packed form fall back to that loop.
        """
        X = self._check_batch(X, expected_d=len(self.feature_names))
        if X.shape[0] == 0:
            return self._empty_batch(X)
        packed, column = self._packed_column()
        if packed is None:
            return super().explain_batch(X)
        phi = packed_tree_shap(packed, X, column=column)
        return self._batch_from_matrix(
            X,
            phi,
            np.full(len(X), self.expected_value_),
            self.expected_value_ + phi.sum(axis=1),
            extras={"n_trees": len(self._components), "vectorized": True},
        )
