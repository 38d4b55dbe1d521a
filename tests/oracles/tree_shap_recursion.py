"""Per-tree TreeSHAP recursions: the reference for both TreeSHAP
explainers.

Each explainer in :mod:`repro.core.explainers` computes attributions
with one packed kernel (:mod:`repro.ml.packed_shap`).  This module keeps
the textbook recursions those kernels must reproduce, one Python walk
per (row, tree) or (row, reference row, tree):

* :func:`tree_shap_values` — path-dependent TreeSHAP (Lundberg, Erion &
  Lee 2018, Algorithm 2): a node whose feature is absent from the
  coalition averages both children by training coverage
  (``n_node_samples``);
* :func:`tree_shap_interventional` — interventional TreeSHAP
  (Lundberg et al. 2020, "Independent TreeSHAP"): Shapley values of the
  single-reference game ``v(S) = tree(x_S, z_!S)``, averaged over the
  background rows ``z``.

:func:`reference_batch` sums either recursion over the
``(tree, weight, output)`` components of an explainer's model
(:func:`oracles.per_tree_loops.decompose`), which is what the
explainer's ``explain_batch`` must equal to <= 1e-10.  Nothing here
calls the packed kernels, so the benches time these as their baseline
arms.
"""

from __future__ import annotations

from math import exp, lgamma

import numpy as np

from oracles.per_tree_loops import decompose

from repro.core.explainers.base import BatchExplanation, Explanation


def tree_expected_value(tree, output: int = 0) -> float:
    """Coverage-weighted mean leaf value — the tree's base value."""
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


# ----------------------------------------------------------------------
# path-dependent TreeSHAP
# ----------------------------------------------------------------------
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


def tree_shap_values(tree, x: np.ndarray, *, output: int = 0) -> np.ndarray:
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


# ----------------------------------------------------------------------
# interventional TreeSHAP
# ----------------------------------------------------------------------
def _weight(a: int, b: int) -> float:
    """``W(a, b) = a! b! / (a + b + 1)!`` — Shapley ordering weight,
    through ``lgamma`` so deep paths never build huge-int factorials."""
    return exp(lgamma(a + 1) + lgamma(b + 1) - lgamma(a + b + 2))


def _single_reference_shap(
    tree, x: np.ndarray, z: np.ndarray, phi: np.ndarray, output: int
) -> None:
    """Accumulate SHAP values of the game ``v(S) = tree(x_S, z_!S)``.

    Descend the tree; where x and z route the same way just follow;
    where they diverge, branch into an "x took it" path and a "z took
    it" path.  A leaf reached with ``a`` x-features and ``b`` z-features
    on its divergence list adds ``+W(a-1, b) * leaf_value`` to every
    x-feature and ``-W(a, b-1) * leaf_value`` to every z-feature.
    """

    # assignment[feature] is 'x' or 'z' once the paths diverged on it
    def recurse(node: int, assignment: dict[int, str]) -> None:
        if tree.is_leaf(node):
            value = tree.value[node, output]
            a = sum(1 for side in assignment.values() if side == "x")
            b = len(assignment) - a
            if a > 0:
                w_x = _weight(a - 1, b) * value
            if b > 0:
                w_z = _weight(a, b - 1) * value
            for feature, side in assignment.items():
                if side == "x":
                    phi[feature] += w_x
                else:
                    phi[feature] -= w_z
            return
        feature = tree.feature[node]
        threshold = tree.threshold[node]
        x_child = (
            tree.children_left[node]
            if x[feature] <= threshold
            else tree.children_right[node]
        )
        z_child = (
            tree.children_left[node]
            if z[feature] <= threshold
            else tree.children_right[node]
        )
        if x_child == z_child:
            recurse(x_child, assignment)
            return
        side = assignment.get(feature)
        if side == "x":
            recurse(x_child, assignment)
        elif side == "z":
            recurse(z_child, assignment)
        else:
            recurse(x_child, {**assignment, feature: "x"})
            recurse(z_child, {**assignment, feature: "z"})

    recurse(0, {})


def tree_shap_interventional(
    tree, x: np.ndarray, background: np.ndarray, *, output: int = 0
) -> np.ndarray:
    """Interventional SHAP values of one tree against ``background``."""
    x = np.asarray(x, dtype=float).ravel()
    background = np.asarray(background, dtype=float)
    phi = np.zeros(len(x))
    for z in background:
        _single_reference_shap(tree, x, z, phi, output)
    return phi / len(background)


# ----------------------------------------------------------------------
# explainer-level reference
# ----------------------------------------------------------------------
def reference_batch(explainer, X) -> BatchExplanation:
    """``explainer``'s attributions of every row of ``X``, summed from
    the per-tree recursions over the ``(tree, weight, output)``
    components of its model and ``class_index``.

    ``explainer`` is a ``TreeShapExplainer`` or an
    ``InterventionalTreeShapExplainer`` (recognised by its
    ``background``); base values and predictions use the explainer's
    own ``expected_value_``.
    """
    X = np.asarray(X, dtype=float)
    background = getattr(explainer, "background", None)
    _, components = decompose(explainer.model, explainer.class_index)
    if background is None:

        def game(tree, x, output):
            return tree_shap_values(tree, x, output=output)
    else:

        def game(tree, x, output):
            return tree_shap_interventional(tree, x, background, output=output)

    rows = []
    for x in X:
        phi = np.zeros(X.shape[1])
        for tree, weight, output in components:
            phi += weight * game(tree, x, output)
        rows.append(
            Explanation(
                feature_names=explainer.feature_names,
                values=phi,
                base_value=explainer.expected_value_,
                prediction=explainer.expected_value_ + float(phi.sum()),
                x=x,
                method=explainer.method_name,
            )
        )
    return BatchExplanation.from_explanations(rows)
