"""Reference CART builder for :class:`repro.ml.tree._TreeBuilder`.

This is the depth-first builder as it ran before the split search
became one ``(n, k)`` array program per node, kept verbatim: it loops
over a node's drawn features with one stable ``argsort``, one one-hot
``cumsum`` and two gini evaluations per feature.  ``_to_structure``
and the per-node importance loop are the old versions too.  The fast
builder must reproduce every ``TreeStructure`` array and every
``feature_importances_`` it yields bit for bit
(``tests/ml/test_cart_oracle.py``).

The module imports nothing from :mod:`repro.ml.tree`, so a change to a
helper the fast builder uses cannot make both sides agree.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.utils.rng import Generator

LEAF = -1
_MIN_GAIN = 1e-12


@dataclass
class TreeStructure:
    """The seven flat node arrays of a fitted tree (the fields of
    :class:`repro.ml.tree.TreeStructure`, without its traversal
    methods)."""

    children_left: np.ndarray = field(default_factory=lambda: np.empty(0, int))
    children_right: np.ndarray = field(default_factory=lambda: np.empty(0, int))
    feature: np.ndarray = field(default_factory=lambda: np.empty(0, int))
    threshold: np.ndarray = field(default_factory=lambda: np.empty(0, float))
    value: np.ndarray = field(default_factory=lambda: np.empty((0, 1)))
    n_node_samples: np.ndarray = field(default_factory=lambda: np.empty(0, float))
    impurity: np.ndarray = field(default_factory=lambda: np.empty(0, float))

    @property
    def n_nodes(self) -> int:
        return len(self.children_left)

    def is_leaf(self, node: int) -> bool:
        return self.children_left[node] == LEAF


# ----------------------------------------------------------------------
# impurity helpers (operate on cumulative statistics for all split points)
# ----------------------------------------------------------------------
def _gini_from_counts(counts: np.ndarray) -> np.ndarray:
    """Gini impurity for each row of class ``counts``."""
    totals = counts.sum(axis=-1, keepdims=True)
    with np.errstate(invalid="ignore", divide="ignore"):
        p = np.where(totals > 0, counts / totals, 0.0)
    return 1.0 - np.sum(p * p, axis=-1)


def _resolve_max_features(max_features, n_features: int) -> int:
    if max_features is None:
        return n_features
    if max_features == "sqrt":
        return max(1, int(np.sqrt(n_features)))
    if max_features == "log2":
        return max(1, int(np.log2(n_features))) if n_features > 1 else 1
    if isinstance(max_features, float):
        if not 0.0 < max_features <= 1.0:
            raise ValueError(f"max_features fraction must be in (0, 1], got {max_features}")
        return max(1, int(max_features * n_features))
    if isinstance(max_features, (int, np.integer)):
        if not 1 <= max_features <= n_features:
            raise ValueError(
                f"max_features must be in [1, {n_features}], got {max_features}"
            )
        return int(max_features)
    raise ValueError(f"unsupported max_features: {max_features!r}")


class _TreeBuilder:
    """Depth-first CART builder shared by classifier and regressor."""

    def __init__(
        self,
        *,
        is_classifier: bool,
        n_classes: int,
        max_depth,
        min_samples_split: int,
        min_samples_leaf: int,
        max_features,
        rng: Generator,
    ):
        self.is_classifier = is_classifier
        self.n_classes = n_classes
        self.max_depth = np.inf if max_depth is None else max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.rng = rng
        self.nodes: list[dict] = []

    # ------------------------------------------------------------------
    def build(self, X: np.ndarray, y: np.ndarray) -> TreeStructure:
        self._n_features = X.shape[1]
        self._k = _resolve_max_features(self.max_features, self._n_features)
        self._grow(X, y, np.arange(len(X)), depth=0)
        return self._to_structure()

    def _node_value(self, y_node: np.ndarray) -> np.ndarray:
        if self.is_classifier:
            counts = np.bincount(y_node.astype(int), minlength=self.n_classes)
            return counts / counts.sum()
        return np.array([y_node.mean()])

    def _node_impurity(self, y_node: np.ndarray) -> float:
        if self.is_classifier:
            counts = np.bincount(y_node.astype(int), minlength=self.n_classes)
            return float(_gini_from_counts(counts[None, :])[0])
        return float(np.var(y_node))

    def _grow(self, X, y, idx, depth) -> int:
        y_node = y[idx]
        node_id = len(self.nodes)
        node = {
            "left": LEAF,
            "right": LEAF,
            "feature": LEAF,
            "threshold": np.nan,
            "value": self._node_value(y_node),
            "n": float(len(idx)),
            "impurity": self._node_impurity(y_node),
        }
        self.nodes.append(node)
        if (
            depth >= self.max_depth
            or len(idx) < self.min_samples_split
            or node["impurity"] <= _MIN_GAIN
        ):
            return node_id
        split = self._best_split(X, y, idx, node["impurity"])
        if split is None:
            return node_id
        feature, threshold = split
        mask = X[idx, feature] <= threshold
        left_idx, right_idx = idx[mask], idx[~mask]
        node["feature"] = feature
        node["threshold"] = threshold
        node["left"] = self._grow(X, y, left_idx, depth + 1)
        node["right"] = self._grow(X, y, right_idx, depth + 1)
        return node_id

    # ------------------------------------------------------------------
    def _best_split(self, X, y, idx, parent_impurity):
        """Return ``(feature, threshold)`` of the impurity-minimizing
        split, or ``None`` when no admissible split improves impurity."""
        n = len(idx)
        if self._k < self._n_features:
            features = self.rng.choice(self._n_features, size=self._k, replace=False)
        else:
            features = np.arange(self._n_features)
        best = None
        best_score = np.inf
        y_node = y[idx]
        for j in features:
            xj = X[idx, j]
            order = np.argsort(xj, kind="stable")
            xs = xj[order]
            ys = y_node[order]
            # admissible split positions: between i and i+1 where value changes
            diff = xs[1:] != xs[:-1]
            positions = np.flatnonzero(diff)  # split after index i
            if len(positions) == 0:
                continue
            n_left = positions + 1
            n_right = n - n_left
            ok = (n_left >= self.min_samples_leaf) & (n_right >= self.min_samples_leaf)
            positions = positions[ok]
            if len(positions) == 0:
                continue
            n_left = n_left[ok]
            n_right = n_right[ok]
            if self.is_classifier:
                onehot = np.zeros((n, self.n_classes))
                onehot[np.arange(n), ys.astype(int)] = 1.0
                cum = np.cumsum(onehot, axis=0)
                left_counts = cum[positions]
                right_counts = cum[-1] - left_counts
                score = (
                    n_left * _gini_from_counts(left_counts)
                    + n_right * _gini_from_counts(right_counts)
                ) / n
            else:
                cum_y = np.cumsum(ys)
                cum_y2 = np.cumsum(ys * ys)
                sum_l = cum_y[positions]
                sum2_l = cum_y2[positions]
                sum_r = cum_y[-1] - sum_l
                sum2_r = cum_y2[-1] - sum2_l
                var_l = sum2_l / n_left - (sum_l / n_left) ** 2
                var_r = sum2_r / n_right - (sum_r / n_right) ** 2
                score = (n_left * np.maximum(var_l, 0.0)
                         + n_right * np.maximum(var_r, 0.0)) / n
            pos_best = int(np.argmin(score))
            if score[pos_best] < best_score - 0.0:
                best_score = score[pos_best]
                i = positions[pos_best]
                threshold = (xs[i] + xs[i + 1]) / 2.0
                # guard against midpoint rounding onto the right value
                if threshold >= xs[i + 1]:
                    threshold = xs[i]
                best = (int(j), float(threshold))
        if best is None or parent_impurity - best_score <= _MIN_GAIN:
            return None
        return best

    # ------------------------------------------------------------------
    def _to_structure(self) -> TreeStructure:
        n = len(self.nodes)
        n_outputs = len(self.nodes[0]["value"])
        tree = TreeStructure(
            children_left=np.array([nd["left"] for nd in self.nodes], dtype=np.int64),
            children_right=np.array([nd["right"] for nd in self.nodes], dtype=np.int64),
            feature=np.array([nd["feature"] for nd in self.nodes], dtype=np.int64),
            threshold=np.array([nd["threshold"] for nd in self.nodes], dtype=float),
            value=np.vstack([nd["value"] for nd in self.nodes]).reshape(n, n_outputs),
            n_node_samples=np.array([nd["n"] for nd in self.nodes], dtype=float),
            impurity=np.array([nd["impurity"] for nd in self.nodes], dtype=float),
        )
        return tree


def _compute_feature_importances(tree: TreeStructure, n_features: int) -> np.ndarray:
    """Impurity-decrease importances, normalized to sum to 1."""
    importances = np.zeros(n_features)
    total = tree.n_node_samples[0]
    for node in range(tree.n_nodes):
        if tree.is_leaf(node):
            continue
        left = tree.children_left[node]
        right = tree.children_right[node]
        decrease = (
            tree.n_node_samples[node] * tree.impurity[node]
            - tree.n_node_samples[left] * tree.impurity[left]
            - tree.n_node_samples[right] * tree.impurity[right]
        ) / total
        importances[tree.feature[node]] += max(decrease, 0.0)
    s = importances.sum()
    return importances / s if s > 0 else importances
