"""CART decision trees (classification and regression).

The fitted tree is exposed as a flat-array :class:`TreeStructure`
(children/feature/threshold/value/n_node_samples), which is the exact
representation the path-dependent TreeSHAP algorithm in
:mod:`repro.core.explainers.shap_tree` traverses.

Split rule: a sample goes **left** when ``x[feature] <= threshold``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from repro.ml.base import BaseEstimator, ClassifierMixin, RegressorMixin
from repro.ml.packed import PackedModelMixin
from repro.utils.rng import Generator, check_random_state
from repro.utils.validation import check_array, check_fitted, check_X_y

__all__ = ["TreeStructure", "DecisionTreeClassifier", "DecisionTreeRegressor"]

LEAF = -1
_MIN_GAIN = 1e-12


@dataclass
class TreeStructure:
    """Flat-array binary tree.

    Attributes
    ----------
    children_left, children_right:
        Child node ids; ``-1`` marks a leaf.
    feature:
        Split feature index per node (``-1`` for leaves).
    threshold:
        Split threshold per node (NaN for leaves).
    value:
        ``(n_nodes, n_outputs)`` — class-probability vector for
        classifiers, single-column mean for regressors.
    n_node_samples:
        Training samples routed through each node.
    impurity:
        Node impurity (gini or variance) used for feature importances.
    """

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

    @cached_property
    def max_depth(self) -> int:
        """Depth of the deepest leaf (root = depth 0).

        Computed once with a vectorized level walk (one iteration per
        depth level, not per node) and cached — the packed inference
        engine reads it as its frontier bound on every evaluation.  The
        cache is safe because node *topology* is never mutated after
        ``fit`` (leaf values may be, e.g. by boosting's Newton update,
        which does not change depths).
        """
        if self.n_nodes == 0:
            return 0
        depth = 0
        frontier = np.array([0], dtype=np.int64)
        frontier = frontier[self.children_left[frontier] != LEAF]
        while frontier.size:
            depth += 1
            frontier = np.concatenate(
                (self.children_left[frontier], self.children_right[frontier])
            )
            frontier = frontier[self.children_left[frontier] != LEAF]
        return depth

    def apply(self, X: np.ndarray) -> np.ndarray:
        """Leaf index reached by each row of ``X`` (vectorized descent)."""
        nodes = np.zeros(len(X), dtype=np.int64)
        active = np.full(len(X), not self.is_leaf(0))
        while np.any(active):
            idx = np.flatnonzero(active)
            cur = nodes[idx]
            feat = self.feature[cur]
            go_left = X[idx, feat] <= self.threshold[cur]
            nxt = np.where(
                go_left, self.children_left[cur], self.children_right[cur]
            )
            nodes[idx] = nxt
            leaf_now = self.children_left[nxt] == LEAF
            active[idx[leaf_now]] = False
        return nodes

    def predict_value(self, X: np.ndarray) -> np.ndarray:
        """Per-row node value (shape ``(n, n_outputs)``)."""
        return self.value[self.apply(X)]

    def decision_path(self, x: np.ndarray) -> list[int]:
        """Node ids visited by a single sample ``x`` (root to leaf)."""
        path = [0]
        node = 0
        while not self.is_leaf(node):
            if x[self.feature[node]] <= self.threshold[node]:
                node = self.children_left[node]
            else:
                node = self.children_right[node]
            path.append(node)
        return path


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


def training_columns(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The builder's view of a validated training matrix: its
    feature-major copy (a node's drawn columns gather as contiguous
    rows) and that copy's :func:`_rank_table`.  Ensembles build it once
    per ``fit`` and grow every member on it."""
    XT = np.ascontiguousarray(X.T)
    return XT, _rank_table(XT)


def _rank_table(XT: np.ndarray) -> np.ndarray:
    """Dense integer ranks of each row of the feature-major ``XT``.

    Equal values (``-0.0`` and ``0.0`` too) share a rank and ranks keep
    the values' order, so sorting a column's ranks stably orders its
    rows exactly as a stable float sort does.  The dtype is the smallest
    unsigned one that holds ``n - 1``: numpy sorts 8- and 16-bit
    integers with a radix sort, several times faster than the float
    timsort at node sizes.
    """
    n = XT.shape[1]
    order = np.argsort(XT, axis=1)
    xs = np.take_along_axis(XT, order, axis=1)
    dense = np.zeros(XT.shape, dtype=np.min_scalar_type(max(n - 1, 0)))
    np.cumsum(xs[:, 1:] != xs[:, :-1], axis=1, out=dense[:, 1:])
    ranks = np.empty_like(dense)
    np.put_along_axis(ranks, order, dense, axis=1)
    return ranks


class _TreeBuilder:
    """Depth-first CART builder shared by classifier and regressor.

    The builder grows a tree on ``rows`` of a training set, each with an
    integer multiplicity (``weights``).  A forest classifier hands it a
    bootstrap's distinct rows and their draw counts; every other tree
    hands it positional rows, repeats included, with unit weights.

    Each split-attempting node draws its features with one
    ``rng.choice`` (in preorder, so a node's draw is the i-th draw of
    the tree's stream) and scans all k drawn features of its rows as
    one array program: one stable sort of their integer ranks per
    column, running sums of the multiplicities per class (or sums of y
    and y**2), one impurity evaluation per side, and one first-minimum
    ``argmin`` in feature-major order, so ties go to the earliest drawn
    feature, then the earliest position.  ``n_left``,
    ``min_samples_leaf``, ``min_samples_split`` and ``n_node_samples``
    count multiplicities.

    Every float is the same IEEE expression, element by element, as the
    per-feature loop over the expanded rows in
    ``tests/oracles/cart_builder.py``: a cut is admissible only where
    the sorted value changes, and there the class counts are exact
    integers that do not depend on the order of tied rows; a stable sort
    orders each column the same way alone or beside others, so a
    regressor's float running sums add its positional rows in the same
    order; and the class axis is summed first to last, which is what
    ``np.sum`` does over a last axis shorter than 8 (so trees are
    bit-identical up to 7 classes).
    """

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

    # ------------------------------------------------------------------
    def build(self, XT, ranks, y, rows, weights=None) -> TreeStructure:
        """Grow the tree on ``rows`` of the feature-major ``XT`` (its
        :func:`_rank_table` is ``ranks``; ``y`` is indexed like ``XT``'s
        columns).  ``weights`` are the rows' multiplicities, unit when
        ``None``; regressors take unit weights only, because their float
        running sums depend on the order of repeated rows."""
        self._XT = XT
        self._ranks = ranks
        self._n_features = XT.shape[0]
        self._k = _resolve_max_features(self.max_features, self._n_features)
        self._all_features = np.arange(self._n_features)
        self._draw_rows = np.arange(self._k)[:, None]
        if self.is_classifier:
            self._y = np.asarray(y, dtype=np.intp)
            self._classes = np.arange(self.n_classes)[:, None]
        else:
            self._y = y
        if weights is None:
            weights = np.ones(len(rows), dtype=np.intp)
        self._left: list[int] = []
        self._right: list[int] = []
        self._feature: list[int] = []
        self._threshold: list[float] = []
        self._value: list = []
        self._n: list[int] = []
        self._impurity: list[float] = []
        self._grow(rows, weights, depth=0)
        n_nodes = len(self._left)
        return TreeStructure(
            children_left=np.array(self._left, dtype=np.int64),
            children_right=np.array(self._right, dtype=np.int64),
            feature=np.array(self._feature, dtype=np.int64),
            threshold=np.array(self._threshold, dtype=float),
            value=np.array(self._value, dtype=float).reshape(n_nodes, -1),
            n_node_samples=np.array(self._n, dtype=float),
            impurity=np.array(self._impurity, dtype=float),
        )

    def _grow(self, idx, w, depth) -> int:
        y_node = self._y[idx]
        if self.is_classifier:
            counts = np.bincount(y_node, weights=w, minlength=self.n_classes)
            n = int(w.sum())
            value = counts / n
            impurity = float(1.0 - np.add.reduce(value * value))
        else:
            counts = None
            n = len(idx)
            value = y_node.mean()
            impurity = float(np.var(y_node))
        node_id = len(self._left)
        self._left.append(LEAF)
        self._right.append(LEAF)
        self._feature.append(LEAF)
        self._threshold.append(np.nan)
        self._value.append(value)
        self._n.append(n)
        self._impurity.append(impurity)
        if (
            depth >= self.max_depth
            or n < self.min_samples_split
            or impurity <= _MIN_GAIN
        ):
            return node_id
        split = self._best_split(idx, w, n, y_node, counts, impurity)
        if split is None:
            return node_id
        feature, threshold, go_left = split
        self._feature[node_id] = feature
        self._threshold[node_id] = threshold
        self._left[node_id] = self._grow(idx[go_left], w[go_left], depth + 1)
        go_right = ~go_left
        self._right[node_id] = self._grow(idx[go_right], w[go_right], depth + 1)
        return node_id

    # ------------------------------------------------------------------
    def _best_split(self, idx, w, n, y_node, counts, parent_impurity):
        """Return ``(feature, threshold, go_left)`` of the
        impurity-minimizing split, or ``None`` when no admissible split
        improves impurity.  ``go_left`` masks the node's rows.

        Arrays are ``(k, ...)``, one row per drawn feature in draw order;
        a cut after sorted position j leaves ``n_left[:, j]`` on the left.
        """
        if self._k < self._n_features:
            features = self.rng.choice(self._n_features, size=self._k, replace=False)
        else:
            features = self._all_features
        if n < 2 * self.min_samples_leaf:
            return None
        Rn = self._ranks.take(features, axis=0).take(idx, axis=1)
        order = np.argsort(Rn, axis=1, kind="stable")
        rs = Rn[self._draw_rows, order]
        cut = order[:, :-1]
        n_left = w.take(cut).cumsum(axis=1)
        n_right = n - n_left
        if self.is_classifier:
            # (n_classes, k, m - 1) running class counts; integers, so exact
            left = ((y_node == self._classes) * w).take(cut, axis=1).cumsum(axis=2)
            right = counts[:, None, None] - left
            p_l = left / n_left
            p_r = right / n_right
            score = (
                n_left * (1.0 - np.add.reduce(p_l * p_l))
                + n_right * (1.0 - np.add.reduce(p_r * p_r))
            ) / n
        else:
            ys = y_node[order]
            cum_y = np.cumsum(ys, axis=1)
            cum_y2 = np.cumsum(ys * ys, axis=1)
            sum_l = cum_y[:, :-1]
            sum2_l = cum_y2[:, :-1]
            sum_r = cum_y[:, -1:] - sum_l
            sum2_r = cum_y2[:, -1:] - sum2_l
            var_l = sum2_l / n_left - (sum_l / n_left) ** 2
            var_r = sum2_r / n_right - (sum_r / n_right) ** 2
            score = (n_left * np.maximum(var_l, 0.0)
                     + n_right * np.maximum(var_r, 0.0)) / n
        # admissible only where the sorted value changes and both sides
        # keep min_samples_leaf
        blocked = rs[:, 1:] == rs[:, :-1]
        if self.min_samples_leaf > 1:
            blocked |= (n_left < self.min_samples_leaf) | (
                n_right < self.min_samples_leaf
            )
        score[blocked] = np.inf
        f, j = divmod(int(np.argmin(score)), score.shape[1])
        best_score = score[f, j]
        if parent_impurity - best_score <= _MIN_GAIN:
            return None
        column = self._XT[features[f]]
        lo, hi = column[idx[order[f, j]]], column[idx[order[f, j + 1]]]
        threshold = (lo + hi) / 2.0
        # guard against midpoint rounding onto the right value
        if threshold >= hi:
            threshold = lo
        # lo <= threshold < hi and no row's value lies strictly between
        # them, so a row goes left exactly when its rank is at most lo's
        return int(features[f]), float(threshold), Rn[f] <= rs[f, j]


def _compute_feature_importances(tree: TreeStructure, n_features: int) -> np.ndarray:
    """Impurity-decrease importances, normalized to sum to 1.

    Per-feature sums accumulate in node order (``np.add.at`` is
    unbuffered), the same sequence as a loop over the split nodes.
    """
    importances = np.zeros(n_features)
    split = np.flatnonzero(tree.children_left != LEAF)
    weighted = tree.n_node_samples * tree.impurity
    decrease = (
        weighted[split]
        - weighted[tree.children_left[split]]
        - weighted[tree.children_right[split]]
    ) / tree.n_node_samples[0]
    np.add.at(importances, tree.feature[split], np.maximum(decrease, 0.0))
    s = importances.sum()
    return importances / s if s > 0 else importances


class _BaseDecisionTree(PackedModelMixin, BaseEstimator):
    def __init__(
        self,
        max_depth=None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features=None,
        random_state=None,
    ):
        if max_depth is not None and max_depth < 1:
            raise ValueError(f"max_depth must be >= 1, got {max_depth}")
        if min_samples_split < 2:
            raise ValueError(f"min_samples_split must be >= 2, got {min_samples_split}")
        if min_samples_leaf < 1:
            raise ValueError(f"min_samples_leaf must be >= 1, got {min_samples_leaf}")
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.random_state = random_state
        self.tree_: TreeStructure | None = None

    def _fit_tree(
        self, XT, ranks, y, rows, weights=None, *, is_classifier: bool, n_classes: int
    ):
        self._invalidate_packed()
        builder = _TreeBuilder(
            is_classifier=is_classifier,
            n_classes=n_classes,
            max_depth=self.max_depth,
            min_samples_split=self.min_samples_split,
            min_samples_leaf=self.min_samples_leaf,
            max_features=self.max_features,
            rng=check_random_state(self.random_state),
        )
        self.tree_ = builder.build(XT, ranks, y, rows, weights)
        self.n_features_in_ = XT.shape[0]
        self.feature_importances_ = _compute_feature_importances(
            self.tree_, XT.shape[0]
        )

    def apply(self, X) -> np.ndarray:
        """Leaf id reached by each sample."""
        check_fitted(self, "tree_")
        X = check_array(X, name="X")
        return self.tree_.apply(X)

    def get_depth(self) -> int:
        check_fitted(self, "tree_")
        return self.tree_.max_depth

    def get_n_leaves(self) -> int:
        check_fitted(self, "tree_")
        return int(np.sum(self.tree_.children_left == LEAF))


class DecisionTreeClassifier(_BaseDecisionTree, ClassifierMixin):
    """CART classifier with gini impurity."""

    packed_output = "proba"

    def fit(self, X, y) -> "DecisionTreeClassifier":
        X, y = check_X_y(X, y)
        # single-class fits are allowed, as for a forest member whose
        # bootstrap missed a rare class: the stump predicts it with p=1
        codes = self._encode_labels(y, allow_single_class=True)
        XT, ranks = training_columns(X)
        self._fit_tree(
            XT, ranks, codes, np.arange(len(X)),
            is_classifier=True, n_classes=len(self.classes_),
        )
        return self

    def _fit_rows(self, XT, ranks, codes, rows, weights) -> "DecisionTreeClassifier":
        """Fit on ``rows`` of an ensemble's training set, each counted
        ``weights`` times (``XT, ranks`` from :func:`training_columns`,
        labels as the ensemble's integer ``codes``).  ``classes_`` are
        the codes those rows hold: a bootstrap may miss a rare class."""
        self.classes_ = np.unique(codes[rows])
        # rows outside ``rows`` may map anywhere; the builder never reads them
        local = np.searchsorted(self.classes_, codes)
        self._fit_tree(
            XT, ranks, local, rows, weights,
            is_classifier=True, n_classes=len(self.classes_),
        )
        return self

    def predict_proba(self, X) -> np.ndarray:
        """Class probabilities (training-class frequencies at the leaf)."""
        check_fitted(self, "tree_")
        X = check_array(X, name="X")
        if X.shape[1] != self.n_features_in_:
            raise ValueError(
                f"X has {X.shape[1]} features, tree fitted on {self.n_features_in_}"
            )
        return self.packed_ensemble().predict(X)

    def predict(self, X) -> np.ndarray:
        return self._decode_labels(np.argmax(self.predict_proba(X), axis=1))


class DecisionTreeRegressor(_BaseDecisionTree, RegressorMixin):
    """CART regressor with variance (MSE) impurity."""

    packed_output = "predict"

    def fit(self, X, y) -> "DecisionTreeRegressor":
        X, y = check_X_y(X, y, y_numeric=True)
        return self._fit_rows(*training_columns(X), y, np.arange(len(X)))

    def _fit_rows(self, XT, ranks, y, rows) -> "DecisionTreeRegressor":
        """Fit on positional ``rows`` of an ensemble's training set,
        repeats included, in their order (``XT, ranks`` from
        :func:`training_columns`)."""
        self._fit_tree(XT, ranks, y, rows, is_classifier=False, n_classes=0)
        return self

    def predict(self, X) -> np.ndarray:
        check_fitted(self, "tree_")
        X = check_array(X, name="X")
        if X.shape[1] != self.n_features_in_:
            raise ValueError(
                f"X has {X.shape[1]} features, tree fitted on {self.n_features_in_}"
            )
        return self.packed_ensemble().predict(X)[:, 0]
