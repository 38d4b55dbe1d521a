"""Packed ensemble inference: fused evaluation of many CART trees.

Every tree-based model in this library stores its fitted trees as flat
:class:`~repro.ml.tree.TreeStructure` arrays, but evaluation loops over
the estimators in Python: a 100-tree forest pays 100 separate
vectorized descents plus, for classifiers, 100 per-tree
class-realignment allocations.  Under the explainers — KernelSHAP's
stacked masked-background calls, SamplingSHAP's permutation sweeps,
faithfulness deletion curves — the model is the hot layer, so that
per-tree Python loop is the single largest cost in the whole pipeline
(bench E2b: batching wins 14x on a logistic model but ~1x on the
forest, because the forest call itself dominates).

:class:`PackedEnsemble` removes the per-tree loop, and is the one place
that knows how a model's trees combine.  At pack time all trees are
flattened into one contiguous node block:

* ``children_left`` / ``children_right`` / ``feature`` / ``threshold``
  are concatenated with per-tree root offsets, so a node id addresses
  the whole forest;
* ``value`` rows are **pre-realigned to the ensemble's class set** —
  a bootstrap tree that never saw a rare class gets zero columns for
  it — which deletes the per-call realignment;
* trees are ordered by decreasing depth (``tree_order`` maps packed
  position back to estimator order), so at traversal depth ``L`` the
  still-active trees are a contiguous prefix of the node state.

Evaluation then runs a single vectorized frontier loop over all
``(row, tree)`` pairs: one Python iteration per *depth level* in
total, instead of one traversal loop per tree.  Two phases keep the
element work near-minimal:

* a **dense** phase steps every active pair in lock-step through a
  self-loop step table (leaves point at themselves), slicing off whole
  trees as the depth bound of each is reached — zero bookkeeping per
  level beyond shrinking the prefix;
* once the training-coverage estimate says most pairs have already
  reached a leaf (< ``_SPARSE_SWITCH_FRACTION`` still active), a
  **sparse** phase switches to explicit active-pair compaction so deep
  stragglers do not drag every pair along.

Aggregation stacks the start value (zero, or the boosting base offset)
on the per-tree leaf terms in estimator order and sums them with one
sequential ``np.add.accumulate`` (:meth:`PackedEnsemble.staged_sums`
keeps its rows, the boosting stages), dividing forests by the tree
count at the end: the exact arithmetic of the per-tree loops in
``tests/oracles/per_tree_loops.py``, so packed outputs are
**byte-identical** to them — the property the equivalence suite
(tests/ml/test_packed.py) and bench E15 assert unconditionally.

KernelSHAP and exact Shapley need the background mean of the model
over ``where(mask, x, background)`` hybrids, not the hybrids'
outputs.  :meth:`PackedEnsemble.coalition_values` returns those
values, byte-identical to scoring the hybrids with :meth:`predict`,
without materialising a hybrid row: it walks tabled branch bits of the
rows and the background once per tree and distinct mask pattern.

Models build the packed form lazily: :class:`PackedModelMixin` gives
every tree-based estimator a memoized :meth:`~PackedModelMixin.
packed_ensemble` built on first use after ``fit`` and dropped on
pickling (a process-backend shard ships only the fitted trees and
re-packs on first predict).  The packed form is a *snapshot* — code
that mutates ``tree_.value`` in place after a predict must call
``_invalidate_packed()`` (refitting does this automatically).
"""

from __future__ import annotations

import numpy as np

__all__ = ["PackedEnsemble", "PackedModelMixin"]

_LEAF = -1

#: (row, tree) pairs traversed per block.  Blocks keep the node-state
#: working set inside cache: the sweet spot measured on the reference
#: forest (60 trees, depth 10) is a few hundred rows per block, and the
#: pair budget scales that inversely with the tree count.
_PAIR_BUDGET = 16384

#: Walk states per tree group, and (coalition, row, background row)
#: sums per accumulator block, of :meth:`PackedEnsemble.coalition_values`.
#: Like ``_PAIR_BUDGET`` it keeps the working set in cache-sized blocks.
_STATE_BUDGET = 1 << 18

#: Switch from the dense lock-step phase to sparse active-pair
#: compaction once the training-coverage estimate says fewer than this
#: fraction of pairs are still descending.  Below it, compaction
#: overhead beats dragging every finished pair through more levels.
_SPARSE_SWITCH_FRACTION = 0.4


def _check_finite(X: np.ndarray, name: str) -> np.ndarray:
    """Reject NaN and infinite entries, as the models' own ``predict``
    does (:func:`repro.utils.validation.check_array`).  The kernels that
    read tabled branch bits or path intervals instead of calling
    ``predict`` would otherwise route such a value silently."""
    if not np.isfinite(X).all():
        raise ValueError(f"{name} contains NaN or infinite values")
    return X


def _distinct_rows(bits: np.ndarray):
    """``(first, inverse)`` of the distinct rows of a 2-D boolean array:
    ``bits[first]`` holds each distinct row once, ``inverse`` maps every
    row to its entry.  Rows are compared as packed bytes, and an array
    of zero columns has one distinct row."""
    if bits.shape[1] == 0:
        return np.zeros(1, dtype=np.int64), np.zeros(len(bits), np.int64)
    packed = np.ascontiguousarray(np.packbits(bits, axis=1))
    keys = packed.view(np.dtype((np.void, packed.shape[1]))).ravel()
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    return first, inverse.reshape(-1)


def _as_codes(classes: np.ndarray) -> np.ndarray:
    """Integer class codes of an ensemble member (trees inside forests
    are fit on the forest's integer codes, so their ``classes_`` are a
    subset of ``0..n_classes-1``)."""
    return np.asarray(classes).astype(np.int64)


class PackedEnsemble:
    """All trees of one fitted model, flattened for fused evaluation.

    Build with :meth:`from_model` (or transparently via
    ``model.packed_ensemble()``).  The public arrays are concatenated
    in *packed order* — trees sorted by decreasing depth; use
    :attr:`tree_order` to map packed position to estimator index.

    Attributes
    ----------
    n_trees, n_nodes, n_features, n_outputs:
        Ensemble dimensions.  ``n_outputs`` is the ensemble's class
        count for probability models, 1 for regression/margin models.
    children_left, children_right:
        Global child node ids per node; ``-1`` marks a leaf.
    feature, threshold, value, n_node_samples:
        Per-node split data.  ``value`` rows are pre-realigned to the
        ensemble class set (columns = class codes).
    roots:
        Root node id of each packed tree.
    tree_order:
        ``tree_order[p]`` is the estimator index of packed tree ``p``.
    tree_depths:
        Max depth of each packed tree (non-increasing).
    max_depth:
        Deepest tree's depth — the frontier bound of the traversal.
    node_depth:
        Depth of every node in its tree (roots at 0).
    mode:
        ``"mean"`` (forests, single trees) or ``"scaled_sum"``
        (boosting: ``base_offset + scale * sum(tree values)``).
    outputs_are_classes:
        Whether ``value`` columns are class probabilities (drives which
        column a ``class_index`` selects, :meth:`output_column`).
    """

    def __init__(
        self,
        trees,
        values,
        *,
        n_features: int,
        mode: str = "mean",
        scale: float = 1.0,
        base_offset: float = 0.0,
        outputs_are_classes: bool = False,
    ):
        if mode not in ("mean", "scaled_sum"):
            raise ValueError(f"unknown aggregation mode {mode!r}")
        trees = list(trees)
        values = [np.atleast_2d(np.asarray(v, dtype=float)) for v in values]
        if not trees:
            raise ValueError("cannot pack an ensemble with zero trees")
        if len(values) != len(trees):
            raise ValueError(
                f"{len(values)} value blocks for {len(trees)} trees"
            )
        widths = {v.shape[1] for v in values}
        if len(widths) != 1:
            raise ValueError(f"inconsistent value widths: {sorted(widths)}")

        self.n_trees = len(trees)
        self.n_features = int(n_features)
        self.mode = mode
        self.scale = float(scale)
        self.base_offset = float(base_offset)
        self.outputs_are_classes = bool(outputs_are_classes)

        depths = np.array([t.max_depth for t in trees], dtype=np.int64)
        # deepest first: the traversal's active trees stay a prefix
        self.tree_order = np.argsort(-depths, kind="stable")
        ordered = [trees[i] for i in self.tree_order]
        self.tree_depths = depths[self.tree_order]
        self.max_depth = int(self.tree_depths[0]) if self.n_trees else 0

        sizes = np.array([t.n_nodes for t in ordered], dtype=np.int64)
        offsets = np.concatenate(([0], np.cumsum(sizes)))
        self.n_nodes = int(offsets[-1])
        self.roots = offsets[:-1].copy()
        self._offsets = offsets

        self.children_left = np.concatenate(
            [np.where(t.children_left == _LEAF, _LEAF, t.children_left + o)
             for t, o in zip(ordered, offsets)]
        )
        self.children_right = np.concatenate(
            [np.where(t.children_right == _LEAF, _LEAF, t.children_right + o)
             for t, o in zip(ordered, offsets)]
        )
        self.feature = np.concatenate([t.feature for t in ordered])
        self.threshold = np.concatenate([t.threshold for t in ordered])
        self.n_node_samples = np.concatenate(
            [t.n_node_samples for t in ordered]
        )
        self.value = np.concatenate(
            [values[i] for i in self.tree_order], axis=0
        )
        self.n_outputs = self.value.shape[1]
        self._is_leaf = self.children_left == _LEAF

        # self-loop step table: leaves point at themselves behind an
        # always-true comparison (x <= +inf against feature 0), so the
        # dense phase needs no per-pair liveness bookkeeping at all
        step_left = np.where(
            self._is_leaf, np.arange(self.n_nodes), self.children_left
        )
        step_right = np.where(
            self._is_leaf, np.arange(self.n_nodes), self.children_right
        )
        self._feature_step = np.where(self._is_leaf, 0, self.feature)
        self._threshold_step = np.where(self._is_leaf, np.inf, self.threshold)
        # interleaved children: next node = _children_step[2*node + go_left]
        self._children_step = np.empty(2 * self.n_nodes, dtype=np.int64)
        self._children_step[0::2] = step_right
        self._children_step[1::2] = step_left

        self.node_depth = self._walk_depths()
        self._active_trees = np.array(
            [int(np.count_nonzero(self.tree_depths > level))
             for level in range(self.max_depth)],
            dtype=np.int64,
        )
        self._switch_level = self._coverage_switch_level()
        self._inverse_order = np.empty(self.n_trees, dtype=np.int64)
        self._inverse_order[self.tree_order] = np.arange(self.n_trees)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_model(cls, model) -> "PackedEnsemble":
        """Pack any of this library's fitted tree-based models.

        Supported: ``DecisionTreeClassifier`` / ``Regressor``,
        ``RandomForestClassifier`` / ``Regressor``,
        ``GradientBoostingClassifier`` / ``Regressor`` (duck-typed on
        their fitted attributes, so there is no import cycle with the
        model modules).
        """
        n_features = getattr(model, "n_features_in_", None)
        if getattr(model, "tree_", None) is not None:
            # standalone decision tree: values are already aligned
            # (classifier columns are indexed by class code)
            tree = model.tree_
            return cls(
                [tree],
                [tree.value],
                n_features=n_features,
                mode="mean",
                outputs_are_classes=hasattr(model, "classes_"),
            )
        estimators = getattr(model, "estimators_", None)
        if estimators is None:
            raise TypeError(
                "PackedEnsemble supports this library's fitted decision "
                "trees, random forests and gradient boosting; got "
                f"{type(model).__name__}"
            )
        if getattr(model, "init_prediction_", None) is not None:
            # gradient boosting: regression trees under an additive
            # margin — base_offset + learning_rate * sum(tree values)
            return cls(
                [t.tree_ for t in estimators],
                [t.tree_.value for t in estimators],
                n_features=n_features,
                mode="scaled_sum",
                scale=model.learning_rate,
                base_offset=model.init_prediction_,
            )
        if hasattr(model, "classes_"):
            # forest classifier: realign every tree's value columns to
            # the forest class set once, at pack time (a bootstrap may
            # have missed a rare class entirely)
            n_classes = len(model.classes_)
            values = []
            for est in estimators:
                tree = est.tree_
                aligned = np.zeros((tree.n_nodes, n_classes))
                aligned[:, _as_codes(est.classes_)] = tree.value
                values.append(aligned)
            return cls(
                [t.tree_ for t in estimators],
                values,
                n_features=n_features,
                mode="mean",
                outputs_are_classes=True,
            )
        return cls(
            [t.tree_ for t in estimators],
            [t.tree_.value for t in estimators],
            n_features=n_features,
            mode="mean",
        )

    def _walk_depths(self) -> np.ndarray:
        """Per-node depth via one vectorized level walk over all trees."""
        depth = np.zeros(self.n_nodes, dtype=np.int64)
        frontier = self.roots[~self._is_leaf[self.roots]]
        level = 0
        while frontier.size:
            level += 1
            children = np.concatenate(
                (self.children_left[frontier], self.children_right[frontier])
            )
            depth[children] = level
            frontier = children[~self._is_leaf[children]]
        return depth

    def _coverage_switch_level(self) -> int:
        """First depth level where the training-coverage estimate of
        still-active pairs drops below ``_SPARSE_SWITCH_FRACTION``."""
        if self.max_depth == 0:
            return 0
        total = float(self.n_node_samples[self.roots].sum())
        leaf_mass = np.bincount(
            self.node_depth[self._is_leaf],
            weights=self.n_node_samples[self._is_leaf],
            minlength=self.max_depth + 1,
        ).cumsum()
        active_fraction = 1.0 - leaf_mass / total
        sparse = np.flatnonzero(active_fraction < _SPARSE_SWITCH_FRACTION)
        return int(sparse[0]) if sparse.size else self.max_depth

    # ------------------------------------------------------------------
    # traversal
    # ------------------------------------------------------------------
    def _check_X(self, X) -> np.ndarray:
        X = np.ascontiguousarray(X, dtype=float)
        if X.ndim != 2:
            raise ValueError(f"X must be 2-D, got shape {X.shape}")
        if X.shape[1] != self.n_features:
            raise ValueError(
                f"X has {X.shape[1]} features, "
                f"ensemble fitted on {self.n_features}"
            )
        return X

    def _block_rows(self) -> int:
        return max(1, _PAIR_BUDGET // self.n_trees)

    def _apply_block(self, Xb: np.ndarray, scratch) -> np.ndarray:
        """Leaf node id per (tree, row) of one row block.

        Returns a ``(n_trees, len(Xb))`` view into ``scratch`` in
        *packed* tree order — consume it before the next block.
        """
        nb, d = Xb.shape
        m = self.n_trees * nb
        nodes, nxt, feat, th, xv, go = (buf[:m] for buf in scratch)
        nodes.reshape(self.n_trees, nb)[:] = self.roots[:, None]
        rowoff = np.tile(np.arange(nb, dtype=np.int64) * d, self.n_trees)
        xflat = Xb.ravel()

        # dense lock-step phase: every still-active tree is a prefix of
        # the tree-major state (trees are depth-sorted), so one level
        # costs a handful of flat gathers and no liveness bookkeeping
        level = 0
        dense_limit = min(self._switch_level, self.max_depth)
        while level < dense_limit:
            k = self._active_trees[level] * nb
            nd = nodes[:k]
            np.take(self._feature_step, nd, out=feat[:k])
            np.take(self._threshold_step, nd, out=th[:k])
            feat[:k] += rowoff[:k]
            np.take(xflat, feat[:k], out=xv[:k])
            np.less_equal(xv[:k], th[:k], out=go[:k])
            np.left_shift(nd, 1, out=nd)
            np.add(nd, go[:k], out=nd)
            np.take(self._children_step, nd, out=nxt[:k])
            np.copyto(nd, nxt[:k])
            level += 1

        # sparse phase: compact to the pairs still descending so deep
        # stragglers do not drag every finished pair along
        if level < self.max_depth:
            k = self._active_trees[level] * nb
            live = nodes[:k]
            idx = np.flatnonzero(~self._is_leaf[live])
            while idx.size:
                cur = live[idx]
                left = xflat[self.feature[cur] + rowoff[idx]] <= (
                    self.threshold[cur]
                )
                after = self._children_step[(cur << 1) + left]
                live[idx] = after
                idx = idx[~self._is_leaf[after]]

        return nodes.reshape(self.n_trees, nb)

    def _scratch(self, block_rows: int):
        m = block_rows * self.n_trees
        return (
            np.empty(m, dtype=np.int64),  # nodes
            np.empty(m, dtype=np.int64),  # next nodes
            np.empty(m, dtype=np.int64),  # feature / flat X index
            np.empty(m, dtype=float),     # thresholds
            np.empty(m, dtype=float),     # gathered X values
            np.empty(m, dtype=bool),      # go-left mask
        )

    def apply(self, X) -> np.ndarray:
        """Leaf node id reached by each row in each tree.

        Returns an ``(n_rows, n_trees)`` array with columns in the
        **original estimator order** (index it with the estimator
        position, not the packed position).
        """
        X = self._check_X(X)
        n = len(X)
        block = self._block_rows()
        scratch = self._scratch(min(block, max(n, 1)))
        out = np.empty((n, self.n_trees), dtype=np.int64)
        for start in range(0, n, block):
            stop = min(n, start + block)
            leaves = self._apply_block(X[start:stop], scratch)
            out[start:stop] = leaves[self._inverse_order].T
        return out

    def predict(self, X) -> np.ndarray:
        """Aggregated ensemble output, shape ``(n_rows, n_outputs)``:
        the last row of :meth:`staged_sums`, divided by the tree count
        for ``"mean"``."""
        X = self._check_X(X)
        out = np.empty((len(X), self.n_outputs))
        for start, sums in self._block_sums(X):
            out[start:start + sums.shape[1]] = sums[-1]
        return self._finish(out)

    def staged_sums(self, X) -> np.ndarray:
        """Running sums of the per-tree terms in estimator order, shape
        ``(n_trees + 1, n_rows, n_outputs)``: row ``t`` is the start
        value plus the terms of the first ``t`` trees (for boosting,
        the margin after stage ``t``)."""
        X = self._check_X(X)
        sums = np.empty((self.n_trees + 1, len(X), self.n_outputs))
        for start, block in self._block_sums(X):
            sums[:, start:start + block.shape[1]] = block
        return sums

    def _block_sums(self, X: np.ndarray):
        """``(first row, staged sums)`` of each row block of ``X``."""
        n = len(X)
        block = self._block_rows()
        scratch = self._scratch(min(block, max(n, 1)))
        for start in range(0, n, block):
            stop = min(n, start + block)
            leaves = self._apply_block(X[start:stop], scratch)
            terms = np.empty((self.n_trees + 1, stop - start, self.n_outputs))
            np.take(self.value, leaves[self._inverse_order], axis=0,
                    out=terms[1:], mode="clip")
            yield start, self._accumulate(terms)

    @property
    def _start(self) -> float:
        """What the per-tree terms are added to: the boosting base
        offset, or zero for a mean — negative zero for a lone tree, the
        exact additive identity, so its output is its raw leaf value
        (signed zeros included)."""
        if self.mode == "scaled_sum":
            return self.base_offset
        return -0.0 if self.n_trees == 1 else 0.0

    def _accumulate(self, terms: np.ndarray) -> np.ndarray:
        """Running sums, in place, of ``terms`` whose rows ``1..n_trees``
        hold each tree's leaf values in estimator order: row 0 becomes
        :attr:`_start` and boosting terms are scaled first."""
        terms[0] = self._start
        if self.mode == "scaled_sum":
            np.multiply(terms[1:], self.scale, out=terms[1:])
        return np.add.accumulate(terms, axis=0, out=terms)

    def _finish(self, total: np.ndarray) -> np.ndarray:
        """Divide a mean's total by the tree count (exact for one)."""
        if self.mode == "mean":
            total /= self.n_trees
        return total

    def output_column(self, class_index: int) -> int | None:
        """The column of :meth:`predict` that ``class_index`` selects:
        the class code of a probability ensemble, else column 0.
        ``None`` for a class code no tree carries."""
        column = int(class_index) if self.outputs_are_classes else 0
        return column if column < self.n_outputs else None

    # ------------------------------------------------------------------
    # masked evaluation (KernelSHAP and exact Shapley coalition values)
    # ------------------------------------------------------------------
    def coalition_values(self, X, masks, background, *, column: int = 0):
        """Background-mean output of every (coalition, row) hybrid,
        shape ``(len(masks), len(X))``::

            v[j, i] = mean_r predict(where(masks[j], X[i], background[r]))[column]

        computed without materialising a hybrid row, and byte-identical
        to stacking the hybrids, calling :meth:`predict` and taking
        ``[:, column].reshape(m, n, n_bg).mean(axis=2)``.  Raises
        ``ValueError`` on NaN or infinite entries in ``X`` or
        ``background``, and on an empty background.

        * **Patterns per tree.**  A tree reads only the mask bits of the
          features it splits on, and only the branch bits of its own
          nodes, so per tree the coalitions collapse to their distinct
          patterns of those features, and the rows and background rows
          to their distinct branch-bit vectors.
        * **Branch bits.**  ``value <= threshold`` is tabled once per
          node for the rows and for the background.  A
          (pattern, row, background row) state takes the row's bit at a
          node whose feature is in the pattern and the background
          row's bit elsewhere — the branch the hybrid takes, so the
          state ends in the hybrid's leaf.
        * **The same sums.**  Leaf values are added in estimator order
          from :meth:`predict`'s starting value, scaled and divided as
          there, and averaged over a contiguous background axis.
        """
        X = _check_finite(self._check_X(X), "X")
        background = _check_finite(self._check_X(background), "background")
        if len(background) == 0:
            raise ValueError("background must have at least one row")
        masks = np.asarray(masks, dtype=bool)
        if masks.ndim != 2 or masks.shape[1] != self.n_features:
            raise ValueError(
                f"masks must have shape (m, {self.n_features}), "
                f"got {masks.shape}"
            )
        leaf = self.value[:, column]
        if self.mode == "scaled_sum":
            # predict adds scale * value per tree: the same products
            leaf = self.scale * leaf
        m, n = len(masks), len(X)
        V = np.empty((m, n))
        splits = [self._tree_splits(q) for q in range(self.n_trees)]
        bg_left = self._goes_left(background)
        bg_kinds = [_distinct_rows(bg_left[:, nodes]) for nodes, _ in splits]
        coalition_block = max(1, _STATE_BUDGET // max(1, len(background)))
        for c0 in range(0, m, coalition_block):
            block = masks[c0:c0 + coalition_block]
            patterns = [_distinct_rows(block[:, feats]) for _, feats in splits]
            row_block = max(
                1, _STATE_BUDGET // max(1, len(block) * len(background))
            )
            for r0 in range(0, n, row_block):
                x_left = self._goes_left(X[r0:r0 + row_block])
                x_kinds = [_distinct_rows(x_left[:, nodes]) for nodes, _ in splits]
                V[c0:c0 + len(block), r0:r0 + row_block] = self._masked_block(
                    block, patterns, x_left, x_kinds, bg_left, bg_kinds, leaf
                )
        return V

    def _goes_left(self, X: np.ndarray) -> np.ndarray:
        """Branch bit ``X[:, feature] <= threshold`` of every node, shape
        ``(len(X), n_nodes)`` (``True`` at leaves, whose step is a
        self-loop)."""
        return X[:, self._feature_step] <= self._threshold_step

    def _tree_splits(self, q: int):
        """Split node ids and the distinct features they split on, of
        packed tree ``q``."""
        nodes = np.arange(self._offsets[q], self._offsets[q + 1])
        nodes = nodes[~self._is_leaf[nodes]]
        return nodes, np.unique(self.feature[nodes])

    def _masked_block(
        self, masks, patterns, x_left, x_kinds, bg_left, bg_kinds, leaf
    ) -> np.ndarray:
        """Coalition values of one (coalition block, row block)."""
        nb, n_bg = len(x_left), len(bg_left)
        kinds = list(zip(patterns, x_kinds, bg_kinds))
        shapes = np.array(
            [[len(k[0]) for k in tree] for tree in kinds], dtype=np.int64
        )
        states = shapes.prod(axis=1)
        # a tree's walk holds its states and its side and code tables
        work = states + (
            shapes[:, 0] + shapes[:, 1] * shapes[:, 2]
        ) * np.diff(self._offsets)
        acc = np.full((len(masks), nb * n_bg), self._start)
        gathered = np.empty_like(acc)
        for estimators in self._tree_groups(work):
            positions = np.sort(self._inverse_order[estimators])
            values = leaf[
                self._walk_states(positions, kinds, masks, x_left, bg_left)
            ]
            ends = dict(zip(positions.tolist(), np.cumsum(states[positions])))
            # estimator order, as predict accumulates
            for q in self._inverse_order[estimators].tolist():
                (_, pattern), (_, row), (_, bg_row) = kinds[q]
                own = values[ends[q] - states[q]:ends[q]].reshape(shapes[q])
                hybrids = own[:, row[:, None], bg_row].reshape(len(own), -1)
                np.take(hybrids, pattern, axis=0, out=gathered, mode="clip")
                acc += gathered
        return self._finish(acc).reshape(len(masks), nb, n_bg).mean(axis=2)

    def _tree_groups(self, work: np.ndarray):
        """Estimator indices in consecutive groups of at most
        ``_STATE_BUDGET`` work (one tree at least); ``work`` is indexed
        by packed position."""
        group: list[int] = []
        total = 0
        for e in range(self.n_trees):
            size = int(work[self._inverse_order[e]])
            if group and total + size > _STATE_BUDGET:
                yield np.array(group)
                group, total = [], 0
            group.append(e)
            total += size
        yield np.array(group)

    def _walk_states(self, positions, kinds, masks, x_left, bg_left):
        """Leaf node of every (pattern, row, background row) state of
        the packed trees ``positions`` (ascending, so deepest first),
        tree by tree in that order, each tree's states C-ordered.

        Per tree, a *side* table holds, for each pattern and node,
        whether the node's feature is in the pattern, and a *code*
        table holds ``2 * row bit + background bit`` for each (row,
        background row) pair and node; a state's branch is bit ``side``
        of its code."""
        node, side_base, code_base, side, code = [], [], [], [], []
        side_size = code_size = 0
        for q in positions.tolist():
            (patterns, _), (rows, _), (bg_rows, _) = kinds[q]
            lo, hi = self._offsets[q], self._offsets[q + 1]
            width = hi - lo
            pairs = len(rows) * len(bg_rows)
            side.append(
                masks[patterns][:, self._feature_step[lo:hi]].view(np.uint8)
            )
            code.append(
                (x_left[rows, lo:hi][:, None] * np.uint8(2)
                 + bg_left[bg_rows, lo:hi][None]).reshape(pairs, width)
            )
            # state offsets into the tables, less the node's global id
            node.append(np.full(len(patterns) * pairs, self.roots[q]))
            side_base.append(np.repeat(
                side_size - lo + np.arange(len(patterns)) * width, pairs
            ))
            code_base.append(np.tile(
                code_size - lo + np.arange(pairs) * width, len(patterns)
            ))
            side_size += side[-1].size
            code_size += code[-1].size
        ends = np.cumsum([len(part) for part in node])
        node = np.concatenate(node)
        side_base = np.concatenate(side_base)
        code_base = np.concatenate(code_base)
        side = np.concatenate([table.ravel() for table in side])
        code = np.concatenate([table.ravel() for table in code])
        idx = np.empty_like(node)
        shift = np.empty(len(node), dtype=np.uint8)
        bit = np.empty(len(node), dtype=np.uint8)
        depths = self.tree_depths[positions]
        for level in range(int(depths[0])):
            # trees still descending are a prefix (deepest first)
            k = int(ends[np.count_nonzero(depths > level) - 1])
            nd = node[:k]
            np.add(nd, side_base[:k], out=idx[:k])
            np.take(side, idx[:k], out=shift[:k])
            np.add(nd, code_base[:k], out=idx[:k])
            np.take(code, idx[:k], out=bit[:k])
            np.right_shift(bit[:k], shift[:k], out=bit[:k])
            np.bitwise_and(bit[:k], 1, out=bit[:k])
            np.left_shift(nd, 1, out=idx[:k])
            np.add(idx[:k], bit[:k], out=idx[:k])
            np.take(self._children_step, idx[:k], out=nd)
        return node

    # ------------------------------------------------------------------
    # background summaries (TreeSHAP's expected-value pass)
    # ------------------------------------------------------------------
    def node_weights(self) -> np.ndarray:
        """Coverage weight of every node: the fraction of feature-absent
        descent paths that flow through it (roots at 1.0), computed with
        one vectorized level walk instead of a Python stack per
        tree."""
        weights = np.zeros(self.n_nodes)
        weights[self.roots] = 1.0
        frontier = self.roots[~self._is_leaf[self.roots]]
        while frontier.size:
            left = self.children_left[frontier]
            right = self.children_right[frontier]
            mass = self.n_node_samples[frontier]
            weights[left] = (
                weights[frontier] * self.n_node_samples[left] / mass
            )
            weights[right] = (
                weights[frontier] * self.n_node_samples[right] / mass
            )
            children = np.concatenate((left, right))
            frontier = children[~self._is_leaf[children]]
        return weights

    def expected_values(self) -> np.ndarray:
        """Per-tree coverage-weighted mean leaf value, shape
        ``(n_trees, n_outputs)`` in **estimator order**."""
        leaf_weight = np.where(self._is_leaf, self.node_weights(), 0.0)
        per_tree = np.add.reduceat(
            leaf_weight[:, None] * self.value, self._offsets[:-1], axis=0
        )
        return per_tree[self._inverse_order]

    def expected_value(self) -> np.ndarray:
        """Aggregated ensemble base value, shape ``(n_outputs,)`` — the
        per-tree base values combined exactly like :meth:`predict`."""
        terms = np.empty((self.n_trees + 1, self.n_outputs))
        terms[1:] = self.expected_values()
        return self._finish(self._accumulate(terms)[-1])

    # ------------------------------------------------------------------
    # attribution (vectorized TreeSHAP support)
    # ------------------------------------------------------------------
    def path_table(self):
        """The memoized :class:`~repro.ml.packed_shap.PackedPathTable`
        of this ensemble — the flat root-to-leaf path index the
        vectorized TreeSHAP kernels gather against.  Built on first
        use; like the ensemble itself it is a snapshot of the fitted
        trees, so the TreeSHAP pair store it keeps is dropped with it
        at refit."""
        table = getattr(self, "_path_table", None)
        if table is None:
            from repro.ml.packed_shap import PackedPathTable

            table = PackedPathTable(self)
            self._path_table = table
        return table

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return (
            f"PackedEnsemble(n_trees={self.n_trees}, n_nodes={self.n_nodes}, "
            f"n_outputs={self.n_outputs}, max_depth={self.max_depth}, "
            f"mode={self.mode!r})"
        )


class PackedModelMixin:
    """Lazy, memoized access to a model's :class:`PackedEnsemble`.

    ``fit`` implementations call :meth:`_invalidate_packed` before
    training; the packed form is then rebuilt on the first prediction.
    Pickling drops the packed form (``__getstate__``), so process-pool
    shards ship only the fitted trees and re-pack on first use — the
    pack cost is a few milliseconds, the pickle savings are not.

    The build is idempotent, so concurrent first predictions from the
    thread backend at worst pack twice and keep either copy.
    """

    #: The :class:`~repro.core.explainers.base.ModelOutputFn` output
    #: (``"proba"``, ``"predict"`` or ``"margin"``) whose scores are a
    #: column of ``packed_ensemble().predict`` taken verbatim, so the
    #: explainers may evaluate coalitions with
    #: :meth:`PackedEnsemble.coalition_values` instead.  A subclass that
    #: changes that output must reset it.
    packed_output: str | None = None

    def packed_ensemble(self) -> PackedEnsemble:
        """The memoized packed form of this fitted model."""
        if getattr(self, "_packed", None) is None:
            self._packed = PackedEnsemble.from_model(self)
        return self._packed

    def _invalidate_packed(self) -> None:
        """Drop the packed snapshot (call after mutating fitted trees)."""
        self._packed = None

    def __getstate__(self):
        state = self.__dict__.copy()
        state.pop("_packed", None)
        return state
