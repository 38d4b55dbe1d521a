"""E15 — packed ensemble inference: fused tree evaluation speedup.

PR 5's tentpole: every explainer in this library is *model-bound* on
tree ensembles (E2b: KernelSHAP batching wins 14x on a logistic model
but ~1x on the forest), so the packed inference engine
(:mod:`repro.ml.packed`) flattens all trees into one contiguous node
block and evaluates every (row, tree) pair in a single vectorized
frontier loop — one Python iteration per depth level instead of one
traversal loop per tree.

This bench asserts the two halves of the contract separately, per the
``benchmarks/_util.py`` convention:

* **equality always** — packed outputs are byte-identical
  (``np.array_equal``) to the legacy per-tree loops, asserted in every
  mode including ``--benchmark-disable`` CI smoke runs;
* **speedup when timed** — >= 2x on forest ``predict_proba`` at the
  8192-row ``_ROW_BUDGET`` sweet spot and >= 2x on the boosting
  margin, plus >= 1.2x end to end on KernelSHAP-over-forest batch
  explanation (16 rows x 256 coalitions); all gated on
  ``timing_enabled`` because a disabled-timing smoke container
  measures nothing meaningful.

A fit row rides along: the shipped forest fit (trees grown on each
bootstrap's distinct rows, sorted by integer ranks) against the
per-tree reference loop in ``tests/oracles/forest_loop.py`` on the
stream forest's shape, every tree array equal byte for byte.

``PANEL`` rows are what ``tools/bench_trajectory.py`` records.
"""

import copy
import types

import numpy as np
import pytest
from oracles import forest_loop

from benchmarks._util import ab_compare, ab_line, assert_speedup
from benchmarks.conftest import (
    reference_boosting,
    reference_forest,
    save_result,
    sla_split,
)
from repro.core.cache import clear_cache
from repro.core.explainers import KernelShapExplainer, model_output_fn
from repro.ml import RandomForestClassifier
from repro.utils.clock import timed
from repro.utils.validation import check_array

#: the explainers' stacked-model-call row budget (base._ROW_BUDGET)
FLEET_ROWS = 8192

#: the KernelSHAP-on-forest batch every BENCH panel has recorded
KERNEL_ROWS = 16
KERNEL_SAMPLES = 256

#: best-of-N timings per row
REPEATS = 3

#: the stream forest's refit windows (60 trees, depth 10, 31 features)
FIT_ROWS = (288, 376)
TREE_FIELDS = (
    "children_left", "children_right", "feature", "threshold",
    "value", "n_node_samples", "impurity",
)

_table: list[str] = []


def _fleet(n_rows=FLEET_ROWS):
    _, X_train, _, _, _ = sla_split()
    gen = np.random.default_rng(0)
    return np.ascontiguousarray(
        X_train[gen.integers(0, len(X_train), size=n_rows)]
    )


def legacy_forest_proba(forest, X):
    """The pre-PR-5 ``predict_proba``, reproduced verbatim: one
    vectorized descent per tree *through the tree's public
    ``predict_proba``* (re-validating ``X`` each time, as the seed code
    did) plus a per-tree class-realignment allocation."""
    out = np.zeros((len(X), len(forest.classes_)))
    for tree in forest.estimators_:
        checked = check_array(X, name="X")  # the seed re-validated per tree
        proba = np.zeros((len(X), len(forest.classes_)))
        tree_proba = tree.tree_.predict_value(checked)
        for j, code in enumerate(tree.classes_):
            proba[:, int(code)] = tree_proba[:, j]
        out += proba
    return out / len(forest.estimators_)


def legacy_boosting_raw(model, X):
    """The pre-PR-5 ``_raw_predict``, reproduced verbatim: one descent
    per boosting stage through the tree's public ``predict`` semantics
    (per-stage ``check_array`` included, as the seed code paid it)."""
    out = np.full(len(X), model.init_prediction_)
    for tree in model.estimators_:
        checked = check_array(X, name="X")  # the seed re-validated per stage
        out += model.learning_rate * tree.tree_.predict_value(checked)[:, 0]
    return out


def kernel_batch(forest):
    """KernelSHAP over ``forest`` on the recorded 16-row, 256-coalition
    batch, from a cold cache."""
    dataset, X_train, X_test, _, _ = sla_split()
    clear_cache()
    explainer = KernelShapExplainer(
        model_output_fn(forest), X_train[:60], dataset.feature_names,
        n_samples=KERNEL_SAMPLES, random_state=0,
    )
    return explainer.explain_batch(X_test[:KERNEL_ROWS])


def packed_build() -> dict:
    """BENCH row: packing the reference forest's node block."""
    forest = reference_forest()

    def build():
        forest._invalidate_packed()
        return forest.packed_ensemble()

    return {
        "name": "packed_build",
        "packed_seconds": min(timed(build)[1] for _ in range(REPEATS)),
        "n_trees": forest.n_estimators,
    }


def forest_predict_proba() -> dict:
    """BENCH row: fused forest ``predict_proba`` vs the per-tree loop."""
    forest, X = reference_forest(), _fleet()
    forest.packed_ensemble()  # pack once, outside the timings
    # best of 10 pairs: over 30 pairs on a 2-CPU container the per-pair
    # ratio ran 2.26-2.49x (median 2.37x), yet a best of 3 read as low
    # as 1.98x in full bench runs
    return ab_compare(
        "forest_predict_proba",
        lambda: forest.predict_proba(X),
        lambda: legacy_forest_proba(forest, X),
        repeats=10,
        rows=FLEET_ROWS,
    )


def boosting_margin() -> dict:
    """BENCH row: the packed boosting margin vs the per-stage loop."""
    model, X = reference_boosting(), _fleet()
    model.packed_ensemble()
    return ab_compare(
        "boosting_margin",
        lambda: model.decision_function(X),
        lambda: legacy_boosting_raw(model, X),
        repeats=REPEATS,
        rows=FLEET_ROWS,
    )


def kernel_shap_batch_forest() -> dict:
    """BENCH row: KernelSHAP-on-forest batch explanation end to end,
    the packed forest against a copy whose ``predict_proba`` is pinned
    to the legacy loop over the same trees."""
    forest = reference_forest()
    legacy_forest = copy.copy(forest)
    legacy_forest.predict_proba = types.MethodType(
        legacy_forest_proba, legacy_forest
    )
    return ab_compare(
        "kernel_shap_batch_forest",
        lambda: kernel_batch(forest),
        lambda: kernel_batch(legacy_forest),
        repeats=1,  # the explain loop is slow and internally stable
        equal=lambda a, b: (
            np.array_equal(a.values, b.values)
            and np.array_equal(a.base_values, b.base_values)
        ),
        rows=KERNEL_ROWS,
        n_samples=KERNEL_SAMPLES,
    )


def _stream_forest():
    return RandomForestClassifier(n_estimators=60, max_depth=10, random_state=0)


def _forest_bytes(forests) -> list[bytes]:
    """Every tree's seven node arrays, importances and ``classes_``."""
    return [
        b"".join(getattr(tree.tree_, f).tobytes() for f in TREE_FIELDS)
        + tree.feature_importances_.tobytes()
        + tree.classes_.tobytes()
        for forest in forests
        for tree in forest.estimators_
    ]


def forest_fit() -> dict:
    """BENCH row: the shipped forest fit vs the per-tree oracle loop,
    one fit per stream window size."""
    _, X_train, _, y_train, _ = sla_split()
    windows = [(X_train[:rows], y_train[:rows]) for rows in FIT_ROWS]
    params = _stream_forest().get_params()
    return ab_compare(
        "forest_fit",
        lambda: [_stream_forest().fit(X, y) for X, y in windows],
        lambda: [
            forest_loop.fit_forest(params, X, y, is_classifier=True)
            for X, y in windows
        ],
        repeats=REPEATS,
        equal=lambda a, b: _forest_bytes(a) == _forest_bytes(b),
        rows=list(FIT_ROWS),
        n_trees=params["n_estimators"],
    )


PANEL = (
    packed_build,
    forest_predict_proba,
    boosting_margin,
    kernel_shap_batch_forest,
    forest_fit,
)


def test_e15_packed_build():
    row = packed_build()
    _table.append(f"{'packed_build':<36} {'':>9} {row['packed_seconds']:>8.3f}s")


def test_e15_forest_predict_proba(benchmark):
    """The tentpole number: fused forest inference at the row budget."""
    row = benchmark.pedantic(forest_predict_proba, rounds=1, iterations=1)
    _table.append(ab_line(row))
    assert_speedup(benchmark, row, 2.0)


def test_e15_boosting_margin(benchmark):
    row = benchmark.pedantic(boosting_margin, rounds=1, iterations=1)
    _table.append(ab_line(row))
    assert_speedup(benchmark, row, 2.0)


def test_e15_kernel_shap_end_to_end(benchmark):
    """The reason the engine exists: KernelSHAP-on-forest batch
    explanation is model-bound, so fused inference must shift the
    end-to-end wall clock, not just the micro-benchmark."""
    row = benchmark.pedantic(kernel_shap_batch_forest, rounds=1, iterations=1)
    _table.append(ab_line(row))
    assert_speedup(benchmark, row, 1.2)


def test_e15_forest_fit(benchmark):
    row = benchmark.pedantic(forest_fit, rounds=1, iterations=1)
    _table.append(ab_line(row))
    assert_speedup(benchmark, row, 2.0)


def test_e15_emit_table():
    if not _table:
        pytest.skip("no comparisons collected")
    lines = [
        f"{'operation':<36} {'legacy':>9} {'packed':>9} {'speedup':>7}",
        "-" * 66,
        *_table,
        "",
        "equality: packed == legacy exactly (np.array_equal) in all rows;",
        "forest_fit: every tree's node arrays, importances and classes_",
    ]
    save_result("E15 (PR 5): packed ensemble inference", "\n".join(lines))
