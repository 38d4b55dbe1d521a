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
  margin, plus a measurable end-to-end drop on KernelSHAP-over-forest
  batch explanation; all gated on ``timing_enabled`` because a
  disabled-timing smoke container measures nothing meaningful.
"""

import types

import numpy as np
import pytest

from benchmarks._util import timed, timing_enabled
from benchmarks.conftest import save_result
from repro.core.cache import clear_cache
from repro.core.explainers import KernelShapExplainer, model_output_fn
from repro.ml import GradientBoostingClassifier
from repro.utils.validation import check_array

#: the explainers' stacked-model-call row budget (base._ROW_BUDGET)
FLEET_ROWS = 8192

_table: list[str] = []


def _fleet(sla_data, n_rows=FLEET_ROWS):
    _, X_train, _, _, _ = sla_data
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


def _ab_compare(label, packed_fn, legacy_fn, *, repeats=3):
    """Best-of-N wall-clock for both paths plus their outputs."""
    packed_out = legacy_out = None
    t_packed = t_legacy = np.inf
    for _ in range(repeats):
        packed_out, elapsed = timed(packed_fn)
        t_packed = min(t_packed, elapsed)
        legacy_out, elapsed = timed(legacy_fn)
        t_legacy = min(t_legacy, elapsed)
    speedup = t_legacy / t_packed
    _table.append(
        f"{label:<34} {t_legacy:>8.3f}s {t_packed:>8.3f}s {speedup:>6.2f}x"
    )
    return packed_out, legacy_out, speedup


def test_e15_forest_predict_proba(benchmark, sla_data, sla_forest):
    """The tentpole number: fused forest inference at the row budget."""
    X = _fleet(sla_data)
    sla_forest.packed_ensemble()  # pack once, outside the timings
    result = benchmark(sla_forest.predict_proba, X)
    # best of 10 interleaved pairs: over 30 pairs on a 2-CPU container
    # the per-pair ratio ran 2.26-2.49x (median 2.37x), yet a best of 3
    # read as low as 1.98x in full bench runs
    packed_out, legacy_out, speedup = _ab_compare(
        f"forest predict_proba ({FLEET_ROWS} rows)",
        lambda: sla_forest.predict_proba(X),
        lambda: legacy_forest_proba(sla_forest, X),
        repeats=10,
    )
    # equality is unconditional: packed is the same arithmetic, fused
    assert np.array_equal(packed_out, legacy_out)
    assert np.array_equal(result, legacy_out)
    if timing_enabled(benchmark):
        assert speedup >= 2.0, f"packed forest speedup {speedup:.2f}x < 2x"


def test_e15_boosting_margin(benchmark, sla_data):
    dataset, X_train, _, y_train, _ = sla_data
    model = GradientBoostingClassifier(
        n_estimators=100, max_depth=3, random_state=0
    ).fit(X_train, y_train)
    X = _fleet(sla_data)
    model.packed_ensemble()
    result = benchmark(model.decision_function, X)
    packed_out, legacy_out, speedup = _ab_compare(
        f"boosting margin ({FLEET_ROWS} rows)",
        lambda: model.decision_function(X),
        lambda: legacy_boosting_raw(model, X),
    )
    assert np.array_equal(packed_out, legacy_out)
    assert np.array_equal(result, legacy_out)
    if timing_enabled(benchmark):
        assert speedup >= 2.0, f"packed boosting speedup {speedup:.2f}x < 2x"


def test_e15_kernel_shap_end_to_end(benchmark, sla_data, sla_forest):
    """The reason the engine exists: KernelSHAP-on-forest batch
    explanation is model-bound, so fused inference must shift the
    end-to-end wall clock, not just the micro-benchmark."""
    dataset, X_train, X_test, y_train, _ = sla_data
    names = dataset.feature_names
    background = X_train[:60]
    fleet = X_test[:64]

    # a twin forest whose predict_proba is pinned to the legacy loop
    # (same seed => identical trees, so outputs must match exactly)
    legacy_forest = type(sla_forest)(
        n_estimators=sla_forest.n_estimators,
        max_depth=sla_forest.max_depth,
        random_state=sla_forest.random_state,
    ).fit(X_train, y_train)
    legacy_forest.predict_proba = types.MethodType(
        legacy_forest_proba, legacy_forest
    )

    def run(forest):
        clear_cache()
        explainer = KernelShapExplainer(
            model_output_fn(forest), background, names,
            n_samples=512, random_state=0,
        )
        return explainer.explain_batch(fleet)

    packed_batch, t_packed = timed(lambda: run(sla_forest))
    legacy_batch, t_legacy = timed(lambda: run(legacy_forest))
    speedup = t_legacy / t_packed
    _table.append(
        f"{'kernel_shap batch (64 x 512 coal.)':<34} "
        f"{t_legacy:>8.3f}s {t_packed:>8.3f}s {speedup:>6.2f}x"
    )
    assert np.array_equal(packed_batch.values, legacy_batch.values)
    assert np.array_equal(packed_batch.base_values, legacy_batch.base_values)
    benchmark(lambda: None)  # timing carried by the A/B comparison above
    if timing_enabled(benchmark):
        assert speedup >= 1.2, (
            f"KernelSHAP end-to-end speedup {speedup:.2f}x < 1.2x"
        )


def test_e15_emit_table():
    if not _table:
        pytest.skip("no comparisons collected")
    lines = [
        f"{'operation':<34} {'legacy':>9} {'packed':>9} {'speedup':>7}",
        "-" * 64,
        *_table,
        "",
        "equality: packed == legacy exactly (np.array_equal) in all rows",
    ]
    save_result("E15 (PR 5): packed ensemble inference", "\n".join(lines))
