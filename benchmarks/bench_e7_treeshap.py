"""E16 — vectorized TreeSHAP on the packed ensemble.

PR 6's tentpole: forest attribution was the slowest cell left in the
hot path after PR 5 — BENCH_5 measured KernelSHAP-on-forest at ~1.5 s
per 16-row batch, and both TreeSHAP explainers still walked Python
recursions per (row, tree) (path-dependent) or per (row, reference,
tree) (interventional).  The vectorized kernels in
:mod:`repro.ml.packed_shap` run the same games as array sweeps over
the packed node block; this bench asserts the two halves of the
contract per the ``benchmarks/_util.py`` convention:

* **equality always** — vectorized attributions match the per-tree
  recursions of ``tests/oracles/tree_shap_recursion.py`` to <= 1e-10
  (same games, reassociated floats), asserted in every mode including
  ``--benchmark-disable`` CI smoke;
* **speedup when timed** — >= 10x over the BENCH_5 KernelSHAP-on-
  forest configuration (16 rows, 256 coalition samples, same forest)
  and clear wins over both recursions, gated on ``timing_enabled``.

The batch-vs-per-row panel holds the kernel to the same contract
against itself: one call on a batch returns exactly the stacked
one-row results, and is no slower than one call per row from 4 rows
up.
"""

import numpy as np
import pytest
from oracles.tree_shap_recursion import reference_batch

from benchmarks._util import timed, timing_enabled
from benchmarks.conftest import save_result
from repro.core.cache import clear_cache
from repro.core.explainers import (
    InterventionalTreeShapExplainer,
    KernelShapExplainer,
    TreeShapExplainer,
    model_output_fn,
)
from repro.ml import GradientBoostingClassifier
from repro.ml.packed_shap import packed_tree_shap

#: the BENCH_5 KernelSHAP-on-forest configuration this PR must beat
KERNEL_ROWS = 16
KERNEL_SAMPLES = 256

#: batch sizes of the batch-vs-per-row panel
SWEEP_ROWS = (1, 4, 16, 64, 256, 1024)

ATOL = 1e-10

_table: list[str] = []


def _ab_compare(label, vectorized_fn, legacy_fn, *, repeats=3, legacy_repeats=1):
    """Best-of-N wall-clock for both paths plus their outputs."""
    vec_out = legacy_out = None
    t_vec = t_legacy = np.inf
    for _ in range(repeats):
        vec_out, elapsed = timed(vectorized_fn)
        t_vec = min(t_vec, elapsed)
    for _ in range(legacy_repeats):
        legacy_out, elapsed = timed(legacy_fn)
        t_legacy = min(t_legacy, elapsed)
    speedup = t_legacy / t_vec
    _table.append(
        f"{label:<36} {t_legacy:>8.3f}s {t_vec:>8.3f}s {speedup:>6.1f}x"
    )
    return vec_out, legacy_out, speedup


def test_e16_path_dependent_vs_legacy(benchmark, sla_data, sla_forest):
    """Vectorized path-dependent TreeSHAP vs the per-row recursion on
    the reference forest, at the BENCH_5 fleet size."""
    dataset, _, X_test, _, _ = sla_data
    explainer = TreeShapExplainer(
        sla_forest, dataset.feature_names, class_index=1
    )
    fleet = X_test[:KERNEL_ROWS]
    sla_forest.packed_ensemble().path_table()  # build once, untimed
    result = benchmark(explainer.explain_batch, fleet)
    vec, legacy, speedup = _ab_compare(
        f"tree_shap batch ({KERNEL_ROWS} rows, 60 trees)",
        lambda: explainer.explain_batch(fleet),
        lambda: reference_batch(explainer, fleet),
    )
    # equality is unconditional: the same games, vectorized
    np.testing.assert_allclose(vec.values, legacy.values, atol=ATOL)
    np.testing.assert_allclose(vec.predictions, legacy.predictions, atol=ATOL)
    np.testing.assert_allclose(result.values, legacy.values, atol=ATOL)
    # and the attribution is exactly efficient against the live model
    np.testing.assert_allclose(
        result.predictions,
        sla_forest.predict_proba(fleet)[:, 1],
        atol=1e-8,
    )
    if timing_enabled(benchmark):
        assert speedup >= 5.0, (
            f"vectorized tree_shap speedup {speedup:.2f}x < 5x over legacy"
        )


def test_e16_vs_kernel_shap_baseline(benchmark, sla_data, sla_forest):
    """The acceptance gate: exact vectorized TreeSHAP >= 10x faster
    than the KernelSHAP-on-forest path BENCH_5 recorded, at the same
    16-row, 256-sample configuration — while being exact instead of
    sampled."""
    dataset, X_train, X_test, _, _ = sla_data
    names = dataset.feature_names
    fleet = X_test[:KERNEL_ROWS]
    explainer = TreeShapExplainer(sla_forest, names, class_index=1)
    sla_forest.packed_ensemble().path_table()

    def kernel_batch():
        clear_cache()
        kernel = KernelShapExplainer(
            model_output_fn(sla_forest), X_train[:60], names,
            n_samples=KERNEL_SAMPLES, random_state=0,
        )
        return kernel.explain_batch(fleet)

    tree_batch, _, speedup = _ab_compare(
        "tree_shap vs kernel_shap (16 rows)",
        lambda: explainer.explain_batch(fleet),
        kernel_batch,
        repeats=5,
    )
    assert tree_batch.values.shape == (KERNEL_ROWS, len(names))
    benchmark(lambda: None)  # timing carried by the A/B comparison
    if timing_enabled(benchmark):
        assert speedup >= 10.0, (
            f"exact tree_shap only {speedup:.2f}x faster than sampled "
            f"kernel_shap (gate: 10x)"
        )


def test_e16_interventional_vs_legacy(benchmark, sla_data, sla_forest):
    """Vectorized interventional TreeSHAP vs the per-(row, reference)
    recursion — the explainer ROADMAP called the biggest raw-speed
    lever left."""
    dataset, X_train, X_test, _, _ = sla_data
    explainer = InterventionalTreeShapExplainer(
        sla_forest, X_train[:20], dataset.feature_names, class_index=1
    )
    fleet = X_test[:8]
    result = benchmark(explainer.explain_batch, fleet)
    vec, legacy, speedup = _ab_compare(
        "interventional batch (8 x 20 refs)",
        lambda: explainer.explain_batch(fleet),
        lambda: reference_batch(explainer, fleet),
    )
    np.testing.assert_allclose(vec.values, legacy.values, atol=ATOL)
    np.testing.assert_allclose(result.values, legacy.values, atol=ATOL)
    if timing_enabled(benchmark):
        assert speedup >= 3.0, (
            f"vectorized interventional speedup {speedup:.2f}x < 3x"
        )


def test_e16_boosting_margin_attribution(benchmark, sla_data):
    """Boosting margin TreeSHAP: the scaled-sum aggregation path."""
    dataset, X_train, X_test, y_train, _ = sla_data
    model = GradientBoostingClassifier(
        n_estimators=100, max_depth=3, random_state=0
    ).fit(X_train, y_train)
    explainer = TreeShapExplainer(model, dataset.feature_names)
    fleet = X_test[:KERNEL_ROWS]
    model.packed_ensemble().path_table()
    result = benchmark(explainer.explain_batch, fleet)
    vec, legacy, speedup = _ab_compare(
        f"boosting tree_shap ({KERNEL_ROWS} rows)",
        lambda: explainer.explain_batch(fleet),
        lambda: reference_batch(explainer, fleet),
    )
    np.testing.assert_allclose(vec.values, legacy.values, atol=ATOL)
    np.testing.assert_allclose(result.values, legacy.values, atol=ATOL)
    np.testing.assert_allclose(
        result.predictions, model.decision_function(fleet), atol=1e-8
    )
    if timing_enabled(benchmark):
        assert speedup >= 3.0, (
            f"vectorized boosting speedup {speedup:.2f}x < 3x"
        )


def test_e16_batch_vs_per_row_sweep(benchmark, sla_data, sla_forest):
    """One packed TreeSHAP call on a batch against one call per row,
    at 1 to 1024 rows on the 60-tree, depth-10 reference forest.

    Each batch is a window of consecutive telemetry epochs, which is
    what the stream engine and fleet triage explain; the kernel's
    saving comes from such rows following the same path features.  The
    batch must equal the stacked one-row results exactly (every row's
    terms reach the final ``bincount`` in the same order), and from 4
    rows up it must be no slower than the per-row calls."""
    dataset = sla_data[0]
    window = dataset.X.values[: max(SWEEP_ROWS)]
    packed = sla_forest.packed_ensemble()
    packed.path_table()
    benchmark(packed_tree_shap, packed, window[:KERNEL_ROWS], column=1)
    repeats = 3 if timing_enabled(benchmark) else 1
    for size in SWEEP_ROWS:
        rows = window[:size]
        batch, per_row, speedup = _ab_compare(
            f"batch vs per-row calls ({size} rows)",
            lambda: packed_tree_shap(packed, rows, column=1),
            lambda: np.vstack([
                packed_tree_shap(packed, row[None], column=1)
                for row in rows
            ]),
            repeats=repeats,
            legacy_repeats=repeats,
        )
        assert np.array_equal(batch, per_row)
        if timing_enabled(benchmark) and size >= 4:
            assert speedup >= 1.0, (
                f"{size}-row batch is {1 / speedup:.2f}x slower than "
                f"{size} one-row calls"
            )


def test_e16_emit_table():
    if not _table:
        pytest.skip("no comparisons collected")
    lines = [
        f"{'operation':<36} {'legacy':>9} {'vector':>9} {'speedup':>7}",
        "-" * 66,
        *_table,
        "",
        "equality: vectorized == legacy recursion to <= 1e-10 in all rows",
        "(the kernel_shap row compares exact TreeSHAP against sampled",
        " KernelSHAP wall-clock at the BENCH_5 config, not outputs;",
        " the batch rows compare one call against one call per row,",
        " whose results are asserted byte-identical)",
    ]
    save_result("E16 (PR 6): vectorized TreeSHAP", "\n".join(lines))
