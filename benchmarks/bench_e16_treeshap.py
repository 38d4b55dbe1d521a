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

``PANEL`` rows are what ``tools/bench_trajectory.py`` records.
"""

import numpy as np
import pytest
from oracles.tree_shap_recursion import reference_batch

from benchmarks._util import (
    ab_compare,
    ab_line,
    assert_speedup,
    timing_enabled,
)
from benchmarks.bench_e15_inference import (
    KERNEL_ROWS,
    KERNEL_SAMPLES,
    REPEATS,
    kernel_batch,
)
from benchmarks.conftest import (
    reference_boosting,
    reference_forest,
    save_result,
    sla_split,
)
from repro.core.explainers import (
    InterventionalTreeShapExplainer,
    TreeShapExplainer,
)
from repro.ml.packed_shap import packed_tree_shap

#: batch sizes of the batch-vs-per-row panel
SWEEP_ROWS = (1, 4, 16, 64, 256, 1024)

ATOL = 1e-10

_table: list[str] = []


def _shap_close(a, b):
    """Vectorized and recursive attributions are the same games with
    reassociated floats: equal to ``ATOL``, not bitwise."""
    return np.allclose(
        a.values, b.values, rtol=0, atol=ATOL
    ) and np.allclose(a.predictions, b.predictions, rtol=0, atol=ATOL)


def _tree_explainer():
    """Path-dependent TreeSHAP on the reference forest, its path table
    built once, outside the timings."""
    forest = reference_forest()
    forest.packed_ensemble().path_table()
    return TreeShapExplainer(
        forest, sla_split()[0].feature_names, class_index=1
    )


def _vs_recursion(name, explainer, fleet, **fields) -> dict:
    """A/B of ``explainer``'s vectorized batch against its per-tree
    recursion, which must agree to ``ATOL``."""
    return ab_compare(
        name,
        lambda: explainer.explain_batch(fleet),
        lambda: reference_batch(explainer, fleet),
        repeats=REPEATS,
        legacy_repeats=1,  # the recursion loop is slow and stable
        equal=_shap_close,
        **fields,
    )


def tree_shap_batch_forest() -> dict:
    """BENCH row: vectorized path-dependent TreeSHAP vs the per-row
    recursion on the reference forest, at the BENCH_5 fleet size."""
    return _vs_recursion(
        "tree_shap_batch_forest", _tree_explainer(),
        sla_split()[2][:KERNEL_ROWS], rows=KERNEL_ROWS,
    )


def interventional_tree_shap() -> dict:
    """BENCH row: vectorized interventional TreeSHAP vs the
    per-(row, reference) recursion, 8 rows against 20 references."""
    dataset, X_train, X_test, _, _ = sla_split()
    explainer = InterventionalTreeShapExplainer(
        reference_forest(), X_train[:20], dataset.feature_names,
        class_index=1,
    )
    return _vs_recursion(
        "interventional_tree_shap", explainer, X_test[:8],
        rows=8, n_background=20,
    )


def tree_shap_vs_kernel_shap() -> dict:
    """BENCH row: exact TreeSHAP against sampled KernelSHAP on the
    packed forest, both on the 16-row, 256-coalition BENCH_5 batch.
    The arms are different algorithms, so their wall clocks are
    compared, not their outputs."""
    explainer = _tree_explainer()
    fleet = sla_split()[2][:KERNEL_ROWS]
    return ab_compare(
        "tree_shap_vs_kernel_shap",
        lambda: explainer.explain_batch(fleet),
        lambda: kernel_batch(reference_forest()),
        repeats=5,
        legacy_repeats=1,
        equal=None,
        rows=KERNEL_ROWS,
        n_samples=KERNEL_SAMPLES,
    )


PANEL = (
    tree_shap_batch_forest,
    interventional_tree_shap,
    tree_shap_vs_kernel_shap,
)


def test_e16_path_dependent_vs_legacy(benchmark, sla_data, sla_forest):
    """Vectorized path-dependent TreeSHAP vs the per-row recursion on
    the reference forest, at the BENCH_5 fleet size."""
    row = benchmark.pedantic(tree_shap_batch_forest, rounds=1, iterations=1)
    _table.append(ab_line(row))
    # the attribution is exactly efficient against the live model
    fleet = sla_data[2][:KERNEL_ROWS]
    np.testing.assert_allclose(
        _tree_explainer().explain_batch(fleet).predictions,
        sla_forest.predict_proba(fleet)[:, 1],
        atol=1e-8,
    )
    assert_speedup(benchmark, row, 5.0)


def test_e16_vs_kernel_shap_baseline(benchmark):
    """The acceptance gate: exact vectorized TreeSHAP >= 10x faster
    than the KernelSHAP-on-forest path BENCH_5 recorded, at the same
    16-row, 256-sample configuration — while being exact instead of
    sampled."""
    row = benchmark.pedantic(tree_shap_vs_kernel_shap, rounds=1, iterations=1)
    _table.append(ab_line(row))
    assert_speedup(benchmark, row, 10.0)


def test_e16_interventional_vs_legacy(benchmark):
    """Vectorized interventional TreeSHAP vs the per-(row, reference)
    recursion — the explainer ROADMAP called the biggest raw-speed
    lever left."""
    row = benchmark.pedantic(interventional_tree_shap, rounds=1, iterations=1)
    _table.append(ab_line(row))
    assert_speedup(benchmark, row, 3.0)


def test_e16_boosting_margin_attribution(benchmark, sla_data):
    """Boosting margin TreeSHAP: the scaled-sum aggregation path."""
    model = reference_boosting()
    explainer = TreeShapExplainer(model, sla_data[0].feature_names)
    fleet = sla_data[2][:KERNEL_ROWS]
    model.packed_ensemble().path_table()
    result = benchmark(explainer.explain_batch, fleet)
    row = _vs_recursion(
        f"boosting tree_shap ({KERNEL_ROWS} rows)", explainer, fleet
    )
    _table.append(ab_line(row))
    np.testing.assert_allclose(
        result.predictions, model.decision_function(fleet), atol=1e-8
    )
    assert_speedup(benchmark, row, 3.0)


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
        panel = ab_compare(  # asserts batch == stacked one-row results
            f"batch vs per-row calls ({size} rows)",
            lambda: packed_tree_shap(packed, rows, column=1),
            lambda: np.vstack([
                packed_tree_shap(packed, row[None], column=1)
                for row in rows
            ]),
            repeats=repeats,
        )
        _table.append(ab_line(panel))
        if size >= 4:
            assert_speedup(benchmark, panel, 1.0)


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
