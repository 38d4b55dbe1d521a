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

The path table keeps every (leaf, follow-pattern) pair it has swept
(the pair store), so a repeat on the same model would read its pairs
back instead of sweeping them.  Every timed repeat of a path-dependent
row therefore starts from an empty store; the one row that times the
store itself, ``tree_shap_stream_windows``, runs a sequence of stream
windows on a store kept warm across the windows against the same
windows each explained cold, and asserts the same bytes.

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

#: the stream-window row: consecutive telemetry epochs cut into windows
STREAM_WINDOW_ROWS = 16
STREAM_WINDOWS = 24

#: speedup gate of the stream-window row (warm store over cold)
GATE_STREAM_WINDOWS = 1.2

ATOL = 1e-10

_table: list[str] = []


def _shap_close(a, b):
    """Vectorized and recursive attributions are the same games with
    reassociated floats: equal to ``ATOL``, not bitwise."""
    return np.allclose(
        a.values, b.values, rtol=0, atol=ATOL
    ) and np.allclose(a.predictions, b.predictions, rtol=0, atol=ATOL)


def _cold(fn, model):
    """``fn`` preceded by emptying ``model``'s TreeSHAP pair store, so
    every timed repeat sweeps every pair it explains."""
    table = model.packed_ensemble().path_table()

    def run():
        table.clear_pair_store()
        return fn()

    return run


def _same_bytes(a, b) -> bool:
    return a.tobytes() == b.tobytes()


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
    recursion, which must agree to ``ATOL``; each timed repeat starts
    from an empty pair store."""
    return ab_compare(
        name,
        _cold(lambda: explainer.explain_batch(fleet), explainer.model),
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
        _cold(lambda: explainer.explain_batch(fleet), explainer.model),
        lambda: kernel_batch(reference_forest()),
        repeats=5,
        legacy_repeats=1,
        equal=None,
        rows=KERNEL_ROWS,
        n_samples=KERNEL_SAMPLES,
    )


def tree_shap_stream_windows() -> dict:
    """BENCH row: consecutive 16-row windows of telemetry epochs (what
    the stream engine explains), explained in turn on one pair store
    kept warm across the windows, against each window on an empty
    store — every pair swept, as before the store.  The arms must
    return the same bytes."""
    forest = reference_forest()
    packed = forest.packed_ensemble()
    table = packed.path_table()
    rows = STREAM_WINDOW_ROWS * STREAM_WINDOWS
    windows = np.split(sla_split()[0].X.values[:rows], STREAM_WINDOWS)

    def explain(window):
        return packed_tree_shap(packed, window, column=1)

    def cold_windows():
        out = []
        for window in windows:
            table.clear_pair_store()
            out.append(explain(window))
        return np.vstack(out)

    return ab_compare(
        "tree_shap_stream_windows",
        _cold(lambda: np.vstack([explain(w) for w in windows]), forest),
        cold_windows,
        repeats=REPEATS,
        equal=_same_bytes,
        rows=rows,
        windows=STREAM_WINDOWS,
    )


PANEL = (
    tree_shap_batch_forest,
    interventional_tree_shap,
    tree_shap_vs_kernel_shap,
    tree_shap_stream_windows,
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
    result = benchmark(_cold(lambda: explainer.explain_batch(fleet), model))
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
    rows up it must be no slower than the per-row calls.  Every call
    starts from an empty pair store, so each arm sweeps what one cold
    call sweeps."""
    dataset = sla_data[0]
    window = dataset.X.values[: max(SWEEP_ROWS)]
    packed = sla_forest.packed_ensemble()
    table = packed.path_table()

    def cold_call(rows):
        table.clear_pair_store()
        return packed_tree_shap(packed, rows, column=1)

    benchmark(cold_call, window[:KERNEL_ROWS])
    repeats = 3 if timing_enabled(benchmark) else 1
    for size in SWEEP_ROWS:
        rows = window[:size]
        panel = ab_compare(  # asserts batch == stacked one-row results
            f"batch vs per-row calls ({size} rows)",
            lambda: cold_call(rows),
            lambda: np.vstack([cold_call(row[None]) for row in rows]),
            repeats=repeats,
        )
        _table.append(ab_line(panel))
        if size >= 4:
            assert_speedup(benchmark, panel, 1.0)


def test_e16_stream_windows_warm_vs_cold(benchmark):
    """A stream's windows on a warm pair store against the same windows
    each on an empty store: the same bytes, and faster once pairs
    repeat across windows."""
    row = benchmark.pedantic(tree_shap_stream_windows, rounds=1, iterations=1)
    _table.append(ab_line(row))
    assert_speedup(benchmark, row, GATE_STREAM_WINDOWS)


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
        " and the stream-window row a warm pair store against a cold",
        " one; both are asserted byte-identical)",
    ]
    save_result("E16 (PR 6): vectorized TreeSHAP", "\n".join(lines))
