"""E2 (Table 2) — per-explanation latency vs exactness of each method.

Regenerates the paper's overhead comparison on a d=31-feature telemetry
instance and the reference random forest.  Latency alone does not tell
the story in pure Python — the sampling explainers ride vectorized
numpy model evaluations while TreeSHAP's traversal is interpreter-bound
— so the table reports latency *and* exactness: TreeSHAP is exact in
one pass, while a kernel estimate of comparable quality at d=31 would
need ~2^31 coalitions (infeasible) and even 512 samples already costs
more wall-clock than the exact tree traversal.  (With the authors'
C-optimized `shap` library, TreeSHAP is additionally 100-1000x faster
in absolute terms; see EXPERIMENTS.md for the substitution caveat.)

pytest-benchmark produces the authoritative timing table; the emitted
text table snapshots median latencies for EXPERIMENTS.md.
"""


import pytest

from benchmarks._util import median_seconds, timing_enabled
from benchmarks.conftest import save_result
from repro.core.explainers import (
    KernelShapExplainer,
    LimeExplainer,
    TreeShapExplainer,
)
from repro.utils.clock import timed

_timings: dict[str, float] = {}


def _build(name, sla_data, sla_forest, forest_fn):
    dataset, X_train, _, _, _ = sla_data
    names = dataset.feature_names
    background = X_train[:60]
    if name == "tree_shap":
        return TreeShapExplainer(sla_forest, names, class_index=1)
    if name == "kernel_shap_512":
        return KernelShapExplainer(
            forest_fn, background, names, n_samples=512, random_state=0
        )
    if name == "kernel_shap_128":
        return KernelShapExplainer(
            forest_fn, background, names, n_samples=128, random_state=0
        )
    if name == "lime_600":
        return LimeExplainer(
            forest_fn, X_train, names, n_samples=600, random_state=0
        )
    raise ValueError(name)


@pytest.mark.parametrize(
    "name", ["tree_shap", "kernel_shap_128", "kernel_shap_512", "lime_600"]
)
def test_e2_explain_latency(benchmark, name, sla_data, sla_forest, forest_fn):
    _, _, X_test, _, _ = sla_data
    explainer = _build(name, sla_data, sla_forest, forest_fn)
    x = X_test[0]
    result = benchmark(explainer.explain, x)
    assert result.n_features == X_test.shape[1]
    if timing_enabled(benchmark):  # stats are None under --benchmark-disable
        _timings[name] = median_seconds(benchmark)


_EXACTNESS = {
    "tree_shap": "exact (one traversal)",
    "kernel_shap_512": "sampled, 512 of 2^31 coalitions",
    "kernel_shap_128": "sampled, 128 of 2^31 coalitions",
    "lime_600": "local surrogate (no Shapley guarantee)",
}


def test_e2_batch_vs_loop(sla_data, forest_fn):
    """Batch-vs-loop throughput of ``explain_batch``.

    Explains the same 64-sample fleet once as a per-sample loop and once
    through the batched engine, per (explainer, model) configuration.
    The KernelSHAP and sampling loop arms are the per-row formulations
    in ``tests/oracles/shapley_per_row.py`` (one coalition block or one
    permutation walk per model call, one solve per row); LIME has no
    second formulation, so its loop arm is ``explain`` on each row (the
    one-row batch).  Two regimes emerge, both reported:

    * *setup-bound* (cheap model, default 2048-coalition budget,
      median-reference background): the loop re-pays Python coalition
      assembly, the per-sample solve, and model-call dispatch for every
      row, so batching wins big — the acceptance target is >= 3x on
      KernelSHAP here;
    * *masked-eval* (the reference forest, 60 background rows, 512
      coalitions, 16 rows): the loop scores every materialised hybrid
      through the packed forest, while the batch takes its coalition
      values from ``PackedEnsemble.coalition_values``, a branch-bit walk
      per tree and distinct mask pattern.  On this deep forest almost
      every coalition is its own pattern in every tree, so the walk
      costs nearly what scoring costs: a 2-CPU container measured
      4.99 s loop, 4.02 s batch (1.2x).  On the shallower matrix-sweep
      forests, where a tree sees 1-9% of the coalitions as distinct
      patterns (40% on fault-storm), the same walk is 9-10x faster
      than scoring the hybrids.
    """
    import numpy as np
    from oracles.shapley_per_row import kernel_shap_row, sampling_shapley_row

    from repro.core.cache import clear_cache
    from repro.core.explainers import (
        SamplingShapleyExplainer,
        model_output_fn,
    )
    from repro.ml import LogisticRegression, MLPClassifier
    from repro.utils.rng import check_random_state

    def kernel_loop(explainer, rows):
        return [kernel_shap_row(explainer, row)[0] for row in rows]

    def sampling_loop(explainer, rows):
        return [
            sampling_shapley_row(
                explainer, row, check_random_state(explainer.random_state)
            )[0]
            for row in rows
        ]

    def explain_loop(explainer, rows):
        return [explainer.explain(row).values for row in rows]

    dataset, X_train, X_test, y_train, _ = sla_data
    names = dataset.feature_names
    fleet = X_test[:64]
    median_bg = np.median(X_train, axis=0)[None, :]

    logit_fn = model_output_fn(
        LogisticRegression(max_iter=300).fit(X_train, y_train)
    )
    mlp_fn = model_output_fn(
        MLPClassifier(
            hidden_layer_sizes=(64, 32), max_epochs=30, random_state=0
        ).fit(X_train, y_train)
    )

    configs = [
        # label, build-explainer, per-row loop arm, rows, regime note
        (
            "kernel/logistic/median",
            lambda fn=logit_fn: KernelShapExplainer(
                fn, median_bg, names, n_samples=2048, random_state=0
            ),
            kernel_loop,
            fleet,
            "setup-bound",
        ),
        (
            "kernel/mlp/median",
            lambda fn=mlp_fn: KernelShapExplainer(
                fn, median_bg, names, n_samples=2048, random_state=0
            ),
            kernel_loop,
            fleet,
            "setup-bound",
        ),
        (
            "kernel/forest/wide",
            lambda fn=forest_fn: KernelShapExplainer(
                fn, X_train[:60], names, n_samples=512, random_state=0
            ),
            kernel_loop,
            fleet[:16],
            "masked-eval",
        ),
        (
            "lime/logistic",
            lambda fn=logit_fn: LimeExplainer(
                fn, X_train, names, n_samples=600, random_state=0
            ),
            explain_loop,
            fleet,
            "per-row solve",
        ),
        (
            "sampling/logistic/median",
            lambda fn=logit_fn: SamplingShapleyExplainer(
                fn, median_bg, names, n_permutations=8, random_state=0
            ),
            sampling_loop,
            fleet,
            "setup-bound",
        ),
    ]

    lines = [
        f"{'config':<26} {'n':>4} {'loop':>8} {'batch':>8} "
        f"{'speedup':>8}  {'max|diff|':>9}  regime",
        "-" * 78,
    ]
    speedups = {}
    for label, build, loop_arm, rows, regime in configs:
        clear_cache()
        explainer = build()
        batch, t_batch = timed(explainer.explain_batch, rows)
        clear_cache()
        explainer = build()
        loop, t_loop = timed(loop_arm, explainer, rows)
        diff = float(np.abs(batch.values - np.vstack(loop)).max())
        assert diff < 1e-8, f"{label}: batch != loop ({diff:.2e})"
        speedups[label] = t_loop / t_batch
        lines.append(
            f"{label:<26} {len(rows):>4} {t_loop:>7.2f}s {t_batch:>7.2f}s "
            f"{speedups[label]:>7.1f}x  {diff:>9.1e}  {regime}"
        )
    save_result("E2b batch-vs-loop throughput", "\n".join(lines))

    # acceptance target: the batched engine is >= 3x faster than the
    # per-sample loop on KernelSHAP for a 64-sample fleet in the
    # setup-bound regime (the XAI-in-the-control-loop hot path)
    assert speedups["kernel/logistic/median"] >= 3.0


def test_e2_emit_table(benchmark):
    if not _timings:
        pytest.skip("no timings collected (--benchmark-disable smoke run)")
    lines = [
        f"{'method':<18} {'median latency':>15}  exactness",
        "-" * 70,
    ]
    for name, seconds in sorted(_timings.items(), key=lambda kv: kv[1]):
        lines.append(
            f"{name:<18} {seconds * 1000:>12.2f} ms  {_EXACTNESS[name]}"
        )
    benchmark(lambda: "\n".join(lines))
    save_result("E2 (Table 2): per-explanation overhead", "\n".join(lines))

    # shape claim: exact TreeSHAP costs less than the 512-coalition
    # kernel estimate, which is itself still far from exact at d=31
    assert _timings["tree_shap"] < _timings["kernel_shap_512"]
