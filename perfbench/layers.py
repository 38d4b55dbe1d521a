"""Which program calls the traced run wraps, and the per-layer metrics.

Every :class:`~perfbench.tracing.Wrap` names the attribute the caller
actually looks up: ``repro.core.pipeline`` imports ``make_explainer``
and ``train_test_split`` by name, and ``repro.core.matrix`` imports
the evaluation functions and ``make_scenario_dataset`` by name, so
those are wrapped in the importing module.
"""

from __future__ import annotations

import pickle

from .tracing import Wrap, calls, self_times, total_time

__all__ = ["EXECUTOR_PLAN", "PER_LAYER", "PLAN", "layer_metrics"]


def _rows(counter):
    """A note adding ``len(X)`` of a ``(self_or_packed, X, ...)`` call."""
    def note(recorder, args, kwargs, result):
        recorder.count(counter, len(args[1]))
    return note


def _kernel_rows(recorder, args, kwargs, result):
    """Rows of a KernelSHAP batch not already counted by the chunked
    batch around it."""
    if not recorder.is_open("explainers.explain_batch"):
        recorder.count("explainers.rows", len(args[1]))


def _windows(recorder, args, kwargs, result):
    recorder.count("stream.windows", len(result))
    recorder.count("stream.refit_windows", sum(w.refit for w in result))
    recorder.count("stream.explained_rows", sum(w.n_explained for w in result))


def _tasks(recorder, args, kwargs, result):
    _, fn, *lists = args
    tasks = list(zip(*lists))
    recorder.count("executor.map_calls")
    recorder.count("executor.tasks", len(tasks))
    fn_bytes = recorder.pickled_size(fn)
    recorder.count("executor.task_bytes", sum(
        fn_bytes + len(pickle.dumps(task, protocol=pickle.HIGHEST_PROTOCOL))
        for task in tasks
    ))


_ENGINE = "repro.core.stream.engine:StreamingDiagnosisEngine"
_PIPELINE = "repro.core.pipeline"
_EXECUTOR = "repro.core.executor"

EXECUTOR_PLAN = tuple(
    Wrap(f"{_EXECUTOR}:{cls}.imap", "executor.map", _tasks, iterator=True)
    for cls in ("SerialExecutor", "ThreadExecutor", "ProcessExecutor")
)

PLAN = (
    # repro.core.stream
    Wrap(f"{_ENGINE}.ingest", "stream.ingest"),
    Wrap(f"{_ENGINE}.process_pending", "stream.window", _windows),
    Wrap(f"{_ENGINE}.flush", "stream.window", _windows),
    Wrap("repro.core.stream.drift:PageHinkley.update", "drift.update"),
    # repro.core.pipeline: the refit and the diagnosis
    Wrap(f"{_PIPELINE}:NFVExplainabilityPipeline.fit", "pipeline.fit"),
    Wrap(f"{_PIPELINE}:NFVExplainabilityPipeline.with_explainer",
         "pipeline.fit"),
    Wrap(f"{_PIPELINE}:train_test_split", "pipeline.split"),
    Wrap(f"{_PIPELINE}:make_explainer", "explainers.build"),
    Wrap(f"{_PIPELINE}:NFVExplainabilityPipeline.diagnose_batch",
         "pipeline.diagnose_batch"),
    Wrap(f"{_PIPELINE}:vnf_attribution_scores", "rootcause.resolve"),
    Wrap(f"{_PIPELINE}:rank_vnfs", "rootcause.resolve"),
    # repro.ml: the estimators the workloads fit, and the packed kernels
    Wrap("repro.ml.linear:LogisticRegression.fit", "ml.fit"),
    Wrap("repro.ml.forest:RandomForestClassifier.fit", "ml.fit"),
    Wrap("repro.ml.base:ClassifierMixin.score", "ml.score"),
    Wrap("repro.ml.packed:PackedEnsemble.from_model", "ml.pack"),
    Wrap("repro.ml.packed:PackedEnsemble.path_table", "ml.path_table"),
    Wrap("repro.ml.packed:PackedEnsemble.predict", "ml.predict",
         _rows("ml.predict_rows")),
    Wrap("repro.core.explainers.shap_tree:packed_tree_shap", "ml.treeshap",
         _rows("ml.treeshap_rows")),
    # repro.core.explainers
    Wrap("repro.core.explainers.base:Explainer.explain_batch_chunked",
         "explainers.explain_batch", _rows("explainers.rows")),
    # its own span name, so KernelSHAP's share is separable; it still
    # counts in explainers.explain_batch_s
    Wrap("repro.core.explainers.shap_kernel:KernelShapExplainer.explain_batch",
         "explainers.kernel_shap", _kernel_rows),
    Wrap("repro.core.explainers.shap_tree:TreeShapExplainer.explain_batch",
         "explainers.explain_batch", _rows("explainers.rows")),
    # repro.core.executor
    *EXECUTOR_PLAN,
    # repro.serve
    Wrap("repro.serve.session:TenantSession.submit", "serve.submit"),
    Wrap("repro.serve.session:TenantSession.drain", "serve.drain"),
    Wrap("repro.serve.session:TenantSession.flush", "serve.drain"),
    Wrap("repro.serve.service:DiagnosisService.snapshot",
         "serve.snapshot_build"),
    Wrap("repro.serve:save_snapshot", "serve.snapshot_write"),
    Wrap("repro.serve:load_snapshot", "serve.snapshot_load"),
    Wrap("repro.serve.service:DiagnosisService.restore",
         "serve.restore_build"),
    # repro.core.matrix, repro.core.evaluation, repro.datasets;
    # matrix.run only attributes the benchmark's call (no metric of its own)
    Wrap("repro.core.matrix:run_scenario_matrix", "matrix.run"),
    Wrap("repro.core.matrix:make_scenario_dataset", "nfv.dataset"),
    Wrap("repro.core.matrix:faithfulness_report", "evaluation.faithfulness"),
    Wrap("repro.core.matrix:comprehensiveness", "evaluation.faithfulness"),
    Wrap("repro.core.matrix:agreement_matrix", "evaluation.agreement"),
)

#: ``(name, unit, better)`` of every per-layer metric, in report order.
PER_LAYER = (
    ("stream.ingest_calls", "count", "lower"),
    ("stream.ingest_s", "s", "lower"),
    ("stream.window_self_s", "s", "lower"),
    ("stream.windows", "count", "higher"),
    ("stream.refit_windows", "count", "lower"),
    ("stream.explained_rows", "count", "higher"),
    ("drift.update_s", "s", "lower"),
    ("pipeline.fit_calls", "count", "lower"),
    ("pipeline.fit_s", "s", "lower"),
    ("pipeline.split_s", "s", "lower"),
    ("ml.fit_s", "s", "lower"),
    ("ml.score_s", "s", "lower"),
    ("explainers.build_s", "s", "lower"),
    ("ml.pack_s", "s", "lower"),
    ("ml.path_table_s", "s", "lower"),
    ("ml.treeshap_calls", "count", "lower"),
    ("ml.treeshap_rows", "count", "higher"),
    ("ml.treeshap_s", "s", "lower"),
    ("ml.predict_rows", "count", "lower"),
    ("ml.predict_s", "s", "lower"),
    ("explainers.explain_batch_s", "s", "lower"),
    ("explainers.kernel_shap_s", "s", "lower"),
    ("explainers.rows", "count", "higher"),
    ("pipeline.diagnose_batch_s", "s", "lower"),
    ("pipeline.diagnose_self_s", "s", "lower"),
    ("rootcause.resolve_s", "s", "lower"),
    ("cache.hits", "count", "higher"),
    ("cache.misses", "count", "lower"),
    ("cache.hit_ratio", "share", "higher"),
    ("cache.evictions", "count", "lower"),
    ("cache.token_evictions", "count", "lower"),
    ("executor.map_calls", "count", "lower"),
    ("executor.tasks", "count", "lower"),
    ("executor.map_s", "s", "lower"),
    ("executor.task_bytes", "bytes", "lower"),
    ("serve.submit_s", "s", "lower"),
    ("serve.drain_s", "s", "lower"),
    ("serve.refused", "count", "lower"),
    ("serve.quarantined", "count", "lower"),
    ("serve.snapshot_build_s", "s", "lower"),
    ("serve.snapshot_write_s", "s", "lower"),
    ("serve.snapshot_load_s", "s", "lower"),
    ("serve.restore_build_s", "s", "lower"),
    ("nfv.dataset_s", "s", "lower"),
    ("evaluation.faithfulness_s", "s", "lower"),
    ("evaluation.agreement_s", "s", "lower"),
    ("matrix.shards", "count", "higher"),
    ("matrix.cells", "count", "higher"),
    ("trace.pass_s", "s", "lower"),
    ("trace.overhead_share", "share", "lower"),
    ("trace.unattributed_share", "share", "lower"),
)

#: time metric -> the span names it totals (nesting among them once)
_TIMES = {
    name: (name[: -len("_s")],)
    for name, unit, _ in PER_LAYER
    if unit == "s" and not name.endswith("_self_s")
}
_TIMES["explainers.explain_batch_s"] = (
    "explainers.explain_batch", "explainers.kernel_shap",
)
_TIMES["trace.pass_s"] = ("bench.pass",)
_SELF = {
    "stream.window_self_s": "stream.window",
    "pipeline.diagnose_self_s": "pipeline.diagnose_batch",
}
_CALLS = {
    "stream.ingest_calls": "stream.ingest",
    "pipeline.fit_calls": "pipeline.fit",
    "ml.treeshap_calls": "ml.treeshap",
}


def layer_metrics(spans, counters: dict, cache: dict) -> dict[str, float]:
    """Per-layer values of one traced pass.

    ``spans[0]`` must be the benchmark's root span around the pass.
    ``counters`` are the recorder's counters plus the benchmark's own
    (``serve.refused``, ``serve.quarantined``, ``matrix.*``); ``cache``
    is the change in ``cache_stats()`` over the pass.
    """
    selfs = self_times(spans)
    self_by_name: dict[str, float] = {}
    for span, seconds in zip(spans, selfs):
        self_by_name[span.name] = self_by_name.get(span.name, 0.0) + seconds
    root = spans[0]
    lookups = cache["hits"] + cache["misses"]
    values = {
        "cache.hits": cache["hits"],
        "cache.misses": cache["misses"],
        "cache.hit_ratio": cache["hits"] / lookups if lookups else 0.0,
        "cache.evictions": cache["evictions"],
        "cache.token_evictions": cache["token_evictions"],
        "trace.unattributed_share": selfs[0] / (root.end - root.start),
    }
    for name, names in _TIMES.items():
        values[name] = total_time(spans, *names)
    for name, span in _SELF.items():
        values[name] = self_by_name.get(span, 0.0)
    for name, span in _CALLS.items():
        values[name] = calls(spans, span)
    for name, _, _ in PER_LAYER:
        values.setdefault(name, counters.get(name, 0))
    return values
