"""The paper's contribution: explainable AI for NFV.

* :mod:`repro.core.explainers` — post-hoc attribution methods
  (KernelSHAP, exact Shapley, TreeSHAP, LinearSHAP, LIME, permutation
  importance, PDP/ICE, global surrogate trees, counterfactuals).
* :mod:`repro.core.evaluation` — explanation-quality measures
  (deletion/insertion faithfulness, stability, cross-method agreement,
  Shapley axiom checks).
* :mod:`repro.core.pipeline` / :mod:`repro.core.rootcause` /
  :mod:`repro.core.report` — the NFV-facing layer that turns feature
  attributions into per-VNF / per-resource diagnoses for operators.
* :mod:`repro.core.stream` — online diagnosis over live telemetry:
  sliding windows, cadenced refits, batched windowed explanation, and
  Page–Hinkley drift alarms.
"""

from repro.core.cache import cache_stats, clear_cache
from repro.core.executor import (
    ProcessExecutor,
    SerialExecutor,
    ThreadExecutor,
    available_workers,
    get_executor,
)
from repro.core.explainers import (
    BatchExplanation,
    CounterfactualExplainer,
    ExactShapleyExplainer,
    Explanation,
    GlobalExplanation,
    IntegratedGradientsExplainer,
    InterventionalTreeShapExplainer,
    KernelShapExplainer,
    LimeExplainer,
    LinearShapExplainer,
    PartialDependence,
    PermutationImportance,
    SamplingShapleyExplainer,
    SurrogateTreeExplainer,
    TreeShapExplainer,
    make_explainer,
    model_output_fn,
)
from repro.core.matrix import (
    MatrixCell,
    MatrixReport,
    default_model_factories,
    run_scenario_matrix,
)
from repro.core.pipeline import NFVDiagnosis, NFVExplainabilityPipeline
from repro.core.rootcause import RootCauseEvaluator, vnf_attribution_scores
from repro.core.search import (
    SearchCandidate,
    SearchResult,
    adversarial_score,
    search_scenarios,
)
from repro.core.stream import (
    PageHinkley,
    StreamingDiagnosisEngine,
    StreamReport,
    StreamWindow,
)

__all__ = [
    "available_workers",
    "BatchExplanation",
    "cache_stats",
    "clear_cache",
    "CounterfactualExplainer",
    "default_model_factories",
    "ExactShapleyExplainer",
    "Explanation",
    "get_executor",
    "ProcessExecutor",
    "SerialExecutor",
    "ThreadExecutor",
    "GlobalExplanation",
    "IntegratedGradientsExplainer",
    "InterventionalTreeShapExplainer",
    "KernelShapExplainer",
    "LimeExplainer",
    "LinearShapExplainer",
    "make_explainer",
    "MatrixCell",
    "MatrixReport",
    "model_output_fn",
    "NFVDiagnosis",
    "run_scenario_matrix",
    "NFVExplainabilityPipeline",
    "PageHinkley",
    "PartialDependence",
    "StreamingDiagnosisEngine",
    "StreamReport",
    "StreamWindow",
    "PermutationImportance",
    "RootCauseEvaluator",
    "SamplingShapleyExplainer",
    "SearchCandidate",
    "SearchResult",
    "adversarial_score",
    "search_scenarios",
    "SurrogateTreeExplainer",
    "TreeShapExplainer",
    "vnf_attribution_scores",
]
