"""Post-hoc explanation methods (all implemented from scratch).

Local attribution:

* :class:`ExactShapleyExplainer` — brute-force reference (d <= 15).
* :class:`KernelShapExplainer` — model-agnostic sampled Shapley.
* :class:`SamplingShapleyExplainer` — permutation-sampling Shapley.
* :class:`TreeShapExplainer` — exact, polynomial-time for tree models.
* :class:`LinearShapExplainer` — closed form for linear models.
* :class:`IntegratedGradientsExplainer` — path gradients for MLPs.
* :class:`LimeExplainer` — local ridge surrogates.
* :class:`CounterfactualExplainer` — minimal actionable changes.

Each local explainer has one attribution path, ``explain_batch(X)``,
returning a :class:`BatchExplanation`: it shares coalition designs /
permutations / perturbations / packed tree blocks across rows and
stacks all model evaluations.  ``explain(x)`` is the one-row batch, so
one incident and a fleet get the same attributions from the same code
(see ``docs/explainers.md``).

Global views:

* :class:`PermutationImportance`, :class:`PartialDependence`,
  :class:`SurrogateTreeExplainer`; every local explainer also offers
  ``global_importance`` (mean |attribution|).
"""

from repro.core.explainers.base import (
    BatchExplanation,
    Explainer,
    Explanation,
    GlobalExplanation,
    ModelOutputFn,
    model_output_fn,
)
from repro.core.explainers.counterfactual import Counterfactual, CounterfactualExplainer
from repro.core.explainers.integrated_gradients import IntegratedGradientsExplainer
from repro.core.explainers.lime import LimeExplainer
from repro.core.explainers.pdp import PartialDependence, PDPResult
from repro.core.explainers.permutation import PermutationImportance
from repro.core.explainers.shap_exact import ExactShapleyExplainer
from repro.core.explainers.shap_kernel import KernelShapExplainer
from repro.core.explainers.shap_linear import LinearShapExplainer
from repro.core.explainers.shap_sampling import SamplingShapleyExplainer
from repro.core.explainers.shap_tree import TreeShapExplainer
from repro.core.explainers.shap_tree_interventional import (
    InterventionalTreeShapExplainer,
)
from repro.core.explainers.surrogate import SurrogateTreeExplainer

__all__ = [
    "BatchExplanation",
    "Counterfactual",
    "CounterfactualExplainer",
    "ExactShapleyExplainer",
    "Explainer",
    "EXPLAINER_METHODS",
    "Explanation",
    "GlobalExplanation",
    "IntegratedGradientsExplainer",
    "InterventionalTreeShapExplainer",
    "KernelShapExplainer",
    "LimeExplainer",
    "LinearShapExplainer",
    "make_explainer",
    "ModelOutputFn",
    "model_output_fn",
    "PartialDependence",
    "PDPResult",
    "PermutationImportance",
    "resolve_explainer_method",
    "SamplingShapleyExplainer",
    "STOCHASTIC_EXPLAINERS",
    "SurrogateTreeExplainer",
    "TreeShapExplainer",
]

#: Every method name :func:`make_explainer` accepts (callers can
#: pre-flight user input against this instead of catching ValueError).
EXPLAINER_METHODS = (
    "auto",
    "exact_shapley",
    "integrated_gradients",
    "interventional_tree_shap",
    "kernel_shap",
    "lime",
    "linear_shap",
    "sampling_shapley",
    "tree_shap",
)

#: Methods whose estimates are sampled and therefore accept a
#: ``random_state`` constructor argument.  The pipeline seeds exactly
#: these from its own integer ``random_state`` (see
#: :class:`~repro.core.pipeline.NFVExplainabilityPipeline`), so every
#: runner built on it (the CLI, the scenario matrix, the streaming
#: engine) is reproducible end to end.
STOCHASTIC_EXPLAINERS = frozenset(
    {"kernel_shap", "sampling_shapley", "lime"}
)

_TREE_MODELS = (
    "DecisionTreeClassifier",
    "DecisionTreeRegressor",
    "RandomForestClassifier",
    "RandomForestRegressor",
    "GradientBoostingClassifier",
    "GradientBoostingRegressor",
)
_LINEAR_MODELS = ("LinearRegression", "RidgeRegression", "LogisticRegression")


def resolve_explainer_method(method: str, model) -> str:
    """The explainer name :func:`make_explainer` builds for ``method``.

    ``"auto"`` resolves by model type — TreeSHAP for tree models,
    LinearSHAP for linear models, IG for MLPs, KernelSHAP otherwise;
    any other name is returned unchanged.  The model need not be
    fitted.
    """
    if method != "auto":
        return method
    kind = type(model).__name__
    if kind in _TREE_MODELS:
        return "tree_shap"
    if kind in _LINEAR_MODELS:
        return "linear_shap"
    if kind in ("MLPClassifier", "MLPRegressor"):
        return "integrated_gradients"
    return "kernel_shap"


def make_explainer(
    method: str,
    model,
    background,
    feature_names=None,
    *,
    class_index: int = 1,
    **kwargs,
):
    """Factory: build an explainer by name for a fitted model.

    Parameters
    ----------
    method:
        ``"tree_shap"``, ``"interventional_tree_shap"``,
        ``"kernel_shap"``, ``"sampling_shapley"``, ``"exact_shapley"``,
        ``"linear_shap"``, ``"lime"``, ``"integrated_gradients"``, or
        ``"auto"`` (TreeSHAP for tree models, LinearSHAP for linear
        models, IG for MLPs, KernelSHAP otherwise).
    model:
        A fitted estimator from :mod:`repro.ml`.
    background:
        Background/training data (2-D array or FeatureMatrix).
    class_index:
        Output column to explain for classifiers.
    kwargs:
        Forwarded to the explainer constructor.
    """
    import numpy as np

    if hasattr(background, "values") and hasattr(background, "feature_names"):
        if feature_names is None:
            feature_names = background.feature_names
        background = background.values
    background = np.asarray(background, dtype=float)

    method = resolve_explainer_method(method, model)
    if method == "tree_shap":
        return TreeShapExplainer(
            model, feature_names, class_index=class_index, **kwargs
        )
    if method == "interventional_tree_shap":
        return InterventionalTreeShapExplainer(
            model, background, feature_names, class_index=class_index, **kwargs
        )
    if method == "linear_shap":
        return LinearShapExplainer(
            model, background, feature_names, class_index=class_index, **kwargs
        )
    if method == "integrated_gradients":
        return IntegratedGradientsExplainer(
            model, background, feature_names, class_index=class_index, **kwargs
        )
    fn = model_output_fn(model, class_index=class_index)
    if method == "kernel_shap":
        return KernelShapExplainer(fn, background, feature_names, **kwargs)
    if method == "sampling_shapley":
        return SamplingShapleyExplainer(fn, background, feature_names, **kwargs)
    if method == "exact_shapley":
        return ExactShapleyExplainer(fn, background, feature_names, **kwargs)
    if method == "lime":
        return LimeExplainer(fn, background, feature_names, **kwargs)
    raise ValueError(
        f"unknown explainer {method!r}; choose from "
        f"{', '.join(EXPLAINER_METHODS)}"
    )
