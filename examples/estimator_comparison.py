"""Estimator comparison: four roads to the same Shapley values.

The library ships four Shapley estimators (exact enumeration, kernel
regression, permutation sampling, interventional tree traversal) plus
the gradient-based Integrated Gradients for neural models.  This
example explains the *same* NFV incident with all of them and shows
where they agree, what each costs, and how the MLP's IG attribution
relates to the forest's SHAP values.

Run:
    python examples/estimator_comparison.py
"""

import numpy as np

from repro.core.evaluation import spearman_correlation
from repro.core.explainers import (
    IntegratedGradientsExplainer,
    InterventionalTreeShapExplainer,
    KernelShapExplainer,
    SamplingShapleyExplainer,
    TreeShapExplainer,
    model_output_fn,
)
from repro.datasets import make_sla_violation_dataset
from repro.ml import MLPClassifier, RandomForestClassifier, StandardScaler
from repro.ml.model_selection import train_test_split
from repro.utils.clock import timed


def main() -> None:
    dataset = make_sla_violation_dataset(n_epochs=3000, random_state=29)
    X_train, X_test, y_train, y_test = train_test_split(
        dataset.X.values, dataset.y, test_size=0.3, random_state=0,
        stratify=dataset.y,
    )
    names = dataset.feature_names
    forest = RandomForestClassifier(
        n_estimators=40, max_depth=8, random_state=0
    ).fit(X_train, y_train)
    fn = model_output_fn(forest)
    background = X_train[:30]

    incident = X_test[np.argmax(fn(X_test))]

    explainers = {
        "tree_shap (path-dep)": TreeShapExplainer(
            forest, names, class_index=1
        ),
        "tree_shap (interv.)": InterventionalTreeShapExplainer(
            forest, background, names, class_index=1
        ),
        "kernel_shap": KernelShapExplainer(
            fn, background, names, n_samples=512, random_state=0
        ),
        "sampling_shapley": SamplingShapleyExplainer(
            fn, background, names, n_permutations=16, random_state=0
        ),
    }

    print(f"{'estimator':<22} {'time':>8}  top-3 signals")
    attributions = {}
    for name, explainer in explainers.items():
        e, elapsed = timed(explainer.explain, incident)
        attributions[name] = e.values
        top = ", ".join(f"{n}" for n, _ in e.top_features(3))
        print(f"{name:<22} {elapsed * 1000:>6.0f}ms  {top}")

    reference = attributions["tree_shap (interv.)"]
    print("\nSpearman rank agreement vs interventional TreeSHAP:")
    for name, values in attributions.items():
        rho = spearman_correlation(values, reference)
        print(f"  {name:<22} {rho:.3f}")

    # ------------------------------------------------------------------
    # gradient-based attribution for a neural model of the same task
    # ------------------------------------------------------------------
    scaler = StandardScaler().fit(X_train)
    mlp = MLPClassifier(
        hidden_layer_sizes=(64, 32), max_epochs=60, random_state=0
    ).fit(scaler.transform(X_train), y_train)
    print(f"\nMLP test accuracy: "
          f"{mlp.score(scaler.transform(X_test), y_test):.3f}")
    ig = IntegratedGradientsExplainer(
        mlp, background=scaler.transform(X_train), feature_names=names,
        n_steps=128, class_index=1,
    )
    e_ig = ig.explain(scaler.transform(incident.reshape(1, -1))[0])
    print("integrated gradients (logit) top-5 for the same incident:")
    for feature, value in e_ig.top_features(5):
        print(f"  {feature:<34} {value:+.4f}")
    rho = spearman_correlation(e_ig.values, reference)
    print(f"IG vs interventional TreeSHAP rank agreement: {rho:.3f} "
          f"(different model families — moderate agreement expected)")


if __name__ == "__main__":
    main()
