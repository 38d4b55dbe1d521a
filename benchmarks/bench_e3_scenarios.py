"""E12 — scenario-matrix sweep: explainer quality across workload regimes.

The paper evaluates explainers on one synthetic testbed shape; EXPLORA
(CoNEXT 2023) and the O-RAN XAI surveys argue that explanation quality
must be demonstrated across heterogeneous traffic/fault regimes before
an operator can trust it.  This bench runs the scenario × model ×
explainer matrix over four contrasting regimes and regenerates the
comparable faithfulness/agreement table.

Expected shape: per-cell faithfulness moves with the regime (noisy
telemetry and fault storms are harder than the baseline), and the
shuffled-attribution control stays clearly less faithful than the real
attributions on the forest cells.
"""

import numpy as np

from benchmarks.conftest import SEED, save_result
from repro.core.matrix import default_model_factories, run_scenario_matrix
from repro.datasets import make_scenario_dataset

SCENARIOS = ["baseline", "bursty-traffic", "fault-storm", "noisy-telemetry"]
EXPLAINERS = ("kernel_shap", "lime")


def test_e12_scenario_matrix(benchmark):
    factories = default_model_factories()
    report = run_scenario_matrix(
        SCENARIOS,
        models={
            "random_forest": factories["random_forest"],
            "logistic_regression": factories["logistic_regression"],
        },
        explainers=EXPLAINERS,
        n_epochs=800,
        n_explain=8,
        stability_repeats=3,
        random_state=SEED,
    )
    save_result(
        "E12 (scenario matrix): explainer quality across workload regimes",
        report.format_table(),
    )

    # shape claims
    assert len(report.cells) == len(SCENARIOS) * 2 * len(EXPLAINERS)
    for cell in report.cells:
        assert np.isfinite(cell.deletion_auc)
        assert cell.agreement_spearman is not None
    # real attributions must beat the shuffled control in every forest
    # cell (same direction as E5: higher deletion AUC = the attributed
    # features collapse the prediction sooner)
    forest = [c for c in report.cells if c.model == "random_forest"]
    for cell in forest:
        assert cell.deletion_auc > cell.random_deletion_auc, (
            f"{cell.scenario}/{cell.explainer}: {cell.deletion_auc:.3f} "
            f"vs control {cell.random_deletion_auc:.3f}"
        )

    # timed hot path: one scenario dataset generation end to end
    benchmark(make_scenario_dataset, "fault-storm", 500, random_state=SEED)
