"""Tests for the scenario matrix experiment runner (repro.core.matrix)."""

import os

import numpy as np
import pytest

from repro.core.matrix import (
    MatrixReport,
    default_explainer_kwargs,
    default_model_factories,
    run_scenario_matrix,
)

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "data", "matrix_golden.txt")

SCENARIOS = ["baseline", "noisy-telemetry"]
EXPLAINERS = ("kernel_shap", "lime")
#: Tiny budgets: the matrix mechanics, not estimator quality, are under test.
FAST_KWARGS = {
    "kernel_shap": {"n_samples": 64},
    "lime": {"n_samples": 100},
}


@pytest.fixture(scope="module")
def report():
    return run_scenario_matrix(
        SCENARIOS,
        explainers=EXPLAINERS,
        n_epochs=250,
        n_explain=4,
        explainer_kwargs=FAST_KWARGS,
        random_state=0,
    )


class TestRunScenarioMatrix:
    def test_full_cross_product(self, report):
        assert len(report.cells) == 2 * 2 * 2
        coords = {(c.scenario, c.model, c.explainer) for c in report.cells}
        assert len(coords) == len(report.cells)
        assert report.models == ["random_forest", "logistic_regression"]

    def test_metrics_are_finite(self, report):
        for c in report.cells:
            assert np.isfinite(c.test_accuracy)
            assert np.isfinite(c.deletion_auc)
            assert np.isfinite(c.insertion_auc)
            assert np.isfinite(c.random_deletion_auc)
            assert np.isfinite(c.comprehensiveness)
            assert 0.0 <= c.violation_rate <= 1.0
            assert c.n_explained == 4

    def test_agreement_filled_for_multi_explainer_cells(self, report):
        for c in report.cells:
            assert c.agreement_spearman is not None
            assert -1.0 <= c.agreement_spearman <= 1.0

    def test_cell_lookup(self, report):
        cell = report.cell("baseline", "random_forest", "kernel_shap")
        assert cell.explainer == "kernel_shap"
        with pytest.raises(KeyError):
            report.cell("baseline", "random_forest", "nope")

    def test_format_table_mentions_every_coordinate(self, report):
        table = report.format_table()
        for scenario in SCENARIOS:
            assert scenario in table
        for method in EXPLAINERS:
            assert method in table
        assert "del.AUC" in table

    def test_to_rows_roundtrip(self, report):
        rows = report.to_rows()
        assert len(rows) == len(report.cells)
        assert rows[0]["scenario"] == report.cells[0].scenario

    def test_deterministic_given_seed(self, report):
        again = run_scenario_matrix(
            SCENARIOS,
            explainers=EXPLAINERS,
            n_epochs=250,
            n_explain=4,
            explainer_kwargs=FAST_KWARGS,
            random_state=0,
        )
        for a, b in zip(report.cells, again.cells):
            assert (a.scenario, a.model, a.explainer) == (
                b.scenario, b.model, b.explainer
            )
            assert a.deletion_auc == b.deletion_auc
            assert a.comprehensiveness == b.comprehensiveness

    def test_progress_callback_fires_per_cell(self):
        lines = []
        run_scenario_matrix(
            ["baseline"],
            models={
                "logistic_regression":
                    default_model_factories()["logistic_regression"],
            },
            explainers=("kernel_shap",),
            n_epochs=200,
            n_explain=2,
            explainer_kwargs=FAST_KWARGS,
            random_state=0,
            progress=lines.append,
        )
        assert len(lines) == 1
        assert "baseline" in lines[0]

    def test_stability_metric_optional(self):
        report = run_scenario_matrix(
            ["baseline"],
            models={
                "logistic_regression":
                    default_model_factories()["logistic_regression"],
            },
            explainers=("kernel_shap", "lime"),
            n_epochs=200,
            n_explain=2,
            explainer_kwargs=FAST_KWARGS,
            stability_repeats=3,
            random_state=0,
        )
        for c in report.cells:
            assert c.stability_cosine is not None
            assert -1.0 <= c.stability_cosine <= 1.0


class TestExecutionBackends:
    """ISSUE satellite: the 2×2×2 matrix is bit-identical on every
    execution backend (the ``report`` fixture is the serial run)."""

    def _comparable(self, report):
        rows = report.to_rows()
        for row in rows:
            row.pop("explain_seconds")  # wall-clock is never comparable
        return rows

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_backend_matches_serial_exactly(self, report, backend):
        parallel = run_scenario_matrix(
            SCENARIOS,
            explainers=EXPLAINERS,
            n_epochs=250,
            n_explain=4,
            explainer_kwargs=FAST_KWARGS,
            random_state=0,
            backend=backend,
            workers=2,
        )
        assert self._comparable(parallel) == self._comparable(report)
        assert parallel.format_table(timing=False) == report.format_table(
            timing=False
        )
        assert parallel.extras == {"backend": backend, "workers": 2}

    def test_serial_extras_recorded(self, report):
        assert report.extras == {"backend": "serial", "workers": 1}

    def test_progress_ordered_on_parallel_backend(self):
        lines = []
        run_scenario_matrix(
            ["baseline"],
            explainers=("kernel_shap",),
            n_epochs=200,
            n_explain=2,
            explainer_kwargs=FAST_KWARGS,
            random_state=0,
            backend="thread",
            workers=2,
            progress=lines.append,
        )
        assert len(lines) == 2  # one per cell, deterministic task order
        assert "random_forest" in lines[0]
        assert "logistic_regression" in lines[1]

    def test_process_backend_rejects_unpicklable_factories(self):
        with pytest.raises(ValueError, match="picklable"):
            run_scenario_matrix(
                ["baseline"],
                models={"inline": lambda: None},
                explainers=("kernel_shap",),
                n_epochs=100,
                backend="process",
                workers=2,
            )

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            run_scenario_matrix(["baseline"], backend="gpu", n_epochs=50)

    def test_default_factories_are_picklable(self):
        import pickle

        for name, factory in default_model_factories().items():
            rebuilt = pickle.loads(pickle.dumps(factory))
            assert type(rebuilt()).__name__ == type(factory()).__name__


class TestFormatTableTiming:
    def test_timing_column_toggles(self, report):
        with_timing = report.format_table()
        without = report.format_table(timing=False)
        assert "sec" in with_timing.splitlines()[0]
        assert "sec" not in without.splitlines()[0]
        assert len(with_timing.splitlines()) == len(without.splitlines())


class TestGoldenTable:
    def test_format_table_matches_golden(self, report):
        """Golden regression for the seeded reference matrix.

        The golden file pins ``format_table(timing=False)`` for the
        module's 2 scenario × 2 model × 2 explainer sweep (250 epochs,
        seed 0, FAST_KWARGS budgets).  If it fails after an
        *intentional* change to the metrics, the explainers, or the
        table format, regenerate the file and eyeball the diff::

            REGEN_MATRIX_GOLDEN=1 PYTHONPATH=src python -m pytest \\
                tests/core/test_matrix.py::TestGoldenTable -q

        Never regenerate to silence an unexplained diff — byte changes
        here mean the seeded pipeline no longer reproduces itself.
        """
        table = report.format_table(timing=False) + "\n"
        if os.environ.get("REGEN_MATRIX_GOLDEN"):
            with open(GOLDEN_PATH, "w") as fh:
                fh.write(table)
            pytest.skip(f"regenerated {GOLDEN_PATH}")
        with open(GOLDEN_PATH) as fh:
            assert table == fh.read()


class TestValidation:
    def test_empty_scenarios(self):
        with pytest.raises(ValueError, match="scenarios"):
            run_scenario_matrix([])

    def test_empty_explainers(self):
        with pytest.raises(ValueError, match="explainers"):
            run_scenario_matrix(["baseline"], explainers=())

    def test_bad_n_explain(self):
        with pytest.raises(ValueError, match="n_explain"):
            run_scenario_matrix(["baseline"], n_explain=0)

    def test_bad_stability_repeats(self):
        for value in (1, -3):
            with pytest.raises(ValueError, match="stability_repeats"):
                run_scenario_matrix(["baseline"], stability_repeats=value)

    def test_unknown_scenario_propagates(self):
        with pytest.raises(KeyError, match="unknown scenario"):
            run_scenario_matrix(["nope"], n_epochs=50)


class TestDefaults:
    def test_model_factories_return_fresh_instances(self):
        factories = default_model_factories()
        assert set(factories) == {
            "random_forest", "gradient_boosting",
            "logistic_regression", "mlp",
        }
        a = factories["random_forest"]()
        b = factories["random_forest"]()
        assert a is not b

    def test_explainer_kwargs_known_and_unknown(self):
        assert default_explainer_kwargs("kernel_shap")["n_samples"] == 256
        assert default_explainer_kwargs("tree_shap") == {}


class TestMatrixReportEmpty:
    def test_format_table_handles_no_cells(self):
        report = MatrixReport(
            cells=[], scenarios=[], models=[], explainers=[],
            n_epochs=0, n_explain=0,
        )
        assert "scenario" in report.format_table()
