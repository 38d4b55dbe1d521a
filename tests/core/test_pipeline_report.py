"""Tests for the NFV pipeline, reports, and the explainer factory."""

import numpy as np
import pytest

from repro.core import NFVExplainabilityPipeline
from repro.core.executor import get_executor
from repro.core.explainers import (
    KernelShapExplainer,
    LimeExplainer,
    LinearShapExplainer,
    TreeShapExplainer,
    make_explainer,
)
from repro.core.report import (
    format_global_report,
    format_local_report,
    format_vnf_table,
)
from repro.ml import (
    GaussianNB,
    LogisticRegression,
    RandomForestClassifier,
)


@pytest.fixture(scope="module")
def pipeline(sla_dataset):
    return NFVExplainabilityPipeline(
        RandomForestClassifier(n_estimators=20, max_depth=7, random_state=0),
        explainer_method="tree_shap",
        random_state=0,
    ).fit(sla_dataset)


class TestMakeExplainer:
    def test_auto_tree_model(self, fitted_rf, sla_dataset):
        explainer = make_explainer(
            "auto", fitted_rf, sla_dataset.X, class_index=1
        )
        assert isinstance(explainer, TreeShapExplainer)

    def test_auto_linear_model(self, sla_split):
        X_train, _, y_train, _ = sla_split
        model = LogisticRegression(max_iter=100).fit(X_train, y_train)
        explainer = make_explainer("auto", model, X_train)
        assert isinstance(explainer, LinearShapExplainer)

    def test_auto_other_model_kernel(self, sla_split):
        X_train, _, y_train, _ = sla_split
        model = GaussianNB().fit(X_train, y_train)
        explainer = make_explainer(
            "auto", model, X_train[:30], n_samples=32
        )
        assert isinstance(explainer, KernelShapExplainer)

    def test_lime_by_name(self, fitted_rf, sla_split):
        X_train = sla_split[0]
        explainer = make_explainer(
            "lime", fitted_rf, X_train, n_samples=50, random_state=0
        )
        assert isinstance(explainer, LimeExplainer)

    def test_feature_names_from_feature_matrix(self, fitted_rf, sla_dataset):
        explainer = make_explainer("tree_shap", fitted_rf, sla_dataset.X)
        assert explainer.feature_names == sla_dataset.X.feature_names

    def test_unknown_method(self, fitted_rf, sla_split):
        with pytest.raises(ValueError, match="unknown explainer"):
            make_explainer("gradcam", fitted_rf, sla_split[0])


class TestPipeline:
    def test_model_performance_recorded(self, pipeline):
        assert pipeline.train_score_ > 0.9
        assert pipeline.test_score_ > 0.8

    def test_diagnose_violating_sample(self, pipeline, sla_dataset):
        violations = np.flatnonzero(sla_dataset.y == 1)
        diagnosis = pipeline.diagnose(sla_dataset.X.values[violations[0]])
        assert 0.0 <= diagnosis.prediction <= 1.0
        assert set(diagnosis.vnf_scores) == set(range(5))
        assert diagnosis.primary_suspect in range(5)
        assert diagnosis.primary_resource is not None

    def test_diagnosis_efficiency(self, pipeline, sla_dataset):
        diagnosis = pipeline.diagnose(sla_dataset.X.values[10])
        assert diagnosis.explanation.additivity_gap() < 1e-8

    def test_alert_threshold(self, pipeline, sla_dataset):
        d = pipeline.diagnose(sla_dataset.X.values[0])
        assert d.alert == (d.prediction >= pipeline.threshold)

    def test_report_text(self, pipeline, sla_dataset):
        text = pipeline.report(sla_dataset.X.values[5])
        assert "PREDICTION REPORT" in text
        assert "per-VNF attribution" in text
        assert "vnf" in text

    def test_global_importance(self, pipeline):
        gi = pipeline.global_importance(max_rows=15)
        assert len(gi.importances) == len(pipeline.feature_names_)
        assert np.all(gi.importances >= 0)

    def test_unfitted_raises(self, sla_dataset):
        pipe = NFVExplainabilityPipeline(GaussianNB())
        with pytest.raises(RuntimeError, match="not fitted"):
            pipe.diagnose(np.zeros(31))

    @pytest.mark.parametrize(
        "method, budget",
        [
            ("kernel_shap", {"n_samples": 32}),
            ("sampling_shapley", {"n_permutations": 2}),
            ("lime", {"n_samples": 40}),
            ("auto", {"n_samples": 32}),  # GaussianNB -> KernelSHAP
        ],
    )
    def test_integer_seed_seeds_sampling_explainer(
        self, sla_dataset, method, budget
    ):
        """Named or resolved from ``auto``, a sampling explainer takes
        the pipeline's integer seed, so two fits attribute alike."""
        def attributions():
            pipe = NFVExplainabilityPipeline(
                GaussianNB(),
                explainer_method=method,
                background_size=10,
                explainer_kwargs=budget,
                random_state=3,
            ).fit(sla_dataset)
            assert pipe.explainer_.random_state == 3
            return pipe.explainer_.explain_batch(
                sla_dataset.X.values[:3]
            ).values

        np.testing.assert_array_equal(attributions(), attributions())

    def test_explicit_explainer_seed_wins(self, sla_dataset):
        pipe = NFVExplainabilityPipeline(
            GaussianNB(),
            explainer_method="lime",
            explainer_kwargs={"n_samples": 40, "random_state": 11},
            random_state=3,
        ).fit(sla_dataset)
        assert pipe.explainer_.random_state == 11
        assert pipe.with_explainer(
            "kernel_shap", n_samples=32
        ).explainer_.random_state == 3

    def test_validation(self):
        with pytest.raises(ValueError, match="test_size"):
            NFVExplainabilityPipeline(GaussianNB(), test_size=2.0)
        with pytest.raises(ValueError, match="background_size"):
            NFVExplainabilityPipeline(GaussianNB(), background_size=0)


class TestDiagnoseBatch:
    def test_matches_per_sample_diagnose(self, pipeline, sla_dataset):
        rows = sla_dataset.X.values[:6]
        batched = pipeline.diagnose_batch(rows)
        assert len(batched) == 6
        for row, diagnosis in zip(rows, batched):
            single = pipeline.diagnose(row)
            assert diagnosis.prediction == pytest.approx(
                single.prediction, abs=1e-10
            )
            assert diagnosis.alert == single.alert
            assert diagnosis.vnf_ranking == single.vnf_ranking
            np.testing.assert_allclose(
                diagnosis.explanation.values,
                single.explanation.values,
                atol=1e-8,
            )
            assert diagnosis.primary_resource == single.primary_resource

    def test_empty_batch(self, pipeline):
        assert pipeline.diagnose_batch(
            np.zeros((0, len(pipeline.feature_names_)))
        ) == []

    def test_rejects_1d(self, pipeline, sla_dataset):
        with pytest.raises(ValueError, match="2-D"):
            pipeline.diagnose_batch(sla_dataset.X.values[0])

    def test_unfitted_raises(self):
        pipe = NFVExplainabilityPipeline(GaussianNB())
        with pytest.raises(RuntimeError, match="not fitted"):
            pipe.diagnose_batch(np.zeros((2, 31)))

    def test_kernel_shap_pipeline_batch(self, sla_dataset):
        pipe = NFVExplainabilityPipeline(
            GaussianNB(),
            explainer_method="kernel_shap",
            background_size=20,
            explainer_kwargs={"n_samples": 32, "random_state": 0},
            random_state=0,
        ).fit(sla_dataset)
        rows = sla_dataset.X.values[:4]
        batched = pipe.diagnose_batch(rows)
        single = pipe.diagnose(rows[2])
        np.testing.assert_allclose(
            batched[2].explanation.values,
            single.explanation.values,
            atol=1e-8,
        )


@pytest.fixture(scope="module")
def kernel_lr_pipeline(sla_dataset):
    return NFVExplainabilityPipeline(
        LogisticRegression(max_iter=200),
        explainer_method="kernel_shap",
        explainer_kwargs={"n_samples": 64},
        random_state=0,
    ).fit(sla_dataset)


class TestExplainRows:
    """``explain_rows`` is the array half of ``diagnose_batch``: the same
    attribution bytes, and the scores and alerts each diagnosis reports.
    16 rows is one dispatch chunk, 17 rows is two."""

    @pytest.fixture(scope="class", params=["serial", "process"])
    def executor(self, request):
        with get_executor(request.param, 2) as ex:
            yield ex

    @pytest.mark.parametrize("n_rows", [1, 16, 17])
    @pytest.mark.parametrize("which", ["pipeline", "kernel_lr_pipeline"])
    def test_matches_diagnose_batch(
        self, request, which, n_rows, executor, sla_dataset
    ):
        pipe = request.getfixturevalue(which)
        X = sla_dataset.X.values[:n_rows]
        batch, scores = pipe.explain_rows(X, executor=executor)
        diagnoses = pipe.diagnose_batch(X, executor=executor)
        assert len(diagnoses) == batch.n_samples == len(scores) == n_rows
        assert np.array_equal(
            batch.values,
            np.vstack([d.explanation.values for d in diagnoses]),
        )
        assert scores.tolist() == [d.prediction for d in diagnoses]
        assert (scores >= pipe.threshold).tolist() == [
            d.alert for d in diagnoses
        ]

    def test_rejects_1d_and_unfitted(self, pipeline, sla_dataset):
        with pytest.raises(ValueError, match="2-D"):
            pipeline.explain_rows(sla_dataset.X.values[0])
        with pytest.raises(RuntimeError, match="not fitted"):
            NFVExplainabilityPipeline(GaussianNB()).explain_rows(
                np.zeros((2, 31))
            )


class TestReports:
    def test_local_report_alert_marker(self, pipeline, sla_dataset):
        violations = np.flatnonzero(sla_dataset.y == 1)
        x = sla_dataset.X.values[violations[0]]
        diagnosis = pipeline.diagnose(x)
        text = format_local_report(
            diagnosis.explanation, threshold=0.0
        )
        assert "ALERT" in text

    def test_vnf_table_ranked(self):
        text = format_vnf_table({0: 0.1, 1: 0.9})
        lines = text.splitlines()
        assert "1    1" in lines[1]  # rank 1 is vnf 1

    def test_vnf_table_empty(self):
        assert "no VNF-level" in format_vnf_table({})

    def test_global_report_bars(self, pipeline):
        gi = pipeline.global_importance(max_rows=10)
        text = format_global_report(gi, top_k=5)
        assert "#" in text
        assert "global importance" in text
