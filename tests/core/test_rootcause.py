"""Tests for repro.core.rootcause."""

import numpy as np
import pytest

from repro.core.explainers.base import Explanation
from repro.core.rootcause import (
    RootCauseEvaluator,
    hit_at_k,
    rank_vnfs,
    vnf_attribution_scores,
)


def make_explanation(values, names):
    return Explanation(
        feature_names=names,
        values=np.asarray(values, dtype=float),
        base_value=0.0,
        prediction=float(np.sum(values)),
        x=np.zeros(len(values)),
        method="test",
    )


NAMES = [
    "vnf0_firewall_cpu_util",
    "vnf0_firewall_mem_util",
    "vnf1_ids_cpu_util",
    "vnf1_ids_mem_util",
    "offered_kpps",
]


class TestVnfAttributionScores:
    def test_abs_aggregation(self):
        e = make_explanation([0.5, -0.3, 0.1, 0.0, 9.0], NAMES)
        scores = vnf_attribution_scores(e, aggregation="abs")
        assert scores[0] == pytest.approx(0.8)
        assert scores[1] == pytest.approx(0.1)
        assert 9.0 not in scores.values()  # chain feature excluded

    def test_signed_aggregation(self):
        e = make_explanation([0.5, -0.3, 0.1, 0.0, 9.0], NAMES)
        scores = vnf_attribution_scores(e, aggregation="signed")
        assert scores[0] == pytest.approx(0.2)

    def test_unknown_aggregation(self):
        e = make_explanation([0.0] * 5, NAMES)
        with pytest.raises(ValueError, match="aggregation"):
            vnf_attribution_scores(e, aggregation="max")


class TestRanking:
    def test_rank_vnfs_descending(self):
        assert rank_vnfs({0: 0.1, 1: 0.9, 2: 0.5}) == [1, 2, 0]

    def test_rank_ties_break_by_index(self):
        assert rank_vnfs({2: 0.5, 0: 0.5, 1: 0.5}) == [0, 1, 2]

    def test_hit_at_k(self):
        assert hit_at_k([1, 2, 0], culprits=(2,), k=2)
        assert not hit_at_k([1, 2, 0], culprits=(0,), k=2)
        assert hit_at_k([1, 2, 0], culprits=(0, 1), k=1)

    def test_hit_at_k_validation(self):
        with pytest.raises(ValueError, match="k"):
            hit_at_k([0, 1], culprits=(0,), k=0)
        with pytest.raises(ValueError, match="culprit"):
            hit_at_k([0, 1], culprits=(), k=1)


class TestRootCauseEvaluator:
    def test_perfect_rankings(self):
        evaluator = RootCauseEvaluator(n_vnfs=4, ks=(1, 2))
        rankings = [[2, 0, 1, 3], [1, 3, 0, 2]]
        culprits = [(2,), (1,)]
        report = evaluator.evaluate_rankings(rankings, culprits, "perfect")
        assert report.hits[1] == 1.0
        assert report.hits[2] == 1.0

    def test_wrong_rankings(self):
        evaluator = RootCauseEvaluator(n_vnfs=4, ks=(1,))
        rankings = [[0, 1, 2, 3]]
        culprits = [(3,)]
        report = evaluator.evaluate_rankings(rankings, culprits, "bad")
        assert report.hits[1] == 0.0

    def test_chain_level_incidents_skipped(self):
        evaluator = RootCauseEvaluator(n_vnfs=3, ks=(1,))
        report = evaluator.evaluate_rankings(
            [[0, 1, 2], [1, 0, 2]], [(), (1,)], "m"
        )
        assert report.n_incidents == 1

    def test_no_usable_incidents_rejected(self):
        evaluator = RootCauseEvaluator(n_vnfs=3)
        with pytest.raises(ValueError, match="culprit"):
            evaluator.evaluate_rankings([[0, 1, 2]], [()], "m")

    def test_random_baseline_matches_theory(self):
        """Random hit@k for single culprits is k / n_vnfs."""
        evaluator = RootCauseEvaluator(n_vnfs=5, ks=(1, 2, 3))
        culprits = [(i % 5,) for i in range(200)]
        report = evaluator.random_baseline(
            culprits, n_repeats=30, random_state=0
        )
        assert report.hits[1] == pytest.approx(1 / 5, abs=0.02)
        assert report.hits[2] == pytest.approx(2 / 5, abs=0.02)
        assert report.hits[3] == pytest.approx(3 / 5, abs=0.02)

    def test_utilization_baseline(self):
        evaluator = RootCauseEvaluator(n_vnfs=2, ks=(1,))
        X = np.array(
            [
                # vnf0 cpu high -> ranked first
                [0.9, 0.1, 0.2, 0.3, 5.0],
                # vnf1 cpu high
                [0.1, 0.1, 0.95, 0.3, 5.0],
            ]
        )
        report = evaluator.utilization_baseline(
            X, [(0,), (1,)], NAMES, metric_suffix="cpu_util"
        )
        assert report.hits[1] == 1.0

    def test_evaluate_explainer_end_to_end(self):
        """An explainer whose attributions concentrate on the true
        culprit's features achieves hit@1 = 1."""

        class OracleExplainer:
            method_name = "oracle"

            def explain_batch(self, X):
                # blame vnf (row % 2) — matches the culprit list below
                explanations = []
                for row in range(len(X)):
                    values = np.zeros(5)
                    values[0 if row % 2 == 0 else 2] = 1.0
                    explanations.append(make_explanation(values, NAMES))
                return explanations

        evaluator = RootCauseEvaluator(n_vnfs=2, ks=(1,))
        X = np.zeros((4, 5))
        culprits = [(0,), (1,), (0,), (1,)]
        report = evaluator.evaluate_explainer(
            OracleExplainer(), X, culprits
        )
        assert report.hits[1] == 1.0
        assert report.method == "oracle"

    def test_ks_validation(self):
        with pytest.raises(ValueError, match="ks"):
            RootCauseEvaluator(n_vnfs=3, ks=(4,))
        with pytest.raises(ValueError, match="n_vnfs"):
            RootCauseEvaluator(n_vnfs=0)

    def test_report_str(self):
        evaluator = RootCauseEvaluator(n_vnfs=2, ks=(1,))
        report = evaluator.evaluate_rankings([[0, 1]], [(0,)], "m")
        assert "hit@1" in str(report)


class TestBatchEvaluation:
    """``evaluate_explainer`` explains every incident in one
    ``explain_batch`` call; its rankings must be the per-row rankings."""

    @pytest.fixture(scope="class")
    def incidents(self):
        from repro.datasets import (
            make_root_cause_dataset,
            make_sla_violation_dataset,
        )
        from repro.ml import RandomForestClassifier

        rc = make_root_cause_dataset(n_epochs=1500, random_state=11)
        sla = make_sla_violation_dataset(n_epochs=1500, random_state=11)
        model = RandomForestClassifier(
            n_estimators=12, max_depth=6, random_state=0
        ).fit(sla.X.values, sla.y)
        rows, culprits = [], []
        for i in range(len(rc.y)):
            cs = rc.culprits_for_sample(i)
            if cs:
                rows.append(rc.X.values[i])
                culprits.append(cs)
            if len(rows) == 12:
                break
        assert len(rows) == 12
        return rc, model, sla.X.values, np.asarray(rows), culprits

    @pytest.mark.parametrize("method", ["tree_shap", "kernel_shap"])
    @pytest.mark.parametrize("aggregation", ["abs", "signed"])
    def test_batch_rankings_equal_per_row_rankings(
        self, incidents, method, aggregation, monkeypatch
    ):
        from repro.core.explainers import (
            KernelShapExplainer,
            TreeShapExplainer,
            model_output_fn,
        )

        rc, model, X_train, rows, culprits = incidents
        if method == "tree_shap":
            explainer = TreeShapExplainer(model, rc.feature_names, class_index=1)
        else:
            explainer = KernelShapExplainer(
                model_output_fn(model), X_train[:40], rc.feature_names,
                n_samples=64, random_state=0,
            )
        per_row = [
            rank_vnfs(vnf_attribution_scores(
                explainer.explain(x), aggregation=aggregation
            ))
            for x in rows
        ]
        evaluator = RootCauseEvaluator(n_vnfs=5, ks=(1, 2, 3))
        seen = []
        monkeypatch.setattr(
            "repro.core.rootcause.rank_vnfs",
            lambda scores: seen.append(rank_vnfs(scores)) or seen[-1],
        )
        report = evaluator.evaluate_explainer(
            explainer, rows, culprits, aggregation=aggregation
        )
        assert seen == per_row
        assert report.hits == evaluator.evaluate_rankings(
            per_row, culprits, method
        ).hits
