"""Tests for the comprehensiveness/sufficiency faithfulness metrics."""

import numpy as np
import pytest

from repro.core.evaluation import (
    comprehensiveness,
    deletion_curve,
    insertion_curve,
    sufficiency,
)
from repro.core.explainers import LinearShapExplainer, model_output_fn
from repro.ml import LinearRegression


@pytest.fixture(scope="module")
def setup():
    gen = np.random.default_rng(0)
    X = gen.normal(size=(300, 6))
    coef = np.array([5.0, 3.0, 1.0, 0.0, 0.0, 0.0])
    model = LinearRegression().fit(X, X @ coef)
    fn = model_output_fn(model)
    baseline = X.mean(axis=0)
    explainer = LinearShapExplainer(model, X)
    # a point where the informative features carry large values
    x = X[np.argmax(np.abs(X[:, :2]).sum(axis=1))]
    return fn, x, explainer.explain(x).values, baseline, coef


class TestComprehensiveness:
    def test_linear_closed_form(self, setup):
        """Removing top-k features of a linear model drops the score by
        exactly the sum of their attributions."""
        fn, x, attrs, baseline, coef = setup
        for k in (1, 2, 3):
            top = np.argsort(-np.abs(attrs))[:k]
            expected = float(attrs[top].sum())
            assert comprehensiveness(fn, x, attrs, baseline, k) == pytest.approx(
                expected, abs=1e-9
            )

    def test_grows_with_k_for_aligned_attributions(self, setup):
        fn, x, attrs, baseline, coef = setup
        # force positive contributions so the drop accumulates
        x_pos = np.abs(x) + baseline
        attrs_pos = coef * (x_pos - baseline)
        c1 = comprehensiveness(fn, x_pos, attrs_pos, baseline, 1)
        c3 = comprehensiveness(fn, x_pos, attrs_pos, baseline, 3)
        assert c3 >= c1

    def test_random_attribution_scores_lower(self, setup):
        fn, x, attrs, baseline, _ = setup
        gen = np.random.default_rng(1)
        random_scores = []
        for _ in range(10):
            shuffled = gen.permutation(attrs)
            random_scores.append(
                abs(comprehensiveness(fn, x, shuffled, baseline, 2))
            )
        true_score = abs(comprehensiveness(fn, x, attrs, baseline, 2))
        assert true_score >= np.mean(random_scores)

    def test_k_validation(self, setup):
        fn, x, attrs, baseline, _ = setup
        with pytest.raises(ValueError, match="k"):
            comprehensiveness(fn, x, attrs, baseline, 0)
        with pytest.raises(ValueError, match="k"):
            comprehensiveness(fn, x, attrs, baseline, 7)


class TestSufficiency:
    def test_linear_closed_form(self, setup):
        """Keeping only top-k features leaves a gap equal to the sum of
        the *other* features' attributions."""
        fn, x, attrs, baseline, coef = setup
        for k in (1, 3, 5):
            top = np.argsort(-np.abs(attrs))[:k]
            rest = np.setdiff1d(np.arange(len(x)), top)
            expected = float(attrs[rest].sum())
            assert sufficiency(fn, x, attrs, baseline, k) == pytest.approx(
                expected, abs=1e-9
            )

    def test_all_features_kept_zero_gap(self, setup):
        fn, x, attrs, baseline, _ = setup
        assert sufficiency(fn, x, attrs, baseline, len(x)) == pytest.approx(
            0.0, abs=1e-9
        )

    def test_good_explanation_small_gap_at_small_k(self, setup):
        """The 3 informative features suffice for this model."""
        fn, x, attrs, baseline, _ = setup
        assert abs(sufficiency(fn, x, attrs, baseline, 3)) < 1e-9


@pytest.mark.parametrize("metric", [
    lambda f, x, a, b: comprehensiveness(f, x, a, b, 2),
    lambda f, x, a, b: sufficiency(f, x, a, b, 2),
    deletion_curve,
    insertion_curve,
], ids=["comprehensiveness", "sufficiency", "deletion", "insertion"])
@pytest.mark.parametrize("n_attrs, n_baseline", [(2, 4), (4, 6), (6, 4)])
def test_length_mismatch_is_named(metric, n_attrs, n_baseline):
    """Every hybrid metric rejects mismatched lengths with one named
    error: a short attribution vector used to score a number, and a long
    baseline used to die inside ``np.vstack``."""
    def f(X):
        return np.asarray(X).sum(axis=1)

    with pytest.raises(ValueError, match="length mismatch: x=4"):
        metric(f, np.ones(4), np.ones(n_attrs), np.zeros(n_baseline))
