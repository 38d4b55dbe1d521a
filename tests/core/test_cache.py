"""Tests for repro.core.cache — the memoized KernelSHAP coalition
designs."""

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.core.cache import (
    MAX_DESIGNS,
    cache_stats,
    clear_cache,
    coalition_design,
)
from repro.core.explainers import (
    ExactShapleyExplainer,
    KernelShapExplainer,
    SamplingShapleyExplainer,
)
from repro.utils.rng import check_random_state


class CountingModel:
    """A predict function that counts its calls."""

    def __init__(self):
        self.calls = 0

    def __call__(self, X):
        X = np.atleast_2d(X)
        self.calls += 1
        return X.sum(axis=1)


BUILDS = []


def counting_build(d, n_samples, paired, seed):
    """A deterministic design builder that records each build."""
    BUILDS.append((d, n_samples, paired, seed))
    return np.ones((3, d), dtype=bool), np.full(3, float(seed))


def explain_one(explainer_and_row):
    explainer, row = explainer_and_row
    return explainer.explain(row).values


@pytest.fixture(autouse=True)
def cold_cache():
    clear_cache()
    BUILDS.clear()
    yield
    clear_cache()


class TestCoalitionDesignCache:
    def test_build_called_once_per_key(self):
        m1, w1 = coalition_design(counting_build, 4, 64, True, 0)
        m2, w2 = coalition_design(counting_build, 4, 64, True, 0)
        assert BUILDS == [(4, 64, True, 0)]
        assert m1 is m2 and w1 is w2
        assert not m1.flags.writeable and not w1.flags.writeable
        coalition_design(counting_build, 4, 64, True, 1)
        assert len(BUILDS) == 2
        assert cache_stats()["hits"] == 1
        assert cache_stats()["misses"] == 2

    def test_kernel_explainer_shares_design_across_instances(self):
        fn = CountingModel()
        bg = np.linspace(0.0, 1.0, 24).reshape(6, 4)
        first = KernelShapExplainer(fn, bg, n_samples=32, random_state=0)
        first.explain(bg[0])
        designs_after_first = cache_stats()["design_entries"]
        assert designs_after_first == 1
        second = KernelShapExplainer(fn, bg, n_samples=32, random_state=0)
        second.explain(bg[1])
        assert cache_stats()["design_entries"] == designs_after_first
        assert cache_stats()["hits"] == 1

    def test_generator_random_state_bypasses_cache(self):
        fn = CountingModel()
        bg = np.linspace(0.0, 1.0, 24).reshape(6, 4)
        explainer = KernelShapExplainer(
            fn, bg, n_samples=32, random_state=check_random_state(0)
        )
        explainer.explain(bg[0])
        assert cache_stats()["design_entries"] == 0
        assert cache_stats()["misses"] == 0

    def test_clear_resets_counters(self):
        coalition_design(counting_build, 3, 8, False, 0)
        coalition_design(counting_build, 3, 8, False, 0)
        clear_cache()
        assert cache_stats() == {
            "hits": 0,
            "misses": 0,
            "evictions": 0,
            "token_evictions": 0,
            "design_entries": 0,
        }

    def test_least_recently_used_design_is_evicted(self):
        for seed in range(MAX_DESIGNS + 2):
            coalition_design(counting_build, 3, 8, False, seed)
        stats = cache_stats()
        assert stats["design_entries"] == MAX_DESIGNS
        assert stats["evictions"] == 2
        # seed 0 was evicted: asking again rebuilds it
        coalition_design(counting_build, 3, 8, False, 0)
        assert len(BUILDS) == MAX_DESIGNS + 3

    def test_thread_safety_under_concurrent_requests(self):
        bg = np.linspace(0.0, 1.0, 40).reshape(10, 4)
        explainer = KernelShapExplainer(
            CountingModel(), bg, n_samples=32, random_state=0
        )
        expected = explainer.explain(bg[3]).values
        clear_cache()
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(explain_one, [(explainer, bg[3])] * 32))
        for result in results:
            np.testing.assert_array_equal(result, expected)
        stats = cache_stats()
        assert stats["hits"] + stats["misses"] == 32
        assert stats["design_entries"] == 1

    def test_stats_carry_the_keys_perfbench_reads(self):
        stats = cache_stats()
        for key in ("hits", "misses", "evictions", "token_evictions"):
            assert isinstance(stats[key], int)
        assert stats["token_evictions"] == 0


class TestCachedExplainerCorrectness:
    @pytest.mark.parametrize("explainer_cls, kwargs", [
        (KernelShapExplainer, {"n_samples": 16, "random_state": 0}),
        (SamplingShapleyExplainer, {"random_state": 0}),
        (ExactShapleyExplainer, {}),
    ], ids=["kernel_shap", "sampling_shapley", "exact_shapley"])
    def test_expected_value_is_mean_of_background_predictions(
        self, explainer_cls, kwargs
    ):
        def predict_fn(X):
            return np.sin(np.atleast_2d(X)) @ np.array([0.3, -1.7, 2.9, 0.1])

        bg = np.linspace(-1.0, 1.0, 40).reshape(10, 4)
        explainer = explainer_cls(predict_fn, bg, **kwargs)
        assert explainer.expected_value_ == float(np.mean(predict_fn(bg)))
