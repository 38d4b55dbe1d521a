"""The numpy rank correlations against scipy, byte for byte.

``spearman_correlation`` and ``kendall_tau`` are plain numpy; scipy is
a test-only oracle.  Where scipy's statistic is NaN (a constant or a
NaN-bearing input) the wrappers return 0.0.  Equality is checked on
the raw bytes, so a last-bit or signed-zero difference fails.
"""

import warnings

import numpy as np
import pytest
from scipy import stats

from repro.core.evaluation.agreement import (
    _inversions,
    kendall_tau,
    spearman_correlation,
)
from repro.utils.rng import check_random_state

PAIRS = [
    (spearman_correlation, stats.spearmanr),
    (kendall_tau, stats.kendalltau),
]


def _oracle(fn, a, b, by_abs):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if by_abs:
        a, b = np.abs(a), np.abs(b)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        value = fn(a, b).statistic
    return float(value) if np.isfinite(value) else 0.0


def _assert_matches(a, b):
    for ours, oracle in PAIRS:
        for by_abs in (True, False):
            got = ours(a, b, by_abs=by_abs)
            want = _oracle(oracle, a, b, by_abs)
            assert type(got) is float
            assert np.float64(got).tobytes() == np.float64(want).tobytes(), (
                ours.__name__,
                by_abs,
            )


def _cases(rng, n_cases):
    """Continuous, heavily tied, signed and partly constant inputs."""
    for i in range(n_cases):
        n = int(rng.integers(2, 40))
        kind = i % 4
        if kind == 0:
            a, b = rng.normal(size=n), rng.normal(size=n)
        elif kind == 1:
            a = rng.integers(-3, 4, n).astype(float)
            b = rng.integers(-3, 4, n).astype(float)
        elif kind == 2:
            a = np.round(rng.normal(size=n), 1)
            b = a + np.round(rng.normal(size=n), 1)
        else:
            a = rng.integers(0, 2, n).astype(float)
            b = rng.integers(0, 3, n).astype(float)
        yield a, b


class TestAgainstScipy:
    def test_random_inputs_with_ties_and_signs(self):
        rng = check_random_state(0)
        for a, b in _cases(rng, 2000):
            _assert_matches(a, b)

    def test_attribution_shaped_vectors(self):
        # 31 features, a few shared zeros: the shape the matrix scores
        rng = check_random_state(1)
        for _ in range(200):
            a, b = rng.normal(size=31), rng.normal(size=31)
            a[rng.integers(0, 31, 4)] = 0.0
            b[rng.integers(0, 31, 4)] = -0.0
            _assert_matches(a, b)

    @pytest.mark.parametrize(
        "a, b",
        [
            ([1.0, 1.0, 1.0], [0.0, 1.0, 2.0]),
            ([0.0, 1.0, 2.0], [5.0, 5.0, 5.0]),
            ([-2.0, 2.0, 2.0, -2.0], [1.0, 2.0, 3.0, 4.0]),  # constant |a|
            ([np.nan, 1.0, 2.0], [0.0, 1.0, 2.0]),
            ([0.0, 1.0, 2.0], [0.0, np.nan, 2.0]),
            ([np.nan, np.nan], [np.nan, np.nan]),
            ([np.inf, -np.inf, 0.0, 1.0], [1.0, 2.0, 3.0, 4.0]),
            ([1.0, 2.0], [2.0, 1.0]),
        ],
    )
    def test_undefined_and_edge_inputs(self, a, b):
        _assert_matches(a, b)

    def test_long_kendall_vector(self):
        rng = check_random_state(2)
        a = rng.integers(0, 60, 6000).astype(float)
        b = a + rng.normal(size=6000)
        b[::7] = np.round(b[::7])
        for by_abs in (True, False):
            got = kendall_tau(a, b, by_abs=by_abs)
            want = _oracle(stats.kendalltau, a, b, by_abs)
            assert np.float64(got).tobytes() == np.float64(want).tobytes()


def test_inversions_match_the_pair_count():
    rng = check_random_state(3)
    ascending = np.arange(1, 101, dtype=np.intp)
    cases = [ascending, ascending[::-1].copy()] + [
        rng.integers(1, 20, int(rng.integers(1, 60))).astype(np.intp)
        for _ in range(300)
    ]
    for y in cases:
        want = sum(int((y[i] > y[i + 1:]).sum()) for i in range(len(y)))
        assert _inversions(y) == want
