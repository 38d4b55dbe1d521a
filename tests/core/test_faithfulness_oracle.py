"""The faithfulness metrics' one hybrid helper against the reference
tile-and-assign loops in ``tests/oracles/faithfulness_rows.py``.

``predict_fn`` must receive the loops' rows byte for byte (same shape,
dtype, order and bits, signed zeros included) in one call per curve,
so the matrix and search goldens cannot move.
"""

import numpy as np
import pytest
from oracles import faithfulness_rows

from repro.core.evaluation import (
    comprehensiveness,
    deletion_curve,
    insertion_curve,
    sufficiency,
)
from repro.utils.rng import check_random_state


def _recorder(calls):
    def predict(X):
        calls.append(np.array(X, copy=True))
        return X @ np.linspace(-1.0, 1.0, X.shape[1]) + np.sin(X[:, 0])
    return predict


def _cases(n=60):
    rng = check_random_state(0)
    for case in range(n):
        d = int(rng.integers(1, 25))
        x = rng.normal(size=d)
        x[int(rng.integers(0, d))] = -0.0
        baseline = rng.normal(size=d)
        # integer-valued attributions tie, so the ranking's tie order
        # is exercised too
        if case % 2:
            attributions = rng.integers(-3, 4, size=d).astype(float)
        else:
            attributions = rng.normal(size=d)
        yield (x, attributions, baseline,
               int(rng.integers(1, 30)), int(rng.integers(1, d + 1)))


def _same_bytes(got, ref):
    assert got.dtype == ref.dtype and got.shape == ref.shape
    assert got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("kind", ["deletion", "insertion"])
@pytest.mark.parametrize("order", ["abs", "signed"])
def test_curves_score_the_reference_rows(kind, order):
    curve_fn = deletion_curve if kind == "deletion" else insertion_curve
    for x, attributions, baseline, n_steps, _ in _cases():
        calls = []
        curve = curve_fn(
            _recorder(calls), x, attributions, baseline,
            n_steps=n_steps, order=order,
        )
        fractions, rows = faithfulness_rows.curve_rows(
            x, attributions, baseline, n_steps, order, kind
        )
        assert len(calls) == 1
        _same_bytes(calls[0], rows)
        _same_bytes(curve.fractions, fractions)
        _same_bytes(curve.scores, _recorder([])(rows))


@pytest.mark.parametrize("metric", [comprehensiveness, sufficiency])
def test_top_k_metrics_score_the_reference_rows(metric):
    for x, attributions, baseline, _, k in _cases():
        calls = []
        score = metric(_recorder(calls), x, attributions, baseline, k)
        rows = faithfulness_rows.top_k_rows(
            x, attributions, baseline, k, metric.__name__
        )
        assert len(calls) == 1
        _same_bytes(calls[0], rows)
        scores = _recorder([])(rows)
        assert score == float(scores[0] - scores[1])
