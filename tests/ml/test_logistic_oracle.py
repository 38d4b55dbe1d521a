"""``LogisticRegression.fit`` against the reference loop, bit for bit.

The fit loop is written for few numpy calls per iteration; every
float it produces must still equal the straightforward loop kept in
``tests/oracles/logistic_gd.py``.  Equality is checked on the raw bytes,
so a signed zero or a last-bit difference fails.
"""

import numpy as np
import pytest
from oracles.logistic_gd import logistic_gd

from repro.ml import LogisticRegression
from repro.utils.rng import check_random_state


def _assert_matches_oracle(X, y, **params):
    model = LogisticRegression(**params).fit(X, y)
    codes = np.searchsorted(model.classes_, y)
    coef, intercept, n_iter = logistic_gd(X, codes, len(model.classes_), **params)
    assert model.n_iter_ == n_iter
    assert model.coef_.shape == coef.shape
    assert model.coef_.tobytes() == coef.tobytes()
    assert model.intercept_.tobytes() == intercept.tobytes()
    return model


def _loss(X, codes, W, b):
    """Mean cross-entropy plus ``||W||^2 / (2 n)``, the loss at ``c=1``."""
    Z = X @ W + b
    Z -= Z.max(axis=1, keepdims=True)
    logp = Z - np.log(np.exp(Z).sum(axis=1, keepdims=True))
    n = len(X)
    return -logp[np.arange(n), codes].mean() + 0.5 / n * np.sum(W * W)


@pytest.fixture(scope="module")
def telemetry(sla_dataset):
    """SLA telemetry rows (31 features) with both classes present."""
    return sla_dataset.X.values, np.asarray(sla_dataset.y)


@pytest.mark.parametrize("n", [11, 17, 24, 33, 48])
def test_serve_shapes_binary(telemetry, n):
    X, y = telemetry
    start = 7 * n
    Xw, yw = X[start:start + n], y[start:start + n]
    assert Xw.shape[1] == 31
    if len(np.unique(yw)) < 2:  # keep both classes in the window
        yw = yw.copy()
        yw[0] = 1 - yw[0]
    model = _assert_matches_oracle(Xw, yw, max_iter=400)
    assert model.n_iter_ == 400


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_random_binary_windows(seed):
    rng = check_random_state(seed)
    n = int(rng.integers(11, 49))
    X = rng.normal(size=(n, 31)) * rng.uniform(0.1, 20.0, size=31)
    y = (X[:, 0] + rng.normal(size=n) > 0).astype(int)
    y[:2] = [0, 1]
    _assert_matches_oracle(X, y, max_iter=400)


def test_three_classes(rng):
    X = rng.normal(size=(90, 5))
    y = np.digitize(X[:, 0] + 0.3 * X[:, 1], [-0.5, 0.5])
    model = _assert_matches_oracle(X, y, max_iter=300)
    assert len(model.classes_) == 3


def test_string_labels_three_classes(rng):
    X = rng.normal(size=(40, 4))
    y = np.array(["dpi", "fw", "lb"])[np.arange(40) % 3]
    _assert_matches_oracle(X, y, max_iter=200)


def test_without_intercept(telemetry):
    X, y = telemetry
    model = _assert_matches_oracle(X[:40], y[:40], max_iter=400, fit_intercept=False)
    assert not np.any(model.intercept_)


def test_large_learning_rate_backtracks(rng):
    X = rng.normal(size=(30, 6)) * 5.0
    y = (X[:, 0] > 0).astype(int)
    W1, b1, _ = logistic_gd(X, y, 2, max_iter=1, learning_rate=50.0)
    # the first step overshoots, so the loop halves the learning rate
    assert _loss(X, y, W1, b1) > np.log(2) + 1e-12
    _assert_matches_oracle(X, y, max_iter=300, learning_rate=50.0)


def test_loose_tol_stops_early(rng):
    X = rng.normal(size=(60, 3))
    y = (X[:, 0] > 0).astype(int)
    model = _assert_matches_oracle(X, y, max_iter=400, tol=1e-2)
    assert model.n_iter_ < 400


def test_fortran_ordered_X(telemetry):
    X, y = telemetry
    Xf = np.asfortranarray(X[:37])
    assert Xf.flags.f_contiguous and not Xf.flags.c_contiguous
    _assert_matches_oracle(Xf, y[:37], max_iter=400)


@pytest.mark.parametrize("rows", [slice(100, 131), slice(3, 99, 3)])
def test_row_sliced_X(telemetry, rows):
    X, y = telemetry
    _assert_matches_oracle(X[rows], y[rows], max_iter=400)
