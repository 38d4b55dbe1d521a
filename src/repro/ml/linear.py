"""Linear models: OLS, ridge, and logistic regression.

These serve both as baselines in the evaluation (E1) and as the solver
inside the LIME / KernelSHAP explainers (weighted ridge regression).
"""

from __future__ import annotations

import math

import numpy as np

from repro.ml.base import BaseEstimator, ClassifierMixin, RegressorMixin
from repro.utils.validation import check_array, check_fitted, check_X_y

__all__ = [
    "LinearRegression",
    "RidgeRegression",
    "LogisticRegression",
    "solve_weighted_ridge",
]


def solve_weighted_ridge(
    X: np.ndarray,
    y: np.ndarray,
    sample_weight: np.ndarray | None = None,
    alpha: float = 0.0,
    fit_intercept: bool = True,
) -> tuple[np.ndarray, float]:
    """Solve ``min_w sum_i s_i (y_i - x_i.w - b)^2 + alpha ||w||^2``.

    The intercept ``b`` is never regularized.  Returns ``(coef, intercept)``.
    This is the work-horse used by LIME and KernelSHAP.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n, d = X.shape
    if sample_weight is None:
        sample_weight = np.ones(n)
    else:
        sample_weight = np.asarray(sample_weight, dtype=float)
        if np.any(sample_weight < 0):
            raise ValueError("sample_weight must be non-negative")
    if fit_intercept:
        Xd = np.hstack([X, np.ones((n, 1))])
    else:
        Xd = X
    sw = sample_weight[:, None]
    gram = Xd.T @ (sw * Xd)
    if alpha > 0:
        reg = np.eye(Xd.shape[1]) * alpha
        if fit_intercept:
            reg[-1, -1] = 0.0
        gram = gram + reg
    rhs = Xd.T @ (sample_weight * y)
    # lstsq handles the singular case (e.g. duplicated coalitions) gracefully
    beta, *_ = np.linalg.lstsq(gram, rhs, rcond=None)
    if fit_intercept:
        return beta[:-1], float(beta[-1])
    return beta, 0.0


class LinearRegression(BaseEstimator, RegressorMixin):
    """Ordinary least squares via ``numpy.linalg.lstsq``."""

    def __init__(self, fit_intercept: bool = True):
        self.fit_intercept = fit_intercept
        self.coef_ = None
        self.intercept_ = None

    def fit(self, X, y) -> "LinearRegression":
        X, y = check_X_y(X, y, y_numeric=True)
        self.n_features_in_ = X.shape[1]
        if self.fit_intercept:
            Xd = np.hstack([X, np.ones((len(X), 1))])
        else:
            Xd = X
        beta, *_ = np.linalg.lstsq(Xd, y, rcond=None)
        if self.fit_intercept:
            self.coef_, self.intercept_ = beta[:-1], float(beta[-1])
        else:
            self.coef_, self.intercept_ = beta, 0.0
        return self

    def predict(self, X) -> np.ndarray:
        check_fitted(self, "coef_")
        X = check_array(X, name="X")
        return X @ self.coef_ + self.intercept_


class RidgeRegression(BaseEstimator, RegressorMixin):
    """L2-regularized least squares (intercept unpenalized)."""

    def __init__(self, alpha: float = 1.0, fit_intercept: bool = True):
        if alpha < 0:
            raise ValueError(f"alpha must be non-negative, got {alpha}")
        self.alpha = alpha
        self.fit_intercept = fit_intercept
        self.coef_ = None
        self.intercept_ = None

    def fit(self, X, y, sample_weight=None) -> "RidgeRegression":
        X, y = check_X_y(X, y, y_numeric=True)
        self.n_features_in_ = X.shape[1]
        self.coef_, self.intercept_ = solve_weighted_ridge(
            X, y, sample_weight, alpha=self.alpha, fit_intercept=self.fit_intercept
        )
        return self

    def predict(self, X) -> np.ndarray:
        check_fitted(self, "coef_")
        X = check_array(X, name="X")
        return X @ self.coef_ + self.intercept_


def _softmax(Z: np.ndarray) -> np.ndarray:
    Z = Z - Z.max(axis=1, keepdims=True)
    e = np.exp(Z)
    return e / e.sum(axis=1, keepdims=True)


class LogisticRegression(BaseEstimator, ClassifierMixin):
    """Multinomial logistic regression trained by full-batch gradient
    descent with backtracking on the learning rate.

    Parameters
    ----------
    c:
        Inverse regularization strength (larger = less regularization).
    max_iter, tol:
        Optimization budget and gradient-norm stopping tolerance.
    learning_rate:
        Initial step size; halved whenever a step increases the loss.
    """

    def __init__(
        self,
        c: float = 1.0,
        max_iter: int = 500,
        tol: float = 1e-6,
        learning_rate: float = 0.5,
        fit_intercept: bool = True,
    ):
        if c <= 0:
            raise ValueError(f"c must be positive, got {c}")
        if max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {max_iter}")
        if not tol >= 0:
            raise ValueError(f"tol must be non-negative, got {tol}")
        if not learning_rate > 0:
            raise ValueError(f"learning_rate must be positive, got {learning_rate}")
        self.c = c
        self.max_iter = max_iter
        self.tol = tol
        self.learning_rate = learning_rate
        self.fit_intercept = fit_intercept
        self.coef_ = None
        self.intercept_ = None
        self.classes_ = None
        self.n_iter_ = 0

    # ------------------------------------------------------------------
    def fit(self, X, y) -> "LogisticRegression":
        """Minimise the mean cross-entropy plus ``||W||^2 / (2 c n)``.

        Each iteration computes exactly the floats of the textbook loop
        (``tests/oracles/logistic_gd.py``, checked bit for bit by
        ``tests/ml/test_logistic_oracle.py``) with about half its numpy
        calls: at refit sizes numpy's per-call overhead, not arithmetic,
        is the cost (``docs/performance.md``).
        """
        X, y = check_X_y(X, y)
        codes = self._encode_labels(y)
        n, d = X.shape
        k = len(self.classes_)
        # flat index of each row's true class in an (n, k) array
        true_idx = np.arange(n) * k + codes
        Y = np.zeros((n, k))
        Y.flat[true_idx] = 1.0
        XT = X.T
        # W and b are the first d rows and the last row of one array, and
        # so are their gradients, so one subtraction steps both
        Wb = np.zeros((d + 1, k))
        W, b = Wb[:d], Wb[d]
        G = np.zeros((d + 1, k))
        grad_W, grad_b = G[:d], G[d]
        # every per-iteration temporary has a buffer.  A row max is a fold
        # over P's column views; so is a row sum below 8 columns, where
        # numpy's row reduction adds left to right (from 8 it sums
        # pairwise, so that reduction stays)
        P = np.empty((n, k))
        first, second, *rest = [P[:, j] for j in range(k)]
        row = np.empty(n)
        row_column = row[:, None]
        W2, lam_W, G2 = np.empty((d, k)), np.empty((d, k)), np.empty((d + 1, k))
        G2_W, G2_b = G2[:d], G2[d]
        lam = 1.0 / (self.c * n)
        half_lam = 0.5 * lam
        lr = self.learning_rate
        tol = self.tol
        fit_intercept = self.fit_intercept
        add_reduce = np.add.reduce
        pairwise = k >= 8
        prev_loss = np.inf
        for it in range(self.max_iter):
            np.matmul(X, W, out=P)
            P += b
            np.maximum(first, second, out=row)
            for column in rest:
                np.maximum(row, column, out=row)
            P -= row_column
            np.exp(P, out=P)
            if pairwise:
                add_reduce(P, axis=1, out=row)
            else:
                np.add(first, second, out=row)
                for column in rest:
                    np.add(row, column, out=row)
            P /= row_column
            # Y is one-hot, so a row of Y * log(clip(P)) sums to the true
            # class's log-probability plus signed zeros: read it directly.
            # A softmax entry never exceeds 1, so the clip's upper bound
            # is a no-op.
            p = P.take(true_idx)
            np.log(np.maximum(p, 1e-12, out=p), out=p)
            np.multiply(W, W, out=W2)
            loss = -(add_reduce(p) / n) + half_lam * add_reduce(W2, axis=None)
            P -= Y
            np.matmul(XT, P, out=grad_W)
            if fit_intercept:
                add_reduce(P, axis=0, out=grad_b)
            G /= n
            grad_W += np.multiply(W, lam, out=lam_W)
            np.multiply(G, G, out=G2)
            sq_norm = add_reduce(G2_W, axis=None)
            if fit_intercept:
                sq_norm += add_reduce(G2_b)
            if math.sqrt(sq_norm) < tol:
                break
            # backtrack if the step increased the loss
            if loss > prev_loss + 1e-12:
                lr *= 0.5
            prev_loss = loss
            G *= lr
            Wb -= G
        self.n_iter_ = it + 1
        self.n_features_in_ = d
        self.coef_ = W.copy()
        self.intercept_ = b.copy()
        return self

    def decision_function(self, X) -> np.ndarray:
        check_fitted(self, "coef_")
        X = check_array(X, name="X")
        return X @ self.coef_ + self.intercept_

    def predict_proba(self, X) -> np.ndarray:
        """Class probabilities, columns ordered as ``classes_``."""
        return _softmax(self.decision_function(X))

    def predict(self, X) -> np.ndarray:
        proba = self.predict_proba(X)
        return self._decode_labels(np.argmax(proba, axis=1))
