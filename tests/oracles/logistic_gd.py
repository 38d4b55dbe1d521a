"""Reference gradient-descent loop for :class:`repro.ml.LogisticRegression`.

This is the loop ``LogisticRegression.fit`` ran before it was rewritten
to make fewer numpy calls per iteration, kept verbatim.  The rewrite
must reproduce its ``coef_``, ``intercept_`` and ``n_iter_`` bit for bit
(``tests/ml/test_logistic_oracle.py``).
"""

from __future__ import annotations

import numpy as np


def _softmax(Z: np.ndarray) -> np.ndarray:
    Z = Z - Z.max(axis=1, keepdims=True)
    e = np.exp(Z)
    return e / e.sum(axis=1, keepdims=True)


def logistic_gd(
    X: np.ndarray,
    codes: np.ndarray,
    k: int,
    *,
    c: float = 1.0,
    max_iter: int = 500,
    tol: float = 1e-6,
    learning_rate: float = 0.5,
    fit_intercept: bool = True,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Fit on validated ``X`` and integer class ``codes`` in ``[0, k)``.

    Returns ``(coef, intercept, n_iter)``.
    """
    n, d = X.shape
    Y = np.zeros((n, k))
    Y[np.arange(n), codes] = 1.0
    W = np.zeros((d, k))
    b = np.zeros(k)
    lam = 1.0 / (c * n)
    lr = learning_rate
    prev_loss = np.inf
    for it in range(max_iter):
        logits = X @ W + b
        P = _softmax(logits)
        loss = -np.mean(np.sum(Y * np.log(np.clip(P, 1e-12, 1.0)), axis=1))
        loss += 0.5 * lam * np.sum(W * W)
        grad_W = X.T @ (P - Y) / n + lam * W
        grad_b = (P - Y).mean(axis=0) if fit_intercept else np.zeros(k)
        grad_norm = np.sqrt(np.sum(grad_W**2) + np.sum(grad_b**2))
        if grad_norm < tol:
            break
        # backtrack if the step increased the loss
        if loss > prev_loss + 1e-12:
            lr *= 0.5
        prev_loss = loss
        W -= lr * grad_W
        b -= lr * grad_b
    return W, b, it + 1
