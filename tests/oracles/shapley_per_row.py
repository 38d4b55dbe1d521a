"""Per-row Shapley and path-gradient formulations: the reference for
the batch paths of KernelSHAP, sampling Shapley, exact Shapley and
Integrated Gradients.

Each of those explainers in :mod:`repro.core.explainers` attributes
through one path, ``explain_batch``, which shares its setup across
rows and stacks every model call.  This module keeps the one-row
formulations they must reproduce, each written independently of the
batch code:

* :func:`kernel_shap_row` — one masked-background model call per block
  of coalitions, then one weighted least-squares solve with the
  efficiency constraint substituted in (:func:`kernel_coalition_values`,
  :func:`kernel_solve`);
* :func:`sampling_shapley_row` — one permutation walk at a time, each
  building its ``d + 1`` hybrid datasets incrementally
  (:func:`sampling_walk`);
* :func:`exact_shapley_row` — every subset's value in a dict keyed by
  ``frozenset`` (:func:`coalition_value`), then the Shapley weights;
* :func:`integrated_gradients_row` — the midpoint rule on one straight
  path.

Each ``*_row`` takes the explainer (for its configuration: model,
background, budgets) and one instance, and returns
``(values, base_value, prediction)``.  Nothing here imports ``repro``,
and nothing calls an explainer's ``explain_batch``, so the benches time
these as their per-row baseline arms.
"""

from __future__ import annotations

from itertools import combinations
from math import comb

import numpy as np

__all__ = [
    "coalition_value",
    "exact_shapley_row",
    "integrated_gradients_row",
    "kernel_coalition_values",
    "kernel_shap_row",
    "kernel_solve",
    "sampling_shapley_row",
    "sampling_walk",
]


# ----------------------------------------------------------------------
# KernelSHAP
# ----------------------------------------------------------------------
def kernel_coalition_values(
    predict_fn, background: np.ndarray, x: np.ndarray, masks: np.ndarray
) -> np.ndarray:
    """``v(S)`` for every mask: mean prediction over background rows
    with coalition features replaced by ``x``'s values."""
    n_bg = len(background)
    values = np.empty(len(masks))
    # evaluate in blocks to bound memory: each mask expands to n_bg rows
    block = max(1, 4096 // n_bg)
    for start in range(0, len(masks), block):
        chunk = masks[start : start + block]
        tiled = np.repeat(background[None, :, :], len(chunk), axis=0)
        for row, mask in enumerate(chunk):
            tiled[row, :, mask] = x[mask, None]
        flat = tiled.reshape(-1, background.shape[1])
        preds = np.asarray(predict_fn(flat), dtype=float)
        values[start : start + len(chunk)] = preds.reshape(
            len(chunk), n_bg
        ).mean(axis=1)
    return values


def kernel_solve(masks, weights, v, fx, v0, l2: float = 0.0) -> np.ndarray:
    """Weighted least squares with the efficiency constraint enforced
    by eliminating the last feature."""
    d = masks.shape[1]
    z = masks.astype(float)
    # target with the constraint substituted in
    y = v - v0 - z[:, -1] * (fx - v0)
    A = z[:, :-1] - z[:, [-1]]
    sw = weights
    gram = A.T @ (sw[:, None] * A)
    if l2 > 0:
        gram += l2 * np.eye(d - 1)
    rhs = A.T @ (sw * y)
    head, *_ = np.linalg.lstsq(gram, rhs, rcond=None)
    phi = np.empty(d)
    phi[:-1] = head
    phi[-1] = (fx - v0) - head.sum()
    return phi


def kernel_shap_row(explainer, x):
    """KernelSHAP at ``x`` on the explainer's own coalition design
    (``d >= 2``: one feature has no coalition to regress on)."""
    x = np.asarray(x, dtype=float).ravel()
    masks, weights = explainer._coalition_design(len(x))
    v = kernel_coalition_values(
        explainer.predict_fn, explainer.background, x, masks
    )
    fx = float(explainer.predict_fn(x.reshape(1, -1))[0])
    v0 = explainer.expected_value_
    phi = kernel_solve(masks, weights, v, fx, v0, explainer.l2)
    return phi, v0, fx


# ----------------------------------------------------------------------
# permutation sampling
# ----------------------------------------------------------------------
def sampling_walk(
    predict_fn, background: np.ndarray, x: np.ndarray, order: np.ndarray,
    phi: np.ndarray,
) -> None:
    """Add one permutation walk's marginal contributions to ``phi``.

    Builds the d+1 hybrid datasets incrementally (features switch
    from background values to x's values in ``order``) and evaluates
    them in a single batched model call.
    """
    n_bg, d = background.shape
    # stack of (d+1) * n_bg rows: step k has features order[:k] set to x
    steps = np.empty((d + 1, n_bg, d))
    current = background.copy()
    steps[0] = current
    for k, j in enumerate(order):
        current = current.copy()
        current[:, j] = x[j]
        steps[k + 1] = current
    values = np.asarray(
        predict_fn(steps.reshape(-1, d)), dtype=float
    ).reshape(d + 1, n_bg).mean(axis=1)
    phi[order] += np.diff(values)


def sampling_shapley_row(explainer, x, rng):
    """Permutation-sampling Shapley at ``x``; ``rng`` is a fresh
    generator seeded as the explainer seeds its own draws."""
    x = np.asarray(x, dtype=float).ravel()
    d = len(x)
    phi = np.zeros(d)
    n_walks = 0
    for _ in range(explainer.n_permutations):
        order = rng.permutation(d)
        sampling_walk(explainer.predict_fn, explainer.background, x, order, phi)
        n_walks += 1
        if explainer.antithetic:
            sampling_walk(
                explainer.predict_fn, explainer.background, x, order[::-1], phi
            )
            n_walks += 1
    phi /= n_walks
    prediction = float(explainer.predict_fn(x.reshape(1, -1))[0])
    return phi, explainer.expected_value_, prediction


# ----------------------------------------------------------------------
# exact enumeration
# ----------------------------------------------------------------------
def coalition_value(
    predict_fn, x: np.ndarray, background: np.ndarray, subset
) -> float:
    """Interventional value ``v(S)`` of coalition ``subset`` at ``x``."""
    data = background.copy()
    subset = list(subset)
    if subset:
        data[:, subset] = x[subset]
    return float(np.mean(predict_fn(data)))


def exact_shapley_row(explainer, x):
    """Exact Shapley values of every feature at ``x``."""
    x = np.asarray(x, dtype=float).ravel()
    d = len(x)
    # cache v(S) for every subset, keyed by frozenset
    values: dict[frozenset, float] = {}
    features = range(d)
    for size in range(d + 1):
        for subset in combinations(features, size):
            values[frozenset(subset)] = coalition_value(
                explainer.predict_fn, x, explainer.background, subset
            )
    phi = np.zeros(d)
    for i in features:
        others = [j for j in features if j != i]
        for size in range(d):
            weight = 1.0 / (d * comb(d - 1, size))
            for subset in combinations(others, size):
                s = frozenset(subset)
                phi[i] += weight * (values[s | {i}] - values[s])
    prediction = float(explainer.predict_fn(x.reshape(1, -1))[0])
    return phi, values[frozenset()], prediction


# ----------------------------------------------------------------------
# Integrated Gradients
# ----------------------------------------------------------------------
def integrated_gradients_row(explainer, x):
    """Integrated gradients at ``x`` by the midpoint rule on the
    straight path from the explainer's baseline."""
    x = np.asarray(x, dtype=float).ravel()
    baseline = explainer.baseline
    n_steps = explainer.n_steps
    alphas = (np.arange(n_steps) + 0.5) / n_steps
    points = baseline[None, :] + alphas[:, None] * (x - baseline)
    grads = explainer.model.input_gradients(points, explainer.output_index)
    phi = (x - baseline) * grads.mean(axis=0)
    prediction = float(explainer._raw_output(x.reshape(1, -1))[0])
    return phi, float(explainer.expected_value_), prediction
