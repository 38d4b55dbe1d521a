"""Perturbation-based faithfulness: deletion and insertion curves.

If an explanation correctly identifies the features driving a
prediction, then *deleting* those features (replacing them with a
neutral baseline) in attribution order should collapse the prediction
quickly — and *inserting* them into a fully-neutral instance should
restore it quickly.  The areas under these curves are the standard
faithfulness scores (lower deletion AUC / higher insertion AUC =
more faithful); experiment E5 compares explainers with them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "PerturbationCurve",
    "comprehensiveness",
    "deletion_curve",
    "insertion_curve",
    "normalized_auc",
    "faithfulness_report",
    "sufficiency",
]


@dataclass
class PerturbationCurve:
    """A deletion or insertion trajectory.

    Attributes
    ----------
    fractions:
        Fraction of features perturbed at each step (0 .. 1).
    scores:
        Model output after each step.
    kind:
        ``"deletion"`` or ``"insertion"``.
    """

    fractions: np.ndarray
    scores: np.ndarray
    kind: str

    @property
    def auc(self) -> float:
        """Area under the curve over the perturbed-fraction axis."""
        return float(np.trapezoid(self.scores, self.fractions))


def _order_from(attributions: np.ndarray, order: str) -> np.ndarray:
    if order == "abs":
        return np.argsort(-np.abs(attributions))
    if order == "signed":
        return np.argsort(-attributions)
    if order == "random":
        raise ValueError("use a shuffled attribution vector for random order")
    raise ValueError(f"unknown order {order!r}")


def _hybrid_scores(
    predict_fn,
    x,
    attributions,
    baseline,
    *,
    keep_top: bool,
    n_steps: int | None = None,
    k: int | None = None,
    order: str = "abs",
):
    """Validate, then score ``where(kept, x, baseline)`` rows in one
    ``predict_fn`` call.

    Each row perturbs the top-ranked features: ``n_steps + 1`` evenly
    spaced counts of them (deduplicated) for a curve, or none and then
    the top ``k`` for a top-k metric.  Perturbed features are the only
    ones kept from ``x`` when ``keep_top``, else the ones replaced by
    ``baseline``.  Returns ``(perturbed fraction per row, scores)``.
    """
    x = np.asarray(x, dtype=float).ravel()
    attributions = np.asarray(attributions, dtype=float).ravel()
    baseline = np.asarray(baseline, dtype=float).ravel()
    d = len(x)
    if not d == len(attributions) == len(baseline):
        raise ValueError(
            f"length mismatch: x={d}, attributions={len(attributions)}, "
            f"baseline={len(baseline)}"
        )
    if k is None:
        if n_steps < 1:
            raise ValueError(f"n_steps must be >= 1, got {n_steps}")
        counts = np.unique(
            np.round(np.linspace(0, d, n_steps + 1)).astype(int)
        )
    else:
        if not 1 <= k <= d:
            raise ValueError(f"k must be in [1, {d}], got {k}")
        # the first row is x itself: every feature kept, or none deleted
        counts = np.array([d if keep_top else 0, k])
    rank = np.empty(d, dtype=np.intp)
    rank[_order_from(attributions, order)] = np.arange(d)
    top = rank < counts[:, None]
    rows = np.where(top if keep_top else ~top, x, baseline)
    return counts / d, np.asarray(predict_fn(rows), dtype=float)


def deletion_curve(
    predict_fn,
    x,
    attributions,
    baseline,
    *,
    n_steps: int = 20,
    order: str = "abs",
) -> PerturbationCurve:
    """Replace features with ``baseline`` values in attribution order.

    Parameters
    ----------
    predict_fn:
        ``f(X) -> 1-D scores``.
    x:
        Instance being explained.
    attributions:
        Per-feature attribution values (ranking source).
    baseline:
        Neutral replacement values (commonly the background mean).
    n_steps:
        Number of curve points after the initial unperturbed one.
    order:
        ``"abs"`` ranks by |attribution| (default), ``"signed"`` by raw
        value.
    """
    fractions, scores = _hybrid_scores(
        predict_fn, x, attributions, baseline,
        keep_top=False, n_steps=n_steps, order=order,
    )
    return PerturbationCurve(fractions, scores, kind="deletion")


def insertion_curve(
    predict_fn,
    x,
    attributions,
    baseline,
    *,
    n_steps: int = 20,
    order: str = "abs",
) -> PerturbationCurve:
    """Start from ``baseline`` and restore features in attribution order."""
    fractions, scores = _hybrid_scores(
        predict_fn, x, attributions, baseline,
        keep_top=True, n_steps=n_steps, order=order,
    )
    return PerturbationCurve(fractions, scores, kind="insertion")


def comprehensiveness(
    predict_fn, x, attributions, baseline, k: int
) -> float:
    """Score drop when the top-``k`` attributed features are removed.

    ``f(x) - f(x with top-k replaced by baseline)`` — *large* values
    mean the explanation captured the features the model actually
    needed (DeYoung et al. 2020's "comprehensiveness").
    """
    _, scores = _hybrid_scores(
        predict_fn, x, attributions, baseline, keep_top=False, k=k
    )
    return float(scores[0] - scores[1])


def sufficiency(predict_fn, x, attributions, baseline, k: int) -> float:
    """Score drop when *only* the top-``k`` features are kept.

    ``f(x) - f(baseline with top-k taken from x)`` — *small* values mean
    the top-k features alone already reproduce the prediction.
    """
    _, scores = _hybrid_scores(
        predict_fn, x, attributions, baseline, keep_top=True, k=k
    )
    return float(scores[0] - scores[1])


def normalized_auc(curve: PerturbationCurve) -> float:
    """AUC rescaled so 0 = the curve never leaves its starting score and
    1 = it immediately reaches its ending score.

    For a deletion curve of a faithful explanation the score collapses
    early, so the normalized AUC is *small*; for insertion it is large.
    """
    start = curve.scores[0]
    end = curve.scores[-1]
    span = end - start
    if abs(span) < 1e-12:
        return 0.0
    relative = (curve.scores - start) / span
    return float(np.trapezoid(relative, curve.fractions))


def faithfulness_report(
    predict_fn,
    X,
    attributions_per_row,
    baseline,
    *,
    n_steps: int = 20,
    random_state=None,
) -> dict:
    """Mean deletion/insertion AUCs over many instances, plus a
    random-ranking control computed with shuffled attributions.

    Returns a dict with ``deletion_auc``, ``insertion_auc``,
    ``random_deletion_auc`` (all normalized, averaged over rows).
    """
    from repro.utils.rng import check_random_state

    X = np.asarray(X, dtype=float)
    rng = check_random_state(random_state)
    if len(X) != len(attributions_per_row):
        raise ValueError("X and attributions_per_row must align")
    deletion, insertion, random_del = [], [], []
    for x, attr in zip(X, attributions_per_row):
        deletion.append(
            normalized_auc(
                deletion_curve(predict_fn, x, attr, baseline, n_steps=n_steps)
            )
        )
        insertion.append(
            normalized_auc(
                insertion_curve(predict_fn, x, attr, baseline, n_steps=n_steps)
            )
        )
        shuffled = rng.permutation(np.asarray(attr))
        random_del.append(
            normalized_auc(
                deletion_curve(predict_fn, x, shuffled, baseline, n_steps=n_steps)
            )
        )
    return {
        "deletion_auc": float(np.mean(deletion)),
        "insertion_auc": float(np.mean(insertion)),
        "random_deletion_auc": float(np.mean(random_del)),
        "n_instances": len(X),
    }
