"""KernelSHAP (Lundberg & Lee, NeurIPS 2017) from scratch.

Shapley values are recovered as the solution of a weighted linear
regression over feature coalitions, with the Shapley kernel

    pi(s) = (d - 1) / (C(d, s) * s * (d - s)),   0 < s < d.

Implementation notes (mirroring the reference implementation's
behaviour):

* Coalition sizes are *enumerated completely* from the outside in
  (size 1 and d-1, then 2 and d-2, ...) while the sample budget allows;
  remaining budget is spent sampling random coalitions from the kernel
  distribution over the unenumerated sizes.
* Paired (antithetic) sampling draws each random coalition together
  with its complement, which cancels odd-order noise terms (ablated in
  experiment E8).
* The efficiency constraint ``sum(phi) = f(x) - E[f]`` is enforced
  exactly by eliminating the last feature from the regression, never by
  post-hoc normalization.
"""

from __future__ import annotations

from itertools import combinations
from math import comb

import numpy as np

from repro.core.cache import coalition_design
from repro.core.explainers.base import (
    BatchExplanation,
    Explainer,
    coalition_values,
)
from repro.utils.rng import check_random_state

__all__ = ["KernelShapExplainer", "shapley_kernel_weight"]


def shapley_kernel_weight(d: int, s: int) -> float:
    """Shapley kernel weight of a coalition of size ``s`` among ``d``
    features.  Sizes 0 and d carry (conceptually) infinite weight and are
    handled via the efficiency constraint, so they are invalid here."""
    if not 0 < s < d:
        raise ValueError(f"coalition size must be in (0, {d}), got {s}")
    return (d - 1) / (comb(d, s) * s * (d - s))


class KernelShapExplainer(Explainer):
    """Model-agnostic Shapley value estimation.

    Parameters
    ----------
    predict_fn:
        ``f(X) -> 1-D scores``.
    background:
        Background data defining the "feature absent" distribution.
        Keep it small (tens to a few hundred rows) — every coalition
        costs one model evaluation *per background row*.
    n_samples:
        Coalition budget per explanation (excluding the empty/full
        coalitions).  More samples → lower variance (E8).
    paired:
        Draw sampled coalitions together with their complements.
    l2:
        Optional ridge regularization on the coalition regression
        (0 = plain weighted least squares, the canonical estimator).
    """

    method_name = "kernel_shap"

    def __init__(
        self,
        predict_fn,
        background,
        feature_names=None,
        *,
        n_samples: int = 2048,
        paired: bool = True,
        l2: float = 0.0,
        random_state=None,
    ):
        if n_samples < 2:
            raise ValueError(f"n_samples must be >= 2, got {n_samples}")
        if l2 < 0:
            raise ValueError(f"l2 must be >= 0, got {l2}")
        self.predict_fn = predict_fn
        self.background = self._set_background(background, feature_names)
        self.n_samples = int(n_samples)
        self.paired = paired
        self.l2 = float(l2)
        self.random_state = random_state
        self.expected_value_ = float(
            np.mean(np.asarray(predict_fn(self.background), dtype=float))
        )

    # ------------------------------------------------------------------
    def explain_batch(self, X) -> BatchExplanation:
        """KernelSHAP over every row of ``X``.

        The coalition design (masks + kernel weights) depends only on
        the feature dimension and sampling configuration, so it is
        built once and shared by all rows; the masked-background values
        of all (coalition, row) pairs come from one
        :func:`~repro.core.explainers.base.coalition_values` call
        (stacked model calls, or a branch-bit walk on a packed tree
        ensemble); and the weighted
        regression is solved for all rows at once against the shared
        Gram matrix.  With one feature the efficiency constraint alone
        fixes the attribution, ``f(x) - E[f]``, and no coalition is
        evaluated.
        """
        X = self._check_batch(X, self.background.shape[1])
        if X.shape[0] == 0:
            return self._empty_batch(X)
        n, d = X.shape
        fx = np.asarray(self.predict_fn(X), dtype=float)
        v0 = self.expected_value_
        if d == 1:
            return self._batch_from_matrix(
                X, (fx - v0)[:, None], np.full(n, v0), fx,
                extras={"n_coalitions": 0},
            )
        masks, weights = self._coalition_design(d)
        V = coalition_values(self.predict_fn, X, masks, self.background)

        # shared weighted least squares, one right-hand side per row,
        # with the efficiency constraint enforced by eliminating the
        # last feature
        z = masks.astype(float)
        A = z[:, :-1] - z[:, [-1]]
        Y = V - v0 - z[:, -1][:, None] * (fx[None, :] - v0)
        gram = A.T @ (weights[:, None] * A)
        if self.l2 > 0:
            gram = gram + self.l2 * np.eye(d - 1)
        rhs = A.T @ (weights[:, None] * Y)
        head, *_ = np.linalg.lstsq(gram, rhs, rcond=None)
        phi = np.empty((n, d))
        phi[:, :-1] = head.T
        phi[:, -1] = (fx - v0) - head.sum(axis=0)
        return self._batch_from_matrix(
            X, phi, np.full(n, v0), fx, extras={"n_coalitions": len(masks)}
        )

    # ------------------------------------------------------------------
    def _coalition_design(self, d: int) -> tuple[np.ndarray, np.ndarray]:
        """The (masks, weights) design, memoized for integer seeds.

        A live :class:`~numpy.random.Generator` must advance between
        calls, so only deterministic integer seeds hit the cache.
        """
        seed = self.random_state
        if isinstance(seed, (int, np.integer)) and not isinstance(seed, bool):
            return coalition_design(
                self._build_coalitions, d, self.n_samples, self.paired,
                int(seed),
            )
        return self._build_coalitions(d, self.n_samples, self.paired, seed)

    # ------------------------------------------------------------------
    @staticmethod
    def _build_coalitions(
        d: int, n_samples: int, paired: bool, random_state
    ) -> tuple[np.ndarray, np.ndarray]:
        """Binary coalition masks and their regression weights."""
        rng = check_random_state(random_state)
        budget = n_samples
        masks: list[np.ndarray] = []
        weights: list[float] = []

        # enumerate complete sizes from the outside in while affordable
        n_pair_sizes = (d - 1) // 2
        has_middle = (d - 1) % 2 == 1  # d even -> lone middle size d/2
        enumerated_sizes: set[int] = set()
        for offset in range(1, n_pair_sizes + 1):
            sizes = (offset, d - offset)
            cost = comb(d, offset) * 2
            if cost > budget:
                break
            size_weight = shapley_kernel_weight(d, offset)
            for size in sizes:
                for subset in combinations(range(d), size):
                    mask = np.zeros(d, dtype=bool)
                    mask[list(subset)] = True
                    masks.append(mask)
                    weights.append(size_weight)
            enumerated_sizes.update(sizes)
            budget -= cost
        if has_middle:
            middle = d // 2
            cost = comb(d, middle)
            if middle not in enumerated_sizes and cost <= budget:
                size_weight = shapley_kernel_weight(d, middle)
                for subset in combinations(range(d), middle):
                    mask = np.zeros(d, dtype=bool)
                    mask[list(subset)] = True
                    masks.append(mask)
                    weights.append(size_weight)
                enumerated_sizes.add(middle)
                budget -= cost

        remaining_sizes = [
            s for s in range(1, d) if s not in enumerated_sizes
        ]
        if remaining_sizes and budget > 0:
            # sample sizes proportionally to the total kernel mass of
            # each remaining size, then uniform subsets within a size
            size_mass = np.array(
                [shapley_kernel_weight(d, s) * comb(d, s) for s in remaining_sizes]
            )
            size_prob = size_mass / size_mass.sum()
            step = 2 if paired else 1
            n_draws = budget // step
            n_before = len(masks)
            drawn_sizes = rng.choice(remaining_sizes, size=n_draws, p=size_prob)
            for s in drawn_sizes:
                subset = rng.choice(d, size=int(s), replace=False)
                mask = np.zeros(d, dtype=bool)
                mask[subset] = True
                masks.append(mask)
                weights.append(1.0)
                if paired:
                    masks.append(~mask)
                    weights.append(1.0)
            # the kernel is already encoded in the sampling distribution,
            # so sampled coalitions share the *remaining* kernel mass
            # equally — this keeps them on the same scale as the
            # enumerated coalitions, which carry explicit kernel weights
            n_sampled = len(masks) - n_before
            if n_sampled > 0:
                per_sample = float(size_mass.sum()) / n_sampled
                for i in range(n_before, len(masks)):
                    weights[i] = per_sample
        if not masks:
            raise RuntimeError(
                "no coalitions generated; increase n_samples"
            )
        return np.asarray(masks), np.asarray(weights)
