"""Root-cause localization from feature attributions (experiment E6).

The paper's use case: an operator sees a predicted SLA violation and
wants to know *which VNF* is responsible.  We aggregate the per-feature
attributions of the violation prediction into per-VNF scores (the
telemetry feature names encode the VNF each metric belongs to), rank
the VNFs, and score the ranking against the ground-truth culprit set
the fault injector recorded.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.nfv.telemetry import vnf_of_feature
from repro.utils.rng import check_random_state

__all__ = [
    "vnf_attribution_scores",
    "rank_vnfs",
    "hit_at_k",
    "RootCauseEvaluator",
    "RootCauseReport",
]


def vnf_attribution_scores(
    explanation, *, aggregation: str = "abs"
) -> dict[int, float]:
    """Aggregate an explanation's values into per-VNF scores.

    Parameters
    ----------
    aggregation:
        ``"abs"`` sums |attribution| per VNF (how much the VNF's metrics
        matter at all); ``"signed"`` sums raw attributions (how much they
        push *toward* the explained outcome).  DESIGN.md flags this
        choice for ablation.
    """
    if aggregation not in ("abs", "signed"):
        raise ValueError(
            f"aggregation must be 'abs' or 'signed', got {aggregation!r}"
        )
    scores: dict[int, float] = {}
    for name, value in zip(explanation.feature_names, explanation.values):
        vnf = vnf_of_feature(name)
        if vnf is None:
            continue
        contribution = abs(float(value)) if aggregation == "abs" else float(value)
        scores[vnf] = scores.get(vnf, 0.0) + contribution
    return scores


def rank_vnfs(scores: dict[int, float]) -> list[int]:
    """VNF indices sorted by decreasing score (ties broken by index)."""
    return [v for v, _ in sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))]


def hit_at_k(ranking: list[int], culprits, k: int) -> bool:
    """Whether any ground-truth culprit appears in the top ``k``."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    culprit_set = set(culprits)
    if not culprit_set:
        raise ValueError("hit_at_k needs a non-empty culprit set")
    return bool(culprit_set & set(ranking[:k]))


@dataclass
class RootCauseReport:
    """Aggregate localization accuracy of one ranking method.

    Attributes
    ----------
    method:
        Ranking source (explainer name or baseline).
    hits:
        ``hits[k]`` = fraction of evaluated incidents where a culprit
        was in the top k.
    n_incidents:
        Number of fault epochs evaluated.
    """

    method: str
    hits: dict[int, float]
    n_incidents: int
    extras: dict = field(default_factory=dict)

    def __str__(self) -> str:
        parts = ", ".join(f"hit@{k}={v:.2f}" for k, v in sorted(self.hits.items()))
        return f"{self.method}: {parts} ({self.n_incidents} incidents)"


class RootCauseEvaluator:
    """Scores attribution-based root-cause localization.

    Parameters
    ----------
    n_vnfs:
        Chain length (for the random baseline and k validation).
    ks:
        The k values for hit@k.
    """

    def __init__(self, n_vnfs: int, ks=(1, 2, 3)):
        if n_vnfs < 1:
            raise ValueError(f"n_vnfs must be >= 1, got {n_vnfs}")
        self.n_vnfs = n_vnfs
        self.ks = tuple(int(k) for k in ks)
        if any(not 1 <= k <= n_vnfs for k in self.ks):
            raise ValueError(f"all ks must be in [1, {n_vnfs}], got {ks}")

    # ------------------------------------------------------------------
    def evaluate_rankings(
        self, rankings: list[list[int]], culprit_sets: list, method: str
    ) -> RootCauseReport:
        """Score precomputed rankings against culprit sets."""
        if len(rankings) != len(culprit_sets):
            raise ValueError("rankings and culprit_sets must align")
        usable = [
            (r, c) for r, c in zip(rankings, culprit_sets) if len(c) > 0
        ]
        if not usable:
            raise ValueError("no incidents with known culprit VNFs")
        hits = {
            k: float(np.mean([hit_at_k(r, c, k) for r, c in usable]))
            for k in self.ks
        }
        return RootCauseReport(method=method, hits=hits, n_incidents=len(usable))

    def evaluate_explainer(
        self,
        explainer,
        X_incidents: np.ndarray,
        culprit_sets: list,
        *,
        aggregation: str = "abs",
        method: str | None = None,
    ) -> RootCauseReport:
        """Explain every incident row in one ``explain_batch`` call and
        score the derived VNF rankings."""
        batch = explainer.explain_batch(np.asarray(X_incidents, dtype=float))
        rankings = [
            rank_vnfs(
                vnf_attribution_scores(explanation, aggregation=aggregation)
            )
            for explanation in batch
        ]
        name = method or getattr(explainer, "method_name", "explainer")
        return self.evaluate_rankings(rankings, culprit_sets, method=name)

    # ------------------------------------------------------------------
    # baselines
    # ------------------------------------------------------------------
    def random_baseline(
        self, culprit_sets: list, *, n_repeats: int = 20, random_state=None
    ) -> RootCauseReport:
        """Expected hit@k of a uniformly random VNF ranking."""
        rng = check_random_state(random_state)
        reports = []
        usable = [c for c in culprit_sets if len(c) > 0]
        if not usable:
            raise ValueError("no incidents with known culprit VNFs")
        for _ in range(n_repeats):
            rankings = [
                rng.permutation(self.n_vnfs).tolist() for _ in usable
            ]
            reports.append(
                self.evaluate_rankings(rankings, usable, method="random")
            )
        hits = {
            k: float(np.mean([r.hits[k] for r in reports])) for k in self.ks
        }
        return RootCauseReport(
            method="random", hits=hits, n_incidents=len(usable)
        )

    def utilization_baseline(
        self,
        X_incidents: np.ndarray,
        culprit_sets: list,
        feature_names: list[str],
        *,
        metric_suffix: str = "cpu_util",
    ) -> RootCauseReport:
        """Heuristic baseline: rank VNFs by their raw metric value (the
        "blame the busiest VNF" rule operators use today)."""
        columns: dict[int, int] = {}
        for idx, name in enumerate(feature_names):
            vnf = vnf_of_feature(name)
            if vnf is not None and name.endswith(metric_suffix):
                columns[vnf] = idx
        if len(columns) < self.n_vnfs:
            raise ValueError(
                f"found {metric_suffix} columns for only {len(columns)} of "
                f"{self.n_vnfs} VNFs"
            )
        rankings = []
        for x in np.asarray(X_incidents, dtype=float):
            scores = {vnf: float(x[col]) for vnf, col in columns.items()}
            rankings.append(rank_vnfs(scores))
        return self.evaluate_rankings(
            rankings, culprit_sets, method=f"raw_{metric_suffix}"
        )
