"""The end-to-end XAI-for-NFV pipeline.

Ties everything together the way the paper envisions: telemetry dataset
-> trained predictor -> per-prediction explanation -> NFV-domain
diagnosis (which VNF, which resource, what to do about it).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.explainers import (
    STOCHASTIC_EXPLAINERS,
    BatchExplanation,
    make_explainer,
    model_output_fn,
    resolve_explainer_method,
)
from repro.core.report import format_local_report, format_vnf_table
from repro.core.rootcause import rank_vnfs, vnf_attribution_scores
from repro.ml.model_selection import train_test_split
from repro.nfv.telemetry import PER_VNF_METRICS, vnf_of_feature

__all__ = ["NFVDiagnosis", "NFVExplainabilityPipeline"]


@dataclass
class NFVDiagnosis:
    """A fully-resolved diagnosis for one telemetry sample.

    Attributes
    ----------
    prediction:
        Model score (e.g. violation probability or margin).
    alert:
        Whether the score crossed the pipeline threshold.
    explanation:
        The raw :class:`~repro.core.explainers.Explanation`.
    vnf_scores:
        Aggregated |attribution| per VNF index.
    vnf_ranking:
        VNF indices, most suspicious first.
    resource_scores:
        Aggregated |attribution| per telemetry metric kind
        (``cpu_util``, ``mem_util``, ...), pinpointing *which resource*
        is implicated.
    """

    prediction: float
    alert: bool
    explanation: object
    vnf_scores: dict[int, float]
    vnf_ranking: list[int]
    resource_scores: dict[str, float]
    extras: dict = field(default_factory=dict)

    @property
    def primary_suspect(self) -> int | None:
        """Most implicated VNF index (None if no VNF-level signal)."""
        return self.vnf_ranking[0] if self.vnf_ranking else None

    @property
    def primary_resource(self) -> str | None:
        """Most implicated telemetry metric kind."""
        if not self.resource_scores:
            return None
        return max(self.resource_scores, key=self.resource_scores.get)


class NFVExplainabilityPipeline:
    """Train-explain-diagnose pipeline over an :class:`NFVDataset`.

    Parameters
    ----------
    model:
        An *unfitted* estimator from :mod:`repro.ml` (it is cloned and
        fitted by :meth:`fit`).
    explainer_method:
        Any name accepted by
        :func:`~repro.core.explainers.make_explainer` (default
        ``"auto"``).
    threshold:
        Alert threshold on the model score.
    background_size:
        Rows subsampled from the training split as explainer background.
    random_state:
        Seeds the train/test split and the background sample; an
        integer also seeds a sampling explainer (KernelSHAP, sampling
        Shapley, LIME) that ``explainer_kwargs`` does not seed itself.
    """

    def __init__(
        self,
        model,
        *,
        explainer_method: str = "auto",
        threshold: float = 0.5,
        class_index: int = 1,
        test_size: float = 0.25,
        background_size: int = 100,
        explainer_kwargs: dict | None = None,
        random_state=None,
    ):
        if not 0.0 < test_size < 1.0:
            raise ValueError(f"test_size must be in (0, 1), got {test_size}")
        if background_size < 1:
            raise ValueError(
                f"background_size must be >= 1, got {background_size}"
            )
        self.model = model
        self.explainer_method = explainer_method
        self.threshold = float(threshold)
        self.class_index = int(class_index)
        self.test_size = float(test_size)
        self.background_size = int(background_size)
        self.explainer_kwargs = dict(explainer_kwargs or {})
        self.random_state = random_state
        self.explainer_ = None
        self.fitted_model_ = None

    # ------------------------------------------------------------------
    def fit(self, dataset) -> "NFVExplainabilityPipeline":
        """Split, train the model, and build the explainer.

        ``dataset`` is an :class:`~repro.datasets.NFVDataset` (or any
        object with ``X`` (FeatureMatrix) and ``y``).
        """
        X = dataset.X.values
        y = np.asarray(dataset.y)
        stratify = y if y.dtype.kind in "iub" or y.dtype.kind in "OSU" else None
        X_train, X_test, y_train, y_test = train_test_split(
            X, y, test_size=self.test_size, random_state=self.random_state,
            stratify=stratify,
        )
        self.feature_names_ = dataset.X.feature_names
        self.chain_ = getattr(
            getattr(dataset, "result", None), "chain", None
        )
        self.fitted_model_ = self.model.clone()
        self.fitted_model_.fit(X_train, y_train)
        self.train_score_ = self.fitted_model_.score(X_train, y_train)
        self.test_score_ = self.fitted_model_.score(X_test, y_test)
        self.X_train_, self.X_test_ = X_train, X_test
        self.y_train_, self.y_test_ = y_train, y_test

        background = X_train
        if len(background) > self.background_size:
            from repro.utils.rng import check_random_state

            rng = check_random_state(self.random_state)
            rows = rng.choice(
                len(background), size=self.background_size, replace=False
            )
            background = background[rows]
        self.background_ = background
        self.explainer_ = self._build_explainer(
            self.explainer_method, self.explainer_kwargs
        )
        self._score_fn = model_output_fn(
            self.fitted_model_, class_index=self.class_index
        )
        return self

    def _check_fitted(self) -> None:
        if self.explainer_ is None:
            raise RuntimeError("pipeline is not fitted; call fit(dataset) first")

    @property
    def score_fn(self):
        """``f(X) -> 1-D scores`` of the fitted model (what the
        explainer attributes); usable with the evaluation suite."""
        self._check_fitted()
        return self._score_fn

    def with_explainer(
        self, method: str, **explainer_kwargs
    ) -> "NFVExplainabilityPipeline":
        """A pipeline sharing this one's fitted model but explaining
        through a different method.

        The fitted model, train/test split, background sample, and
        scores are all shared (nothing is re-trained) — only the
        explainer is rebuilt.  This is what lets the scenario matrix
        runner sweep N explainers per model at the cost of one fit.
        """
        import copy

        self._check_fitted()
        sibling = copy.copy(self)
        sibling.explainer_method = method
        sibling.explainer_kwargs = dict(explainer_kwargs)
        sibling.explainer_ = self._build_explainer(method, explainer_kwargs)
        return sibling

    def _build_explainer(self, method: str, explainer_kwargs: dict):
        """The explainer for the fitted model, built once.

        ``"auto"`` is resolved first, so that a method that samples is
        seeded from this pipeline's integer ``random_state`` whether it
        was named or chosen (unless ``explainer_kwargs`` carries its
        own ``random_state``): an integer-seeded pipeline gives the same
        attributions on every run.
        """
        method = resolve_explainer_method(method, self.fitted_model_)
        seed = self.random_state
        if (
            method in STOCHASTIC_EXPLAINERS
            and isinstance(seed, (int, np.integer))
            and not isinstance(seed, bool)
        ):
            explainer_kwargs = {"random_state": seed, **explainer_kwargs}
        return make_explainer(
            method,
            self.fitted_model_,
            self.background_,
            self.feature_names_,
            class_index=self.class_index,
            **explainer_kwargs,
        )

    # ------------------------------------------------------------------
    def _resolve(
        self, explanation, score: float, aggregation: str
    ) -> NFVDiagnosis:
        """Turn one explanation + model score into an NFV diagnosis."""
        vnf_scores = vnf_attribution_scores(explanation, aggregation=aggregation)
        resource_scores: dict[str, float] = {}
        for name, value in zip(explanation.feature_names, explanation.values):
            if vnf_of_feature(name) is None:
                continue
            for metric in PER_VNF_METRICS:
                if name.endswith(metric):
                    resource_scores[metric] = resource_scores.get(
                        metric, 0.0
                    ) + abs(float(value))
                    break
        return NFVDiagnosis(
            prediction=score,
            alert=score >= self.threshold,
            explanation=explanation,
            vnf_scores=vnf_scores,
            vnf_ranking=rank_vnfs(vnf_scores),
            resource_scores=resource_scores,
        )

    def diagnose(self, x, *, aggregation: str = "abs") -> NFVDiagnosis:
        """Explain one telemetry sample and resolve it to NFV concepts."""
        self._check_fitted()
        x = np.asarray(x, dtype=float).ravel()
        explanation = self.explainer_.explain(x)
        score = float(self._score_fn(x.reshape(1, -1))[0])
        return self._resolve(explanation, score, aggregation)

    def explain_rows(
        self, X, *, executor=None
    ) -> tuple[BatchExplanation, np.ndarray]:
        """Explain and score every row of ``X`` in one vectorized pass.

        Returns ``(batch, scores)``: the explainer's
        :class:`~repro.core.explainers.BatchExplanation` and the 1-D
        model scores, one per row.  This is the array half of
        :meth:`diagnose_batch`, for callers that read the attribution
        matrix and the scores and no per-row NFV diagnosis (the stream
        engine's windows, the scenario matrix).

        The explainer's :meth:`~repro.core.explainers.Explainer.explain_batch`
        shares the coalition design and background evaluation across all
        rows, and the model is scored once for the whole batch — the
        fleet-diagnosis fast path (≥3× over a per-sample loop for
        KernelSHAP at 64 samples; see ``benchmarks/bench_e2_overhead.py``).

        ``executor`` (any backend from :mod:`repro.core.executor`)
        additionally splits the rows into fixed-size chunks and runs
        the chunks in parallel via
        :meth:`~repro.core.explainers.Explainer.explain_batch_chunked`;
        with this pipeline's integer ``random_state`` the result is
        bit-identical across serial, thread, and process backends (see
        ``docs/parallel.md``).
        """
        self._check_fitted()
        X = np.asarray(X, dtype=float)
        if X.ndim != 2:
            raise ValueError(f"X must be 2-D, got shape {X.shape}")
        if executor is None:
            batch = self.explainer_.explain_batch(X)
        else:
            batch = self.explainer_.explain_batch_chunked(X, executor)
        scores = np.asarray(self._score_fn(X), dtype=float)
        return batch, scores

    def diagnose_batch(
        self, X, *, aggregation: str = "abs", executor=None
    ) -> list[NFVDiagnosis]:
        """Diagnose every row of ``X``: :meth:`explain_rows`, then one
        :class:`NFVDiagnosis` per row (``[]`` for zero rows)."""
        X = np.asarray(X, dtype=float)
        if X.ndim == 2 and X.shape[0] == 0:
            self._check_fitted()
            return []
        batch, scores = self.explain_rows(X, executor=executor)
        return [
            self._resolve(explanation, float(score), aggregation)
            for explanation, score in zip(batch, scores)
        ]

    def report(self, x, *, top_k: int = 5) -> str:
        """Full operator report for one sample (prediction, signals,
        per-VNF blame table)."""
        diagnosis = self.diagnose(x)
        parts = [
            format_local_report(
                diagnosis.explanation,
                chain=self.chain_,
                top_k=top_k,
                threshold=self.threshold,
            ),
            "per-VNF attribution:",
            format_vnf_table(diagnosis.vnf_scores, chain=self.chain_),
        ]
        return "\n".join(parts)

    def global_importance(self, X=None, *, max_rows: int = 200):
        """Dataset-level importances from the pipeline's explainer."""
        self._check_fitted()
        if X is None:
            X = self.X_test_
        X = np.asarray(X, dtype=float)
        if len(X) > max_rows:
            X = X[:max_rows]
        return self.explainer_.global_importance(X)
