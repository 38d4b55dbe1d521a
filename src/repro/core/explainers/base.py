"""Explanation containers and the explainer interface."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "BatchExplanation",
    "Explanation",
    "GlobalExplanation",
    "Explainer",
    "ModelOutputFn",
    "coalition_values",
    "model_output_fn",
]

#: Upper bound on hybrid rows per stacked model call in the generic
#: path of :func:`coalition_values`.  Tuned empirically: big enough to
#: amortize per-call dispatch, small enough that the hybrid block stays
#: cache-resident (giant single calls measured slower on every bundled
#: model family).
_ROW_BUDGET = 8192

#: The model method behind each :class:`ModelOutputFn` output.
_SCORE_METHODS = {
    "proba": "predict_proba",
    "margin": "decision_function",
    "predict": "predict",
}


@dataclass
class Explanation:
    """A local (per-prediction) feature attribution.

    Attributes
    ----------
    feature_names:
        One name per feature, aligned with ``values``.
    values:
        Signed attribution per feature; positive pushes the model output
        up, negative pulls it down.
    base_value:
        The explainer's reference output (e.g. the expected model output
        over the background data).
    prediction:
        Model output at ``x``.  For additive explainers
        ``base_value + values.sum() == prediction`` (the efficiency
        axiom); :meth:`additivity_gap` measures any deviation.
    x:
        The explained instance.
    method:
        Explainer name (``"kernel_shap"``, ``"lime"``, ...).
    extras:
        Method-specific diagnostics (LIME fidelity, sample counts, ...).
    """

    feature_names: list[str]
    values: np.ndarray
    base_value: float
    prediction: float
    x: np.ndarray
    method: str
    extras: dict = field(default_factory=dict)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        self.x = np.asarray(self.x, dtype=float).ravel()
        if len(self.feature_names) != len(self.values):
            raise ValueError(
                f"{len(self.feature_names)} names for {len(self.values)} values"
            )
        if len(self.x) != len(self.values):
            raise ValueError(
                f"x has {len(self.x)} features but {len(self.values)} attributions"
            )

    @property
    def n_features(self) -> int:
        return len(self.values)

    def additivity_gap(self) -> float:
        """``|base_value + sum(values) - prediction|`` — zero for exact
        additive explainers (Shapley efficiency)."""
        return float(abs(self.base_value + self.values.sum() - self.prediction))

    def top_features(self, k: int = 5, *, by_abs: bool = True):
        """The ``k`` largest attributions as ``(name, value)`` pairs."""
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        key = np.abs(self.values) if by_abs else self.values
        order = np.argsort(-key)[:k]
        return [(self.feature_names[i], float(self.values[i])) for i in order]

    def ranking(self) -> np.ndarray:
        """Feature indices sorted by decreasing |attribution|."""
        return np.argsort(-np.abs(self.values))

    def as_dict(self) -> dict[str, float]:
        """``{feature_name: attribution}``."""
        return dict(zip(self.feature_names, map(float, self.values)))

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        top = ", ".join(f"{n}={v:+.3f}" for n, v in self.top_features(3))
        return (
            f"Explanation(method={self.method!r}, prediction={self.prediction:.4f}, "
            f"base={self.base_value:.4f}, top=[{top}])"
        )


@dataclass
class GlobalExplanation:
    """Dataset-level feature importance."""

    feature_names: list[str]
    importances: np.ndarray
    method: str
    extras: dict = field(default_factory=dict)

    def __post_init__(self):
        self.importances = np.asarray(self.importances, dtype=float)
        if len(self.feature_names) != len(self.importances):
            raise ValueError(
                f"{len(self.feature_names)} names for "
                f"{len(self.importances)} importances"
            )

    def top_features(self, k: int = 10):
        """The ``k`` most important features as ``(name, score)`` pairs."""
        order = np.argsort(-self.importances)[:k]
        return [
            (self.feature_names[i], float(self.importances[i])) for i in order
        ]

    def as_dict(self) -> dict[str, float]:
        return dict(zip(self.feature_names, map(float, self.importances)))


@dataclass
class BatchExplanation:
    """Attributions for a whole batch of instances, stored as matrices.

    The vectorized counterpart of :class:`Explanation`: one explainer
    call over ``n`` rows yields an ``(n, d)`` attribution matrix instead
    of ``n`` separate objects, so downstream consumers (global
    importance, per-VNF aggregation, reporting) can stay in numpy.

    Attributes
    ----------
    feature_names:
        One name per feature (column of ``values``).
    values:
        ``(n_samples, n_features)`` signed attributions.
    base_values:
        Per-sample explainer reference output, shape ``(n_samples,)``.
    predictions:
        Per-sample model output, shape ``(n_samples,)``.
    X:
        The explained instances, shape ``(n_samples, n_features)``.
    method:
        Explainer name (``"kernel_shap"``, ``"lime"``, ...).
    extras:
        Batch-level diagnostics shared by all samples.
    sample_extras:
        Optional per-sample diagnostics (one dict per row).

    Iterating or indexing materializes per-sample :class:`Explanation`
    views, so a ``BatchExplanation`` drops into any code written for
    ``list[Explanation]``.
    """

    feature_names: list[str]
    values: np.ndarray
    base_values: np.ndarray
    predictions: np.ndarray
    X: np.ndarray
    method: str
    extras: dict = field(default_factory=dict)
    sample_extras: list[dict] | None = None

    def __post_init__(self):
        self.values = np.atleast_2d(np.asarray(self.values, dtype=float))
        self.base_values = np.asarray(self.base_values, dtype=float).ravel()
        self.predictions = np.asarray(self.predictions, dtype=float).ravel()
        self.X = np.atleast_2d(np.asarray(self.X, dtype=float))
        n, d = self.values.shape
        if len(self.feature_names) != d:
            raise ValueError(
                f"{len(self.feature_names)} names for {d} attribution columns"
            )
        if self.X.shape != (n, d) and not (n == 0 and self.X.size == 0):
            raise ValueError(
                f"X has shape {self.X.shape}, expected {(n, d)}"
            )
        if len(self.base_values) != n or len(self.predictions) != n:
            raise ValueError(
                f"{len(self.base_values)} base values and "
                f"{len(self.predictions)} predictions for {n} samples"
            )
        if self.sample_extras is not None and len(self.sample_extras) != n:
            raise ValueError(
                f"{len(self.sample_extras)} sample_extras for {n} samples"
            )

    @classmethod
    def concat(cls, batches) -> "BatchExplanation":
        """Stitch row-chunk batches back into one batch, in order.

        The inverse of slicing a fleet into dispatch chunks: values,
        base values, predictions, and instances are concatenated along
        the sample axis.  Batch-level ``extras`` are taken from the
        first chunk (chunks of one logical batch share their setup
        diagnostics); per-sample extras are concatenated when every
        chunk carries them.
        """
        batches = list(batches)
        if not batches:
            raise ValueError(
                "cannot concatenate zero batches without feature names; "
                "construct a BatchExplanation directly"
            )
        first = batches[0]
        for b in batches[1:]:
            if b.feature_names != first.feature_names:
                raise ValueError("cannot concatenate batches with "
                                 "different feature names")
            if b.method != first.method:
                raise ValueError(
                    f"cannot concatenate {first.method!r} with {b.method!r}"
                )
        if len(batches) == 1:
            return first
        sample_extras = None
        if all(b.sample_extras is not None for b in batches):
            sample_extras = [e for b in batches for e in b.sample_extras]
        return cls(
            feature_names=first.feature_names,
            values=np.vstack([b.values for b in batches]),
            base_values=np.concatenate([b.base_values for b in batches]),
            predictions=np.concatenate([b.predictions for b in batches]),
            X=np.vstack([b.X for b in batches]),
            method=first.method,
            extras=dict(first.extras),
            sample_extras=sample_extras,
        )

    @classmethod
    def from_explanations(cls, explanations, *, method=None) -> "BatchExplanation":
        """Stack per-sample :class:`Explanation` objects into one batch."""
        explanations = list(explanations)
        if not explanations:
            raise ValueError(
                "cannot build a BatchExplanation from zero explanations "
                "without feature names; construct one directly"
            )
        first = explanations[0]
        return cls(
            feature_names=first.feature_names,
            values=np.vstack([e.values for e in explanations]),
            base_values=np.array([e.base_value for e in explanations]),
            predictions=np.array([e.prediction for e in explanations]),
            X=np.vstack([e.x for e in explanations]),
            method=method if method is not None else first.method,
            sample_extras=[e.extras for e in explanations],
        )

    @property
    def n_samples(self) -> int:
        return self.values.shape[0]

    @property
    def n_features(self) -> int:
        return self.values.shape[1]

    def __len__(self) -> int:
        return self.n_samples

    def __getitem__(self, index) -> "Explanation | list[Explanation]":
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(self.n_samples))]
        index = int(index)
        if index < 0:
            index += self.n_samples
        if not 0 <= index < self.n_samples:
            raise IndexError(
                f"sample {index} out of range for {self.n_samples} samples"
            )
        extras = dict(self.extras)
        if self.sample_extras is not None:
            extras.update(self.sample_extras[index])
        return Explanation(
            feature_names=self.feature_names,
            values=self.values[index],
            base_value=float(self.base_values[index]),
            prediction=float(self.predictions[index]),
            x=self.X[index],
            method=self.method,
            extras=extras,
        )

    def __iter__(self):
        return (self[i] for i in range(self.n_samples))

    def to_list(self) -> list[Explanation]:
        """Materialize every sample as an :class:`Explanation`."""
        return list(self)

    def additivity_gaps(self) -> np.ndarray:
        """Per-sample ``|base + sum(values) - prediction|``."""
        return np.abs(
            self.base_values + self.values.sum(axis=1) - self.predictions
        )

    def global_importance(self) -> GlobalExplanation:
        """Mean |attribution| per feature over the batch."""
        if self.n_samples == 0:
            raise ValueError("cannot summarize an empty batch")
        return GlobalExplanation(
            feature_names=self.feature_names,
            importances=np.abs(self.values).mean(axis=0),
            method=f"mean_abs_{self.method}",
            extras={"n_samples": self.n_samples},
        )

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return (
            f"BatchExplanation(method={self.method!r}, "
            f"n_samples={self.n_samples}, n_features={self.n_features})"
        )


class Explainer:
    """Interface all local explainers implement.

    Subclasses implement :meth:`explain_batch`, their one attribution
    path: it pays per-call setup (coalition design, background
    evaluation, perturbation sampling, packed tree blocks) once per
    batch.  :meth:`explain` is the one-row batch, so a single incident
    and a fleet get their attributions from the same code, and
    :meth:`explain_batch_chunked` and :meth:`global_importance` build on
    the batch path too.
    """

    method_name: str = "explainer"

    #: Rows per chunk when a batch is dispatched to an executor.  Sized
    #: so one chunk times a typical background stays inside the
    #: explainers' stacked-model-call row budgets (``_ROW_BUDGET``),
    #: and deliberately *independent* of the backend and worker count:
    #: identical chunk boundaries are what make serial, thread, and
    #: process results of :meth:`explain_batch_chunked` bit-identical.
    batch_dispatch_rows: int = 16

    def explain(self, x) -> Explanation:
        """Explain one instance of shape ``(d,)`` or ``(1, d)``: the
        one-row :meth:`explain_batch`."""
        x = np.asarray(x, dtype=float)
        if x.ndim not in (1, 2) or (x.ndim == 2 and x.shape[0] != 1):
            raise ValueError(
                f"x must be one row of shape (d,) or (1, d), got shape {x.shape}"
            )
        return self.explain_batch(x.reshape(1, -1))[0]

    def explain_batch(self, X) -> BatchExplanation:
        """Explain each row of ``X`` (shape ``(n, d)``)."""
        raise NotImplementedError

    def _set_background(
        self, background, feature_names, *, n_features=None,
        name: str = "background",
    ) -> np.ndarray:
        """Validate reference data and resolve :attr:`feature_names`.

        ``background`` must be a finite 2-D array with at least one row
        (and ``n_features`` columns when given, else its width fixes
        ``d``); ``feature_names`` defaults to ``x0..x{d-1}``.  Returns
        the background as a float array.
        """
        background = np.asarray(background, dtype=float)
        if background.ndim != 2:
            raise ValueError(
                f"{name} must be 2-D, got shape {background.shape}"
            )
        d = background.shape[1] if n_features is None else n_features
        if background.shape[1] != d:
            raise ValueError(
                f"{name} shape {background.shape} is incompatible with "
                f"{d} model features"
            )
        if len(background) == 0:
            raise ValueError(f"{name} must have at least one row")
        if not np.isfinite(background).all():
            raise ValueError(f"{name} contains NaN or infinite values")
        self._set_feature_names(feature_names, d)
        return background

    def _set_feature_names(self, feature_names, d: int) -> None:
        """:attr:`feature_names` from ``feature_names`` (one per
        feature) or ``x0..x{d-1}``."""
        names = (
            list(feature_names)
            if feature_names is not None
            else [f"x{i}" for i in range(d)]
        )
        if len(names) != d:
            raise ValueError(f"{len(names)} names for {d} features")
        self.feature_names = names

    def _check_batch(self, X, expected_d: int | None = None) -> np.ndarray:
        """Validate batch input: a finite float 2-D array (possibly 0
        rows) with ``expected_d`` feature columns when given."""
        X = np.asarray(X, dtype=float)
        if X.ndim != 2:
            raise ValueError(f"X must be 2-D, got shape {X.shape}")
        if expected_d is not None and X.shape[1] != expected_d:
            raise ValueError(
                f"X has {X.shape[1]} features, expected {expected_d}"
            )
        if not np.isfinite(X).all():
            raise ValueError("X contains NaN or infinite values")
        return X

    def _empty_batch(self, X: np.ndarray) -> BatchExplanation:
        """A well-formed zero-sample batch for ``X`` of shape (0, d)."""
        return self._batch_from_matrix(
            X, np.zeros(X.shape), np.zeros(0), np.zeros(0), sample_extras=[]
        )

    def _batch_from_matrix(
        self, X, values, base_values, predictions, *, extras=None,
        sample_extras=None,
    ) -> BatchExplanation:
        """Assemble a :class:`BatchExplanation` from precomputed
        matrices — the common tail of every :meth:`explain_batch`."""
        return BatchExplanation(
            feature_names=list(self.feature_names),
            values=values,
            base_values=base_values,
            predictions=predictions,
            X=X,
            method=self.method_name,
            extras=extras or {},
            sample_extras=sample_extras,
        )

    def explain_batch_chunked(
        self, X, executor=None, *, chunk_rows: int | None = None
    ) -> BatchExplanation:
        """Explain ``X`` in row chunks dispatched to an ``executor``.

        Splits the rows into ``chunk_rows``-sized chunks (default
        :attr:`batch_dispatch_rows`), runs :meth:`explain_batch` on
        each through ``executor.map`` — any backend from
        :mod:`repro.core.executor` — and stitches the chunk results
        back together with :meth:`BatchExplanation.concat`.

        Chunk boundaries depend only on ``len(X)`` and ``chunk_rows``,
        never on the backend or worker count, and each chunk is a pure
        function of (explainer configuration, chunk rows): with an
        integer ``random_state`` the stochastic explainers re-derive
        the same shared design for every chunk, so serial, thread, and
        process backends return bit-identical batches.  With a live
        ``Generator`` seed, chunked results are *not* reproducible —
        pass integer seeds when you care (the pipeline and matrix
        runner always do).

        ``executor=None`` (or a single chunk) falls back to one plain
        :meth:`explain_batch` call.
        """
        X = self._check_batch(X)
        if chunk_rows is None:
            chunk_rows = self.batch_dispatch_rows
        if chunk_rows < 1:
            raise ValueError(f"chunk_rows must be >= 1, got {chunk_rows}")
        n = X.shape[0]
        if executor is None or n <= chunk_rows:
            return self.explain_batch(X)
        chunks = [X[start:start + chunk_rows] for start in range(0, n, chunk_rows)]
        return BatchExplanation.concat(executor.map(self.explain_batch, chunks))

    def global_importance(self, X) -> GlobalExplanation:
        """Mean |local attribution| over the rows of ``X`` — the standard
        SHAP-style global importance summary."""
        return self.explain_batch(X).global_importance()


class ModelOutputFn:
    """Picklable ``f(X) -> 1-D scores`` wrapper around a fitted model.

    Explainers hold onto these for their whole life, and the process
    execution backend ships them (inside explainers and pipelines) to
    worker processes — which is why this is a class rather than a
    closure: closures cannot be pickled, instances can, as long as the
    wrapped model can.
    """

    def __init__(self, model, output: str, class_index: int):
        self.model = model
        self.output = output
        self.class_index = int(class_index)

    def __call__(self, X) -> np.ndarray:
        X = np.atleast_2d(X)
        if self.output == "proba":
            return self.model.predict_proba(X)[:, self.class_index]
        if self.output == "margin":
            margin = self.model.decision_function(X)
            if margin.ndim == 2:
                return margin[:, self.class_index]
            return margin
        return np.asarray(self.model.predict(X), dtype=float)

    def packed_column(self):
        """``(packed ensemble, column)`` when this score is a column of
        the model's ``PackedEnsemble.predict`` taken verbatim (the
        model's ``packed_output`` is this output and no instance
        attribute replaces the scoring method, and the ensemble has the
        column :meth:`~repro.ml.packed.PackedEnsemble.output_column`
        maps ``class_index`` to), else ``None``."""
        if (
            getattr(self.model, "packed_output", None) != self.output
            or _SCORE_METHODS[self.output] in vars(self.model)
        ):
            return None
        packed = self.model.packed_ensemble()
        column = packed.output_column(self.class_index)
        return None if column is None else (packed, column)

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return (
            f"ModelOutputFn({type(self.model).__name__}, "
            f"output={self.output!r}, class_index={self.class_index})"
        )


def model_output_fn(model, *, output: str = "auto", class_index: int = 1):
    """Wrap a fitted model into ``f(X) -> 1-D scores`` for explainers.

    The returned callable is a picklable :class:`ModelOutputFn`, so it
    survives the trip to process-backend workers.

    Parameters
    ----------
    output:
        ``"auto"`` — probability of ``class_index`` for classifiers,
        raw prediction for regressors;
        ``"proba"`` — ``predict_proba[:, class_index]``;
        ``"margin"`` — ``decision_function`` (column ``class_index`` if 2-D);
        ``"predict"`` — raw ``predict`` (must be numeric).
    class_index:
        Which column of the probability/margin matrix to explain.
    """
    if output not in ("auto", "proba", "margin", "predict"):
        raise ValueError(f"unknown output {output!r}")
    if output == "auto":
        output = "proba" if hasattr(model, "predict_proba") else "predict"
    if output == "proba" and not hasattr(model, "predict_proba"):
        raise ValueError(f"{type(model).__name__} has no predict_proba")
    if output == "margin" and not hasattr(model, "decision_function"):
        raise ValueError(f"{type(model).__name__} has no decision_function")
    return ModelOutputFn(model, output, class_index)


def coalition_values(predict_fn, X, masks, background) -> np.ndarray:
    """``v(S) = mean_r f(where(mask, x, background_r))`` for every
    (coalition, row) pair, shape ``(len(masks), len(X))`` — the value
    function KernelSHAP and exact Shapley regress and sum.

    A :class:`ModelOutputFn` whose score is a packed-ensemble column
    (:meth:`ModelOutputFn.packed_column`) goes to
    :meth:`~repro.ml.packed.PackedEnsemble.coalition_values`, which
    walks tabled branch bits instead of scoring hybrid rows and returns
    the same bytes.  Any other model or callable scores the hybrids:
    those of all rows for a block of coalitions are stacked into one
    ``predict_fn`` call of at most ``_ROW_BUDGET`` rows (a fleet too
    large for one block is split by rows first).
    """
    packed = (
        predict_fn.packed_column()
        if isinstance(predict_fn, ModelOutputFn) else None
    )
    if packed is not None:
        ensemble, column = packed
        return ensemble.coalition_values(X, masks, background, column=column)
    n, d = X.shape
    n_bg = len(background)
    V = np.empty((len(masks), n))
    max_rows = max(1, _ROW_BUDGET // n_bg)
    for r0 in range(0, n, max_rows):
        rows = X[r0:r0 + max_rows]
        block = max(1, _ROW_BUDGET // (len(rows) * n_bg))
        for c0 in range(0, len(masks), block):
            chunk = masks[c0:c0 + block]
            # hybrid(j, i, r) = x_i where mask_j, background_r elsewhere —
            # one broadcasted where() builds the whole block
            tiled = np.where(
                chunk[:, None, None, :],
                rows[None, :, None, :],
                background[None, None, :, :],
            )
            preds = np.asarray(predict_fn(tiled.reshape(-1, d)), dtype=float)
            V[c0:c0 + len(chunk), r0:r0 + len(rows)] = preds.reshape(
                len(chunk), len(rows), n_bg
            ).mean(axis=2)
    return V
