"""Online SLA-violation diagnosis over streaming telemetry.

The paper (and everything in this repo up to now) explains violations
from a *materialized* dataset — simulate the full horizon, fit once,
diagnose after the fact.  A production control loop cannot wait for the
horizon to end: telemetry arrives epoch by epoch, the traffic mix
drifts, models go stale, and the explanations have to ride the same
streaming path as the predictions (EXPLORA, CoNEXT '23).

:class:`StreamingDiagnosisEngine` is that path.  It consumes epoch
batches (from :meth:`repro.nfv.simulator.Simulator.stream`,
:meth:`repro.nfv.scenarios.ScenarioSpec.stream`, or
:func:`repro.datasets.stream_scenario_telemetry` — any iterable of
objects with ``features``/``sla_violation``), slices them into fixed
windows of ``window_epochs`` epochs, and per window:

1. appends the epochs to a bounded sliding history (``max_history``),
2. refits the model + explainer every ``refit_every`` windows (and at
   the first window where the history supports a stratified fit),
3. explains and scores the window's violation epochs through the
   *batched* explanation engine — one vectorized ``explain_rows`` per
   window, chunk-dispatched to an execution backend, with the explainer
   (and its expected value) reused across windows between refits; the
   window reads the attribution matrix and the scores as arrays and
   builds no per-row :class:`~repro.core.pipeline.NFVDiagnosis`,
4. feeds the window's violation rate and the shift of its mean
   attribution profile into Page–Hinkley drift detectors
   (:mod:`repro.core.stream.drift`).

Determinism contract (the same one the matrix runner makes, see
``docs/parallel.md``): under an integer seed,
``StreamReport.format_table(timing=False)`` is byte-identical across
serial/thread/process backends and worker counts.  Window boundaries
depend only on ``window_epochs`` and the stream length — never on how
the stream was batched; window ``w`` draws the integer child seed
``child_seed(seed, w)``, equal to ``spawn_seeds(seed, n)[w]`` for any
``n > w`` (exposed as :func:`window_seeds`), so
every refit, split, and coalition design is a pure function of
``(configuration, history, window index)``; explanation chunks keep the
fixed 16-row boundaries of ``explain_batch_chunked``.
"""

from __future__ import annotations

import contextlib
from dataclasses import asdict, dataclass, field

import numpy as np

from repro.core.executor import get_executor
from repro.core.explainers import resolve_explainer_method
from repro.core.pipeline import NFVExplainabilityPipeline
from repro.core.stream.drift import PageHinkley
from repro.utils.clock import timed
from repro.utils.events import OperatorEvent
from repro.utils.rng import child_seed, freeze_seed, spawn_seeds
from repro.utils.tabular import FeatureMatrix

__all__ = [
    "MALFORMED_CHECKS",
    "MalformedBatchError",
    "StreamWindow",
    "StreamReport",
    "StreamingDiagnosisEngine",
    "window_seeds",
]

#: Minimum rows per class before a stratified refit is attempted.
_MIN_CLASS_ROWS = 2

#: Every named data-quality check :class:`MalformedBatchError` can carry.
MALFORMED_CHECKS = (
    "misaligned-shapes",
    "non-finite-features",
    "labels-not-binary",
    "schema-changed",
)


class MalformedBatchError(ValueError):
    """A telemetry batch failed one of the engine's named data checks.

    Subclasses :class:`ValueError` (what the checks historically
    raised), adding the machine-readable ``check`` name from
    :data:`MALFORMED_CHECKS` — the key the malformed-batch policy,
    skip events, and the serve layer's quarantine reports are built
    on.  Only *data-quality* failures are classified this way;
    handing the engine something that is not an epoch batch at all
    stays a plain :class:`TypeError` (a programming error no policy
    should swallow).
    """

    def __init__(self, check: str, message: str):
        super().__init__(message)
        self.check = check


def window_seeds(random_state, n: int) -> list[int]:
    """The engine's per-window child seeds, as a list.

    Window ``w`` of a streaming run seeded with ``random_state`` uses
    ``window_seeds(random_state, n)[w]`` for every stochastic choice it
    makes (model fit, train/test split, explainer sampling).  This is
    exactly :func:`repro.utils.rng.spawn_seeds` — re-exported under a
    contract-bearing name so tests and reference implementations (the
    naive loop in ``benchmarks/bench_e14_stream.py``) can reproduce the
    engine without touching its internals.  Child seeds depend only on
    the seed and the window *index*: prefixes agree for any ``n``.
    """
    return spawn_seeds(random_state, n)


@dataclass
class StreamWindow:
    """Everything the engine concluded about one telemetry window.

    Attributes
    ----------
    index:
        Window number within the engine's lifetime (0-based).
    start_epoch, end_epoch:
        Epoch span ``[start, end)`` of the window in the stream.
    violation_rate:
        Fraction of the window's epochs that violated the SLA.
    refit:
        Whether the model + explainer were refit at this window.
    seed:
        The window's integer child seed (see :func:`window_seeds`).
    test_accuracy:
        Held-out accuracy of the model in effect (``None`` in warmup).
    n_explained, n_alerts:
        Violation epochs diagnosed, and how many crossed the alert
        threshold.
    mean_score:
        Mean model score over the explained epochs (``None`` if none).
    top_feature:
        Feature with the largest mean |attribution| this window.
    attribution_shift:
        Cosine distance between this window's mean attribution profile
        and the previous explained window's (``None`` for the first).
    violation_drift, attribution_drift:
        Page–Hinkley alarms raised at this window.
    seconds:
        Wall-clock spent processing the window (never compared).
    """

    index: int
    start_epoch: int
    end_epoch: int
    violation_rate: float
    refit: bool
    seed: int
    test_accuracy: float | None
    n_explained: int
    n_alerts: int
    mean_score: float | None
    top_feature: str | None
    attribution_shift: float | None
    violation_drift: bool
    attribution_drift: bool
    seconds: float

    @property
    def n_epochs(self) -> int:
        return self.end_epoch - self.start_epoch


@dataclass
class StreamReport:
    """All windows of one streaming run plus the engine configuration.

    ``events`` lists the run's named
    :class:`~repro.utils.events.OperatorEvent` occurrences, keyed by
    stream epoch: batches skipped under the ``on_malformed="skip"``
    policy, and the breaker steps of a serving session.  They are *not*
    part of :meth:`format_table` — the diagnosis bytes stay identical
    to a fault-free run, which is the recoverable half of the chaos
    invariant — and render separately through
    :func:`repro.utils.events.format_events`.
    """

    windows: list[StreamWindow]
    window_epochs: int
    refit_every: int
    explainer: str
    scenario: str | None = None
    seed: int | None = None
    extras: dict = field(default_factory=dict)
    events: list[OperatorEvent] = field(default_factory=list)

    @property
    def n_epochs(self) -> int:
        """Total epochs consumed across all windows."""
        return sum(w.n_epochs for w in self.windows)

    @property
    def n_refits(self) -> int:
        return sum(w.refit for w in self.windows)

    @property
    def drift_windows(self) -> list[int]:
        """Indices of windows where either detector fired."""
        return [
            w.index
            for w in self.windows
            if w.violation_drift or w.attribution_drift
        ]

    def to_rows(self) -> list[dict]:
        """Windows as plain dicts (for CSV/JSON serialization)."""
        return [asdict(w) for w in self.windows]

    def summary(self) -> str:
        """One-line run summary for logs and CLI footers."""
        total = self.n_epochs
        # weight by window length: the trailing window may be shorter,
        # and "mean violation rate" must mean the epoch-level rate
        mean_rate = (
            sum(w.violation_rate * w.n_epochs for w in self.windows) / total
            if total
            else 0.0
        )
        return (
            f"{self.n_epochs} epochs in {len(self.windows)} windows of "
            f"{self.window_epochs} | mean violation rate {mean_rate:.1%} | "
            f"{self.n_refits} refits | "
            f"{sum(w.n_explained for w in self.windows)} epochs explained | "
            f"drift alarms at windows {self.drift_windows or 'none'}"
        )

    def format_table(self, *, timing: bool = True) -> str:
        """Aligned per-window text table.

        ``timing=False`` drops the wall-clock ``sec`` column — the only
        field that varies between otherwise identical runs — leaving
        output that is byte-identical across repeats, execution
        backends, and worker counts under a fixed integer seed (what
        the determinism tests and the golden regression compare).
        """
        header = (
            f"{'win':>4} {'epochs':>12} {'viol':>6} {'refit':>5} "
            f"{'acc':>5} {'expl':>4} {'alert':>5} {'score':>6} "
            f"{'shift':>6} {'drift':>5}  top feature"
        )
        if timing:
            header = header.replace("  top feature", f" {'sec':>6}  top feature")
        lines = [header, "-" * max(len(header), 78)]
        for w in self.windows:
            acc = f"{w.test_accuracy:.2f}" if w.test_accuracy is not None else "-"
            score = f"{w.mean_score:.3f}" if w.mean_score is not None else "-"
            shift = (
                f"{w.attribution_shift:.3f}"
                if w.attribution_shift is not None
                else "-"
            )
            drift = {
                (False, False): "-",
                (True, False): "V",
                (False, True): "A",
                (True, True): "V+A",
            }[(w.violation_drift, w.attribution_drift)]
            line = (
                f"{w.index:>4} {f'{w.start_epoch}-{w.end_epoch}':>12} "
                f"{w.violation_rate:>6.1%} {'yes' if w.refit else '-':>5} "
                f"{acc:>5} {w.n_explained:>4} {w.n_alerts:>5} {score:>6} "
                f"{shift:>6} {drift:>5}"
            )
            if timing:
                line += f" {w.seconds:>6.2f}"
            line += f"  {w.top_feature or '-'}"
            lines.append(line)
        lines.append(
            "viol = ground-truth SLA violation rate; acc = held-out "
            "accuracy of the model in effect; expl/alert = violation "
            "epochs diagnosed / above threshold; shift = cosine distance "
            "of the mean |attribution| profile vs the previous explained "
            "window; drift: V = violation-rate alarm, A = attribution "
            "alarm (Page-Hinkley)."
        )
        return "\n".join(lines)


class _HistoryDataset:
    """Duck-typed ``NFVDataset`` over the engine's sliding history."""

    def __init__(self, X: np.ndarray, y: np.ndarray, feature_names):
        self.X = FeatureMatrix(X, feature_names)
        self.y = y


class StreamingDiagnosisEngine:
    """Sliding-window train/explain/drift loop over epoch batches.

    Parameters
    ----------
    model_factory:
        Zero-argument callable returning a fresh unfitted estimator
        (default: the reference ``logistic_regression`` factory from
        :func:`repro.core.matrix.default_model_factories`).  Must be
        deterministic for the integer-seed reproducibility contract.
    window_epochs:
        Epochs per diagnosis window (the last window of a stream may be
        shorter).  Boundaries depend only on this and the stream
        length, never on how the incoming batches are sliced.
    refit_every:
        Refit the model + explainer every this many windows.  The first
        fit happens at the first window whose history supports a
        stratified split (both classes present); until then windows are
        *warmup*: counted and drift-monitored, but not explained.
    explainer_method, explainer_kwargs:
        Explainer built on each refit
        (:func:`repro.core.explainers.make_explainer` names); kwargs
        are merged over
        :func:`repro.core.matrix.default_explainer_kwargs`, and
        stochastic explainers are seeded with the refit window's child
        seed.
    explain_per_window:
        Cap on violation epochs diagnosed per window (0 disables
        explanation entirely — monitoring-only mode).
    max_history:
        Sliding training-history bound, in epochs.
    min_train_epochs:
        History needed before the first fit (default:
        ``max(window_epochs, 2)``).
    threshold:
        Alert threshold on the model score.
    violation_drift, attribution_drift:
        Keyword overrides for the two :class:`PageHinkley` detectors.
    backend, workers:
        Execution backend for chunked explanation dispatch (see
        :func:`repro.core.executor.get_executor`); results are
        byte-identical across backends under an integer seed.
    on_malformed:
        What :meth:`ingest` does with a batch that fails a named data
        check: ``"raise"`` (default) propagates the
        :class:`MalformedBatchError`; ``"skip"`` drops the batch
        untouched and records a ``skipped-batch``
        :class:`~repro.utils.events.OperatorEvent` — the windowed bytes
        continue as if the batch never arrived.
    random_state:
        Integer seed covering every stochastic choice of the run.
        Non-integer seeds (``None``, a live ``Generator``, a
        ``SeedSequence``) are frozen into one drawn integer at
        construction, so window seeds stay stable across restarts —
        the resulting report records that integer as its ``seed``.

    The engine is *resumable*: :meth:`run` may be called on successive
    streams and windows keep numbering from where they left off;
    :meth:`reset` restarts everything (history, detectors, window
    index, seed sequence) so a reset engine reproduces its first run
    exactly.
    """

    def __init__(
        self,
        model_factory=None,
        *,
        window_epochs: int = 64,
        refit_every: int = 4,
        explainer_method: str = "kernel_shap",
        explainer_kwargs: dict | None = None,
        explain_per_window: int = 8,
        max_history: int = 4096,
        min_train_epochs: int | None = None,
        threshold: float = 0.5,
        violation_drift: dict | None = None,
        attribution_drift: dict | None = None,
        backend: str = "serial",
        workers: int | None = None,
        on_malformed: str = "raise",
        random_state=None,
    ):
        if on_malformed not in ("raise", "skip"):
            raise ValueError(
                f"on_malformed must be 'raise' or 'skip', got {on_malformed!r}"
            )
        if window_epochs < 1:
            raise ValueError(f"window_epochs must be >= 1, got {window_epochs}")
        if refit_every < 1:
            raise ValueError(f"refit_every must be >= 1, got {refit_every}")
        if explain_per_window < 0:
            raise ValueError(
                f"explain_per_window must be >= 0, got {explain_per_window}"
            )
        if min_train_epochs is None:
            min_train_epochs = max(window_epochs, 2)
        if min_train_epochs < 2:
            raise ValueError(
                f"min_train_epochs must be >= 2, got {min_train_epochs}"
            )
        if max_history < min_train_epochs:
            raise ValueError(
                f"max_history ({max_history}) must be >= min_train_epochs "
                f"({min_train_epochs})"
            )
        if model_factory is None:
            from repro.core.matrix import default_model_factories

            model_factory = default_model_factories()["logistic_regression"]
        self.model_factory = model_factory
        self.window_epochs = int(window_epochs)
        self.refit_every = int(refit_every)
        self.explainer_method = explainer_method
        self.explainer_kwargs = dict(explainer_kwargs or {})
        self.explain_per_window = int(explain_per_window)
        self.max_history = int(max_history)
        self.min_train_epochs = int(min_train_epochs)
        self.threshold = float(threshold)
        self._violation_drift_kwargs = {
            "delta": 0.02, "threshold": 0.25, "min_samples": 5,
            "direction": "both", **(violation_drift or {}),
        }
        self._attribution_drift_kwargs = {
            "delta": 0.02, "threshold": 0.3, "min_samples": 4,
            "direction": "up", **(attribution_drift or {}),
        }
        self.backend = backend
        self.workers = workers
        self.on_malformed = on_malformed
        self.random_state = freeze_seed(random_state)
        self.reset()

    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Forget everything: history, model, detectors, window index.

        A reset engine is indistinguishable from a freshly constructed
        one — replaying the same stream reproduces the same report.
        """
        self._pending_X: list[np.ndarray] = []
        self._pending_y: list[np.ndarray] = []
        self._pending_rows = 0
        self._history_X: np.ndarray | None = None
        self._history_y: np.ndarray | None = None
        self._feature_names: list[str] | None = None
        self._epoch = 0
        self._window_index = 0
        self._windows_since_refit = 0
        self._pipeline: NFVExplainabilityPipeline | None = None
        self._test_accuracy: float | None = None
        self._previous_profile: np.ndarray | None = None
        self.violation_detector = PageHinkley(**self._violation_drift_kwargs)
        self.attribution_detector = PageHinkley(
            **self._attribution_drift_kwargs
        )
        self.windows: list[StreamWindow] = []
        self.events: list[OperatorEvent] = []

    # -- snapshot / restore --------------------------------------------
    def config_dict(self) -> dict:
        """The engine's report-determining configuration as a plain dict.

        Everything that, together with the consumed stream, fixes the
        report bytes: window/refit geometry, explainer configuration,
        history bounds, thresholds, drift-detector parameters, and the
        frozen integer seed.  Deliberately excluded: ``model_factory``
        (callables are not comparable — restoring code must supply an
        equivalent factory) and ``backend``/``workers`` (timing-only;
        reports are byte-identical across backends).  Used by
        :meth:`load_state_dict` to refuse loading state into a
        differently configured engine.
        """
        return {
            "window_epochs": self.window_epochs,
            "refit_every": self.refit_every,
            "explainer_method": self.explainer_method,
            "explainer_kwargs": dict(self.explainer_kwargs),
            "explain_per_window": self.explain_per_window,
            "max_history": self.max_history,
            "min_train_epochs": self.min_train_epochs,
            "threshold": self.threshold,
            "violation_drift": dict(self._violation_drift_kwargs),
            "attribution_drift": dict(self._attribution_drift_kwargs),
            "on_malformed": self.on_malformed,
            "random_state": self.random_state,
        }

    def state_dict(self) -> dict:
        """Snapshot of everything needed to resume this engine exactly.

        Returns ``{"config": config_dict(), "state": {...}}`` where the
        state holds the pending epoch buffer, the sliding history, the
        fitted pipeline, both drift detectors, the window index, the
        attribution-drift reference profile, the closed windows, and the
        operator event log — all picklable (the pipeline's packed
        ensembles are dropped on pickle and rebuilt on unpickle,
        byte-identically).  The dict shares references with the live
        engine: pickle it (or deep-copy it) before the engine processes
        more batches.  Window seeds are not stored: each is
        ``child_seed`` of the frozen integer seed (in the configuration)
        and the window index.

        An engine restored via :meth:`load_state_dict` continues the
        stream byte-identically to one that was never interrupted: the
        determinism contract makes every window a pure function of
        ``(configuration, history, window index)``, and all of those
        are in the snapshot.
        """
        return {
            "config": self.config_dict(),
            "state": {
                "pending_X": list(self._pending_X),
                "pending_y": list(self._pending_y),
                "history_X": self._history_X,
                "history_y": self._history_y,
                "feature_names": (
                    list(self._feature_names)
                    if self._feature_names is not None
                    else None
                ),
                "epoch": self._epoch,
                "window_index": self._window_index,
                "windows_since_refit": self._windows_since_refit,
                "pipeline": self._pipeline,
                "test_accuracy": self._test_accuracy,
                "previous_profile": self._previous_profile,
                "violation_detector": self.violation_detector,
                "attribution_detector": self.attribution_detector,
                "windows": list(self.windows),
                "events": list(self.events),
            },
        }

    def load_state_dict(self, snapshot: dict) -> None:
        """Install a :meth:`state_dict` snapshot, resuming its stream.

        The snapshot's configuration must match this engine's
        (:meth:`config_dict` equality) — loading drift state or a
        fitted pipeline into a differently configured engine would
        silently break the determinism contract, so a mismatch raises
        ``ValueError`` naming the differing keys instead.
        """
        config, mine = snapshot["config"], self.config_dict()
        if config != mine:
            differing = [
                key
                for key in sorted(set(config) | set(mine))
                if config.get(key) != mine.get(key)
            ]
            raise ValueError(
                "snapshot configuration does not match this engine; "
                f"differing keys: {differing}"
            )
        state = snapshot["state"]
        self.reset()
        self._pending_X = list(state["pending_X"])
        self._pending_y = list(state["pending_y"])
        self._pending_rows = int(sum(len(y) for y in self._pending_y))
        self._history_X = state["history_X"]
        self._history_y = state["history_y"]
        self._feature_names = (
            list(state["feature_names"])
            if state["feature_names"] is not None
            else None
        )
        self._epoch = int(state["epoch"])
        self._window_index = int(state["window_index"])
        self._windows_since_refit = int(state["windows_since_refit"])
        self._pipeline = state["pipeline"]
        self._test_accuracy = state["test_accuracy"]
        self._previous_profile = state["previous_profile"]
        self.violation_detector = state["violation_detector"]
        self.attribution_detector = state["attribution_detector"]
        self.windows = list(state["windows"])
        self.events = list(state["events"])

    # ------------------------------------------------------------------
    def _ingest(self, batch) -> None:
        """Append one epoch batch's rows to the pending buffer."""
        features = getattr(batch, "features", None)
        values = getattr(features, "values", None)
        labels = getattr(batch, "sla_violation", None)
        if values is None or labels is None:
            raise TypeError(
                "stream batches must expose .features (a FeatureMatrix) "
                f"and .sla_violation, got {type(batch).__name__}"
            )
        values = np.asarray(values, dtype=float)
        labels = np.asarray(labels)
        start = getattr(batch, "start_epoch", None)
        where = (
            f"batch starting at epoch {start}"
            if start is not None
            else f"batch at stream offset {self._epoch + self._pending_rows}"
        )
        if values.ndim != 2 or labels.shape != (len(values),):
            raise MalformedBatchError(
                "misaligned-shapes",
                f"batch features {values.shape} do not align with "
                f"labels {labels.shape}; {where}",
            )
        if not np.isfinite(values).all():
            raise MalformedBatchError(
                "non-finite-features",
                f"batch features contain NaN/inf values; {where}",
            )
        # validate *before* the int64 cast below: float labels (0.3)
        # would be silently truncated, and negatives / multi-class
        # values only crash much later, deep inside np.bincount in
        # _history_fittable, with no hint of which batch was bad.
        # Two comparisons give np.isin's answer on every dtype (str and
        # None compare unequal) at a fifth of its cost on 1-row batches
        binary = (labels == 0) | (labels == 1)
        if not np.all(binary):
            bad = np.asarray(labels)[~binary]
            try:
                bad = np.unique(bad)
            except TypeError:  # mixed objects (None and 2) do not sort
                pass
            raise MalformedBatchError(
                "labels-not-binary",
                "sla_violation labels must be binary 0/1; "
                f"{where} contains {bad[:8].tolist()}",
            )
        if self._feature_names is None:
            self._feature_names = list(features.feature_names)
        elif list(features.feature_names) != self._feature_names:
            raise MalformedBatchError(
                "schema-changed",
                "batch feature names changed mid-stream; streams must "
                "keep one telemetry schema",
            )
        if len(values) == 0:
            return
        self._pending_X.append(values)
        self._pending_y.append(labels.astype(np.int64))
        self._pending_rows += len(values)

    def _pop_window(self, n_rows: int) -> tuple[np.ndarray, np.ndarray]:
        """Remove exactly ``n_rows`` leading rows from the pending buffer.

        Consumes whole chunks and leaves the remainder of a split chunk
        as views, so popping W rows costs O(W) — independent of how
        much telemetry is still pending (a single huge ingested batch
        must not make every window pay for the whole backlog).
        """
        taken_X, taken_y = [], []
        need = n_rows
        while need > 0:
            head_X, head_y = self._pending_X[0], self._pending_y[0]
            if len(head_X) <= need:
                taken_X.append(head_X)
                taken_y.append(head_y)
                self._pending_X.pop(0)
                self._pending_y.pop(0)
                need -= len(head_X)
            else:
                taken_X.append(head_X[:need])
                taken_y.append(head_y[:need])
                self._pending_X[0] = head_X[need:]
                self._pending_y[0] = head_y[need:]
                need = 0
        self._pending_rows -= n_rows
        return np.vstack(taken_X), np.concatenate(taken_y)

    def _extend_history(self, X: np.ndarray, y: np.ndarray) -> None:
        if self._history_X is None:
            self._history_X, self._history_y = X, y
        else:
            self._history_X = np.vstack([self._history_X, X])
            self._history_y = np.concatenate([self._history_y, y])
        if len(self._history_X) > self.max_history:
            self._history_X = self._history_X[-self.max_history:]
            self._history_y = self._history_y[-self.max_history:]

    def _history_fittable(self) -> bool:
        y = self._history_y
        if y is None or len(y) < self.min_train_epochs:
            return False
        counts = np.bincount(y, minlength=2)
        return len(counts[counts > 0]) >= 2 and counts.min() >= _MIN_CLASS_ROWS

    def _refit(self, seed: int) -> None:
        """Fit a fresh pipeline (model + explainer) on the history."""
        from repro.core.matrix import default_explainer_kwargs

        model = self.model_factory()
        # ``auto`` resolves here, so the explainer is built once, with
        # the budget of the method it resolves to; the pipeline seeds a
        # sampling method from ``seed``
        method = resolve_explainer_method(self.explainer_method, model)
        kwargs = {**default_explainer_kwargs(method), **self.explainer_kwargs}
        dataset = _HistoryDataset(
            self._history_X, self._history_y, self._feature_names
        )
        pipeline = NFVExplainabilityPipeline(
            model,
            explainer_method=method,
            explainer_kwargs=kwargs,
            threshold=self.threshold,
            random_state=seed,
        ).fit(dataset)
        self._pipeline = pipeline
        self._test_accuracy = float(pipeline.test_score_)
        self._windows_since_refit = 0

    def _explain_window(
        self, X: np.ndarray, y: np.ndarray, executor
    ) -> tuple[int, int, float | None, str | None, float | None]:
        """Diagnose the window's violations; update attribution drift.

        Returns ``(n_explained, n_alerts, mean_score, top_feature,
        attribution_shift)``.
        """
        if (
            self._pipeline is None
            or self.explain_per_window == 0
        ):
            return 0, 0, None, None, None
        rows = np.flatnonzero(y == 1)[: self.explain_per_window]
        if len(rows) == 0:
            return 0, 0, None, None, None
        batch, scores = self._pipeline.explain_rows(X[rows], executor=executor)
        n_alerts = int(np.count_nonzero(scores >= self._pipeline.threshold))
        mean_score = float(np.mean(scores))
        # C order, as a row stack would be: the column means below sum
        # in a different order (other bits) on a Fortran-ordered matrix
        A = np.ascontiguousarray(batch.values)
        profile = np.abs(A).mean(axis=0)
        total = profile.sum()
        if total <= 0:
            # every attribution was exactly zero: there is no "top
            # feature" to name, and a zero profile must not become the
            # drift reference for the next window
            return len(rows), n_alerts, mean_score, None, None
        profile = profile / total
        top_feature = self._feature_names[int(np.argmax(profile))]
        shift = None
        previous = self._previous_profile
        if previous is not None:
            denom = float(np.linalg.norm(profile) * np.linalg.norm(previous))
            if denom > 0:
                shift = float(1.0 - np.dot(profile, previous) / denom)
        self._previous_profile = profile
        return len(rows), n_alerts, mean_score, top_feature, shift

    def _process_window(self, n_rows: int, executor) -> StreamWindow:
        # times the whole window, refit included; feeds only .seconds,
        # dropped by format_table(timing=False) — the golden surface
        fields, seconds = timed(self._window_fields, n_rows, executor)
        window = StreamWindow(**fields, seconds=seconds)
        self._window_index += 1
        self.windows.append(window)
        return window

    def _window_fields(self, n_rows: int, executor) -> dict:
        index = self._window_index
        seed = child_seed(self.random_state, index)
        X, y = self._pop_window(n_rows)
        start_epoch = self._epoch
        self._epoch += n_rows
        self._extend_history(X, y)

        if self._pipeline is not None:
            self._windows_since_refit += 1
        refit = False
        if self._history_fittable() and (
            self._pipeline is None
            or self._windows_since_refit >= self.refit_every
        ):
            self._refit(seed)
            refit = True

        n_explained, n_alerts, mean_score, top_feature, shift = (
            self._explain_window(X, y, executor)
        )
        violation_rate = float(np.mean(y)) if len(y) else 0.0
        violation_drift = self.violation_detector.update(violation_rate)
        attribution_drift = (
            self.attribution_detector.update(shift)
            if shift is not None
            else False
        )

        return dict(
            index=index,
            start_epoch=start_epoch,
            end_epoch=start_epoch + n_rows,
            violation_rate=violation_rate,
            refit=refit,
            seed=seed,
            test_accuracy=self._test_accuracy,
            n_explained=n_explained,
            n_alerts=n_alerts,
            mean_score=mean_score,
            top_feature=top_feature,
            attribution_shift=shift,
            violation_drift=violation_drift,
            attribution_drift=attribution_drift,
        )

    # ------------------------------------------------------------------
    @property
    def pending_epochs(self) -> int:
        """Epochs ingested but not yet closed into a window."""
        return self._pending_rows

    @property
    def epochs_seen(self) -> int:
        """Total epochs ingested over the engine's lifetime (windowed
        plus pending)."""
        return self._epoch + self._pending_rows

    def ingest(self, batch) -> int:
        """Buffer one epoch batch without closing any windows; returns
        the pending epoch count.

        The enqueue half of :meth:`process_batch`, split out so callers
        that bound their queues (:class:`repro.serve.TenantSession`)
        can admit telemetry and defer the expensive window processing —
        or refuse admission entirely — as separate decisions.

        Batches failing a named data check raise
        :class:`MalformedBatchError` under the default
        ``on_malformed="raise"`` policy; under ``"skip"`` the batch is
        dropped before touching any engine state and the skip recorded
        as a ``skipped-batch`` event at :attr:`epochs_seen` — the
        engine's bytes continue exactly as if the batch had never
        arrived.
        """
        try:
            self._ingest(batch)
        except MalformedBatchError as err:
            if self.on_malformed != "skip":
                raise
            self.events.append(
                OperatorEvent(
                    "skipped-batch", self.epochs_seen, err.check, str(err)
                )
            )
        return self._pending_rows

    def process_pending(self, executor=None) -> list[StreamWindow]:
        """Close every complete window currently in the pending buffer.

        The drain half of :meth:`process_batch`; a trailing partial
        window stays pending (see :meth:`flush`).
        """
        windows = []
        while self._pending_rows >= self.window_epochs:
            windows.append(self._process_window(self.window_epochs, executor))
        return windows

    def process_batch(self, batch, executor=None) -> list[StreamWindow]:
        """Ingest one epoch batch; emit every window it completes.

        The incremental entry point: feed batches as they arrive and
        act on the returned windows (alerts, drift alarms).  Windows
        close only when ``window_epochs`` epochs have accumulated —
        batch boundaries never leak into window boundaries.
        """
        self.ingest(batch)
        return self.process_pending(executor)

    def flush(self, executor=None) -> list[StreamWindow]:
        """Close the trailing partial window, if any epochs are pending."""
        if self._pending_rows == 0:
            return []
        return [self._process_window(self._pending_rows, executor)]

    def run(self, stream, *, progress=None, executor=None) -> StreamReport:
        """Consume a whole stream and return its :class:`StreamReport`.

        ``stream`` is any iterable of epoch batches; a trailing partial
        window is flushed at the end.  ``progress`` is an optional
        ``callable(str)`` receiving one line per closed window.  The
        report covers only the windows closed by *this* call — the
        engine keeps its state, so successive ``run`` calls continue
        the same logical stream (use :meth:`reset` to start over).

        ``executor`` lets the caller supply (and keep ownership of) an
        executor — e.g. a :class:`repro.resilience.ResilientExecutor`
        for fault-tolerant dispatch; the caller closes it.  ``None``
        builds one from ``backend``/``workers`` and closes it with the
        run.
        """
        first = len(self.windows)
        first_event = len(self.events)
        scenario = getattr(getattr(stream, "spec", None), "name", None)

        def emit(windows):
            if progress is not None:
                for w in windows:
                    progress(
                        f"window {w.index} [{w.start_epoch}-{w.end_epoch}): "
                        f"viol={w.violation_rate:.1%} "
                        f"expl={w.n_explained} alerts={w.n_alerts}"
                        + (" refit" if w.refit else "")
                        + (" DRIFT" if w.violation_drift or w.attribution_drift
                           else "")
                    )

        owned = (
            get_executor(self.backend, self.workers)
            if executor is None
            else contextlib.nullcontext(executor)
        )
        with owned as executor:
            for batch in stream:
                emit(self.process_batch(batch, executor))
            emit(self.flush(executor))
            extras = {"backend": executor.backend, "workers": executor.workers}

        return self.report(first, first_event, scenario=scenario, extras=extras)

    def report(self, first_window: int = 0, first_event: int = 0, *,
               scenario: str | None = None,
               extras: dict | None = None) -> StreamReport:
        """A :class:`StreamReport` over the windows and events recorded
        from ``first_window`` and ``first_event`` on."""
        return StreamReport(
            windows=self.windows[first_window:],
            window_epochs=self.window_epochs,
            refit_every=self.refit_every,
            explainer=self.explainer_method,
            scenario=scenario,
            seed=self.random_state,
            extras=extras or {},
            events=self.events[first_event:],
        )
