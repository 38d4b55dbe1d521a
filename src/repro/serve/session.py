"""One tenant's diagnosis session inside a shared service.

A :class:`TenantSession` wraps a
:class:`~repro.core.stream.StreamingDiagnosisEngine` with the three
things multi-tenancy needs and a bare engine does not have:

* an **identity** — a name and a monotonic tenant index, from which the
  session's integer seed is derived (prefix-stable, so tenant ``i``
  gets the same seed no matter how many tenants open after it);
* a **bounded ingest queue** — ``submit`` rejects batches that would
  push the engine's pending buffer past ``max_pending_epochs``,
  raising :class:`BackpressureError` instead of letting one chatty
  tenant grow memory without bound;
* a **lock** — submit/drain/report/snapshot are serialized per
  session, so concurrent callers (the service is driven from many
  threads) cannot interleave half-ingested batches.

Each session also carries a **circuit breaker**: engine or executor
failures are counted, and a tenant that keeps failing —
``failure_budget`` consecutive failures — is *quarantined* with a
named :class:`SessionQuarantinedError`.  A quarantined session refuses
further work (its state and report stay readable) until
:meth:`TenantSession.reinstate`; the service keeps serving every other
tenant, whose reports remain byte-identical to a run without the bad
tenant (``tests/serve/test_quarantine.py``).  Every breaker step —
``session-failure``, ``quarantined``, ``reinstated`` — is an
:class:`~repro.utils.events.OperatorEvent` in the tenant's one log,
the engine's ``events``, keyed by the session's ``epochs_seen``; that
log rides the engine state into snapshots and ``report().events``.

Sessions do not own an executor; the service passes its shared one
into :meth:`TenantSession.drain`.  Parallelism is timing-only — every
report is byte-identical to a serial run under the session's seed.
"""

from __future__ import annotations

import pickle
import threading

import numpy as np

from repro.core.stream import StreamingDiagnosisEngine, StreamReport
from repro.utils.events import OperatorEvent

from .snapshot import SessionSnapshot

__all__ = ["BackpressureError", "SessionQuarantinedError", "TenantSession"]


class BackpressureError(RuntimeError):
    """A submitted batch would exceed the session's pending budget.

    Carries enough context (``session``, ``pending_epochs``,
    ``batch_epochs``, ``capacity``) for the caller to decide whether to
    drain and retry, shed load, or fail the tenant request upstream.
    The rejected batch was **not** ingested — the session is unchanged.
    """

    def __init__(self, session: str, pending_epochs: int,
                 batch_epochs: int, capacity: int):
        self.session = session
        self.pending_epochs = pending_epochs
        self.batch_epochs = batch_epochs
        self.capacity = capacity
        super().__init__(
            f"session {session!r}: refusing batch of {batch_epochs} "
            f"epochs; {pending_epochs} already pending of "
            f"{capacity} allowed — drain before submitting more"
        )


class SessionQuarantinedError(RuntimeError):
    """The session's circuit breaker is open — it refuses new work.

    Raised by the call that crosses the session's ``failure_budget``
    (chained from the triggering failure via ``__cause__``) and by
    every subsequent ``submit``/``drain``/``process``/``flush`` until
    :meth:`TenantSession.reinstate`.  ``check`` names what tripped the
    breaker: a :class:`~repro.core.stream.MalformedBatchError` check
    name where available, else the exception type name.
    """

    def __init__(self, session: str, check: str | None, failures: int):
        self.session = session
        self.check = check
        self.failures = failures
        super().__init__(
            f"session {session!r} is quarantined after {failures} "
            f"consecutive failure(s); triggering check: {check}"
        )


def _failure_check(exc: BaseException) -> str:
    """The named check a failure trips (exception type as fallback)."""
    return getattr(exc, "check", None) or type(exc).__name__


class TenantSession:
    """A named, seeded, backpressure-bounded engine wrapper.

    Built by :meth:`repro.serve.DiagnosisService.open_session`; not
    usually constructed directly.  ``failure_budget`` is how many
    *consecutive* failures quarantine the session (successfully
    accepting telemetry, or draining real windows, closes the streak).
    """

    def __init__(self, name: str, tenant_index: int, seed: int,
                 engine: StreamingDiagnosisEngine,
                 max_pending_epochs: int,
                 failure_budget: int = 3):
        if max_pending_epochs < 1:
            raise ValueError(
                f"max_pending_epochs must be >= 1, got {max_pending_epochs}"
            )
        if failure_budget < 1:
            raise ValueError(
                f"failure_budget must be >= 1, got {failure_budget}"
            )
        self.name = name
        self.tenant_index = int(tenant_index)
        self.seed = int(seed)
        self.engine = engine
        self.max_pending_epochs = int(max_pending_epochs)
        self.failure_budget = int(failure_budget)
        self._lock = threading.Lock()
        self._consecutive_failures = 0
        self._quarantined = False

    # ------------------------------------------------------------------
    @property
    def pending_epochs(self) -> int:
        """Epochs ingested but not yet assigned to a closed window."""
        return self.engine.pending_epochs

    @property
    def epochs_seen(self) -> int:
        """Total epochs this session has accepted (closed + pending)."""
        return self.engine.epochs_seen

    @property
    def windows(self) -> list:
        """All windows closed so far (live list — do not mutate)."""
        return self.engine.windows

    @property
    def quarantined(self) -> bool:
        """Whether the circuit breaker is open."""
        return self._quarantined

    # -- circuit breaker -----------------------------------------------
    def _log(self, kind: str, check: str | None = None,
             detail: str = "") -> None:
        """Append one breaker step to the tenant's event log."""
        self.engine.events.append(
            OperatorEvent(kind, self.engine.epochs_seen, check, detail)
        )

    def _tripped_check(self) -> str:
        """The check of the newest ``quarantined`` step (breaker open)."""
        return next(
            e.check for e in reversed(self.engine.events)
            if e.kind == "quarantined"
        )

    def _refusal(self) -> SessionQuarantinedError:
        return SessionQuarantinedError(
            self.name, self._tripped_check(), self._consecutive_failures
        )

    def _note_failure(self, exc: BaseException, *, trip: bool = False) -> None:
        """Log one failure; open the breaker at the budget (at once
        with ``trip``).  Call under the lock."""
        self._consecutive_failures += 1
        check = _failure_check(exc)
        self._log("session-failure", check, f"{type(exc).__name__}: {exc}")
        if trip or self._consecutive_failures >= self.failure_budget:
            self._quarantined = True
            self._log(
                "quarantined", check,
                f"after {self._consecutive_failures} consecutive failure(s)",
            )

    def _guarded(self, step, *args, needs_windows: bool = False):
        """Run ``step(*args)`` under the lock and the circuit breaker.

        A quarantined session refuses the call.  A failure counts
        against the budget and is re-raised, or raised as
        :class:`SessionQuarantinedError` chained from it once the
        breaker opens; a :class:`BackpressureError` is flow control, not
        a fault, and never counts.  Success closes the failure streak —
        with ``needs_windows``, only if ``step`` closed windows, so an
        empty drain cannot launder a tenant whose submits keep failing.
        """
        with self._lock:
            if self._quarantined:
                raise self._refusal()
            try:
                result = step(*args)
            except BackpressureError:
                raise
            except Exception as exc:
                self._note_failure(exc)
                if self._quarantined:
                    raise self._refusal() from exc
                raise
            if result or not needs_windows:
                self._consecutive_failures = 0
            return result

    def record_stream_failure(self, exc: BaseException) -> None:
        """Record that the tenant's *stream iterator* raised.

        A dead iterator cannot yield again, so this quarantines the
        session immediately regardless of the remaining budget — used
        by :func:`repro.serve.interleave` to sideline a tenant whose
        telemetry source itself is broken.
        """
        with self._lock:
            self._note_failure(exc, trip=True)

    def reinstate(self) -> None:
        """Close the breaker again (an operator decision, never automatic).

        The failures stay in the event log; the consecutive streak
        restarts.
        """
        with self._lock:
            if self._quarantined:
                self._log("reinstated")
            self._quarantined = False
            self._consecutive_failures = 0

    def health(self) -> dict:
        """The session's breaker state as a plain dict.

        Keys: ``status`` (``"ok"``/``"quarantined"``), ``failures``
        (lifetime total), ``consecutive``, ``check`` (what tripped the
        breaker, or ``None``), ``last_error``.  All but ``status`` and
        ``consecutive`` are read off the event log.
        """
        with self._lock:
            failures = [
                e for e in self.engine.events if e.kind == "session-failure"
            ]
            return {
                "status": "quarantined" if self._quarantined else "ok",
                "failures": len(failures),
                "consecutive": self._consecutive_failures,
                "check": self._tripped_check() if self._quarantined else None,
                "last_error": failures[-1].detail if failures else None,
            }

    def _load_breaker(self, snapshot: SessionSnapshot) -> None:
        """Install a snapshot's breaker state (its log rides the engine
        state)."""
        with self._lock:
            self._quarantined = snapshot.quarantined
            self._consecutive_failures = snapshot.consecutive_failures

    # ------------------------------------------------------------------
    def submit(self, batch) -> int:
        """Enqueue one epoch batch; returns the new pending count.

        Raises :class:`BackpressureError` — *without* ingesting — when
        the batch would push the pending buffer past
        ``max_pending_epochs``.  A single batch larger than the whole
        budget can therefore never be accepted; size
        ``max_pending_epochs`` to at least the largest batch the
        tenant emits.
        """
        return self._guarded(self._admit, batch)

    def _admit(self, batch) -> int:
        labels = getattr(batch, "sla_violation", None)
        batch_epochs = 0 if labels is None else int(np.size(labels))
        pending = self.engine.pending_epochs
        if pending + batch_epochs > self.max_pending_epochs:
            raise BackpressureError(
                self.name, pending, batch_epochs, self.max_pending_epochs
            )
        return self.engine.ingest(batch)

    def drain(self, executor=None) -> list:
        """Close every complete window in the pending buffer."""
        return self._guarded(
            self.engine.process_pending, executor, needs_windows=True
        )

    def process(self, batch, executor=None) -> list:
        """``submit`` then ``drain`` — the one-call streaming step."""
        self.submit(batch)
        return self.drain(executor)

    def flush(self, executor=None) -> list:
        """End of stream: close the trailing partial window, if any."""
        return self._guarded(self.engine.flush, executor, needs_windows=True)

    # ------------------------------------------------------------------
    def report(self) -> StreamReport:
        """A :class:`StreamReport` over every window closed so far, with
        the engine's stream events."""
        with self._lock:
            return self.engine.report(scenario=self.name)

    def snapshot(self) -> SessionSnapshot:
        """Detached, picklable snapshot of this session.

        The engine state is pickle-round-tripped under the session
        lock, so the snapshot neither aliases live engine state nor can
        silently turn out unpicklable later at save time.
        """
        with self._lock:
            return SessionSnapshot(
                name=self.name,
                tenant_index=self.tenant_index,
                seed=self.seed,
                max_pending_epochs=self.max_pending_epochs,
                engine=pickle.loads(pickle.dumps(self.engine.state_dict())),
                failure_budget=self.failure_budget,
                quarantined=self._quarantined,
                consecutive_failures=self._consecutive_failures,
            )

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return (
            f"TenantSession(name={self.name!r}, "
            f"tenant_index={self.tenant_index}, seed={self.seed}, "
            f"epochs_seen={self.epochs_seen})"
        )
