"""Diagnosis-as-a-service: one engine per tenant, shared everything else.

:class:`DiagnosisService` multiplexes many named tenant sessions —
each a :class:`~repro.serve.session.TenantSession` wrapping its own
:class:`~repro.core.stream.StreamingDiagnosisEngine` — over shared
infrastructure:

* one **executor** (:func:`repro.core.executor.get_executor`) drives
  the chunked explanation dispatch of every session, so the worker
  budget is a service-level knob rather than per-tenant;
* one **coalition-design memo** (:mod:`repro.core.cache`) serves all
  sessions — KernelSHAP explainers with the same feature dimension,
  sample budget and integer seed share one design across session
  boundaries;
* one **seed** covers the whole service: tenant ``i``'s engine seed is
  ``child_seed(service_seed, i)``, equal to
  ``spawn_seeds(service_seed, n)[i]`` for any ``n > i``, so
  a tenant's reports do not depend on how many tenants open after it,
  and a restored service hands out the same seeds it did before.

Per-tenant isolation is the determinism contract in service clothing:
each session's report is byte-identical to running that tenant alone
in its own process with the same integer seed — the concurrent-session
stress tests in ``tests/serve/`` enforce exactly that.

The service snapshots and restores (:meth:`DiagnosisService.snapshot`,
:meth:`DiagnosisService.restore`): a restarted service resumes every
tenant's stream byte-identically to one that was never interrupted.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from repro.core import cache
from repro.core.executor import get_executor
from repro.core.stream import StreamingDiagnosisEngine, StreamReport
from repro.resilience import ResilientExecutor
from repro.utils.rng import child_seed, freeze_seed

from .session import BackpressureError, SessionQuarantinedError, TenantSession
from .snapshot import ServiceSnapshot

__all__ = ["DiagnosisService", "ServiceHealth", "interleave"]


@dataclass
class ServiceHealth:
    """Per-session circuit-breaker state of a whole service.

    ``sessions`` maps session name → the
    :meth:`~repro.serve.session.TenantSession.health` dict, in
    tenant-index order.  Each step behind it is in that session's
    ``report().events`` log (print it with
    :func:`repro.utils.events.format_events`).
    """

    sessions: dict[str, dict] = field(default_factory=dict)

    @property
    def quarantined(self) -> list[str]:
        """Names of quarantined sessions, in tenant-index order."""
        return [
            name
            for name, health in self.sessions.items()
            if health["status"] == "quarantined"
        ]


class DiagnosisService:
    """Multi-tenant streaming diagnosis over a shared executor + cache.

    Parameters
    ----------
    model_factory:
        Zero-argument callable returning a fresh unfitted estimator,
        handed to every session engine (default: the reference
        ``logistic_regression`` factory).
    max_pending_epochs:
        Default per-session ingest budget: ``submit`` rejects batches
        that would push a session's pending buffer past this
        (:class:`~repro.serve.session.BackpressureError`).  Override
        per session via ``open_session``.
    backend, workers:
        The shared executor (see :func:`repro.core.executor.get_executor`;
        ``"auto"`` resolves to serial on one usable CPU).  Timing-only:
        reports are byte-identical across backends and worker counts.
    random_state:
        Service seed.  Non-integer seeds are frozen into one drawn
        integer at construction so tenant seeds survive restarts.
    failure_budget:
        Consecutive failures before a session's circuit breaker opens
        (see :class:`~repro.serve.session.TenantSession`); override
        per session via ``open_session``.
    task_timeout, task_retries, chaos:
        When any is given, the shared executor is wrapped in a
        :class:`repro.resilience.ResilientExecutor` with that per-task
        timeout, retry budget (default 2 when only a timeout is set),
        and optional :class:`repro.chaos.ChaosPolicy`.  ``None`` for
        all three (the default) keeps the plain executor — and either
        way the reports' bytes are identical; resilience is
        recovery-only.
    **engine_kwargs:
        Forwarded to every session's
        :class:`~repro.core.stream.StreamingDiagnosisEngine`
        (``window_epochs``, ``refit_every``, ``explainer_method``, ...).
    """

    def __init__(self, model_factory=None, *, max_pending_epochs: int = 256,
                 backend: str = "auto", workers: int | None = None,
                 random_state=None, failure_budget: int = 3,
                 task_timeout: float | None = None,
                 task_retries: int | None = None,
                 chaos=None,
                 **engine_kwargs):
        if max_pending_epochs < 1:
            raise ValueError(
                f"max_pending_epochs must be >= 1, got {max_pending_epochs}"
            )
        if failure_budget < 1:
            raise ValueError(
                f"failure_budget must be >= 1, got {failure_budget}"
            )
        self.model_factory = model_factory
        self.max_pending_epochs = int(max_pending_epochs)
        self.failure_budget = int(failure_budget)
        self.random_state = freeze_seed(random_state)
        self._engine_kwargs = dict(engine_kwargs)
        self._sessions: dict[str, TenantSession] = {}
        self._next_index = 0
        self._lock = threading.Lock()
        self._closed = False
        # the executor is created last: anything above that raises must
        # not leave an orphaned pool behind (a leak the close() path
        # could never reach)
        if (task_timeout is not None or task_retries is not None
                or chaos is not None):
            self._executor = ResilientExecutor(
                backend, workers,
                task_timeout=task_timeout,
                retries=2 if task_retries is None else task_retries,
                chaos=chaos,
            )
        else:
            self._executor = get_executor(backend, workers)

    # ------------------------------------------------------------------
    @property
    def executor(self):
        """The shared executor driving every session's explanation."""
        return self._executor

    @property
    def session_names(self) -> list[str]:
        """Open session names in tenant-index order."""
        return [s.name for s in self._ordered_sessions()]

    def _ordered_sessions(self) -> list[TenantSession]:
        with self._lock:
            sessions = list(self._sessions.values())
        return sorted(sessions, key=lambda s: s.tenant_index)

    def tenant_seed(self, index: int) -> int:
        """The engine seed of tenant ``index`` (prefix-stable)."""
        return child_seed(self.random_state, index)

    # ------------------------------------------------------------------
    def open_session(self, name: str, *,
                     max_pending_epochs: int | None = None,
                     failure_budget: int | None = None) -> TenantSession:
        """Register tenant ``name`` and return its fresh session.

        Tenant indices are monotonic and never reused, even after
        ``close_session`` — a re-opened name gets a *new* index and
        therefore a new seed, so one tenant's history can never bleed
        into another's report.
        """
        if not name or not isinstance(name, str):
            raise ValueError(f"session name must be a non-empty str, "
                             f"got {name!r}")
        with self._lock:
            if self._closed:
                raise RuntimeError("service is closed")
            if name in self._sessions:
                raise ValueError(f"session {name!r} is already open")
            # built before the index is taken: a refused open (a bad
            # budget, an unknown engine kwarg) must not shift the seed
            # of every tenant opened after it
            session = self._new_session(
                name, self._next_index, max_pending_epochs, failure_budget
            )
            self._next_index += 1
            self._sessions[name] = session
            return session

    def _new_session(self, name: str, index: int,
                     max_pending_epochs: int | None,
                     failure_budget: int | None) -> TenantSession:
        """Tenant ``index``'s fresh session, its engine built from the
        service's engine configuration and ``tenant_seed(index)``
        (``None`` budgets take the service defaults)."""
        seed = self.tenant_seed(index)
        engine = StreamingDiagnosisEngine(
            self.model_factory, random_state=seed, **self._engine_kwargs
        )
        return TenantSession(
            name, index, seed, engine,
            max_pending_epochs=(
                self.max_pending_epochs if max_pending_epochs is None
                else max_pending_epochs
            ),
            failure_budget=(
                self.failure_budget if failure_budget is None
                else failure_budget
            ),
        )

    def session(self, name: str) -> TenantSession:
        """Look up an open session by name (``KeyError`` if absent)."""
        with self._lock:
            try:
                return self._sessions[name]
            except KeyError:
                raise KeyError(f"no open session named {name!r}") from None

    # ------------------------------------------------------------------
    def submit(self, name: str, batch) -> int:
        """Enqueue a batch for tenant ``name``; new pending count.

        Raises :class:`~repro.serve.session.BackpressureError` when the
        tenant is over budget — drain (or ``process``) first.
        """
        return self.session(name).submit(batch)

    def drain(self, name: str) -> list:
        """Close tenant ``name``'s complete pending windows."""
        return self.session(name).drain(self._executor)

    def process(self, name: str, batch) -> list:
        """``submit`` + ``drain`` for tenant ``name`` in one call."""
        return self.session(name).process(batch, self._executor)

    def flush_all(self) -> dict[str, list]:
        """Flush every healthy session's trailing partial window;
        windows keyed by session name.

        Quarantined sessions are skipped (an empty list), not raised:
        one bad tenant must never block a fleet-wide flush.  Read
        :meth:`health_report` to see who was sidelined.
        """
        return {
            s.name: [] if s.quarantined else s.flush(self._executor)
            for s in self._ordered_sessions()
        }

    def report(self, name: str) -> StreamReport:
        """Tenant ``name``'s report over all windows closed so far."""
        return self.session(name).report()

    def health_report(self) -> ServiceHealth:
        """Every session's circuit-breaker state, in tenant-index order.

        Names each quarantined session and the check that tripped its
        breaker — the first thing to read after a fault storm.
        """
        return ServiceHealth(
            sessions={s.name: s.health() for s in self._ordered_sessions()}
        )

    def close_session(self, name: str, *, flush: bool = True) -> StreamReport:
        """Unregister tenant ``name``; returns its final report."""
        session = self.session(name)
        if flush:
            session.flush(self._executor)
        report = session.report()
        with self._lock:
            self._sessions.pop(name, None)
        return report

    # ------------------------------------------------------------------
    def snapshot(self) -> ServiceSnapshot:
        """Detached, picklable snapshot of the service and all sessions."""
        sessions = self._ordered_sessions()
        return ServiceSnapshot(
            service_config={
                "max_pending_epochs": self.max_pending_epochs,
                "random_state": self.random_state,
                "engine_kwargs": dict(self._engine_kwargs),
                "next_index": self._next_index,
            },
            sessions=[s.snapshot() for s in sessions],
        )

    @classmethod
    def restore(cls, snapshot: ServiceSnapshot, *, model_factory=None,
                backend: str = "auto", workers: int | None = None,
                task_timeout: float | None = None,
                task_retries: int | None = None,
                chaos=None) -> "DiagnosisService":
        """Rebuild a service from :meth:`snapshot`.

        ``model_factory`` / ``backend`` / ``workers`` (and the
        resilience knobs) are supplied by the restoring code — they are
        deliberately not in the snapshot; everything report-determining
        comes from the snapshot, so the restored service resumes every
        tenant byte-identically.  Each session is built from the
        service configuration, exactly as :meth:`open_session` builds
        it, before its engine state loads, so an engine whose snapshot
        configuration disagrees is refused with ``ValueError`` naming
        the differing keys.  A tenant quarantined at snapshot time is
        restored quarantined.
        """
        config = snapshot.service_config
        service = cls(
            model_factory,
            max_pending_epochs=config["max_pending_epochs"],
            backend=backend,
            workers=workers,
            random_state=config["random_state"],
            task_timeout=task_timeout,
            task_retries=task_retries,
            chaos=chaos,
            **config["engine_kwargs"],
        )
        try:
            for snap in snapshot.sessions:
                session = service._new_session(
                    snap.name, snap.tenant_index, snap.max_pending_epochs,
                    snap.failure_budget,
                )
                session.engine.load_state_dict(snap.engine)
                session._load_breaker(snap)
                with service._lock:
                    service._sessions[snap.name] = session
            service._next_index = config["next_index"]
        except BaseException:
            # a half-restored service must not leak its executor pool
            service.close()
            raise
        return service

    # ------------------------------------------------------------------
    def cache_stats(self) -> dict:
        """Hit/miss statistics of the shared coalition-design memo."""
        return cache.cache_stats()

    def close(self) -> None:
        """Shut the shared executor down (idempotent).

        Sessions stay readable (``report`` still works) but draining
        through the service is over.
        """
        with self._lock:
            self._closed = True
        self._executor.close()

    def __enter__(self) -> "DiagnosisService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return (
            f"DiagnosisService(sessions={len(self._sessions)}, "
            f"backend={self._executor.backend!r}, "
            f"seed={self.random_state})"
        )


def interleave(service: DiagnosisService, streams,
               *, until_epoch: int | None = None) -> dict[str, list]:
    """Round-robin many tenant streams through one service.

    ``streams`` maps session names (already opened on ``service``) to
    iterables of epoch batches — a mapping, or an iterable of
    ``(name, stream)`` pairs.  Batches are fed one per tenant per
    round in sorted-name order — the worst case for accidental
    cross-tenant state sharing, which makes this the natural driver
    for the isolation tests and the serve benchmark.  Feeding stops
    per tenant when its stream is exhausted or, with ``until_epoch``,
    once the session has seen at least that many epochs (useful for
    stopping mid-stream before a snapshot).

    Raises ``ValueError`` (named) on an empty ``streams`` or on
    duplicate session names, and ``KeyError`` for a name not open on
    the service — all before any batch is fed.

    Faulty tenants never take the others down:

    * a session failure below its budget is counted by the session's
      circuit breaker and the tenant stays in rotation (the batch is
      lost; read :meth:`DiagnosisService.health_report` afterwards);
    * a :class:`~repro.serve.session.SessionQuarantinedError` drops
      the tenant from the rotation;
    * a stream iterator that itself raises quarantines its tenant
      (:meth:`~repro.serve.session.TenantSession.record_stream_failure`)
      and drops it;
    * :class:`~repro.serve.session.BackpressureError` still
      propagates — it is flow control the *caller* misconfigured, not
      a tenant fault.

    Returns the windows closed per session, keyed by name (a
    quarantined tenant keeps the windows it closed before being
    sidelined).
    """
    pairs = list(streams.items()) if hasattr(streams, "items") else list(streams)
    if not pairs:
        raise ValueError(
            "interleave needs at least one (session, stream) pair; "
            "got an empty streams argument"
        )
    names = [name for name, _ in pairs]
    duplicates = sorted({name for name in names if names.count(name) > 1})
    if duplicates:
        raise ValueError(
            f"duplicate session names in interleave streams: {duplicates}"
        )
    for name in names:
        service.session(name)  # KeyError, by name, if not open
    iterators = {name: iter(stream) for name, stream in pairs}
    windows: dict[str, list] = {name: [] for name in iterators}
    while iterators:
        for name in sorted(iterators):
            if (until_epoch is not None
                    and service.session(name).epochs_seen >= until_epoch):
                del iterators[name]
                continue
            try:
                batch = next(iterators[name])
            except StopIteration:
                del iterators[name]
                continue
            except Exception as exc:
                service.session(name).record_stream_failure(exc)
                del iterators[name]
                continue
            try:
                windows[name].extend(service.process(name, batch))
            except SessionQuarantinedError:
                del iterators[name]
            except BackpressureError:
                raise
            except Exception:
                # counted by the session's breaker inside process();
                # the tenant stays in rotation until its budget opens
                # the breaker
                continue
    return windows
