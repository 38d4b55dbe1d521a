"""repro.serve — diagnosis as a service.

Multi-tenant session management over the streaming diagnosis engine:
a :class:`DiagnosisService` multiplexes named
:class:`TenantSession` objects over one shared executor and one shared
coalition-design memo, with per-tenant seed isolation, bounded ingest queues
(:class:`BackpressureError`), per-session circuit breakers
(:class:`SessionQuarantinedError`, :meth:`DiagnosisService.health_report`),
and whole-service snapshot/restore (:func:`save_snapshot` /
:func:`load_snapshot`) that resumes every tenant's stream
byte-identically.  Each tenant keeps one operator event log — skipped
batches and breaker steps as :class:`~repro.utils.events.OperatorEvent`
records in ``report(name).events`` — printed by
:func:`repro.utils.events.format_events`.

    from repro.serve import DiagnosisService

    with DiagnosisService(window_epochs=64, random_state=7) as service:
        service.open_session("tenant-a")
        for batch in stream:
            for window in service.process("tenant-a", batch):
                ...
        print(service.close_session("tenant-a").format_table())
"""

from .service import DiagnosisService, ServiceHealth, interleave
from .session import (
    BackpressureError,
    SessionQuarantinedError,
    TenantSession,
)
from .snapshot import (
    SNAPSHOT_SCHEMA,
    ServiceSnapshot,
    SessionSnapshot,
    load_snapshot,
    save_snapshot,
)

__all__ = [
    "SNAPSHOT_SCHEMA",
    "BackpressureError",
    "DiagnosisService",
    "ServiceHealth",
    "ServiceSnapshot",
    "SessionQuarantinedError",
    "SessionSnapshot",
    "TenantSession",
    "interleave",
    "load_snapshot",
    "save_snapshot",
]
