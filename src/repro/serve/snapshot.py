"""Picklable snapshots of a running diagnosis service.

A :class:`~repro.serve.service.DiagnosisService` that is stopped and
restored from its snapshot continues every tenant's stream
byte-identically to a service that was never interrupted — the
determinism contract makes each window a pure function of
``(engine configuration, history, window index)``, and the snapshot
captures exactly those plus the service-level wiring (tenant names,
indices, seeds, and the backpressure budget).

Snapshots are plain dataclasses serialized with stdlib :mod:`pickle`.
Deliberately *not* captured: the model factory (callables are not
comparable — restoring code supplies an equivalent one), the execution
backend and worker budget (timing-only), and the shared explainer
cache (a performance artifact that regrows on demand without changing
any report bytes).
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field

__all__ = [
    "SNAPSHOT_SCHEMA",
    "ServiceSnapshot",
    "SessionSnapshot",
    "load_snapshot",
    "save_snapshot",
]

#: Bump when the snapshot layout changes incompatibly.
SNAPSHOT_SCHEMA = 2


@dataclass
class SessionSnapshot:
    """One tenant session: identity, its engine's resumable state, and
    its circuit breaker.

    ``engine`` is the session engine's
    :meth:`~repro.core.stream.StreamingDiagnosisEngine.state_dict`,
    detached from the live engine (the session pickle-round-trips it at
    snapshot time, which also proves picklability early instead of at
    save time); it carries the tenant's operator event log, breaker
    steps included.  ``quarantined`` and ``consecutive_failures`` are
    the breaker state the log cannot tell, so a tenant quarantined
    before the snapshot stays quarantined after the restore.
    """

    name: str
    tenant_index: int
    seed: int
    max_pending_epochs: int
    engine: dict
    failure_budget: int
    quarantined: bool
    consecutive_failures: int


@dataclass
class ServiceSnapshot:
    """A whole service: its configuration and every open session."""

    service_config: dict
    sessions: list[SessionSnapshot] = field(default_factory=list)
    schema: int = SNAPSHOT_SCHEMA


def save_snapshot(snapshot: ServiceSnapshot, path) -> None:
    """Pickle a :class:`ServiceSnapshot` to ``path``."""
    with open(path, "wb") as fh:
        pickle.dump(snapshot, fh)


def load_snapshot(path) -> ServiceSnapshot:
    """Load a :class:`ServiceSnapshot` written by :func:`save_snapshot`.

    Raises ``ValueError`` for files that do not unpickle (truncated,
    empty or foreign bytes; chained from the unpickling error), objects
    that are not service snapshots, and snapshots whose schema this
    version cannot read.
    """
    with open(path, "rb") as fh:
        try:
            snapshot = pickle.load(fh)
        except (pickle.UnpicklingError, EOFError) as exc:
            raise ValueError(
                f"{path!r} does not contain a ServiceSnapshot "
                f"({type(exc).__name__}: {exc})"
            ) from exc
    if not isinstance(snapshot, ServiceSnapshot):
        raise ValueError(
            f"{path!r} does not contain a ServiceSnapshot "
            f"(got {type(snapshot).__name__})"
        )
    if snapshot.schema != SNAPSHOT_SCHEMA:
        raise ValueError(
            f"snapshot schema {snapshot.schema} is not supported "
            f"(this version reads schema {SNAPSHOT_SCHEMA})"
        )
    return snapshot
