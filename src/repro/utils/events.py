"""The one operator event record and its one printer.

Everything the stack survived — executor retries, timeouts, pool
rebuilds and degradations, skipped telemetry batches, session failures,
quarantines and reinstatements — is an :class:`OperatorEvent`.  Events
are kept out of every report table, so recovery never moves a report
byte; :func:`format_events` renders a log separately.
"""

from dataclasses import dataclass

__all__ = ["OperatorEvent", "format_events"]


@dataclass(frozen=True)
class OperatorEvent:
    """One named occurrence an operator can audit.

    ``kind`` names the step (``"task-retry"``, ``"skipped-batch"``,
    ``"quarantined"``, ...), ``check`` the named check or exception type
    behind it, if any, and ``detail`` the full message.  ``at`` is a
    deterministic order key, never a clock: the stream epoch for stream
    and session events, the global task ordinal for executor events.
    """

    kind: str
    at: int
    check: str | None = None
    detail: str = ""

    def __str__(self) -> str:
        check = "" if self.check is None else f"[{self.check}]"
        detail = f": {self.detail}" if self.detail else ""
        return f"{self.kind}{check} @{self.at}{detail}"


def format_events(events, title: str) -> str:
    """``"{title} events (n):"`` and one indented line per event, or
    ``"no {title} events"`` for an empty log."""
    if not events:
        return f"no {title} events"
    lines = [f"{title} events ({len(events)}):"]
    lines.extend(f"  {event}" for event in events)
    return "\n".join(lines)
