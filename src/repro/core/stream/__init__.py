"""Streaming diagnosis: online SLA-violation explanation.

* :mod:`repro.core.stream.engine` —
  :class:`~repro.core.stream.engine.StreamingDiagnosisEngine`, the
  sliding-window train/explain/drift loop over epoch batches, and its
  :class:`~repro.core.stream.engine.StreamReport`.
* :mod:`repro.core.stream.drift` — the Page–Hinkley change detector
  behind the violation-rate and attribution drift alarms.

See ``docs/streaming.md`` for the API walkthrough and the determinism
contract.
"""

from repro.core.stream.drift import PageHinkley
from repro.core.stream.engine import (
    MALFORMED_CHECKS,
    MalformedBatchError,
    StreamingDiagnosisEngine,
    StreamReport,
    StreamWindow,
    window_seeds,
)

__all__ = [
    "MALFORMED_CHECKS",
    "MalformedBatchError",
    "PageHinkley",
    "StreamingDiagnosisEngine",
    "StreamReport",
    "StreamWindow",
    "window_seeds",
]
