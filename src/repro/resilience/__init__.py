"""Fault-tolerant execution for the diagnosis stack.

The executors in :mod:`repro.core.executor` implement the determinism
contract but not survival: one crashed worker, hung task, or poisoned
shard aborts the whole ``map`` and takes every caller down with it.
This package wraps them in :class:`ResilientExecutor` — per-task
timeouts, bounded deterministic retries (a retried shard reruns with
the same arguments and the same child seed, so a recovered run is
byte-identical to an undisturbed one), and a graceful-degradation
chain (broken process pool → rebuild once → fall back to threads →
serial), every step recorded as a named
:class:`~repro.utils.events.OperatorEvent` in
:attr:`ResilientExecutor.events` (print the log with
:func:`repro.utils.events.format_events`).

The invariant the layer guarantees, and :mod:`repro.chaos` proves:
under any injected fault the final report is either byte-identical to
the fault-free run or a single named error (:class:`TaskFailedError` /
:class:`TaskTimeoutError`) — never a partial, silently-wrong result.
"""

from repro.resilience.errors import (
    ResilienceError,
    TaskFailedError,
    TaskTimeoutError,
)
from repro.resilience.executor import EVENT_KINDS, ResilientExecutor

__all__ = [
    "EVENT_KINDS",
    "ResilienceError",
    "ResilientExecutor",
    "TaskFailedError",
    "TaskTimeoutError",
]
