"""``ResilientExecutor`` — retries, timeouts, and backend degradation.

Wraps one of the :mod:`repro.core.executor` backends and re-implements
the ordered ``map`` on top of per-task ``submit``, so that every task
gets its own timeout, its own bounded retry budget, and its own
failure classification:

* a task that **raises** is retried with the same arguments (and, via
  the inherited :meth:`~repro.core.executor.Executor.map_seeded`, the
  same child seed — shard ``i``'s seed depends only on ``i``), so a
  retry that succeeds produces bytes identical to a run that never
  failed;
* a task that **times out** or surfaces a **broken pool** is a *pool
  incident*: the current pool is abandoned without joining (a hung
  worker would block a normal shutdown), rebuilt once at the same
  backend, and on the next incident the executor degrades down the
  chain ``process → thread → serial``;
* a task that exhausts its budget raises a single named
  :class:`~repro.resilience.errors.TaskFailedError` — the whole map
  fails closed, never partially.

Every recovery step is recorded as a named
:class:`~repro.utils.events.OperatorEvent` in
:attr:`ResilientExecutor.events`, keyed by the global task ordinal of
the task whose failure caused it.  Events describe what the run
*survived*; they never leak into report bytes.

Tasks are addressed by a **global ordinal** (count of tasks dispatched
over the executor's lifetime) that is independent of backend, worker
count, retry schedule, and pool incidents — the coordinate
:class:`repro.chaos.ChaosPolicy` keys its deterministic fault draws
on.  Ordinals are assigned in dispatch order, so they are themselves
deterministic whenever the executor is driven from a single thread
(the engine and CLI drive it that way; see ``docs/resilience.md``).
"""

from __future__ import annotations

import threading
from concurrent.futures import BrokenExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError

from repro.core.executor import Executor, _ImmediateFuture, get_executor
from repro.resilience.errors import TaskFailedError, TaskTimeoutError
from repro.utils.events import OperatorEvent

__all__ = ["EVENT_KINDS", "ResilientExecutor"]

#: Every event kind :class:`ResilientExecutor` can record.
EVENT_KINDS = (
    "task-retry",
    "task-timeout",
    "pool-broken",
    "pool-rebuild",
    "degrade",
    "task-failed",
)

#: Degradation chain per starting backend.
_CHAIN = ("process", "thread", "serial")


def _attempt(attempt: int, cause: BaseException) -> str:
    """An event detail: the 1-based attempt that failed, and why."""
    return f"attempt {attempt}: {cause}" if str(cause) else f"attempt {attempt}"


class _PoolIncident(Exception):
    """Internal: a failure that indicts the pool, not just the task."""

    def __init__(self, kind: str, cause: BaseException):
        super().__init__(kind)
        self.kind = kind  # "task-timeout" | "pool-broken"
        self.cause = cause


def _run_guarded(fn, args, chaos, ordinal, attempt):
    """Worker-side task wrapper: fire chaos (if armed), then the task.

    Module-level so the process backend can pickle it; the chaos
    policy rides along as an argument for the same reason.
    """
    if chaos is not None:
        chaos.before_task(ordinal, attempt)
    return fn(*args)


class ResilientExecutor(Executor):
    """An :class:`~repro.core.executor.Executor` that survives faults.

    Parameters
    ----------
    backend, workers:
        The starting backend, resolved through
        :func:`~repro.core.executor.get_executor` (``"auto"`` allowed).
        Degradation only ever moves *down* the chain
        ``process → thread → serial``.
    task_timeout:
        Per-task budget in seconds (finite, > 0), or ``None`` (no
        timeout).  On pooled backends the collecting wait is
        interrupted and the pool (whose worker is still occupied) is
        treated as a pool incident; on the serial backend the task
        cannot be interrupted, so the overrun is detected post hoc, the
        result is discarded, and the task is retried — keeping timeout
        semantics (a timed-out attempt never contributes bytes)
        identical across backends.
    retries:
        How many times one task may fail before the map fails closed
        with :class:`~repro.resilience.errors.TaskFailedError`
        (``retries=2`` → up to 3 attempts).
    chaos:
        Optional :class:`repro.chaos.ChaosPolicy`, consulted before
        every task attempt — the injection point the chaos harness
        uses.  ``None`` in production.
    """

    def __init__(
        self,
        backend: str = "auto",
        workers: int | None = None,
        *,
        task_timeout: float | None = None,
        retries: int = 2,
        chaos=None,
    ):
        # the pooled backends' timed wait overflows above TIMEOUT_MAX;
        # the chained comparison also rejects nan
        if task_timeout is not None and not (
            0 < task_timeout <= threading.TIMEOUT_MAX
        ):
            raise ValueError(
                f"task_timeout must be > 0 and <= threading.TIMEOUT_MAX "
                f"({threading.TIMEOUT_MAX:.0f} s) or None, got {task_timeout}"
            )
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        self._inner = get_executor(backend, workers)
        super().__init__(workers=self._inner.workers)
        self._requested_workers = workers
        self.task_timeout = task_timeout
        self.retries = int(retries)
        self.chaos = chaos
        self.events: list[OperatorEvent] = []
        self._dispatched = 0
        self._rebuilds_at_level = 0

    @property
    def backend(self) -> str:  # type: ignore[override]
        """The *current* inner backend (changes when degrading)."""
        return self._inner.backend

    # -- event plumbing -------------------------------------------------

    def _record(self, kind, at, check=None, detail="") -> None:
        self.events.append(OperatorEvent(kind, at, check, detail))

    # -- dispatch / collect ---------------------------------------------

    def _collect(self, fut):
        """Resolve one future, classifying failures.

        Raises :class:`_PoolIncident` for failures that indict the
        pool; lets plain task exceptions propagate for the retry path.
        """
        if isinstance(fut, _ImmediateFuture):
            result = fut.result()
            if (
                self.task_timeout is not None
                and fut.duration > self.task_timeout
            ):
                raise _PoolIncident(
                    "task-timeout",
                    FuturesTimeoutError(
                        f"inline task exceeded {self.task_timeout}s"
                    ),
                )
            return result
        try:
            return fut.result(timeout=self.task_timeout)
        except FuturesTimeoutError as exc:
            raise _PoolIncident("task-timeout", exc) from exc
        except BrokenExecutor as exc:
            raise _PoolIncident("pool-broken", exc) from exc

    def _recover(self, at: int) -> None:
        """Rebuild the pool once per level, then degrade down the chain;
        ``at`` is the ordinal of the task whose incident triggered it."""
        level = self._inner.backend
        if level == "serial":
            return  # nothing pooled to rebuild, nowhere further to fall
        self._inner.abandon()
        if self._rebuilds_at_level < 1:
            self._rebuilds_at_level += 1
            self._inner = get_executor(level, self._requested_workers)
            self._record("pool-rebuild", at, detail=level)
        else:
            fallback = _CHAIN[_CHAIN.index(level) + 1]
            self._inner = get_executor(fallback, self._requested_workers)
            self._rebuilds_at_level = 0
            self._record("degrade", at, detail=f"{level}->{fallback}")

    def _give_up(self, ordinal, attempts, kind, cause):
        self._record(
            "task-failed", ordinal, check=kind, detail=_attempt(attempts, cause)
        )
        if kind == "task-timeout":
            raise TaskTimeoutError(ordinal, attempts, self.task_timeout) from cause
        raise TaskFailedError(
            ordinal,
            attempts,
            kind="pool-broken" if kind == "pool-broken" else "error",
        ) from cause

    # -- the map --------------------------------------------------------

    def map(self, fn, *iterables) -> list:
        tasks = list(zip(*iterables))
        if not tasks:
            return []
        base = self._dispatched
        self._dispatched += len(tasks)
        results: dict[int, object] = {}
        attempts = [0] * len(tasks)
        pending = list(range(len(tasks)))
        while pending:
            dispatched = [
                (
                    i,
                    self._inner.submit(
                        _run_guarded,
                        fn,
                        tasks[i],
                        self.chaos,
                        base + i,
                        attempts[i],
                    ),
                )
                for i in pending
            ]
            pending = []
            incident_at = None  # ordinal of the task that hit an incident
            for i, fut in dispatched:
                if incident_at is not None:
                    # a pool incident abandoned this round; requeue
                    # without charging the task an attempt
                    fut.cancel()
                    pending.append(i)
                    continue
                try:
                    results[i] = self._collect(fut)
                except _PoolIncident as inc:
                    attempts[i] += 1
                    self._record(
                        inc.kind, base + i,
                        detail=_attempt(attempts[i], inc.cause),
                    )
                    if attempts[i] > self.retries:
                        self._give_up(base + i, attempts[i], inc.kind, inc.cause)
                    pending.append(i)
                    incident_at = base + i
                except Exception as exc:
                    attempts[i] += 1
                    if attempts[i] > self.retries:
                        self._give_up(
                            base + i, attempts[i], type(exc).__name__, exc
                        )
                    self._record(
                        "task-retry", base + i,
                        check=type(exc).__name__,
                        detail=_attempt(attempts[i], exc),
                    )
                    pending.append(i)
            if incident_at is not None:
                self._recover(incident_at)
            pending.sort()
        return [results[i] for i in range(len(tasks))]

    def imap(self, fn, *iterables):
        # resilience needs the whole batch resolved before anything is
        # handed out (fail closed, never partially), so imap is map
        return iter(self.map(fn, *iterables))

    def close(self) -> None:
        self._inner.close()

    def abandon(self) -> None:
        self._inner.abandon()

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return (
            f"ResilientExecutor(backend={self.backend!r}, "
            f"workers={self.workers}, timeout={self.task_timeout}, "
            f"retries={self.retries})"
        )
