"""Execution backends for sharded experiments and chunked explanation.

The scenario matrix and the batched explanation engine both reduce to
the same shape of work: a list of independent, deterministic tasks
whose results are reassembled in task order.  This module gives that
shape one abstraction — an :class:`Executor` with an ordered
:meth:`~Executor.map` — and three interchangeable backends:

* :class:`SerialExecutor` — runs tasks inline, in order.  The
  reference semantics every other backend must reproduce exactly.
* :class:`ThreadExecutor` — a thread pool.  Python threads share one
  interpreter, but the heavy lifting here is numpy, which releases the
  GIL inside BLAS/ufunc kernels, so threads pay no pickling cost and
  win whenever the workload is model-evaluation-bound.  Shared state
  (the coalition-design memo) is a thread-safe ``lru_cache``.
* :class:`ProcessExecutor` — a process pool for interpreter-bound
  work (tree traversals, per-row solves, pure-Python combinatorics).
  Tasks and results cross the boundary by pickling, so task payloads
  must be picklable; worker processes rebuild per-process caches
  instead of inheriting live ones.

Determinism is a contract, not an accident: tasks must be pure
functions of their arguments, and any randomness a shard needs comes
from :func:`repro.utils.rng.spawn_seeds` — integer child seeds derived
from the experiment seed and the shard *index*, never from shared
generator state or completion order.  Under that contract
``executor.map`` returns bit-identical results on every backend, which
``tests/core/test_executor.py`` enforces.

Pick a backend by name through :func:`get_executor` (``"auto"``
resolves to serial for one worker or one usable CPU and to processes
otherwise), and bound parallelism with :func:`available_workers`.
"""

from __future__ import annotations

import multiprocessing
import os
import sys
import threading
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor

from repro.utils.clock import timed
from repro.utils.rng import spawn_seeds

__all__ = [
    "BACKENDS",
    "Executor",
    "SerialExecutor",
    "ThreadExecutor",
    "ProcessExecutor",
    "available_workers",
    "get_executor",
]

#: Backend names accepted by :func:`get_executor` (besides ``"auto"``).
BACKENDS = ("serial", "thread", "process")


def available_workers() -> int:
    """CPUs actually usable by this process (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux fallback
        return os.cpu_count() or 1


class Executor:
    """Ordered-map execution over a fixed worker budget.

    Subclasses implement :meth:`map`; everything else (seeded mapping,
    context management, idempotent shutdown) is shared.  Executors are
    reusable across calls and must be closed (or used as context
    managers) so pool backends release their workers.
    """

    backend: str = "base"

    def __init__(self, workers: int = 1):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = int(workers)

    def map(self, fn, *iterables) -> list:
        """Apply ``fn`` over ``zip(*iterables)``; results in task order.

        The first raised exception propagates to the caller, matching
        the builtin ``map`` contract on every backend.
        """
        return list(self.imap(fn, *iterables))

    def imap(self, fn, *iterables):
        """Like :meth:`map` but yields results as an ordered iterator,
        so callers can stream progress while later tasks still run."""
        raise NotImplementedError

    def map_seeded(self, fn, items, random_state) -> list:
        """``fn(item, child_seed)`` per item, with deterministic seeds.

        Child seeds come from :func:`repro.utils.rng.spawn_seeds`, so
        shard ``i`` sees the same integer seed on every backend and
        every worker count — the building block for reproducible
        parallel experiments.
        """
        items = list(items)
        return self.map(fn, items, spawn_seeds(random_state, len(items)))

    def submit(self, fn, *args):
        """Dispatch one task; return a future with ``.result(timeout)``.

        The single-task sibling of :meth:`map`, used by
        :class:`repro.resilience.ResilientExecutor` to own dispatch,
        timeout, and retry per task instead of per batch.  Pooled
        backends return the pool's native future; the serial backend
        runs inline and returns an already-resolved
        :class:`_ImmediateFuture`.
        """
        raise NotImplementedError

    def close(self) -> None:
        """Release pooled workers (idempotent; serial is a no-op)."""

    def abandon(self) -> None:
        """Release without waiting for in-flight tasks.

        The hung-worker escape hatch: :meth:`close` on a pooled backend
        joins its workers, which never returns if one of them is stuck.
        Default is :meth:`close`; pooled backends override with a
        no-wait shutdown that cancels queued tasks and leaves running
        ones to finish unobserved.
        """
        self.close()

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return f"{type(self).__name__}(workers={self.workers})"


class _ImmediateFuture:
    """Already-resolved future for :meth:`SerialExecutor.submit`.

    Runs the task inline at construction, capturing the exception, or
    the result and the task's wall-clock ``duration`` so a resilience
    wrapper can detect post hoc that an inline task blew its timeout
    budget (the serial backend has no second thread to interrupt from).
    """

    def __init__(self, fn, args):
        self._result = self._exception = None
        self.duration = 0.0
        try:
            self._result, self.duration = timed(fn, *args)
        except BaseException as exc:
            self._exception = exc

    def result(self, timeout=None):
        """The captured result; re-raises the captured exception."""
        if self._exception is not None:
            raise self._exception
        return self._result

    def cancel(self) -> bool:
        """Already ran — never cancellable."""
        return False

    def done(self) -> bool:
        return True


class SerialExecutor(Executor):
    """Inline execution — the reference backend.

    Accepts (and ignores) a ``workers`` argument so call sites can
    treat every backend uniformly.
    """

    backend = "serial"

    def __init__(self, workers: int = 1):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        super().__init__(workers=1)

    def imap(self, fn, *iterables):
        return (fn(*args) for args in zip(*iterables))

    def submit(self, fn, *args) -> _ImmediateFuture:
        return _ImmediateFuture(fn, args)


class _PoolExecutor(Executor):
    """The lazily created pool the thread and process backends share.

    Subclasses build their pool in :meth:`_new_pool` and define
    :meth:`imap` on themselves.
    """

    def __init__(self, workers: int = 2):
        super().__init__(workers)
        self._pool = None
        # pool creation is lazy and executors may be shared across
        # client threads (the serve layer drives one executor from many
        # sessions), so the create-once step must not race
        self._pool_lock = threading.Lock()

    def _new_pool(self):
        raise NotImplementedError

    def _ensure_pool(self):
        with self._pool_lock:
            if self._pool is None:
                self._pool = self._new_pool()
            return self._pool

    def submit(self, fn, *args):
        return self._ensure_pool().submit(fn, *args)

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def abandon(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None


class ThreadExecutor(_PoolExecutor):
    """Thread-pool execution for GIL-releasing (numpy-bound) tasks."""

    backend = "thread"

    def _new_pool(self) -> ThreadPoolExecutor:
        return ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="repro-exec"
        )

    def imap(self, fn, *iterables):
        return self._ensure_pool().map(fn, *iterables)


class ProcessExecutor(_PoolExecutor):
    """Process-pool execution for interpreter-bound tasks.

    Tasks, their arguments, and their results are pickled, so the
    mapped function must be a module-level callable (or a bound method
    of a picklable object) — closures and lambdas will raise.  Workers
    are forked where the platform allows it (inheriting ``sys.path``
    and module state), falling back to spawn elsewhere.
    """

    backend = "process"

    def _new_pool(self) -> ProcessPoolExecutor:
        # fork on Linux: workers inherit sys.path and loaded modules for
        # free.  Elsewhere (macOS forks crash under threaded BLAS;
        # Windows has no fork) use the platform default — spawned
        # workers re-import repro, inheriting PYTHONPATH.
        use_fork = (
            sys.platform.startswith("linux")
            and "fork" in multiprocessing.get_all_start_methods()
        )
        context = multiprocessing.get_context("fork" if use_fork else None)
        return ProcessPoolExecutor(
            max_workers=self.workers, mp_context=context
        )

    def imap(self, fn, *iterables):
        # chunksize=1: tasks here are few and heavy (matrix shards,
        # explanation chunks), so latency balance beats batching
        return self._ensure_pool().map(fn, *iterables, chunksize=1)


def get_executor(backend: str = "auto", workers: int | None = None) -> Executor:
    """Build an executor by backend name.

    Parameters
    ----------
    backend:
        ``"serial"``, ``"thread"``, ``"process"``, or ``"auto"``.
        ``"auto"`` resolves to serial when ``workers`` is ``None``/1
        (no parallelism requested) *or* when CPU affinity leaves this
        process a single usable core — a process pool on one CPU pays
        fork+pickle overhead for zero speedup, and results are
        backend-identical anyway (the determinism suites prove it), so
        the resolution is timing-only.  Otherwise ``auto`` picks
        processes: the safe default because they speed up both
        interpreter-bound and numpy-bound work.
    workers:
        Worker budget.  ``None`` means 1 for ``auto``/``serial`` and
        :func:`available_workers` for the pooled backends.
    """
    if backend == "auto":
        if workers is None or workers <= 1 or available_workers() <= 1:
            backend = "serial"
        else:
            backend = "process"
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown backend {backend!r}; choose from "
            f"{', '.join(BACKENDS)} or 'auto'"
        )
    if backend == "serial":
        return SerialExecutor()
    if workers is None:
        workers = available_workers()
    if backend == "thread":
        return ThreadExecutor(workers)
    return ProcessExecutor(workers)
