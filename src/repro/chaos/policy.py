"""``ChaosPolicy`` — composable, seeded fault injection.

Every injection decision is a pure function of ``(policy seed, site,
fault position, coordinate)`` through
:func:`repro.utils.rng.derive_seed`: whether fault ``k`` fires at task
ordinal ``i`` does not depend on the backend, the worker count, how
many retries other tasks needed, or which other faults are configured.
That determinism is what lets the chaos tests pin byte-identical
recovery goldens.

Two injection sites exist today:

* ``"task"`` — consulted by the worker-side guard of
  :class:`repro.resilience.ResilientExecutor` before every task
  attempt.  Kinds: ``"crash"`` (raises
  :class:`InjectedWorkerCrash`), ``"hang"`` (sleeps
  ``hang_seconds`` — pair with a ``task_timeout``), ``"transient"``
  (raises :class:`InjectedTransientError`), and ``"pool-break"``
  (raises :class:`InjectedPoolBreak`, a
  :class:`concurrent.futures.BrokenExecutor`, which the resilience
  layer treats as a pool incident: rebuild, then degrade).
* ``"stream"`` — consulted by :meth:`ChaosPolicy.corrupt_stream` per
  batch ordinal.  Kind: ``"corrupt-batch"`` (non-binary SLA labels,
  tripping the engine's ``labels-not-binary`` check).

A fault's ``attempts`` bounds how many consecutive attempts of one
task it poisons: ``attempts=1`` is a transient blip the first retry
clears; ``attempts`` larger than the executor's retry budget is a
permanent fault that must surface as a named error.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import BrokenExecutor
from dataclasses import dataclass, replace

import numpy as np

from repro.utils.rng import check_random_state, derive_seed

__all__ = [
    "FAULT_KINDS",
    "ChaosFault",
    "ChaosPolicy",
    "InjectedPoolBreak",
    "InjectedTransientError",
    "InjectedWorkerCrash",
]

#: Every fault kind :class:`ChaosFault` accepts.
FAULT_KINDS = ("crash", "hang", "transient", "pool-break", "corrupt-batch")

#: Site → coordinate code for :func:`repro.utils.rng.derive_seed`.
_SITES = {"task": 0, "stream": 1}


class InjectedWorkerCrash(RuntimeError):
    """A chaos-injected worker crash (the task dies mid-flight)."""


class InjectedTransientError(RuntimeError):
    """A chaos-injected transient failure (clears after a few retries)."""


class InjectedPoolBreak(BrokenExecutor):
    """A chaos-injected pool collapse (classified as a pool incident)."""


@dataclass(frozen=True)
class ChaosFault:
    """One fault class with an independent firing rate.

    Parameters
    ----------
    kind:
        One of :data:`FAULT_KINDS`.
    rate:
        Per-site-visit firing probability in ``[0, 1]``.
    attempts:
        For ``"task"``-site kinds: the fault poisons attempts
        ``0 .. attempts-1`` of an afflicted task, then clears.
        Ignored for ``"corrupt-batch"``.
    """

    kind: str
    rate: float
    attempts: int = 1

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; choose from "
                f"{', '.join(FAULT_KINDS)}"
            )
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"rate must be in [0, 1], got {self.rate}")
        if self.attempts < 1:
            raise ValueError(f"attempts must be >= 1, got {self.attempts}")


class ChaosPolicy:
    """A seeded, picklable bundle of :class:`ChaosFault` declarations.

    Picklability matters: the policy travels to process-pool workers
    inside the resilience layer's task guard, so it must cross the
    boundary like any other task payload.
    """

    def __init__(self, seed: int, faults=(), *, hang_seconds: float = 0.05):
        if not isinstance(seed, (int, np.integer)) or seed < 0:
            raise ValueError(f"seed must be a non-negative int, got {seed!r}")
        # time.sleep adds the monotonic clock to its argument, so half of
        # TIMEOUT_MAX keeps the deadline in range; this also rejects nan
        if not 0 < hang_seconds <= threading.TIMEOUT_MAX / 2:
            raise ValueError(
                f"hang_seconds must be > 0 and <= threading.TIMEOUT_MAX / 2 "
                f"({threading.TIMEOUT_MAX / 2:.0f} s), got {hang_seconds}"
            )
        self.seed = int(seed)
        self.faults = tuple(faults)
        for fault in self.faults:
            if not isinstance(fault, ChaosFault):
                raise TypeError(
                    f"faults must be ChaosFault instances, got "
                    f"{type(fault).__name__}"
                )
        self.hang_seconds = float(hang_seconds)

    def draw(self, site: str, index: int, attempt: int = 0) -> str | None:
        """Which fault kind (if any) fires at ``(site, index, attempt)``.

        Faults are consulted in declaration order; the first that fires
        wins.  The firing decision per fault depends only on ``(seed,
        site, fault position, index)`` — ``attempt`` only gates whether
        an afflicted task is still within the fault's poisoned window.
        """
        try:
            code = _SITES[site]
        except KeyError:
            raise ValueError(
                f"unknown chaos site {site!r}; choose from "
                f"{', '.join(sorted(_SITES))}"
            ) from None
        for k, fault in enumerate(self.faults):
            stream_fault = fault.kind == "corrupt-batch"
            if stream_fault != (site == "stream"):
                continue
            if site == "task" and attempt >= fault.attempts:
                continue
            rng = check_random_state(derive_seed(self.seed, code, k, index))
            if float(rng.random()) < fault.rate:
                return fault.kind
        return None

    def before_task(self, ordinal: int, attempt: int) -> None:
        """Executor-side injection hook (runs inside the worker).

        ``attempt`` counts the task's earlier failures (0 on the first
        try); messages name the 1-based attempt, as executor events do.
        """
        kind = self.draw("task", ordinal, attempt)
        if kind is None:
            return
        where = f"task {ordinal} attempt {attempt + 1}"
        if kind == "crash":
            raise InjectedWorkerCrash(f"injected worker crash at {where}")
        if kind == "transient":
            raise InjectedTransientError(f"injected transient fault at {where}")
        if kind == "pool-break":
            raise InjectedPoolBreak(f"injected pool collapse at {where}")
        if kind == "hang":
            time.sleep(self.hang_seconds)

    def corrupt_stream(self, stream, *, mode: str = "duplicate"):
        """Yield ``stream`` with corrupted batches injected.

        ``mode="duplicate"`` *prepends* a corrupted copy before each
        afflicted batch — no telemetry is lost, so an engine running
        the skip-and-record malformed policy produces a report
        byte-identical to the clean stream's.  ``mode="replace"``
        substitutes the corrupted copy for the real batch — telemetry
        *is* lost, the recoverable contract is unsatisfiable, and a
        fail-fast engine surfaces one named ``MalformedBatchError``.
        """
        if mode not in ("duplicate", "replace"):
            raise ValueError(
                f"mode must be 'duplicate' or 'replace', got {mode!r}"
            )
        for i, batch in enumerate(stream):
            kind = self.draw("stream", i)
            if kind == "corrupt-batch" and batch.n_epochs > 0:
                bad_labels = np.array(batch.sla_violation, copy=True)
                bad_labels[0] = 7  # trips the labels-not-binary check
                corrupted = replace(batch, sla_violation=bad_labels)
                yield corrupted
                if mode == "replace":
                    continue
            yield batch

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        kinds = ",".join(f.kind for f in self.faults) or "none"
        return f"ChaosPolicy(seed={self.seed}, faults=[{kinds}])"
