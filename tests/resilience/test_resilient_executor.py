"""Tests for the fault-tolerant executor (repro.resilience)."""

import pickle
import threading
import time

import pytest

from repro.chaos import ChaosFault, ChaosPolicy
from repro.core.executor import SerialExecutor
from repro.resilience import (
    EVENT_KINDS,
    ResilienceError,
    ResilientExecutor,
    TaskFailedError,
    TaskTimeoutError,
)
from repro.utils.events import format_events


def _square(x):
    return x * x


def _add(a, b):
    return a + b


def _fail_always(x):
    raise RuntimeError(f"boom {x}")


def _seeded(x, seed):
    return (x, seed)


def _policy(kind, rate=1.0, attempts=1, seed=0, **kwargs):
    return ChaosPolicy(
        seed, [ChaosFault(kind, rate, attempts=attempts)], **kwargs
    )


class TestCleanPath:
    """Without faults the wrapper is a transparent Executor."""

    @pytest.mark.parametrize("backend", ["serial", "thread"])
    def test_map_matches_serial(self, backend):
        with ResilientExecutor(backend, 2) as executor:
            assert executor.map(_square, range(8)) == [
                x * x for x in range(8)
            ]
            assert executor.events == []
            assert format_events(executor.events, "resilience") == (
                "no resilience events"
            )

    def test_multi_iterable_map(self):
        with ResilientExecutor("serial") as executor:
            assert executor.map(_add, [1, 2], [10, 20]) == [11, 22]

    def test_empty_map(self):
        with ResilientExecutor("serial") as executor:
            assert executor.map(_square) == []
            assert executor.map(_square, []) == []

    def test_imap_matches_map(self):
        with ResilientExecutor("serial") as executor:
            assert list(executor.imap(_square, range(5))) == [
                x * x for x in range(5)
            ]

    def test_map_seeded_matches_plain_executor(self):
        with SerialExecutor() as plain:
            expected = plain.map_seeded(_seeded, range(6), 7)
        with ResilientExecutor("thread", 2) as executor:
            assert executor.map_seeded(_seeded, range(6), 7) == expected

    def test_backend_property_reports_inner(self):
        with ResilientExecutor("thread", 2) as executor:
            assert executor.backend == "thread"

    def test_validation(self):
        with pytest.raises(ValueError, match="task_timeout"):
            ResilientExecutor("serial", task_timeout=0)
        with pytest.raises(ValueError, match="retries"):
            ResilientExecutor("serial", retries=-1)

    @pytest.mark.parametrize(
        "timeout", [-1.0, float("nan"), float("inf"), 1e20]
    )
    @pytest.mark.parametrize("backend", ["serial", "thread"])
    def test_timeout_must_be_finite_and_positive(self, backend, timeout):
        """``inf`` and ``1e20`` overflowed the thread backend's timed
        wait into a task error, and ``nan`` passed a ``<= 0`` check."""
        with pytest.raises(ValueError, match="task_timeout must be > 0"):
            ResilientExecutor(backend, 2, task_timeout=timeout)

    def test_timeout_max_is_a_working_budget(self):
        """The largest accepted budget still runs on the thread backend."""
        with ResilientExecutor(
            "thread", 2, task_timeout=threading.TIMEOUT_MAX, retries=0
        ) as executor:
            assert executor.map(time.sleep, [0.0, 0.0]) == [None, None]


class TestRetries:
    def test_transient_fault_is_retried_to_the_clean_answer(self):
        chaos = _policy("transient", attempts=1)
        with ResilientExecutor("serial", retries=2, chaos=chaos) as executor:
            assert executor.map(_square, range(4)) == [
                x * x for x in range(4)
            ]
            kinds = {event.kind for event in executor.events}
            assert kinds == {"task-retry"}

    def test_retry_events_name_task_and_attempt(self):
        chaos = _policy("transient", attempts=1)
        with ResilientExecutor("serial", retries=2, chaos=chaos) as executor:
            executor.map(_square, [5])
            (event,) = executor.events
            assert event.kind in EVENT_KINDS
            assert event.at == 0
            assert event.detail.startswith("attempt 1: ")
            assert event.check == "InjectedTransientError"
            assert str(event).startswith(
                "task-retry[InjectedTransientError] @0: attempt 1: "
            )

    def test_event_and_chaos_message_name_the_same_attempt(self):
        # both count from 1: "attempt k: ... at task 0 attempt k"
        chaos = _policy("transient", attempts=2)
        with ResilientExecutor("serial", retries=2, chaos=chaos) as executor:
            executor.map(_square, [5])
        assert [str(e) for e in executor.events] == [
            f"task-retry[InjectedTransientError] @0: attempt {k}: "
            f"injected transient fault at task 0 attempt {k}"
            for k in (1, 2)
        ]

    def test_ordinals_advance_across_maps(self):
        # Task coordinates are global over the executor's lifetime, so
        # chaos draws for a second map are independent of the first.
        chaos = _policy("transient", attempts=1)
        with ResilientExecutor("serial", retries=2, chaos=chaos) as executor:
            executor.map(_square, range(3))
            executor.map(_square, range(2))
            assert [e.at for e in executor.events] == [0, 1, 2, 3, 4]

    def test_budget_exhaustion_fails_closed(self):
        chaos = _policy("crash", attempts=99)
        with ResilientExecutor("serial", retries=1, chaos=chaos) as executor:
            with pytest.raises(TaskFailedError) as excinfo:
                executor.map(_square, range(4))
        error = excinfo.value
        assert isinstance(error, ResilienceError)
        assert error.task == 0
        assert error.attempts == 2
        assert "no retries left" in str(error)
        assert executor.events[-1].kind == "task-failed"

    def test_plain_task_error_is_retried_then_raised(self):
        with ResilientExecutor("serial", retries=2) as executor:
            with pytest.raises(TaskFailedError) as excinfo:
                executor.map(_fail_always, [3])
        assert excinfo.value.attempts == 3
        assert isinstance(excinfo.value.__cause__, RuntimeError)
        assert [(e.kind, e.check) for e in executor.events] == [
            ("task-retry", "RuntimeError"),
            ("task-retry", "RuntimeError"),
            ("task-failed", "RuntimeError"),
        ]
        assert format_events(executor.events, "resilience").splitlines() == [
            "resilience events (3):",
            "  task-retry[RuntimeError] @0: attempt 1: boom 3",
            "  task-retry[RuntimeError] @0: attempt 2: boom 3",
            "  task-failed[RuntimeError] @0: attempt 3: boom 3",
        ]

    def test_zero_retries_means_single_attempt(self):
        with ResilientExecutor("serial", retries=0) as executor:
            with pytest.raises(TaskFailedError):
                executor.map(_fail_always, [1])
            assert [e.kind for e in executor.events] == ["task-failed"]


class TestTimeouts:
    def test_serial_hang_detected_post_hoc_and_retried(self):
        chaos = _policy("hang", attempts=1, hang_seconds=0.05)
        with ResilientExecutor(
            "serial", task_timeout=0.01, retries=2, chaos=chaos
        ) as executor:
            assert executor.map(_square, range(2)) == [0, 1]
        kinds = [e.kind for e in executor.events]
        assert "task-timeout" in kinds

    def test_thread_hang_interrupts_the_wait(self):
        chaos = _policy("hang", attempts=1, hang_seconds=0.25)
        with ResilientExecutor(
            "thread", 2, task_timeout=0.05, retries=2, chaos=chaos
        ) as executor:
            assert executor.map(_square, range(2)) == [0, 1]
        assert any(e.kind == "task-timeout" for e in executor.events)

    def test_timeout_exhaustion_raises_named_error(self):
        chaos = _policy("hang", attempts=99, hang_seconds=0.05)
        with ResilientExecutor(
            "serial", task_timeout=0.01, retries=1, chaos=chaos
        ) as executor:
            with pytest.raises(TaskTimeoutError) as excinfo:
                executor.map(_square, range(2))
        assert excinfo.value.timeout == 0.01
        assert isinstance(excinfo.value, TaskFailedError)


class TestDegradation:
    def test_pool_break_rebuilds_then_degrades(self):
        chaos = _policy("pool-break", attempts=1)
        with ResilientExecutor(
            "thread", 2, retries=3, chaos=chaos
        ) as executor:
            assert executor.map(_square, range(4)) == [
                x * x for x in range(4)
            ]
            kinds = [e.kind for e in executor.events]
            assert "pool-broken" in kinds
            assert "pool-rebuild" in kinds
            # a pool-level step is keyed by the task whose incident
            # triggered it, logged just before it
            events = executor.events
            for before, event in zip(events, events[1:]):
                if event.kind in ("pool-rebuild", "degrade"):
                    assert event.at == before.at

    def test_degrade_lands_on_serial_and_still_answers(self):
        # Permanent pool poison on every attempt of task 0 only: the
        # executor must walk thread -> serial, where nothing pooled is
        # left to break, and the injected BrokenExecutor (raised inline)
        # is then a plain task error consumed by the retry budget.
        chaos = _policy("pool-break", rate=1.0, attempts=2)
        with ResilientExecutor(
            "thread", 2, retries=5, chaos=chaos
        ) as executor:
            assert executor.map(_square, range(3)) == [0, 1, 4]
            degrades = [e for e in executor.events if e.kind == "degrade"]
            assert [e.detail for e in degrades] == ["thread->serial"]
            assert [e.at for e in degrades] == [0]
            assert executor.backend == "serial"

    def test_serial_backend_never_degrades(self):
        chaos = _policy("pool-break", attempts=1)
        with ResilientExecutor("serial", retries=2, chaos=chaos) as executor:
            assert executor.map(_square, range(2)) == [0, 1]
            assert not any(
                e.kind in ("pool-rebuild", "degrade")
                for e in executor.events
            )


class TestDeterminism:
    def test_results_identical_with_and_without_faults(self):
        with SerialExecutor() as plain:
            clean = plain.map_seeded(_seeded, range(8), 11)
        chaos = _policy("transient", rate=0.5, attempts=1)
        for backend in ("serial", "thread"):
            with ResilientExecutor(
                backend, 2, retries=3, chaos=chaos
            ) as executor:
                assert executor.map_seeded(_seeded, range(8), 11) == clean

    def test_event_trace_is_deterministic(self):
        chaos = _policy("transient", rate=0.5, attempts=1)
        traces = []
        for _ in range(2):
            with ResilientExecutor(
                "serial", retries=3, chaos=chaos
            ) as executor:
                executor.map(_square, range(8))
                traces.append([str(e) for e in executor.events])
        assert traces[0] == traces[1]

    def test_process_backend_recovers_identically(self):
        chaos = _policy("transient", rate=0.5, attempts=1)
        with SerialExecutor() as plain:
            clean = plain.map_seeded(_seeded, range(4), 3)
        with ResilientExecutor(
            "process", 2, retries=3, chaos=chaos
        ) as executor:
            assert executor.map_seeded(_seeded, range(4), 3) == clean

    def test_executor_is_unpicklable_but_chaos_rides_along(self):
        # The policy crosses the process boundary inside the task guard;
        # it must pickle cleanly.
        chaos = _policy("transient", rate=0.5)
        assert pickle.loads(pickle.dumps(chaos)).draw(
            "task", 0
        ) == chaos.draw("task", 0)
