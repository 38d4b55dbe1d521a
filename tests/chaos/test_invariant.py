"""The chaos invariant, golden-pinned across every backend.

Under every injected fault class, the streaming diagnosis report must
come out **byte-identical to the fault-free run** (recoverable faults)
or the run must fail closed with **one named error** (unrecoverable
faults).  Partial or silently-wrong reports are the only forbidden
outcome — and the one this suite exists to catch.

The fault-free reference table is pinned in
``tests/chaos/data/chaos_golden.txt`` so a regression in *either* the
engine bytes or the recovery path shows up as a golden diff.
"""

import os

import pytest

from repro.chaos import ChaosFault, ChaosPolicy
from repro.core.stream import MalformedBatchError, StreamingDiagnosisEngine
from repro.datasets import stream_scenario_telemetry
from repro.resilience import ResilientExecutor, TaskFailedError
from repro.utils.events import format_events

GOLDEN_PATH = os.path.join(
    os.path.dirname(__file__), "data", "chaos_golden.txt"
)

#: Engine configuration for every run in this file.  The explain cap
#: must stay above 16 (the vectorized explainer's chunk size) so each
#: stormy window fans more than one task through the fault-injected
#: executor.
CONFIG = dict(
    window_epochs=48,
    refit_every=2,
    explain_per_window=24,
    explainer_kwargs={"n_samples": 32},
    random_state=7,
)
EPOCHS = 96


def _stream(batch_epochs=48):
    return stream_scenario_telemetry(
        "fault-storm", EPOCHS, batch_epochs=batch_epochs, random_state=7
    )


def _clean_table():
    report = StreamingDiagnosisEngine(**CONFIG).run(_stream())
    return report.format_table(timing=False) + "\n"


@pytest.fixture(scope="module")
def golden():
    table = _clean_table()
    if os.environ.get("REGEN_CHAOS_GOLDEN"):
        with open(GOLDEN_PATH, "w") as fh:
            fh.write(table)
        pytest.skip(f"regenerated {GOLDEN_PATH}")
    with open(GOLDEN_PATH) as fh:
        assert table == fh.read(), (
            "fault-free engine bytes moved; if that was intentional, "
            "regenerate with REGEN_CHAOS_GOLDEN=1"
        )
    return table


def _chaotic_run(policy, backend, *, on_malformed="raise",
                 corrupt_mode="duplicate", retries=3, task_timeout=None,
                 workers=2):
    """One engine pass under ``policy``; (table, executor, report)."""
    engine = StreamingDiagnosisEngine(on_malformed=on_malformed, **CONFIG)
    with ResilientExecutor(
        backend, workers,
        task_timeout=task_timeout, retries=retries, chaos=policy,
    ) as executor:
        report = engine.run(
            policy.corrupt_stream(_stream(), mode=corrupt_mode),
            executor=executor,
        )
    return report.format_table(timing=False) + "\n", executor, report


class TestRecoverableFaults:
    """Every recoverable fault class ends byte-identical to the golden."""

    @pytest.mark.parametrize("backend", ["serial", "thread", "process"])
    def test_transient_faults_recover(self, golden, backend):
        policy = ChaosPolicy(0, [ChaosFault("transient", 1.0, attempts=1)])
        table, executor, report = _chaotic_run(policy, backend)
        assert table == golden
        assert any(e.kind == "task-retry" for e in executor.events)
        assert report.events == []

    def test_worker_crashes_recover(self, golden):
        policy = ChaosPolicy(1, [ChaosFault("crash", 0.5, attempts=1)])
        table, executor, _ = _chaotic_run(policy, "serial")
        assert table == golden

    def test_corrupted_batches_skipped_and_recorded(self, golden):
        policy = ChaosPolicy(2, [ChaosFault("corrupt-batch", 1.0)])
        table, _, report = _chaotic_run(
            policy, "serial", on_malformed="skip"
        )
        assert table == golden
        assert len(report.events) == EPOCHS // 48
        for event in report.events:
            assert event.kind == "skipped-batch"
            assert event.check == "labels-not-binary"
        assert "skipped-batch[labels-not-binary]" in format_events(
            report.events, "stream"
        )

    def test_hangs_time_out_and_recover(self, golden):
        policy = ChaosPolicy(
            3,
            [ChaosFault("hang", 1.0, attempts=1)],
            hang_seconds=0.2,
        )
        for backend in ("serial", "thread"):
            table, executor, _ = _chaotic_run(
                policy, backend, task_timeout=0.05
            )
            assert table == golden
            assert any(
                e.kind == "task-timeout" for e in executor.events
            )

    def test_pool_break_rebuilds_and_recovers(self, golden):
        policy = ChaosPolicy(4, [ChaosFault("pool-break", 1.0, attempts=1)])
        table, executor, _ = _chaotic_run(policy, "thread", retries=4)
        assert table == golden
        kinds = {e.kind for e in executor.events}
        assert "pool-broken" in kinds
        assert kinds & {"pool-rebuild", "degrade"}

    @pytest.mark.parametrize("backend", ["serial", "thread"])
    def test_everything_at_once(self, golden, backend):
        policy = ChaosPolicy(
            5,
            [
                ChaosFault("transient", 0.4, attempts=1),
                ChaosFault("crash", 0.2, attempts=1),
                ChaosFault("corrupt-batch", 1.0),
            ],
        )
        table, _, report = _chaotic_run(
            policy, backend, on_malformed="skip"
        )
        assert table == golden
        assert all(e.kind == "skipped-batch" for e in report.events)


class TestUnrecoverableFaults:
    """Unrecoverable faults surface one named error — never partial."""

    def test_permanent_crash_fails_closed(self):
        policy = ChaosPolicy(0, [ChaosFault("crash", 1.0, attempts=99)])
        engine = StreamingDiagnosisEngine(**CONFIG)
        with ResilientExecutor(
            "serial", retries=1, chaos=policy
        ) as executor:
            with pytest.raises(TaskFailedError) as excinfo:
                engine.run(_stream(), executor=executor)
        assert excinfo.value.attempts == 2
        assert executor.events[-1].kind == "task-failed"

    def test_replaced_batch_fails_fast_with_named_check(self):
        policy = ChaosPolicy(2, [ChaosFault("corrupt-batch", 1.0)])
        engine = StreamingDiagnosisEngine(**CONFIG)
        stream = policy.corrupt_stream(_stream(), mode="replace")
        with pytest.raises(MalformedBatchError) as excinfo:
            engine.run(stream)
        assert excinfo.value.check == "labels-not-binary"
