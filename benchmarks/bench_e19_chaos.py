"""E19 — chaos recovery and the price of resilience.

Two claims about the fault-tolerant execution layer (PR 10):

* **recovery equality** (unconditional): a streaming diagnosis run
  under a full fault storm — every task attempt hit by a transient
  error, every telemetry batch shadowed by a corrupted duplicate —
  produces a report **byte-identical** to the fault-free run.  The
  storm is real (the executor's event log proves retries happened; the
  stream log proves batches were skipped), yet no injected fault leaks
  a single byte into the diagnosis.
* **overhead** (timing-gated, <= 5%): wrapping the executor in
  :class:`~repro.resilience.ResilientExecutor` with no faults firing
  costs at most 5% wall clock over the plain backend — per-task
  dispatch, timeout accounting, and event plumbing are noise next to
  the explanation work they guard.

``PANEL`` rows are what ``tools/bench_trajectory.py`` records.
Correctness is never gated on ``--benchmark-disable`` (the CI smoke
mode); only the overhead ratio assertion is.
"""

import operator

from benchmarks._util import ab_compare, timing_enabled
from benchmarks.conftest import SEED, save_result
from repro.chaos import ChaosFault, ChaosPolicy
from repro.core.cache import clear_cache
from repro.core.stream import StreamingDiagnosisEngine
from repro.datasets import stream_scenario_telemetry
from repro.resilience import ResilientExecutor

EPOCHS = 192
CONFIG = dict(
    window_epochs=48,
    refit_every=2,
    # stay above 16 (the vectorized explainer's chunk size) so windows
    # fan multiple tasks through the executor under test
    explain_per_window=24,
    explainer_kwargs={"n_samples": 32},
    random_state=SEED,
)

#: best-of-N timings per row: the wrapper tax is microseconds per task,
#: so single-shot noise would dominate the ratio
REPEATS = 3


def _stream():
    return stream_scenario_telemetry(
        "fault-storm", EPOCHS, batch_epochs=48, random_state=SEED
    )


def _run_plain():
    clear_cache()
    report = StreamingDiagnosisEngine(**CONFIG).run(_stream())
    return report.format_table(timing=False)


def _run_resilient():
    clear_cache()
    engine = StreamingDiagnosisEngine(**CONFIG)
    with ResilientExecutor("serial", retries=2) as executor:
        report = engine.run(_stream(), executor=executor)
    return report.format_table(timing=False)


def _vs_plain(name, run) -> dict:
    """A/B of ``run`` against the plain fault-free run, whose report
    must be byte-identical."""
    return ab_compare(
        name, run, _run_plain, repeats=REPEATS, equal=operator.eq,
        epochs=EPOCHS,
    )


def resilient_executor_overhead() -> dict:
    """BENCH row: a fault-free run through ``ResilientExecutor`` vs the
    plain serial executor."""
    return _vs_plain("resilient_executor_overhead", _run_resilient)


def chaos_storm_recovery() -> dict:
    """BENCH row: the run under a full storm — a transient fault on
    every task attempt, a corrupted duplicate shadowing every batch
    (skipped under ``on_malformed="skip"``) — vs the fault-free run.
    The storm must fire and its report must be byte-identical to the
    fault-free one."""
    events = {}

    def storm():
        clear_cache()
        policy = ChaosPolicy(
            0,
            [
                ChaosFault("transient", 1.0, attempts=1),
                ChaosFault("corrupt-batch", 1.0),
            ],
        )
        engine = StreamingDiagnosisEngine(on_malformed="skip", **CONFIG)
        with ResilientExecutor(
            "serial", retries=3, chaos=policy
        ) as executor:
            report = engine.run(
                policy.corrupt_stream(_stream()), executor=executor
            )
        events["task_retries"] = sum(
            1 for e in executor.events if e.kind == "task-retry"
        )
        events["skipped_batches"] = sum(
            1 for e in report.events if e.kind == "skipped-batch"
        )
        return report.format_table(timing=False)

    # not one byte of the storm reaches the report ...
    row = _vs_plain("chaos_storm_recovery", storm)
    # ... yet it actually happened
    assert events["task_retries"] > 0, "no transient fault ever fired"
    assert events["skipped_batches"] == EPOCHS // 48, (
        "not every batch was shadowed"
    )
    row.update(events)
    return row


PANEL = (resilient_executor_overhead, chaos_storm_recovery)


def test_chaos_storm_recovers_byte_identical(benchmark):
    row = benchmark.pedantic(chaos_storm_recovery, rounds=1, iterations=1)
    lines = [
        f"storm: transient=1.0 per task attempt, corrupt-batch=1.0 "
        f"per batch, over {EPOCHS} epochs "
        f"(window {CONFIG['window_epochs']})",
        f"injected + survived: {row['task_retries']} task retries, "
        f"{row['skipped_batches']} corrupted batches skipped",
        "recovery: report byte-identical to the fault-free run",
    ]
    if timing_enabled(benchmark):
        lines.append(
            f"wall clock: {row['legacy_seconds']:.2f}s fault-free, "
            f"{row['packed_seconds']:.2f}s under the storm "
            f"({1 / row['speedup']:.2f}x)"
        )
    save_result("E19 chaos-storm recovery", "\n".join(lines))


def test_resilience_overhead_under_5_percent(benchmark):
    # equality first, unconditionally: the wrapper must be transparent
    row = benchmark.pedantic(
        resilient_executor_overhead, rounds=1, iterations=1
    )
    lines = [
        f"workload: {EPOCHS} epochs, "
        f"{CONFIG['explain_per_window']} explains/window, serial backend",
        "equality: ResilientExecutor report byte-identical to the "
        "plain executor's",
    ]
    if timing_enabled(benchmark):
        ratio = row["packed_seconds"] / row["legacy_seconds"]
        lines.append(
            f"overhead: {row['legacy_seconds']:.2f}s plain vs "
            f"{row['packed_seconds']:.2f}s resilient ({ratio:.3f}x)"
        )
        assert ratio <= 1.05, (
            f"resilience wrapper costs {ratio:.3f}x (> 1.05x budget)"
        )
    save_result("E19b resilience overhead", "\n".join(lines))
