"""Tests for the seeded fault-injection policy (repro.chaos)."""

import pickle
import threading

import numpy as np
import pytest

from repro.chaos import (
    FAULT_KINDS,
    ChaosFault,
    ChaosPolicy,
    InjectedPoolBreak,
    InjectedTransientError,
    InjectedWorkerCrash,
)
from repro.core.stream import MalformedBatchError, StreamingDiagnosisEngine
from repro.datasets import stream_scenario_telemetry


def _policy(kind, rate=1.0, attempts=1, seed=0, **kwargs):
    return ChaosPolicy(
        seed, [ChaosFault(kind, rate, attempts=attempts)], **kwargs
    )


class TestValidation:
    def test_unknown_fault_kind(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            ChaosFault("meteor", 0.5)

    def test_rate_bounds(self):
        for rate in (-0.1, 1.1):
            with pytest.raises(ValueError, match="rate"):
                ChaosFault("crash", rate)

    def test_attempts_bounds(self):
        with pytest.raises(ValueError, match="attempts"):
            ChaosFault("crash", 0.5, attempts=0)

    def test_seed_must_be_nonnegative_int(self):
        for seed in (-1, 1.5, "x"):
            with pytest.raises(ValueError, match="seed"):
                ChaosPolicy(seed)

    def test_hang_seconds_positive(self):
        with pytest.raises(ValueError, match="hang_seconds"):
            ChaosPolicy(0, hang_seconds=0)

    @pytest.mark.parametrize("seconds", [
        -1.0, float("nan"), float("inf"), 1e20, threading.TIMEOUT_MAX,
    ])
    def test_hang_seconds_finite(self, seconds):
        """``time.sleep`` overflows on these (it adds the monotonic clock
        first, so even ``TIMEOUT_MAX`` fails)."""
        with pytest.raises(ValueError, match="hang_seconds must be > 0"):
            ChaosPolicy(0, hang_seconds=seconds)

    def test_hang_seconds_bound_is_accepted(self):
        bound = threading.TIMEOUT_MAX / 2
        assert ChaosPolicy(0, hang_seconds=bound).hang_seconds == bound

    def test_faults_must_be_chaosfault(self):
        with pytest.raises(TypeError, match="ChaosFault"):
            ChaosPolicy(0, [("crash", 0.5)])

    def test_unknown_site(self):
        with pytest.raises(ValueError, match="unknown chaos site"):
            _policy("crash").draw("disk", 0)

    def test_corrupt_mode_validation(self):
        policy = _policy("corrupt-batch")
        with pytest.raises(ValueError, match="mode"):
            list(policy.corrupt_stream(iter([]), mode="shuffle"))


class TestDraws:
    def test_draw_is_deterministic(self):
        policy = _policy("transient", rate=0.5)
        draws = [policy.draw("task", i) for i in range(64)]
        again = [policy.draw("task", i) for i in range(64)]
        assert draws == again
        assert "transient" in draws  # a 0.5 rate must fire somewhere
        assert None in draws  # ...and must miss somewhere

    def test_rate_zero_never_fires_rate_one_always(self):
        never = _policy("crash", rate=0.0)
        always = _policy("crash", rate=1.0)
        assert all(never.draw("task", i) is None for i in range(32))
        assert all(
            always.draw("task", i) == "crash" for i in range(32)
        )

    def test_attempt_gates_the_poison_window(self):
        policy = _policy("crash", rate=1.0, attempts=2)
        assert policy.draw("task", 0, attempt=0) == "crash"
        assert policy.draw("task", 0, attempt=1) == "crash"
        assert policy.draw("task", 0, attempt=2) is None

    def test_different_seeds_give_different_plans(self):
        a = [_policy("crash", 0.5, seed=0).draw("task", i) for i in range(64)]
        b = [_policy("crash", 0.5, seed=1).draw("task", i) for i in range(64)]
        assert a != b

    def test_sites_are_independent_coordinates(self):
        policy = ChaosPolicy(
            0,
            [ChaosFault("crash", 0.5), ChaosFault("corrupt-batch", 0.5)],
        )
        task = [policy.draw("task", i) for i in range(64)]
        stream = [policy.draw("stream", i) for i in range(64)]
        assert set(task) <= {None, "crash"}
        assert set(stream) <= {None, "corrupt-batch"}

    def test_task_faults_never_fire_at_stream_site(self):
        policy = ChaosPolicy(
            0, [ChaosFault(kind, 1.0) for kind in FAULT_KINDS]
        )
        assert all(
            policy.draw("stream", i) == "corrupt-batch" for i in range(8)
        )
        assert all(
            policy.draw("task", i) != "corrupt-batch" for i in range(8)
        )

    def test_first_matching_fault_wins(self):
        policy = ChaosPolicy(
            0,
            [ChaosFault("transient", 1.0), ChaosFault("crash", 1.0)],
        )
        assert policy.draw("task", 0) == "transient"

    def test_policy_pickles_with_identical_draws(self):
        policy = ChaosPolicy(
            3,
            [ChaosFault("crash", 0.3), ChaosFault("hang", 0.3)],
            hang_seconds=0.01,
        )
        clone = pickle.loads(pickle.dumps(policy))
        assert [clone.draw("task", i) for i in range(32)] == [
            policy.draw("task", i) for i in range(32)
        ]


class TestBeforeTask:
    def test_raises_the_matching_exception(self):
        with pytest.raises(InjectedWorkerCrash):
            _policy("crash").before_task(0, 0)
        with pytest.raises(InjectedTransientError):
            _policy("transient").before_task(0, 0)
        with pytest.raises(InjectedPoolBreak):
            _policy("pool-break").before_task(0, 0)

    def test_hang_sleeps_and_returns(self):
        _policy("hang", hang_seconds=0.001).before_task(0, 0)

    def test_clear_attempt_is_a_no_op(self):
        _policy("crash", attempts=1).before_task(0, attempt=1)


class TestCorruptStream:
    def _batches(self, n_epochs=96, batch_epochs=24):
        return list(
            stream_scenario_telemetry(
                "fault-storm", n_epochs,
                batch_epochs=batch_epochs, random_state=7,
            )
        )

    def test_duplicate_mode_loses_no_telemetry(self):
        clean = self._batches()
        policy = _policy("corrupt-batch", rate=1.0)
        out = list(policy.corrupt_stream(iter(clean), mode="duplicate"))
        assert len(out) == 2 * len(clean)
        # the original batches survive, in order, behind their corrupted
        # doubles
        assert out[1::2] == clean
        for corrupted in out[::2]:
            assert 7 in corrupted.sla_violation

    def test_replace_mode_substitutes(self):
        clean = self._batches()
        policy = _policy("corrupt-batch", rate=1.0)
        out = list(policy.corrupt_stream(iter(clean), mode="replace"))
        assert len(out) == len(clean)
        for corrupted in out:
            assert 7 in corrupted.sla_violation

    def test_corruption_trips_the_named_engine_check(self):
        policy = _policy("corrupt-batch", rate=1.0)
        engine = StreamingDiagnosisEngine(
            window_epochs=24, explain_per_window=0, random_state=0
        )
        stream = policy.corrupt_stream(iter(self._batches()))
        with pytest.raises(MalformedBatchError) as excinfo:
            for batch in stream:
                engine.ingest(batch)
        assert excinfo.value.check == "labels-not-binary"

    def test_rate_zero_is_the_identity(self):
        clean = self._batches()
        policy = _policy("corrupt-batch", rate=0.0)
        assert list(policy.corrupt_stream(iter(clean))) == clean

    def test_corruption_never_aliases_the_original(self):
        clean = self._batches()
        policy = _policy("corrupt-batch", rate=1.0)
        out = list(policy.corrupt_stream(iter(clean), mode="duplicate"))
        for original in out[1::2]:
            assert not (np.asarray(original.sla_violation) > 1).any()
