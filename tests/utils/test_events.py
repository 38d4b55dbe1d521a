"""Tests for repro.utils.events: the one operator event record and its
printer, and the serve breaker log read back through ``health()``."""

import pickle
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

from repro.datasets import stream_scenario_telemetry
from repro.serve import DiagnosisService
from repro.utils.events import OperatorEvent, format_events
from repro.utils.tabular import FeatureMatrix


class TestOperatorEvent:
    def test_full_line(self):
        event = OperatorEvent("task-retry", 3, "ValueError", "attempt 1: bad")
        assert str(event) == "task-retry[ValueError] @3: attempt 1: bad"

    def test_check_and_detail_are_omitted_when_absent(self):
        assert str(OperatorEvent("reinstated", 48)) == "reinstated @48"
        assert str(OperatorEvent("degrade", 0, detail="thread->serial")) == (
            "degrade @0: thread->serial"
        )
        assert str(OperatorEvent("quarantined", 7, "RuntimeError")) == (
            "quarantined[RuntimeError] @7"
        )

    def test_frozen(self):
        event = OperatorEvent("task-retry", 0)
        with pytest.raises(FrozenInstanceError):
            event.at = 1

    def test_pickle_round_trip(self):
        events = [
            OperatorEvent("skipped-batch", 16, "labels-not-binary", "x"),
            OperatorEvent("reinstated", 32),
        ]
        clone = pickle.loads(pickle.dumps(events))
        assert clone == events
        assert format_events(clone, "stream") == format_events(
            events, "stream"
        )


class TestFormatEvents:
    def test_empty_log(self):
        assert format_events([], "stream") == "no stream events"
        assert format_events((), "resilience") == "no resilience events"

    def test_header_then_one_line_per_event(self):
        events = [
            OperatorEvent("task-retry", 0, "ValueError", "attempt 1: bad"),
            OperatorEvent("pool-rebuild", 0, detail="thread"),
            OperatorEvent("reinstated", 5),
        ]
        assert format_events(events, "resilience").splitlines() == [
            "resilience events (3):",
            "  task-retry[ValueError] @0: attempt 1: bad",
            "  pool-rebuild @0: thread",
            "  reinstated @5",
        ]

    def test_each_line_is_the_event_str(self):
        events = [
            OperatorEvent("session-failure", 24, "non-finite-features",
                          "MalformedBatchError: NaN"),
            OperatorEvent("quarantined", 24),
        ]
        lines = format_events(events, "t").splitlines()[1:]
        assert lines == [f"  {event}" for event in events]


# -- the serve breaker log ---------------------------------------------

FAST = dict(
    window_epochs=32,
    refit_every=2,
    explain_per_window=2,
    explainer_kwargs={"n_samples": 32},
)

LABELS_AT_0 = (
    "MalformedBatchError: sla_violation labels must be binary 0/1; "
    "batch starting at epoch 0 contains [7]"
)
NAN_AT_24 = (
    "MalformedBatchError: batch features contain NaN/inf values; "
    "batch starting at epoch 24"
)
LABELS_AT_48 = (
    "MalformedBatchError: sla_violation labels must be binary 0/1; "
    "batch starting at epoch 48 contains [7]"
)


def _health(status, failures, consecutive, check, last_error):
    return {
        "status": status,
        "failures": failures,
        "consecutive": consecutive,
        "check": check,
        "last_error": last_error,
    }


#: step -> the ``health()`` dict the per-field breaker returned after
#: it, recorded before the breaker moved onto the event log
BREAKER_SCRIPT = [
    ("bad-labels-0", _health("ok", 1, 1, None, LABELS_AT_0)),
    ("bad-labels-0", _health("ok", 2, 2, None, LABELS_AT_0)),
    ("good", _health("ok", 2, 0, None, LABELS_AT_0)),
    ("bad-nan-24", _health("ok", 3, 1, None, NAN_AT_24)),
    ("bad-nan-24", _health("ok", 4, 2, None, NAN_AT_24)),
    ("bad-nan-24", _health(
        "quarantined", 5, 3, "non-finite-features", NAN_AT_24
    )),
    ("reinstate", _health("ok", 5, 0, None, NAN_AT_24)),
    ("bad-labels-48", _health("ok", 6, 1, None, LABELS_AT_48)),
]


def _steps(seed):
    """The scripted batches: malformed copies of the tenant's first
    three batches, and its stream for the good submit."""
    stream = stream_scenario_telemetry(
        "fault-storm", 96, batch_epochs=24, random_state=seed
    )
    b0, b1, b2, _ = list(stream)

    def bad_labels(batch):
        labels = np.array(batch.sla_violation, copy=True)
        labels[0] = 7
        return replace(batch, sla_violation=labels)

    values = np.array(b1.features.values, copy=True)
    values[3, 2] = np.nan
    return {
        "bad-labels-0": bad_labels(b0),
        "bad-nan-24": replace(
            b1, features=FeatureMatrix(values, b1.features.feature_names)
        ),
        "bad-labels-48": bad_labels(b2),
        "good": b0,
    }


class TestBreakerLog:
    def test_scripted_sequence_keeps_every_health_dict(self):
        """2 bad submits, 1 good, 3 bad (quarantine), reinstate, 1 bad:
        ``health()`` after each step equals the per-field breaker's, and
        a snapshot/restore after each step reads back the same."""
        with DiagnosisService(
            random_state=11, max_pending_epochs=512, **FAST
        ) as service:
            session = service.open_session("t")
            batches = _steps(session.seed)
            for step, expected in BREAKER_SCRIPT:
                if step == "reinstate":
                    session.reinstate()
                else:
                    try:
                        session.submit(batches[step])
                    except Exception:
                        assert step != "good"
                assert session.health() == expected, step
                snap = pickle.loads(pickle.dumps(service.snapshot()))
                with DiagnosisService.restore(
                    snap, backend="serial"
                ) as restored:
                    again = restored.session("t")
                    assert again.health() == expected, step
                    assert again.quarantined == session.quarantined
                    assert again.report().events == session.report().events

            log = format_events(session.report().events, "t")
            assert log.splitlines() == [
                "t events (8):",
                "  session-failure[labels-not-binary] @0: " + LABELS_AT_0,
                "  session-failure[labels-not-binary] @0: " + LABELS_AT_0,
                "  session-failure[non-finite-features] @24: " + NAN_AT_24,
                "  session-failure[non-finite-features] @24: " + NAN_AT_24,
                "  session-failure[non-finite-features] @24: " + NAN_AT_24,
                "  quarantined[non-finite-features] @24: "
                "after 3 consecutive failure(s)",
                "  reinstated @24",
                "  session-failure[labels-not-binary] @24: " + LABELS_AT_48,
            ]

    def test_reinstating_a_closed_breaker_is_not_logged(self):
        with DiagnosisService(random_state=11, **FAST) as service:
            session = service.open_session("t")
            session.reinstate()
            assert session.report().events == []
