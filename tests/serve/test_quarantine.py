"""Per-session circuit breakers: one bad tenant never takes down the rest.

The acceptance contract: a tenant whose batches keep failing is
quarantined with a named :class:`SessionQuarantinedError` (the health
report names the session and the check that tripped it), the service
keeps serving everyone else, and the surviving tenants' reports are
byte-identical to a run where the bad tenant never existed.
"""

import pickle
from dataclasses import replace

import numpy as np
import pytest

from repro.datasets import stream_scenario_telemetry
from repro.serve import (
    BackpressureError,
    DiagnosisService,
    SessionQuarantinedError,
    interleave,
)
from repro.utils.events import format_events

FAST = dict(
    window_epochs=32,
    refit_every=2,
    explain_per_window=2,
    explainer_kwargs={"n_samples": 32},
)

EPOCHS = 96
SEED = 11


def _stream(seed, n_epochs=EPOCHS, batch_epochs=24):
    return stream_scenario_telemetry(
        "fault-storm", n_epochs, batch_epochs=batch_epochs,
        random_state=seed,
    )


def _corrupt(batch):
    labels = np.array(batch.sla_violation, copy=True)
    labels[0] = 7  # trips the labels-not-binary check
    return replace(batch, sla_violation=labels)


def _bad_stream(seed):
    """Every batch malformed — the tenant that must get quarantined."""
    return (_corrupt(batch) for batch in _stream(seed))


def _broken_stream(seed):
    """A stream whose iterator itself dies after one good batch."""
    yield next(iter(_stream(seed)))
    raise RuntimeError("telemetry source fell over")


def _first_batch(seed=SEED):
    return next(iter(_stream(seed)))


class TestBreaker:
    def test_budget_crossing_raises_named_chained_error(self):
        with DiagnosisService(random_state=SEED, **FAST) as service:
            session = service.open_session("t", failure_budget=3)
            bad = _corrupt(_first_batch())
            for _ in range(2):
                with pytest.raises(Exception, match="binary 0/1"):
                    session.submit(bad)
            with pytest.raises(SessionQuarantinedError) as excinfo:
                session.submit(bad)
            error = excinfo.value
            assert error.session == "t"
            assert error.check == "labels-not-binary"
            assert error.failures == 3
            assert "labels-not-binary" in str(error)
            assert error.__cause__ is not None

    def test_quarantined_session_refuses_all_work(self):
        with DiagnosisService(random_state=SEED, **FAST) as service:
            session = service.open_session("t", failure_budget=1)
            with pytest.raises(SessionQuarantinedError):
                session.submit(_corrupt(_first_batch()))
            assert session.quarantined
            for call in (
                lambda: session.submit(_first_batch()),
                lambda: session.drain(),
                lambda: session.flush(),
                lambda: session.process(_first_batch()),
            ):
                with pytest.raises(SessionQuarantinedError):
                    call()

    def test_quarantined_state_stays_readable(self):
        with DiagnosisService(random_state=SEED, **FAST) as service:
            session = service.open_session("t", failure_budget=1)
            session.submit(_first_batch())
            with pytest.raises(SessionQuarantinedError):
                session.submit(_corrupt(_first_batch(seed=1)))
            assert session.report().windows == []
            assert session.snapshot().name == "t"
            assert session.health()["status"] == "quarantined"

    def test_success_closes_the_streak(self):
        with DiagnosisService(
            random_state=SEED, max_pending_epochs=512, **FAST
        ) as service:
            session = service.open_session("t", failure_budget=3)
            bad = _corrupt(_first_batch())
            batches = iter(_stream(SEED, n_epochs=192))
            for _ in range(3):
                for _ in range(2):
                    with pytest.raises(Exception, match="binary 0/1"):
                        session.submit(bad)
                session.submit(next(batches))  # resets the streak
            assert not session.quarantined
            assert session.health()["failures"] == 6

    def test_backpressure_never_counts_as_failure(self):
        with DiagnosisService(
            random_state=SEED, max_pending_epochs=24, **FAST
        ) as service:
            session = service.open_session("t", failure_budget=1)
            big = _first_batch()  # 24 epochs; fills the whole budget
            session.submit(big)
            with pytest.raises(BackpressureError):
                session.submit(big)
            assert not session.quarantined
            assert session.health()["failures"] == 0

    def test_empty_drain_does_not_launder_failures(self):
        with DiagnosisService(random_state=SEED, **FAST) as service:
            session = service.open_session("t", failure_budget=3)
            bad = _corrupt(_first_batch())
            for _ in range(2):
                with pytest.raises(Exception, match="binary 0/1"):
                    session.submit(bad)
            assert session.drain() == []  # nothing pending: no windows
            with pytest.raises(SessionQuarantinedError):
                session.submit(bad)

    def test_zero_d_labels_trip_the_named_check(self):
        """A 0-d label batch is sized inside the breaker, so the
        engine's ``misaligned-shapes`` check counts it as a failure."""
        with DiagnosisService(random_state=SEED, **FAST) as service:
            session = service.open_session("t", failure_budget=1)
            scalar = replace(_first_batch(), sla_violation=np.int64(1))
            with pytest.raises(SessionQuarantinedError) as excinfo:
                session.submit(scalar)
            assert excinfo.value.check == "misaligned-shapes"
            assert session.health()["failures"] == 1
            assert session.pending_epochs == 0

    def test_reinstate_reopens_but_keeps_the_record(self):
        with DiagnosisService(random_state=SEED, **FAST) as service:
            session = service.open_session("t", failure_budget=1)
            with pytest.raises(SessionQuarantinedError):
                session.submit(_corrupt(_first_batch()))
            session.reinstate()
            assert not session.quarantined
            session.submit(_first_batch())
            health = session.health()
            assert health["status"] == "ok"
            assert health["failures"] == 1
            assert health["consecutive"] == 0

    def test_stream_failure_quarantines_immediately(self):
        with DiagnosisService(random_state=SEED, **FAST) as service:
            session = service.open_session("t", failure_budget=5)
            session.record_stream_failure(RuntimeError("source died"))
            assert session.quarantined
            assert session.health()["check"] == "RuntimeError"
            assert [
                (e.kind, e.check) for e in session.report().events
            ] == [("session-failure", "RuntimeError"),
                  ("quarantined", "RuntimeError")]

    def test_failure_budget_validation(self):
        with DiagnosisService(random_state=SEED, **FAST) as service:
            with pytest.raises(ValueError, match="failure_budget"):
                service.open_session("t", failure_budget=0)


class TestHealthReport:
    def test_names_session_and_check(self):
        with DiagnosisService(random_state=SEED, **FAST) as service:
            service.open_session("good")
            bad = service.open_session("bad", failure_budget=1)
            with pytest.raises(SessionQuarantinedError):
                bad.submit(_corrupt(_first_batch()))
            report = service.health_report()
            assert report.quarantined == ["bad"]
            assert report.sessions["good"]["status"] == "ok"
            assert report.sessions["bad"]["check"] == "labels-not-binary"
            assert list(report.sessions) == ["good", "bad"]
            assert format_events(bad.report().events, "bad").splitlines() == [
                "bad events (2):",
                "  session-failure[labels-not-binary] @0: "
                + report.sessions["bad"]["last_error"],
                "  quarantined[labels-not-binary] @0: "
                "after 1 consecutive failure(s)",
            ]
            assert format_events(service.report("good").events, "good") == (
                "no good events"
            )


class TestInterleaveNamedErrors:
    def test_empty_streams_rejected(self):
        with DiagnosisService(random_state=SEED, **FAST) as service:
            with pytest.raises(ValueError, match="at least one"):
                interleave(service, {})

    def test_duplicate_names_rejected(self):
        with DiagnosisService(random_state=SEED, **FAST) as service:
            session = service.open_session("t")
            pairs = [
                ("t", _stream(session.seed)),
                ("t", _stream(session.seed)),
            ]
            with pytest.raises(ValueError, match="duplicate session names"):
                interleave(service, pairs)

    def test_unknown_name_rejected_before_feeding(self):
        with DiagnosisService(random_state=SEED, **FAST) as service:
            session = service.open_session("t")
            with pytest.raises(KeyError, match="ghost"):
                interleave(
                    service,
                    {"t": _stream(session.seed), "ghost": _stream(0)},
                )
            assert session.epochs_seen == 0

    def test_pairs_form_is_accepted(self):
        with DiagnosisService(random_state=SEED, **FAST) as service:
            session = service.open_session("t")
            windows = interleave(service, [("t", _stream(session.seed))])
            assert len(windows["t"]) > 0

    def test_backpressure_still_propagates(self):
        with DiagnosisService(
            random_state=SEED, max_pending_epochs=24, **FAST
        ) as service:
            session = service.open_session("t")
            with pytest.raises(BackpressureError):
                interleave(
                    service,
                    {"t": _stream(session.seed, batch_epochs=48)},
                )


class TestIsolation:
    """The acceptance test: survivors are byte-identical to a run
    where the quarantined tenant never existed."""

    def _reference_tables(self):
        with DiagnosisService(random_state=SEED, **FAST) as service:
            for name in ("good-0", "good-1"):
                service.open_session(name)
            interleave(
                service,
                {
                    name: _stream(service.session(name).seed)
                    for name in service.session_names
                },
            )
            service.flush_all()
            return {
                name: service.session(name).report().format_table(
                    timing=False
                )
                for name in service.session_names
            }

    def test_quarantined_tenant_never_blocks_others(self):
        reference = self._reference_tables()
        with DiagnosisService(random_state=SEED, **FAST) as service:
            # good tenants first: indices (and so seeds) must match the
            # reference run that has no bad tenant at all
            for name in ("good-0", "good-1"):
                service.open_session(name)
            bad = service.open_session("bad", failure_budget=2)
            streams = {
                "good-0": _stream(service.session("good-0").seed),
                "good-1": _stream(service.session("good-1").seed),
                "bad": _bad_stream(bad.seed),
            }
            interleave(service, streams)
            service.flush_all()
            assert bad.quarantined
            report = service.health_report()
            assert report.quarantined == ["bad"]
            assert report.sessions["bad"]["check"] == "labels-not-binary"
            for name in ("good-0", "good-1"):
                table = service.session(name).report().format_table(
                    timing=False
                )
                assert table == reference[name]

    def test_dead_stream_iterator_only_sidelines_its_tenant(self):
        reference = self._reference_tables()
        with DiagnosisService(random_state=SEED, **FAST) as service:
            for name in ("good-0", "good-1"):
                service.open_session(name)
            flaky = service.open_session("flaky")
            interleave(
                service,
                {
                    "good-0": _stream(service.session("good-0").seed),
                    "good-1": _stream(service.session("good-1").seed),
                    "flaky": _broken_stream(flaky.seed),
                },
            )
            service.flush_all()
            assert flaky.quarantined
            assert (
                service.health_report().sessions["flaky"]["check"]
                == "RuntimeError"
            )
            for name in ("good-0", "good-1"):
                table = service.session(name).report().format_table(
                    timing=False
                )
                assert table == reference[name]


class TestSnapshotCarriesQuarantine:
    def test_restore_preserves_breaker_state(self):
        with DiagnosisService(random_state=SEED, **FAST) as service:
            session = service.open_session("t", failure_budget=1)
            with pytest.raises(SessionQuarantinedError):
                session.submit(_corrupt(_first_batch()))
            snap = pickle.loads(pickle.dumps(service.snapshot()))

        with DiagnosisService.restore(snap, backend="serial") as restored:
            session = restored.session("t")
            assert session.quarantined
            assert session.health()["check"] == "labels-not-binary"
            with pytest.raises(SessionQuarantinedError):
                session.submit(_first_batch())
            session.reinstate()
            session.submit(_first_batch())
            assert session.health()["failures"] == 1
