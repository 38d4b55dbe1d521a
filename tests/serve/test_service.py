"""Tests for the multi-tenant diagnosis service (repro.serve).

The contract: each tenant's report is byte-identical to running that
tenant alone with the same integer seed — sharing the executor, the
coalition-design memo, and the process with other tenants is
timing-only.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.core.executor import SerialExecutor
from repro.core.stream import StreamingDiagnosisEngine
from repro.datasets import stream_scenario_telemetry
from repro.serve import BackpressureError, DiagnosisService, interleave
from repro.utils.events import format_events
from repro.utils.rng import spawn_seeds

#: Small-budget engine configuration shared by the serve tests.
FAST = dict(
    window_epochs=32,
    refit_every=2,
    explain_per_window=2,
    explainer_kwargs={"n_samples": 32},
)

EPOCHS = 96
SEED = 11


def _stream(seed, n_epochs=EPOCHS, batch_epochs=24, scenario="fault-storm"):
    return stream_scenario_telemetry(
        scenario, n_epochs, batch_epochs=batch_epochs, random_state=seed
    )


def _isolated_table(seed, **overrides):
    """Reference: the tenant's stream run through a lone engine."""
    kwargs = {**FAST, **overrides}
    engine = StreamingDiagnosisEngine(random_state=seed, **kwargs)
    report = engine.run(_stream(seed))
    return report.format_table(timing=False)


class TestSessionLifecycle:
    def test_open_returns_named_seeded_session(self):
        with DiagnosisService(random_state=SEED, **FAST) as service:
            session = service.open_session("alpha")
            assert session.name == "alpha"
            assert session.tenant_index == 0
            assert session.seed == service.tenant_seed(0)

    def test_tenant_seeds_are_prefix_stable_spawns(self):
        with DiagnosisService(random_state=SEED, **FAST) as service:
            for i, name in enumerate(("a", "b", "c")):
                assert service.open_session(name).seed == spawn_seeds(
                    SEED, i + 1
                )[i]

    def test_duplicate_name_rejected(self):
        with DiagnosisService(random_state=SEED, **FAST) as service:
            service.open_session("alpha")
            with pytest.raises(ValueError, match="already open"):
                service.open_session("alpha")

    def test_bad_names_rejected(self):
        with DiagnosisService(random_state=SEED, **FAST) as service:
            for bad in ("", None, 7):
                with pytest.raises(ValueError, match="non-empty str"):
                    service.open_session(bad)

    def test_unknown_session_is_a_keyerror(self):
        with DiagnosisService(random_state=SEED, **FAST) as service:
            with pytest.raises(KeyError, match="ghost"):
                service.session("ghost")

    def test_reopened_name_gets_fresh_index_and_seed(self):
        """Indices are never reused, so a re-opened tenant can never
        inherit another run's seed or history."""
        with DiagnosisService(random_state=SEED, **FAST) as service:
            first = service.open_session("alpha")
            service.close_session("alpha")
            second = service.open_session("alpha")
            assert second.tenant_index == first.tenant_index + 1
            assert second.seed != first.seed
            assert second.seed == service.tenant_seed(second.tenant_index)

    @pytest.mark.parametrize(
        "budgets", [{"failure_budget": 0}, {"max_pending_epochs": 0}]
    )
    def test_refused_open_takes_no_tenant_index(self, budgets):
        """A refused open leaves the next index, and so the seed of
        every tenant opened after it, where it was."""
        with DiagnosisService(random_state=SEED, **FAST) as service:
            with pytest.raises(ValueError, match=next(iter(budgets))):
                service.open_session("t", **budgets)
            session = service.open_session("u")
            assert session.tenant_index == 0
            assert session.seed == service.tenant_seed(0)

    def test_closed_service_rejects_new_sessions(self):
        service = DiagnosisService(random_state=SEED, **FAST)
        service.close()
        with pytest.raises(RuntimeError, match="closed"):
            service.open_session("late")

    def test_session_names_in_tenant_order(self):
        with DiagnosisService(random_state=SEED, **FAST) as service:
            for name in ("zeta", "alpha", "mid"):
                service.open_session(name)
            assert service.session_names == ["zeta", "alpha", "mid"]


class TestServiceValidation:
    def test_unknown_engine_kwargs_fail_at_open(self):
        """Typos in **engine_kwargs surface as TypeError when the first
        session's engine is built, not silently swallowed."""
        service = DiagnosisService(random_state=SEED, window_sized=32)
        with pytest.raises(TypeError, match="window_sized"):
            service.open_session("t")
        service.close()

    def test_unknown_engine_kwarg_takes_no_tenant_index(self):
        with DiagnosisService(random_state=SEED, window_sized=32) as service:
            for _ in range(2):
                with pytest.raises(TypeError, match="window_sized"):
                    service.open_session("t")
            assert service.snapshot().service_config["next_index"] == 0

    def test_bad_max_pending_rejected(self):
        with pytest.raises(ValueError, match="max_pending_epochs"):
            DiagnosisService(max_pending_epochs=0, **FAST)

    def test_auto_backend_resolves_serial_here(self):
        with DiagnosisService(random_state=SEED, **FAST) as service:
            assert service.executor.backend in ("serial", "process")

    def test_explicit_backend_honored(self):
        with DiagnosisService(
            random_state=SEED, backend="serial", **FAST
        ) as service:
            assert isinstance(service.executor, SerialExecutor)


class TestBackpressure:
    def test_over_budget_submit_rejected_without_ingesting(self):
        with DiagnosisService(
            random_state=SEED, max_pending_epochs=16, **FAST
        ) as service:
            service.open_session("t")
            batch = next(iter(_stream(0, n_epochs=24, batch_epochs=24)))
            with pytest.raises(BackpressureError) as excinfo:
                service.submit("t", batch)
            error = excinfo.value
            assert error.session == "t"
            assert error.pending_epochs == 0
            assert error.batch_epochs == 24
            assert error.capacity == 16
            assert isinstance(error, RuntimeError)
            assert service.session("t").pending_epochs == 0

    def test_drain_frees_budget_for_the_next_submit(self):
        with DiagnosisService(
            random_state=SEED, max_pending_epochs=32, **FAST
        ) as service:
            service.open_session("t")
            batches = list(_stream(SEED, n_epochs=96, batch_epochs=24))
            service.submit("t", batches[0])
            with pytest.raises(BackpressureError):
                service.submit("t", batches[1])  # 24 + 24 > 32
            service.drain("t")  # pending 24 -> 0 (window 32 not reached...
            # ...so pending stays; drain closes nothing below one window)
            assert service.session("t").pending_epochs == 24
            with pytest.raises(BackpressureError):
                service.submit("t", batches[1])
            # raise the budget per-session instead
            service.close_session("t")
            session = service.open_session(
                "t2", max_pending_epochs=128
            )
            for batch in batches:
                service.submit("t2", batch)
            assert session.pending_epochs == 96
            windows = service.drain("t2")
            assert [w.n_epochs for w in windows] == [32, 32, 32]
            assert session.pending_epochs == 0


class TestTenantIsolation:
    def test_interleaved_tenants_match_isolated_serial_runs(self):
        """Two tenants fed round-robin through one service + shared
        cache reproduce, byte for byte, each tenant's lone run."""
        with DiagnosisService(random_state=SEED, **FAST) as service:
            a = service.open_session("a")
            b = service.open_session("b")
            interleave(service, {
                "a": _stream(a.seed),
                "b": _stream(b.seed),
            })
            service.flush_all()
            table_a = service.report("a").format_table(timing=False)
            table_b = service.report("b").format_table(timing=False)
        assert table_a == _isolated_table(a.seed)
        assert table_b == _isolated_table(b.seed)
        # different seeds -> genuinely different tenants
        assert a.seed != b.seed

    def test_report_carries_session_identity(self):
        with DiagnosisService(random_state=SEED, **FAST) as service:
            session = service.open_session("alpha")
            for batch in _stream(session.seed, n_epochs=32, batch_epochs=32):
                service.process("alpha", batch)
            report = service.report("alpha")
            assert report.scenario == "alpha"
            assert report.seed == session.seed
            assert report.window_epochs == FAST["window_epochs"]

    def test_report_carries_stream_events(self):
        """A batch the engine skips under ``on_malformed="skip"`` shows
        up in the session report's events, as in a bare engine run."""
        with DiagnosisService(
            random_state=SEED, on_malformed="skip", **FAST
        ) as service:
            session = service.open_session("alpha")
            good, bad = list(_stream(session.seed, n_epochs=32,
                                     batch_epochs=16))
            service.process("alpha", good)
            labels = np.array(bad.sla_violation, copy=True)
            labels[0] = 7
            service.process("alpha", replace(bad, sla_violation=labels))
            report = service.report("alpha")
            (event,) = report.events
            assert (event.kind, event.check, event.at) == (
                "skipped-batch", "labels-not-binary", 16
            )
            assert "skipped-batch[labels-not-binary] @16" in (
                format_events(report.events, "stream")
            )

    def test_close_session_returns_flushed_final_report(self):
        with DiagnosisService(random_state=SEED, **FAST) as service:
            session = service.open_session("alpha")
            for batch in _stream(session.seed, n_epochs=48, batch_epochs=24):
                service.process("alpha", batch)
            report = service.close_session("alpha")
            # 48 epochs = one full window + one flushed partial window
            assert [w.n_epochs for w in report.windows] == [32, 16]
            with pytest.raises(KeyError):
                service.session("alpha")

    def test_interleave_until_epoch_stops_midstream(self):
        with DiagnosisService(random_state=SEED, **FAST) as service:
            a = service.open_session("a")
            interleave(
                service, {"a": _stream(a.seed)}, until_epoch=48
            )
            assert a.epochs_seen == 48

    def test_cache_is_shared_across_sessions(self):
        from repro.core.cache import clear_cache

        clear_cache()
        with DiagnosisService(random_state=SEED, **FAST) as service:
            a = service.open_session("a")
            b = service.open_session("b")
            interleave(service, {
                "a": _stream(a.seed),
                "b": _stream(b.seed),
            })
            service.flush_all()
            stats = service.cache_stats()
        # both tenants explained windows, and the shared cache saw them
        assert stats["hits"] + stats["misses"] > 0
