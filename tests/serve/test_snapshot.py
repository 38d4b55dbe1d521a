"""Snapshot/restore tests: a restarted service resumes byte-identically.

The acceptance property: interrupt a service mid-stream (pending
epochs in the buffer, fitted pipelines in flight), pickle its
snapshot, restore into a fresh service in (conceptually) a fresh
process, finish the streams — every tenant's final report must equal
the uninterrupted run's, byte for byte.
"""

import pickle

import pytest

from repro.datasets import stream_scenario_telemetry
from repro.serve import (
    SNAPSHOT_SCHEMA,
    DiagnosisService,
    ServiceSnapshot,
    interleave,
    load_snapshot,
    save_snapshot,
)

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


def _full_run_tables(names):
    """Reference: every tenant streamed to completion, no interruption."""
    with DiagnosisService(random_state=SEED, **FAST) as service:
        sessions = {name: service.open_session(name) for name in names}
        interleave(
            service,
            {name: _stream(s.seed) for name, s in sessions.items()},
        )
        service.flush_all()
        return {
            name: service.report(name).format_table(timing=False)
            for name in names
        }


class TestSnapshotRoundTrip:
    def test_save_load_round_trip(self, tmp_path):
        with DiagnosisService(random_state=SEED, **FAST) as service:
            service.open_session("a")
            snapshot = service.snapshot()
        path = tmp_path / "svc.pkl"
        save_snapshot(snapshot, path)
        loaded = load_snapshot(path)
        assert isinstance(loaded, ServiceSnapshot)
        assert loaded.schema == SNAPSHOT_SCHEMA
        assert [s.name for s in loaded.sessions] == ["a"]
        assert loaded.service_config["random_state"] == SEED

    def test_load_rejects_non_snapshot_pickles(self, tmp_path):
        path = tmp_path / "junk.pkl"
        with open(path, "wb") as fh:
            pickle.dump({"not": "a snapshot"}, fh)
        with pytest.raises(ValueError, match="ServiceSnapshot"):
            load_snapshot(path)

    def test_load_rejects_unknown_schema(self, tmp_path):
        snapshot = ServiceSnapshot(service_config={}, schema=99)
        path = tmp_path / "future.pkl"
        save_snapshot(snapshot, path)
        with pytest.raises(ValueError, match="schema 99"):
            load_snapshot(path)

    def test_load_refuses_schema_1(self, tmp_path):
        """Schema 1 kept breaker state in a ``health`` dict beside an
        engine log of another record type; it is refused by name."""
        path = tmp_path / "old.pkl"
        save_snapshot(ServiceSnapshot(service_config={}, schema=1), path)
        with pytest.raises(ValueError, match="schema 1 is not supported"):
            load_snapshot(path)

    @pytest.mark.parametrize("damage", ["truncated", "garbage", "empty"])
    def test_load_names_unreadable_files(self, tmp_path, damage):
        """Bytes that do not unpickle raise the named ``ValueError``,
        chained from the unpickling error, not a raw pickle error."""
        path = tmp_path / "svc.pkl"
        with DiagnosisService(random_state=SEED, **FAST) as service:
            service.open_session("a")
            save_snapshot(service.snapshot(), path)
        data = path.read_bytes()
        path.write_bytes({
            "truncated": data[: len(data) // 2],
            "garbage": b"this is not a pickle",
            "empty": b"",
        }[damage])
        with pytest.raises(
            ValueError, match="does not contain a ServiceSnapshot"
        ) as excinfo:
            load_snapshot(path)
        assert isinstance(
            excinfo.value.__cause__, (pickle.UnpicklingError, EOFError)
        )

    def test_session_snapshot_is_detached(self):
        """Mutating the live engine after snapshot() must not reach
        into the snapshot (it is pickle-round-tripped, not aliased)."""
        with DiagnosisService(random_state=SEED, **FAST) as service:
            session = service.open_session("a")
            batches = list(_stream(session.seed, batch_epochs=24))
            service.process("a", batches[0])
            snap = session.snapshot()
            frozen_epoch = snap.engine["state"]["epoch"]
            frozen_pending = len(snap.engine["state"]["pending_y"])
            service.process("a", batches[1])
            assert snap.engine["state"]["epoch"] == frozen_epoch
            assert len(snap.engine["state"]["pending_y"]) == frozen_pending


class TestRestore:
    def test_restore_resumes_every_tenant_byte_identically(self, tmp_path):
        names = ("a", "b")
        reference = _full_run_tables(names)

        # interrupted run: stop both tenants at 48 epochs — inside
        # window 1, with a fitted window-0 pipeline and 16 pending
        # epochs in each buffer — and snapshot to disk
        with DiagnosisService(random_state=SEED, **FAST) as service:
            sessions = {name: service.open_session(name) for name in names}
            interleave(
                service,
                {
                    name: _stream(s.seed, batch_epochs=24)
                    for name, s in sessions.items()
                },
                until_epoch=48,
            )
            assert all(s.pending_epochs == 16 for s in sessions.values())
            path = tmp_path / "svc.pkl"
            save_snapshot(service.snapshot(), path)

        restored = DiagnosisService.restore(load_snapshot(path))
        with restored:
            assert restored.session_names == list(names)
            for name in names:
                session = restored.session(name)
                assert session.epochs_seen == 48
                remaining = (
                    batch
                    for batch in _stream(session.seed, batch_epochs=24)
                    if batch.start_epoch >= session.epochs_seen
                )
                for batch in remaining:
                    restored.process(name, batch)
            restored.flush_all()
            for name in names:
                table = restored.report(name).format_table(timing=False)
                assert table == reference[name], name

    def test_restore_preserves_tenant_indices_and_seeds(self, tmp_path):
        with DiagnosisService(random_state=SEED, **FAST) as service:
            service.open_session("a")
            b = service.open_session("b")
            service.close_session("a")  # index 0 retired, never reused
            path = tmp_path / "svc.pkl"
            save_snapshot(service.snapshot(), path)
        restored = DiagnosisService.restore(load_snapshot(path))
        with restored:
            assert restored.session_names == ["b"]
            session = restored.session("b")
            assert session.tenant_index == b.tenant_index
            assert session.seed == b.seed
            # the next tenant continues the index sequence, does not
            # recycle the closed session's index
            assert restored.open_session("c").tenant_index == 2

    def test_restore_refuses_a_mismatched_engine_config(self):
        """Sessions are rebuilt from the service configuration, so a
        tenant engine snapshot taken under another configuration fails
        the engine's config check instead of restoring silently."""
        with DiagnosisService(random_state=SEED, **FAST) as service:
            service.open_session("a")
            snapshot = service.snapshot()
        snapshot.sessions[0].engine["config"]["refit_every"] = 5
        with pytest.raises(ValueError, match="refit_every"):
            DiagnosisService.restore(snapshot, backend="serial")

    def test_restore_keeps_backpressure_budget(self, tmp_path):
        with DiagnosisService(
            random_state=SEED, max_pending_epochs=16, **FAST
        ) as service:
            service.open_session("t")
            path = tmp_path / "svc.pkl"
            save_snapshot(service.snapshot(), path)
        restored = DiagnosisService.restore(load_snapshot(path))
        with restored:
            assert restored.session("t").max_pending_epochs == 16
            assert restored.max_pending_epochs == 16

    def test_snapshot_excludes_executor_and_cache(self):
        """Backend choice and cache contents are timing-only, so they
        must not leak into (or be required by) the snapshot."""
        with DiagnosisService(
            random_state=SEED, backend="thread", workers=2, **FAST
        ) as service:
            service.open_session("a")
            snapshot = service.snapshot()
        config_keys = set(snapshot.service_config)
        assert "backend" not in config_keys
        assert "workers" not in config_keys
        restored = DiagnosisService.restore(snapshot, backend="serial")
        with restored:
            assert restored.executor.backend == "serial"
