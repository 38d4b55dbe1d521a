"""Concurrent-session stress tests.

Many threads drive interleaved tenant sessions through one service —
shared executor, shared coalition-design memo, contended registry — and
every tenant's report must still be byte-identical to running that
tenant alone, serially, in an isolated engine.  This is the
multi-tenant restatement of the repo's determinism contract:
concurrency is timing-only.
"""

import pickle
import threading

from repro.core.stream import StreamingDiagnosisEngine
from repro.datasets import stream_scenario_telemetry
from repro.serve import DiagnosisService, load_snapshot, save_snapshot
from repro.utils.rng import spawn_seeds

FAST = dict(
    window_epochs=32,
    refit_every=2,
    explain_per_window=2,
    explainer_kwargs={"n_samples": 32},
)

EPOCHS = 96
SEED = 23
N_TENANTS = 4
SCENARIOS = ("fault-storm", "bursty-traffic")


def _scenario(index):
    return SCENARIOS[index % len(SCENARIOS)]


def _stream(seed, scenario, n_epochs=EPOCHS, batch_epochs=24):
    return stream_scenario_telemetry(
        scenario, n_epochs, batch_epochs=batch_epochs, random_state=seed
    )


def _isolated_table(seed, scenario):
    engine = StreamingDiagnosisEngine(random_state=seed, **FAST)
    return engine.run(_stream(seed, scenario)).format_table(timing=False)


def _run_threads(targets):
    """Run one thread per target; re-raise the first failure."""
    errors = []

    def guard(fn):
        def wrapped():
            try:
                fn()
            except BaseException as exc:  # noqa: BLE001 - test harness
                errors.append(exc)

        return wrapped

    threads = [threading.Thread(target=guard(t)) for t in targets]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


class TestConcurrentSessions:
    def test_threaded_tenants_match_isolated_serial_runs(self):
        """One thread per tenant, all hammering the same service and
        cache concurrently; each report equals its lone-engine run."""
        with DiagnosisService(random_state=SEED, **FAST) as service:
            sessions = [
                service.open_session(f"tenant-{i}") for i in range(N_TENANTS)
            ]

            def driver(session):
                scenario = _scenario(session.tenant_index)
                def run():
                    for batch in _stream(session.seed, scenario):
                        session.submit(batch)
                        session.drain(service.executor)
                    session.flush(service.executor)
                return run

            _run_threads([driver(s) for s in sessions])

            for session in sessions:
                table = session.report().format_table(timing=False)
                reference = _isolated_table(
                    session.seed, _scenario(session.tenant_index)
                )
                assert table == reference, session.name

    def test_concurrent_open_close_keeps_indices_unique(self):
        """Registry contention: parallel opens never hand out the same
        tenant index (and therefore never the same seed)."""
        with DiagnosisService(random_state=SEED, **FAST) as service:
            def opener(k):
                def run():
                    for j in range(5):
                        name = f"t{k}-{j}"
                        service.open_session(name)
                        service.close_session(name, flush=False)
                return run

            _run_threads([opener(k) for k in range(8)])
            indices = [
                service.open_session(f"final-{k}").tenant_index
                for k in range(4)
            ]
        # 8 threads x 5 sessions came first, then our 4: all distinct
        assert len(set(indices)) == 4
        assert min(indices) >= 8 * 5

    def test_snapshot_restore_under_concurrency(self, tmp_path):
        """Drive tenants from threads to mid-stream, snapshot, restore,
        finish from threads again: byte-identical to never stopping."""
        reference = {
            f"tenant-{i}": _isolated_table(
                spawn_seeds(SEED, i + 1)[i], _scenario(i)
            )
            for i in range(N_TENANTS)
        }

        path = tmp_path / "svc.pkl"
        with DiagnosisService(random_state=SEED, **FAST) as service:
            sessions = [
                service.open_session(f"tenant-{i}") for i in range(N_TENANTS)
            ]

            def feeder(session, stop_epoch):
                scenario = _scenario(session.tenant_index)
                def run():
                    for batch in _stream(session.seed, scenario):
                        if batch.start_epoch >= stop_epoch:
                            break
                        session.submit(batch)
                        session.drain(service.executor)
                return run

            _run_threads([feeder(s, 48) for s in sessions])
            assert all(s.epochs_seen == 48 for s in sessions)
            save_snapshot(service.snapshot(), path)

        restored = DiagnosisService.restore(load_snapshot(path))
        with restored:
            sessions = [restored.session(name) for name in restored.session_names]

            def finisher(session):
                scenario = _scenario(session.tenant_index)
                start = session.epochs_seen
                def run():
                    for batch in _stream(session.seed, scenario):
                        if batch.start_epoch < start:
                            continue
                        session.submit(batch)
                        session.drain(restored.executor)
                    session.flush(restored.executor)
                return run

            _run_threads([finisher(s) for s in sessions])
            for session in sessions:
                table = session.report().format_table(timing=False)
                assert table == reference[session.name], session.name

    def test_session_snapshots_are_picklable_while_draining(self):
        """snapshot() under live submit/drain traffic neither deadlocks
        nor captures an unpicklable object graph."""
        with DiagnosisService(random_state=SEED, **FAST) as service:
            session = service.open_session("t")
            blobs = []

            def feeder():
                for batch in _stream(session.seed, "fault-storm"):
                    session.submit(batch)
                    session.drain(service.executor)

            def snapshotter():
                for _ in range(5):
                    blobs.append(pickle.dumps(session.snapshot()))

            _run_threads([feeder, snapshotter])
        assert len(blobs) == 5
        for blob in blobs:
            snap = pickle.loads(blob)
            assert snap.name == "t"
