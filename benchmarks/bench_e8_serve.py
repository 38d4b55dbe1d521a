"""E17 — diagnosis as a service: 100 interleaved tenant sessions.

The serve layer's claim: multiplexing a fleet of tenants through one
:class:`~repro.serve.DiagnosisService` — shared executor, shared
coalition-design memo, one seed tree — costs nothing in semantics.  Three
properties, the first two asserted **unconditionally** (they are
correctness, not timing):

* **isolation** — a sampled tenant's report is byte-identical to
  running that tenant alone in a lone engine with the same seed;
* **snapshot/restore** — interrupt the whole 100-session fleet
  mid-stream, pickle the service snapshot, restore, finish: every one
  of the 100 resumed reports equals its uninterrupted twin, byte for
  byte;
* **throughput** — the fleet drains at a measurable sessions/sec with
  a bounded p99 per-window latency (reported here and recorded across
  PRs by ``tools/bench_trajectory.py`` into ``BENCH_<n>.json``).

Timing numbers are reported whenever available; nothing correctness-
related is gated on ``--benchmark-disable`` (the CI smoke mode).
"""

import pickle

from benchmarks._util import timing_enabled
from benchmarks.conftest import SEED, save_result
from repro.core.cache import clear_cache
from repro.core.stream import StreamingDiagnosisEngine
from repro.datasets import stream_scenario_telemetry
from repro.serve import DiagnosisService, interleave

N_SESSIONS = 100
EPOCHS = 48
BATCH_EPOCHS = 16
SNAPSHOT_EPOCH = 32
SCENARIOS = ("fault-storm", "bursty-traffic", "baseline")

CONFIG = dict(
    window_epochs=16,
    refit_every=2,
    explain_per_window=2,
    explainer_kwargs={"n_samples": 32},
)


def _scenario(index: int) -> str:
    return SCENARIOS[index % len(SCENARIOS)]


def _stream(seed: int, scenario: str):
    return stream_scenario_telemetry(
        scenario, EPOCHS, batch_epochs=BATCH_EPOCHS, random_state=seed
    )


def _open_fleet(service) -> list:
    return [
        service.open_session(f"tenant-{i:03d}") for i in range(N_SESSIONS)
    ]


def _fleet_streams(sessions) -> dict:
    return {
        s.name: _stream(s.seed, _scenario(s.tenant_index)) for s in sessions
    }


def _tables(service) -> dict:
    return {
        name: service.report(name).format_table(timing=False)
        for name in service.session_names
    }


def _run_full_fleet():
    """Uninterrupted reference: the whole fleet, opened to flushed."""
    clear_cache()
    with DiagnosisService(
        random_state=SEED, max_pending_epochs=4 * BATCH_EPOCHS, **CONFIG
    ) as service:
        sessions = _open_fleet(service)
        interleave(service, _fleet_streams(sessions))
        service.flush_all()
        windows = [w for s in sessions for w in s.windows]
        return _tables(service), windows, service.cache_stats()


def test_serve_fleet_sessions(benchmark):
    tables, windows, stats = benchmark.pedantic(
        _run_full_fleet, rounds=1, iterations=1
    )

    # -- isolation (unconditional): sampled tenants vs lone engines ----
    with DiagnosisService(random_state=SEED, **CONFIG) as probe:
        sampled = [probe.open_session(f"tenant-{i:03d}")
                   for i in range(N_SESSIONS)][:: N_SESSIONS // 3][:3]
    for session in sampled:
        engine = StreamingDiagnosisEngine(random_state=session.seed, **CONFIG)
        lone = engine.run(_stream(session.seed, _scenario(session.tenant_index)))
        assert tables[session.name] == lone.format_table(timing=False), (
            f"{session.name} diverged from its isolated serial run"
        )

    # -- snapshot/restore (unconditional): interrupt ALL 100 sessions --
    clear_cache()
    with DiagnosisService(
        random_state=SEED, max_pending_epochs=4 * BATCH_EPOCHS, **CONFIG
    ) as service:
        sessions = _open_fleet(service)
        interleave(
            service, _fleet_streams(sessions), until_epoch=SNAPSHOT_EPOCH
        )
        blob = pickle.dumps(service.snapshot())

    restored = DiagnosisService.restore(pickle.loads(blob))
    with restored:
        leftovers = {}
        for name in restored.session_names:
            session = restored.session(name)
            assert session.epochs_seen == SNAPSHOT_EPOCH
            leftovers[name] = (
                b
                for b in _stream(session.seed, _scenario(session.tenant_index))
                if b.start_epoch >= SNAPSHOT_EPOCH
            )
        interleave(restored, leftovers)
        restored.flush_all()
        resumed = _tables(restored)
    assert set(resumed) == set(tables)
    for name, table in tables.items():
        assert resumed[name] == table, (
            f"{name}: restored-from-snapshot report != uninterrupted report"
        )

    # -- throughput report ---------------------------------------------
    n_windows = len(windows)
    seconds = sorted(w.seconds for w in windows)
    p50 = seconds[n_windows // 2]
    p99 = seconds[min(n_windows - 1, int(0.99 * n_windows))]
    lines = [
        f"fleet: {N_SESSIONS} interleaved sessions x {EPOCHS} epochs "
        f"(window {CONFIG['window_epochs']}, batch {BATCH_EPOCHS})",
        f"windows closed: {n_windows}  "
        f"(p50 {p50 * 1e3:.1f} ms, p99 {p99 * 1e3:.1f} ms per window)",
        f"shared cache: {stats['hits']} hits / {stats['misses']} misses, "
        f"{stats['design_entries']} design entries",
        "isolation: 3 sampled tenants byte-identical to lone engines",
        f"snapshot/restore: all {N_SESSIONS} resumed reports "
        "byte-identical to the uninterrupted fleet",
    ]
    if timing_enabled(benchmark):
        total = benchmark.stats["median"]
        lines.insert(
            1,
            f"throughput: {N_SESSIONS / total:.1f} sessions/s "
            f"({total:.2f}s for the fleet)",
        )
    save_result("E17 diagnosis-as-a-service fleet", "\n".join(lines))


def test_serve_backpressure_bounds_memory():
    """A tenant that never drains is refused at its budget — the
    pending buffer cannot grow past ``max_pending_epochs`` no matter
    how fast the producer pushes."""
    from repro.serve import BackpressureError

    with DiagnosisService(
        random_state=SEED, max_pending_epochs=2 * BATCH_EPOCHS, **CONFIG
    ) as service:
        session = service.open_session("greedy")
        accepted, rejected = 0, 0
        for batch in _stream(session.seed, "fault-storm"):
            try:
                session.submit(batch)
                accepted += 1
            except BackpressureError:
                rejected += 1
        assert session.pending_epochs <= 2 * BATCH_EPOCHS
        assert accepted == 2
        assert rejected == 1
