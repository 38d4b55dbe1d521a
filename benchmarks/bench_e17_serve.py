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
  PRs by ``tools/bench_trajectory.py``, which calls
  :func:`serve_fleet_sessions`, into ``BENCH_<n>.json``).

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
from repro.utils.clock import timed

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


def _stream(seed: int, scenario: str):
    return stream_scenario_telemetry(
        scenario, EPOCHS, batch_epochs=BATCH_EPOCHS, random_state=seed
    )


def _open_fleet(service) -> list:
    return [
        service.open_session(f"tenant-{i:03d}") for i in range(N_SESSIONS)
    ]


def _fleet_streams(sessions, start_epoch=0) -> dict:
    """Each session's telemetry from ``start_epoch`` on."""
    streams = {}
    for s in sessions:
        scenario = SCENARIOS[s.tenant_index % len(SCENARIOS)]
        streams[s.name] = (
            b for b in _stream(s.seed, scenario)
            if b.start_epoch >= start_epoch
        )
    return streams


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
        return _tables(service), windows


def serve_fleet_sessions() -> dict:
    """BENCH row: the fleet's wall clock, sessions/s and p50/p99
    per-window latency; ``exact_equal`` is the snapshot/restore claim."""
    (tables, windows), seconds = timed(_run_full_fleet)

    # isolation: sampled tenants vs lone engines with the same seeds
    with DiagnosisService(random_state=SEED, **CONFIG) as probe:
        sampled = _open_fleet(probe)[:: N_SESSIONS // 3][:3]
    streams = _fleet_streams(sampled)
    for s in sampled:
        engine = StreamingDiagnosisEngine(random_state=s.seed, **CONFIG)
        lone = engine.run(streams[s.name])
        assert tables[s.name] == lone.format_table(timing=False), (
            f"{s.name} diverged from its isolated serial run"
        )

    # snapshot/restore: interrupt ALL sessions, pickle, restore, finish
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
        sessions = [restored.session(n) for n in restored.session_names]
        assert all(s.epochs_seen == SNAPSHOT_EPOCH for s in sessions)
        interleave(restored, _fleet_streams(sessions, SNAPSHOT_EPOCH))
        restored.flush_all()
        resumed = _tables(restored)
    assert set(resumed) == set(tables)
    for name, table in tables.items():
        assert resumed[name] == table, (
            f"{name}: restored-from-snapshot report != uninterrupted report"
        )

    latencies = sorted(w.seconds for w in windows)
    n_windows = len(latencies)
    return {
        "name": "serve_fleet_sessions",
        "packed_seconds": seconds,
        "sessions": N_SESSIONS,
        "epochs_per_session": EPOCHS,
        "sessions_per_sec": N_SESSIONS / seconds,
        "windows": n_windows,
        "p50_window_seconds": latencies[n_windows // 2],
        "p99_window_seconds": latencies[
            min(n_windows - 1, int(0.99 * n_windows))
        ],
        "exact_equal": True,
    }


PANEL = (serve_fleet_sessions,)


def test_serve_fleet_sessions(benchmark):
    row = benchmark.pedantic(serve_fleet_sessions, rounds=1, iterations=1)
    lines = [
        f"fleet: {N_SESSIONS} interleaved sessions x {EPOCHS} epochs "
        f"(window {CONFIG['window_epochs']}, batch {BATCH_EPOCHS})",
        f"windows closed: {row['windows']}  "
        f"(p50 {row['p50_window_seconds'] * 1e3:.1f} ms, "
        f"p99 {row['p99_window_seconds'] * 1e3:.1f} ms per window)",
        "isolation: 3 sampled tenants byte-identical to lone engines",
        f"snapshot/restore: all {N_SESSIONS} resumed reports "
        "byte-identical to the uninterrupted fleet",
    ]
    if timing_enabled(benchmark):
        lines.insert(
            1,
            f"throughput: {row['sessions_per_sec']:.1f} sessions/s "
            f"({row['packed_seconds']:.2f}s for the fleet)",
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
