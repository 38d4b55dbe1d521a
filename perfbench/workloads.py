"""The benchmark's three workloads.

Each workload builds its inputs from its seed alone, runs one *pass*
over them — timed by the benchmark's own clock around each call into
the program — and hashes the program's deterministic output.  A pass
starts from a cold explainer cache, so it never profits from the pass
before it.

* ``serve-fleet`` — 100 tenants on one ``DiagnosisService`` (logistic
  regression + KernelSHAP, refit every second window), one window-long
  batch per call, snapshotted to disk and restored mid-stream.
* ``stream-treeshap`` — one ``StreamingDiagnosisEngine`` (random forest
  + TreeSHAP, rare refits) fed one epoch per batch.
* ``matrix-sweep`` — ``run_scenario_matrix`` over seven registered
  scenarios × random forest × {TreeSHAP, KernelSHAP} on a 2-worker
  process pool.

The loop is closed: a single client hands in one batch at a time and
waits for the result before sending the next.

Each workload's inputs are a fixed suite of ``suite`` content seeds,
and a run measures whole cycles through it (see ``perfbench/child.py``);
``cycle_s`` is how long one untraced cycle takes on the tuning host
(2 CPUs), which sizes the number of cycles to ``--seconds``.
"""

from __future__ import annotations

import hashlib
import math
import os
import sys
import traceback
from dataclasses import dataclass, field
from time import perf_counter

__all__ = ["WORKLOADS", "PassResult", "digest_of"]

FLEET_TENANTS = 100
FLEET_SCENARIOS = ("fault-storm", "bursty-traffic", "baseline")
FLEET_WINDOW = 16
FLEET_ROUNDS = 4  # window-long batches per tenant
FLEET_SNAPSHOT_ROUND = 2  # snapshot once every tenant has closed 2 windows
FLEET_ENGINE = dict(
    window_epochs=FLEET_WINDOW,
    refit_every=2,
    explain_per_window=2,
    explainer_method="kernel_shap",
    explainer_kwargs={"n_samples": 32},
)

STREAM_SCENARIO = "fault-storm"
STREAM_WINDOW = 96
STREAM_WINDOWS = 70  # three passes already give the 200 windows p95 needs
STREAM_ENGINE = dict(
    window_epochs=STREAM_WINDOW,
    refit_every=30,
    explainer_method="tree_shap",
    # fault-storm windows hold a median of 26-33 violations (up to 81):
    # the cap lets most windows explain every violation, so packed
    # TreeSHAP attribution is the largest layer
    explain_per_window=64,
    max_history=384,
)

# every registered scenario but long-chain, whose SLA-violation count
# reaches zero at some seeds (content seed 20), where a classifier
# cannot be trained and the whole sweep stops with a ValueError
MATRIX_SCENARIOS = (
    "baseline", "bursty-traffic", "cascading-overload", "diurnal",
    "fault-storm", "heterogeneous-servers", "noisy-telemetry",
)
MATRIX_EXPLAINERS = ("tree_shap", "kernel_shap")
MATRIX_EPOCHS = 500
MATRIX_EXPLAIN = 4
MATRIX_WORKERS = 2


def digest_of(texts) -> str:
    """SHA-256 over the program's output texts, in order."""
    h = hashlib.sha256()
    for text in texts:
        h.update(text.encode())
        h.update(b"\0")
    return h.hexdigest()


@dataclass
class PassResult:
    """What one pass did, as seen from outside the program.

    ``busy_s`` is the time spent inside the calls that diagnose
    telemetry (snapshot and restore excluded); ``wall_s`` is the whole
    driven region, the denominator of the tracing overhead.  A failed
    or refused window appears in ``latencies_s`` as ``inf``.
    ``failed`` counts every failed operation once; ``failed_outputs``
    is the part of it that are output operations (windows or cells).
    """

    digest: str
    epochs: int
    busy_s: float
    wall_s: float
    attempted: int
    failed: int
    output_ops: int  # operations a wrong digest fails
    failed_outputs: int = 0
    latencies_s: list = field(default_factory=list)
    extra: dict = field(default_factory=dict)
    counters: dict = field(default_factory=dict)
    cache: dict = field(default_factory=dict)

    def failed_ops(self, mismatched: bool) -> int:
        """Failed operations, each counted once: a wrong digest fails
        every output operation, whether or not it had failed already."""
        if not mismatched:
            return self.failed
        return self.failed - self.failed_outputs + self.output_ops


class _Phase:
    """Times a pass with the benchmark's clock; the root span
    ``bench.pass`` when a recorder is tracing."""

    def __init__(self, recorder):
        self.recorder = recorder

    def __enter__(self):
        self.index = self.recorder.enter("bench.pass") if self.recorder else None
        self.start = perf_counter()
        return self

    def __exit__(self, *exc_info):
        self.seconds = perf_counter() - self.start
        if self.recorder:
            self.recorder.exit(self.index)


def _cold_cache() -> dict:
    from repro.core.cache import cache_stats, clear_cache

    clear_cache()
    return cache_stats()


def _cache_delta(before: dict) -> dict:
    from repro.core.cache import cache_stats

    after = cache_stats()
    return {
        key: after[key] - before[key]
        for key in ("hits", "misses", "evictions", "token_evictions")
    }


def _clean(result: PassResult) -> str:
    """The digest of a reference pass, which must not have failed."""
    if result.failed:
        raise RuntimeError(
            f"reference pass failed {result.failed} of {result.attempted} "
            "operations; no digest recorded"
        )
    return result.digest


def _report_failure(where: str, exc: BaseException, seen: set) -> None:
    """Print the first failure of each kind; the count goes in the result."""
    kind = type(exc).__name__
    if kind not in seen:
        seen.add(kind)
        print(f"[perfbench] {where}: {kind}: {exc}", file=sys.stderr)
        traceback.print_exc()


# ----------------------------------------------------------------------
class ServeFleet:
    name = "serve-fleet"
    suite = 4  # content seeds: a pass of 100 tenants takes 4-5 s
    cycle_s = 20.0  # one untraced cycle through the suite, tuning host

    def __init__(self, seed: int):
        self.seed = seed
        self.names = [f"tenant-{i:03d}" for i in range(FLEET_TENANTS)]

    def _service(self):
        from repro.serve import DiagnosisService

        service = DiagnosisService(
            random_state=self.seed,
            backend="serial",
            max_pending_epochs=4 * FLEET_WINDOW,
            **FLEET_ENGINE,
        )
        for name in self.names:
            service.open_session(name)
        return service

    def setup(self):
        self._service().close()

    def make_inputs(self):
        from repro.datasets import stream_scenario_telemetry
        from repro.utils.rng import spawn_seeds

        # tenant i's engine seed is spawn_seeds(service seed, i + 1)[i],
        # which is prefix-stable; its telemetry is drawn from that seed
        seeds = spawn_seeds(self.seed, FLEET_TENANTS)
        return {
            name: list(stream_scenario_telemetry(
                FLEET_SCENARIOS[i % len(FLEET_SCENARIOS)],
                FLEET_ROUNDS * FLEET_WINDOW,
                batch_epochs=FLEET_WINDOW,
                random_state=seeds[i],
            ))
            for i, name in enumerate(self.names)
        }

    def run_pass(self, inputs, recorder=None, workdir=".",
                 *, snapshot_round=FLEET_SNAPSHOT_ROUND) -> PassResult:
        from repro import serve

        before = _cold_cache()
        service = self._service()
        path = os.path.join(workdir, f"fleet-{os.getpid()}.snapshot")
        latencies, busy, attempted, failed, refused = [], 0.0, 0, 0, 0
        failed_windows = 0
        extra, seen = {}, set()
        try:
            with _Phase(recorder) as whole:
                for round_ in range(FLEET_ROUNDS):
                    if round_ == snapshot_round:
                        start = perf_counter()
                        serve.save_snapshot(service.snapshot(), path)
                        extra["snapshot_s"] = perf_counter() - start
                        extra["snapshot_bytes"] = os.path.getsize(path)
                        service.close()
                        start = perf_counter()
                        service = serve.DiagnosisService.restore(
                            serve.load_snapshot(path), backend="serial"
                        )
                        extra["restore_s"] = perf_counter() - start
                    for name in self.names:
                        attempted += 2  # the batch, and the window it closes
                        start = perf_counter()
                        try:
                            windows = service.process(name, inputs[name][round_])
                        except serve.BackpressureError as exc:
                            refused += 1
                            windows = None
                            _report_failure(name, exc, seen)
                        except Exception as exc:  # counted, run continues
                            windows = None
                            _report_failure(name, exc, seen)
                        elapsed = perf_counter() - start
                        busy += elapsed
                        if windows is None:
                            failed += 2
                        elif len(windows) != 1:
                            failed += 1
                        if windows is None or len(windows) != 1:
                            failed_windows += 1
                            latencies.append(math.inf)
                        else:
                            latencies.append(elapsed)
                start = perf_counter()
                service.flush_all()
                busy += perf_counter() - start
            quarantined = len(service.health_report().quarantined)
            tables = [
                f"{name}\n{service.report(name).format_table(timing=False)}"
                for name in self.names
            ]
        finally:
            service.close()
            if os.path.exists(path):
                os.remove(path)
        return PassResult(
            digest=digest_of(tables),
            epochs=FLEET_TENANTS * FLEET_ROUNDS * FLEET_WINDOW,
            busy_s=busy,
            wall_s=whole.seconds,
            attempted=attempted,
            failed=failed,
            output_ops=FLEET_TENANTS * FLEET_ROUNDS,
            failed_outputs=failed_windows,
            latencies_s=latencies,
            extra=extra,
            counters={"serve.refused": refused,
                      "serve.quarantined": quarantined},
            cache=_cache_delta(before),
        )

    def reference_digest(self, inputs, workdir=".") -> str:
        """The same fleet, never interrupted."""
        return _clean(self.run_pass(inputs, None, workdir, snapshot_round=None))


# ----------------------------------------------------------------------
class StreamTreeShap:
    name = "stream-treeshap"
    suite = 6  # generating a stream takes about as long as a pass
    cycle_s = 20.0

    def __init__(self, seed: int):
        self.seed = seed

    def _engine(self):
        from repro.core.matrix import default_model_factories
        from repro.core.stream import StreamingDiagnosisEngine

        return StreamingDiagnosisEngine(
            default_model_factories()["random_forest"],
            random_state=self.seed,
            **STREAM_ENGINE,
        )

    def setup(self):
        from repro.core.executor import get_executor

        self._engine()
        get_executor("serial").close()

    def _stream(self, batch_epochs: int):
        from repro.datasets import stream_scenario_telemetry

        return stream_scenario_telemetry(
            STREAM_SCENARIO, STREAM_WINDOW * STREAM_WINDOWS,
            batch_epochs=batch_epochs, random_state=self.seed,
        )

    def make_inputs(self):
        return list(self._stream(batch_epochs=1))

    @staticmethod
    def _table(engine) -> str:
        from repro.core.stream import StreamReport

        return StreamReport(
            windows=engine.windows,
            window_epochs=engine.window_epochs,
            refit_every=engine.refit_every,
            explainer=engine.explainer_method,
        ).format_table(timing=False)

    def run_pass(self, inputs, recorder=None, workdir=".") -> PassResult:
        from repro.core.executor import get_executor

        before = _cold_cache()
        engine = self._engine()
        latencies, busy, attempted, failed, seen = [], 0.0, 0, 0, set()
        with get_executor("serial") as executor, _Phase(recorder) as whole:
            for batch in inputs:
                attempted += 1
                start = perf_counter()
                try:
                    windows = engine.process_batch(batch, executor)
                except Exception as exc:  # counted, run continues
                    windows = None
                    _report_failure("process_batch", exc, seen)
                elapsed = perf_counter() - start
                busy += elapsed
                if windows is None:
                    failed += 1
                elif windows:
                    latencies.append(elapsed)
            start = perf_counter()
            engine.flush(executor)
            busy += perf_counter() - start
        missing = max(STREAM_WINDOWS - len(engine.windows), 0)
        latencies.extend([math.inf] * missing)
        return PassResult(
            digest=digest_of([self._table(engine)]),
            epochs=STREAM_WINDOW * STREAM_WINDOWS,
            busy_s=busy,
            wall_s=whole.seconds,
            attempted=attempted + STREAM_WINDOWS,
            failed=failed + missing,
            output_ops=STREAM_WINDOWS,
            failed_outputs=missing,
            latencies_s=latencies,
            cache=_cache_delta(before),
        )

    def reference_digest(self, inputs, workdir=".") -> str:
        """The same telemetry regenerated in batches of 20 windows and
        run through ``StreamingDiagnosisEngine.run``."""
        engine = self._engine()
        engine.run(self._stream(batch_epochs=20 * STREAM_WINDOW))
        if len(engine.windows) != STREAM_WINDOWS:
            raise RuntimeError(
                f"reference stream closed {len(engine.windows)} of "
                f"{STREAM_WINDOWS} windows; no digest recorded"
            )
        return digest_of([self._table(engine)])


# ----------------------------------------------------------------------
class MatrixSweep:
    name = "matrix-sweep"
    suite = 8
    cycle_s = 22.0

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self):
        from repro.core import matrix
        from repro.core.executor import get_executor

        matrix.default_model_factories()
        get_executor("process", MATRIX_WORKERS).close()

    def make_inputs(self):
        return MATRIX_SCENARIOS

    def run_pass(self, inputs, recorder=None, workdir=".",
                 *, backend="process") -> PassResult:
        from repro.core import matrix

        before = _cold_cache()
        # shards memoize datasets per process; a pass must regenerate them
        matrix._scenario_dataset.cache_clear()
        factory = matrix.default_model_factories()["random_forest"]
        expected = len(inputs) * len(MATRIX_EXPLAINERS)
        report, seen = None, set()
        with _Phase(recorder) as whole:
            try:
                report = matrix.run_scenario_matrix(
                    inputs, {"random_forest": factory}, MATRIX_EXPLAINERS,
                    n_epochs=MATRIX_EPOCHS, n_explain=MATRIX_EXPLAIN,
                    random_state=self.seed, backend=backend,
                    workers=MATRIX_WORKERS,
                )
            except Exception as exc:  # counted, run continues
                _report_failure("run_scenario_matrix", exc, seen)
        cells = len(report.cells) if report is not None else 0
        return PassResult(
            digest=digest_of(
                [report.format_table(timing=False)] if report else []
            ),
            epochs=len(inputs) * MATRIX_EPOCHS,
            busy_s=whole.seconds,
            wall_s=whole.seconds,
            attempted=expected,
            failed=expected - cells,
            output_ops=expected,
            failed_outputs=expected - cells,
            extra={"cells": cells},
            counters={
                "matrix.cells": cells,
                "matrix.shards": len({(c.scenario, c.model)
                                      for c in report.cells}) if report else 0,
            },
            cache=_cache_delta(before),
        )

    def reference_digest(self, inputs, workdir=".") -> str:
        """The same sweep on the serial backend."""
        return _clean(self.run_pass(inputs, None, workdir, backend="serial"))


WORKLOADS = {w.name: w for w in (ServeFleet, StreamTreeShap, MatrixSweep)}
