#!/usr/bin/env python
"""Record the repo's headline performance numbers as machine-readable
``BENCH_<pr>.json`` files, so the perf trajectory is tracked across
PRs instead of living only in prose and benchmark stdout.

Each run measures the packed-vs-legacy A/B panel that PR 5 introduced
(forest ``predict_proba``, boosting margin, KernelSHAP-over-forest
batch explanation) plus the vectorized TreeSHAP panel PR 6 added
(path-dependent and interventional batches vs the legacy per-row
recursions, and the derived exact-vs-sampled attribution ratio) plus
the multi-tenant serve panel PR 8 added (a 100-session interleaved
fleet through one ``DiagnosisService``: sessions/sec, p50/p99 window
latency, and byte-identical snapshot/restore as the equality claim)
plus the resilience panel PR 10 added (the ``ResilientExecutor``
wrapper tax on a fault-free streaming run, and a full chaos storm —
transient faults on every task attempt, a corrupted duplicate of every
batch — whose report must come back byte-identical to the fault-free
run) with best-of-N wall clocks, asserts output equality, and writes
one JSON document::

    PYTHONPATH=src python tools/bench_trajectory.py --pr 5

appends nothing and overwrites ``BENCH_5.json`` deterministically
(modulo timings).  Future PRs record ``BENCH_6.json`` and so on; the
accumulated files are the trajectory::

    PYTHONPATH=src python tools/bench_trajectory.py --show

prints every ``BENCH_*.json`` found in the repo root as a table.

Timings are environment-dependent (CI containers differ from the
authoring machine); the JSON therefore records the environment next
to the numbers, and *equality* is the only hard claim a reader should
carry across files.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import sys
from datetime import datetime, timezone

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))
sys.path.insert(0, os.path.join(REPO_ROOT, "tests"))
sys.path.insert(0, REPO_ROOT)

import numpy as np  # noqa: E402  (path set up first)

# the legacy reference loops and the timing primitive are defined once,
# in bench E15 and benchmarks/_util — the tool and the bench must
# measure the identical baseline with the identical clock
from benchmarks._util import timed  # noqa: E402
from benchmarks.bench_e6_inference import (  # noqa: E402
    legacy_boosting_raw as _legacy_boosting_raw,
    legacy_forest_proba as _legacy_forest_proba,
)
# the TreeSHAP baseline arms are the per-tree recursions the packed
# kernels must reproduce, the same oracle the tests and bench E16 use
from oracles.tree_shap_recursion import reference_batch  # noqa: E402
from repro.core.cache import clear_cache  # noqa: E402
from repro.core.explainers import (  # noqa: E402
    InterventionalTreeShapExplainer,
    KernelShapExplainer,
    TreeShapExplainer,
    model_output_fn,
)
from repro.datasets import make_sla_violation_dataset  # noqa: E402
from repro.ml import (  # noqa: E402
    GradientBoostingClassifier,
    RandomForestClassifier,
)
from repro.ml.model_selection import train_test_split  # noqa: E402


def _best_of(fn, repeats):
    best = float("inf")
    result = None
    for _ in range(repeats):
        result, elapsed = timed(fn)
        best = min(best, elapsed)
    return result, best


def _ab(name, packed_fn, legacy_fn, *, repeats, legacy_repeats=None,
        equal_fn=np.array_equal, **extra):
    packed_out, packed_s = _best_of(packed_fn, repeats)
    legacy_out, legacy_s = _best_of(legacy_fn, legacy_repeats or repeats)
    equal = bool(equal_fn(packed_out, legacy_out))
    if not equal:
        raise AssertionError(f"{name}: packed output != legacy output")
    return {
        "name": name,
        "legacy_seconds": round(legacy_s, 6),
        "packed_seconds": round(packed_s, 6),
        "speedup": round(legacy_s / packed_s, 3),
        "exact_equal": equal,
        **extra,
    }


def measure(rows: int, kernel_rows: int, repeats: int) -> list[dict]:
    dataset = make_sla_violation_dataset(
        n_epochs=4000, horizon=1, random_state=2020
    )
    X_train, X_test, y_train, _ = train_test_split(
        dataset.X.values, dataset.y, test_size=0.3,
        random_state=0, stratify=dataset.y,
    )
    gen = np.random.default_rng(0)
    fleet = np.ascontiguousarray(
        X_train[gen.integers(0, len(X_train), size=rows)]
    )

    forest = RandomForestClassifier(
        n_estimators=60, max_depth=10, random_state=0
    ).fit(X_train, y_train)
    _, pack_seconds = _best_of(
        lambda: (forest._invalidate_packed(), forest.packed_ensemble())[1],
        repeats,
    )
    results = [
        {
            "name": "packed_build",
            "packed_seconds": round(pack_seconds, 6),
            "n_trees": forest.n_estimators,
        },
        _ab(
            "forest_predict_proba",
            lambda: forest.predict_proba(fleet),
            lambda: _legacy_forest_proba(forest, fleet),
            repeats=repeats,
            rows=rows,
        ),
    ]

    boosting = GradientBoostingClassifier(
        n_estimators=100, max_depth=3, random_state=0
    ).fit(X_train, y_train)
    boosting.packed_ensemble()
    results.append(
        _ab(
            "boosting_margin",
            lambda: boosting.decision_function(fleet),
            lambda: _legacy_boosting_raw(boosting, fleet),
            repeats=repeats,
            rows=rows,
        )
    )

    import types

    legacy_forest = RandomForestClassifier(
        n_estimators=60, max_depth=10, random_state=0
    ).fit(X_train, y_train)
    legacy_forest.predict_proba = types.MethodType(
        _legacy_forest_proba, legacy_forest
    )
    names = dataset.feature_names
    background = X_train[:60]
    explained = X_test[:kernel_rows]

    def kernel_batch(model):
        clear_cache()
        explainer = KernelShapExplainer(
            model_output_fn(model), background, names,
            n_samples=256, random_state=0,
        )
        return explainer.explain_batch(explained).values

    results.append(
        _ab(
            "kernel_shap_batch_forest",
            lambda: kernel_batch(forest),
            lambda: kernel_batch(legacy_forest),
            repeats=1,  # the explain loop is slow and internally stable
            rows=kernel_rows,
            n_samples=256,
        )
    )
    kernel_row = results[-1]

    # PR 6: vectorized TreeSHAP on the packed node block vs the legacy
    # per-row recursions.  Attributions are reassociated floats, so
    # equality here is <= 1e-10 rather than bitwise.
    def shap_close(a, b):
        return np.allclose(a, b, atol=1e-10)

    tree_explainer = TreeShapExplainer(forest, names, class_index=1)
    forest.packed_ensemble().path_table()  # build once, untimed
    results.append(
        _ab(
            "tree_shap_batch_forest",
            lambda: tree_explainer.explain_batch(explained).values,
            lambda: reference_batch(tree_explainer, explained).values,
            repeats=repeats,
            legacy_repeats=1,  # the recursion loop is slow and stable
            equal_fn=shap_close,
            rows=kernel_rows,
        )
    )
    tree_row = results[-1]

    interventional = InterventionalTreeShapExplainer(
        forest, X_train[:20], names, class_index=1
    )
    results.append(
        _ab(
            "interventional_tree_shap",
            lambda: interventional.explain_batch(explained[:8]).values,
            lambda: reference_batch(interventional, explained[:8]).values,
            repeats=repeats,
            legacy_repeats=1,
            equal_fn=shap_close,
            rows=8,
            n_background=20,
        )
    )

    # the headline exact-vs-sampled ratio: vectorized TreeSHAP against
    # the packed KernelSHAP batch at the identical 16-row configuration
    results.append(
        {
            "name": "tree_shap_vs_kernel_shap",
            "legacy_seconds": kernel_row["packed_seconds"],
            "packed_seconds": tree_row["packed_seconds"],
            "speedup": round(
                kernel_row["packed_seconds"] / tree_row["packed_seconds"], 3
            ),
            "derived": True,
            "rows": kernel_rows,
        }
    )
    return results


def measure_serve(sessions: int, serve_epochs: int) -> list[dict]:
    """PR 8 panel: the multi-tenant serve fleet.

    Times a ``sessions``-tenant interleaved run through one
    :class:`~repro.serve.DiagnosisService` (shared executor + explainer
    cache), reports sessions/sec and the p50/p99 per-window latency,
    and asserts — as the panel's hard equality claim — that restoring
    the fleet from a mid-stream snapshot reproduces every tenant's
    report byte-identically.
    """
    import pickle

    from repro.datasets import stream_scenario_telemetry
    from repro.serve import DiagnosisService, interleave

    config = dict(
        window_epochs=16,
        refit_every=2,
        explain_per_window=2,
        explainer_kwargs={"n_samples": 32},
        random_state=2020,
        max_pending_epochs=64,
    )
    batch_epochs = 16
    snapshot_epoch = serve_epochs - batch_epochs
    scenarios = ("fault-storm", "bursty-traffic", "baseline")

    def streams(svc, skip_before=0):
        out = {}
        for name in svc.session_names:
            session = svc.session(name)
            scenario = scenarios[session.tenant_index % len(scenarios)]
            stream = stream_scenario_telemetry(
                scenario, serve_epochs, batch_epochs=batch_epochs,
                random_state=session.seed,
            )
            if skip_before:
                stream = (
                    b for b in stream if b.start_epoch >= skip_before
                )
            out[name] = stream
        return out

    def run_fleet():
        clear_cache()
        with DiagnosisService(**config) as svc:
            for i in range(sessions):
                svc.open_session(f"tenant-{i:03d}")
            interleave(svc, streams(svc))
            svc.flush_all()
            windows = [
                w
                for name in svc.session_names
                for w in svc.session(name).windows
            ]
            tables = {
                name: svc.report(name).format_table(timing=False)
                for name in svc.session_names
            }
        return tables, windows

    (tables, windows), fleet_seconds = timed(run_fleet)

    # snapshot/restore equality — the panel's exact_equal claim
    clear_cache()
    with DiagnosisService(**config) as svc:
        for i in range(sessions):
            svc.open_session(f"tenant-{i:03d}")
        interleave(svc, streams(svc), until_epoch=snapshot_epoch)
        blob = pickle.dumps(svc.snapshot())
    restored = DiagnosisService.restore(pickle.loads(blob))
    with restored:
        interleave(restored, streams(restored, skip_before=snapshot_epoch))
        restored.flush_all()
        resumed = {
            name: restored.report(name).format_table(timing=False)
            for name in restored.session_names
        }
    if resumed != tables:
        raise AssertionError(
            "serve panel: restored-from-snapshot fleet reports differ "
            "from the uninterrupted fleet"
        )

    latencies = sorted(w.seconds for w in windows)
    p50 = latencies[len(latencies) // 2]
    p99 = latencies[min(len(latencies) - 1, int(0.99 * len(latencies)))]
    return [
        {
            "name": "serve_fleet_sessions",
            "packed_seconds": round(fleet_seconds, 6),
            "sessions": sessions,
            "epochs_per_session": serve_epochs,
            "sessions_per_sec": round(sessions / fleet_seconds, 2),
            "windows": len(latencies),
            "p50_window_seconds": round(p50, 6),
            "p99_window_seconds": round(p99, 6),
            "exact_equal": True,  # snapshot/restore equality asserted above
        },
    ]


def measure_chaos(chaos_epochs: int, repeats: int) -> list[dict]:
    """PR 10 panel: fault tolerance as a measurable claim.

    Two rows.  ``resilient_executor_overhead`` A/Bs a fault-free
    streaming run through the plain serial executor against the same
    run wrapped in :class:`~repro.resilience.ResilientExecutor` (no
    faults firing) — the wrapper tax, with byte-equality of the two
    reports as the panel's hard claim.  ``chaos_storm_recovery`` then
    drives the run through a worst-case storm (transient fault on every
    task attempt, a corrupted duplicate shadowing every batch, skipped
    under ``on_malformed="skip"``) and asserts the final report is
    *still* byte-identical to the fault-free one.
    """
    from repro.chaos import ChaosFault, ChaosPolicy
    from repro.core.stream import StreamingDiagnosisEngine
    from repro.datasets import stream_scenario_telemetry
    from repro.resilience import ResilientExecutor

    config = dict(
        window_epochs=48,
        refit_every=2,
        explain_per_window=24,
        explainer_kwargs={"n_samples": 32},
        random_state=2020,
    )

    def stream():
        return stream_scenario_telemetry(
            "fault-storm", chaos_epochs, batch_epochs=48,
            random_state=2020,
        )

    def run_plain():
        clear_cache()
        report = StreamingDiagnosisEngine(**config).run(stream())
        return report.format_table(timing=False)

    def run_resilient():
        clear_cache()
        engine = StreamingDiagnosisEngine(**config)
        with ResilientExecutor("serial", retries=2) as executor:
            report = engine.run(stream(), executor=executor)
        return report.format_table(timing=False)

    storm_events = {}

    def run_storm():
        clear_cache()
        policy = ChaosPolicy(
            0,
            [
                ChaosFault("transient", 1.0, attempts=1),
                ChaosFault("corrupt-batch", 1.0),
            ],
        )
        engine = StreamingDiagnosisEngine(on_malformed="skip", **config)
        with ResilientExecutor(
            "serial", retries=3, chaos=policy
        ) as executor:
            report = engine.run(
                policy.corrupt_stream(stream()), executor=executor
            )
        storm_events["task_retries"] = sum(
            1 for e in executor.events if e.kind == "task-retry"
        )
        storm_events["skipped_batches"] = sum(
            1 for e in report.events if e.kind == "skipped-batch"
        )
        return report.format_table(timing=False)

    results = [
        _ab(
            "resilient_executor_overhead",
            run_resilient,
            run_plain,
            repeats=repeats,
            equal_fn=lambda a, b: a == b,
            epochs=chaos_epochs,
        ),
        _ab(
            "chaos_storm_recovery",
            run_storm,
            run_plain,
            repeats=repeats,
            equal_fn=lambda a, b: a == b,
            epochs=chaos_epochs,
        ),
    ]
    if storm_events["task_retries"] == 0:
        raise AssertionError("chaos panel: the storm never injected a fault")
    results[-1].update(storm_events)
    return results


def _bench_files() -> list[str]:
    """``BENCH_<n>.json`` files in PR order (numeric, not lexicographic,
    so BENCH_12 sorts after BENCH_5)."""
    paths = glob.glob(os.path.join(REPO_ROOT, "BENCH_*.json"))
    return sorted(paths, key=lambda p: _pr_of(p))


def _pr_of(path: str) -> int:
    stem = os.path.basename(path)[len("BENCH_"):-len(".json")]
    try:
        return int(stem)
    except ValueError:
        return -1


def show_trajectory() -> int:
    paths = _bench_files()
    if not paths:
        print("no BENCH_*.json files found")
        return 1
    print(f"{'file':<14} {'pr':>3}  {'benchmark':<26} {'speedup':>8} {'packed':>9}")
    print("-" * 66)
    for path in paths:
        with open(path) as fh:
            doc = json.load(fh)
        for row in doc.get("results", []):
            speedup = row.get("speedup")
            seconds = row.get("packed_seconds")
            print(
                f"{os.path.basename(path):<14} {doc.get('pr', '?'):>3}  "
                f"{row['name']:<26} "
                f"{'' if speedup is None else f'{speedup:.2f}x':>8} "
                f"{'' if seconds is None else f'{seconds:.3f}s':>9}"
            )
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="record packed-vs-legacy inference benchmarks as JSON"
    )
    parser.add_argument(
        "--pr", type=int, default=None,
        help="PR number to tag (default: the highest existing "
             "BENCH_<n>.json, so CI re-measures the latest panel "
             "without hardcoding a number)",
    )
    parser.add_argument(
        "--out", default=None,
        help="output path (default: <repo>/BENCH_<pr>.json)",
    )
    parser.add_argument("--rows", type=int, default=8192)
    parser.add_argument(
        "--kernel-rows", type=int, default=16,
        help="explained instances in the KernelSHAP end-to-end panel",
    )
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument(
        "--serve-sessions", type=int, default=100,
        help="tenant sessions in the multi-tenant serve panel "
             "(0 disables the panel)",
    )
    parser.add_argument(
        "--serve-epochs", type=int, default=48,
        help="streaming epochs per tenant in the serve panel",
    )
    parser.add_argument(
        "--chaos-epochs", type=int, default=192,
        help="streaming epochs in the resilience/chaos panel "
             "(0 disables the panel)",
    )
    parser.add_argument(
        "--show", action="store_true",
        help="print the trajectory from existing BENCH_*.json files",
    )
    args = parser.parse_args(argv)
    if args.show:
        return show_trajectory()
    if args.pr is None:
        existing = _bench_files()
        if not existing:
            parser.error("no BENCH_*.json to infer --pr from; pass --pr N")
        args.pr = _pr_of(existing[-1])

    results = measure(args.rows, args.kernel_rows, args.repeats)
    if args.serve_sessions > 0:
        results.extend(
            measure_serve(args.serve_sessions, args.serve_epochs)
        )
    if args.chaos_epochs > 0:
        results.extend(measure_chaos(args.chaos_epochs, args.repeats))
    doc = {
        "schema_version": 1,
        "pr": args.pr,
        "generated": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            # sched_getaffinity is Linux-only
            "cpus": (
                len(os.sched_getaffinity(0))
                if hasattr(os, "sched_getaffinity")
                else os.cpu_count()
            ),
        },
        "config": {
            "rows": args.rows,
            "kernel_rows": args.kernel_rows,
            "repeats": args.repeats,
            "serve_sessions": args.serve_sessions,
            "serve_epochs": args.serve_epochs,
            "chaos_epochs": args.chaos_epochs,
        },
        "results": results,
    }
    out = args.out or os.path.join(REPO_ROOT, f"BENCH_{args.pr}.json")
    with open(out, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    for row in results:
        speedup = row.get("speedup")
        tail = f"{speedup:.2f}x" if speedup is not None else ""
        print(f"{row['name']:<26} packed {row['packed_seconds']:.3f}s  {tail}")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
