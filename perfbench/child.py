"""One benchmark run of one workload, in a fresh interpreter.

Started by ``perfbench/run.py``.  Prints ``READY`` once the program is
imported and the workload's service or engine is built (the parent
times set-up up to that line), then — unless ``--setup-only`` —
measures, checks every output digest and prints one ``RESULT {json}``
line.

Each workload's inputs are a fixed suite of ``suite`` fleets, streams
or sweeps (its content seeds), and a run is a fixed number of whole
cycles through the suite: pass ``k`` of a run seeded ``s`` diagnoses
content seed ``(s + k) % suite``.  So every run measures the same work
whatever the speed of the machine or the program, and ``--seed`` only
sets the order (the members' costs differ by more than a run-to-run
bound can absorb).  Every content seed's reference digest
is stored in ``reference.json``.

Untraced (``--trace 0``): as many cycles as fit ``--seconds`` on the
tuning host (at least one).  Traced (``--trace 1``): one cycle, an
untraced and a traced pass per content seed;
matrix-sweep takes its layer split from serial passes (wrappers do not
reach pool workers) and its ``executor.*`` numbers from one more
process-pool pass that wraps only the executor.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys

import numpy

from . import layers, stats, tracing
from .calibrate import REFERENCE_S, kernel_seconds
from .workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference.json")


def content_seed(name: str, seed: int, k: int) -> int:
    return (seed + k) % WORKLOADS[name].suite


def untraced_passes(name: str, seconds: float) -> int:
    """Passes of an untraced run: whole cycles through the suite, as
    many as fit ``seconds`` on the tuning host.  The count never depends
    on how fast this run goes; the parent's timeout is the only cap."""
    workload = WORKLOADS[name]
    return workload.suite * max(1, round(seconds / workload.cycle_s))


def _metric(value, unit: str, n: int) -> dict:
    return {"value": value, "unit": unit, "n": n}


def _calibrated(run):
    """``run()`` and the machine's slowdown against the reference
    (see :mod:`perfbench.calibrate`), timed right before and after."""
    before = kernel_seconds()
    result = run()
    return result, (before + kernel_seconds()) / 2 / REFERENCE_S


def _summary(passes, slowdowns) -> dict:
    """End-to-end metrics of the untraced passes, in reference seconds.

    Rates are total work over total time, so a run weighs its content
    seeds by how much work each one is.
    """
    epochs = sum(p.epochs for p in passes)
    ref_busy = [p.busy_s / s for p, s in zip(passes, slowdowns)]
    n = len(passes)
    metrics = {
        "epochs_per_s": _metric(epochs / sum(ref_busy), "1/s", n),
        "epochs_per_wall_s": _metric(
            epochs / sum(p.busy_s for p in passes), "1/s", n
        ),
        "machine_slowdown": _metric(statistics.median(slowdowns), "x", n),
    }
    latencies = [
        t / s for p, s in zip(passes, slowdowns) for t in p.latencies_s
    ]
    for q in (50, 95):
        try:
            value = stats.percentile(latencies, q)
        except stats.InsufficientSamples:
            continue  # too few windows in this run to report it
        metrics[f"window_p{q}_ms"] = _metric(value * 1e3, "ms", len(latencies))
    for key in ("snapshot_s", "restore_s"):
        values = [p.extra[key] / s for p, s in zip(passes, slowdowns)
                  if key in p.extra]
        if values:
            metrics[key] = _metric(statistics.median(values), "s", len(values))
    sizes = [p.extra["snapshot_bytes"] for p in passes
             if "snapshot_bytes" in p.extra]
    if sizes:
        metrics["snapshot_bytes"] = _metric(
            statistics.median(sizes), "bytes", len(sizes)
        )
    cells = sum(p.extra.get("cells", 0) for p in passes)
    if cells:
        metrics["cells_per_s"] = _metric(cells / sum(ref_busy), "1/s", n)
    return metrics


def _traced_pass(workload, inputs, workdir, plan, **kwargs):
    recorder = tracing.Recorder()
    installed = tracing.install(recorder, plan)
    try:
        result = workload.run_pass(inputs, recorder, workdir, **kwargs)
    finally:
        tracing.uninstall(installed)
    return result, recorder


def _layer_values(result, recorder) -> dict:
    counters = {**recorder.counters, **result.counters}
    return layers.layer_metrics(recorder.spans, counters, result.cache)


def _write_spans(path: str, traces) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for number, recorder in enumerate(traces):
            for span in recorder.spans:
                fh.write(json.dumps(
                    [number, span.name, span.start, span.end, span.parent]
                ) + "\n")


def run_untraced(name, seed, seconds, workdir, references):
    """Returns ``(passes, expected digests, metrics)``; pass ``k`` ran
    content seed ``content_seed(name, seed, k)``."""
    def one(k):
        workload = WORKLOADS[name](content_seed(name, seed, k))
        inputs = workload.make_inputs()
        result, slowdown = _calibrated(
            lambda: workload.run_pass(inputs, None, workdir)
        )
        return result, slowdown, references[str(workload.seed)]

    passes, slowdowns, expected = zip(
        *(one(k) for k in range(untraced_passes(name, seconds)))
    )
    return passes, expected, _summary(passes, slowdowns)


def run_traced(name, seed, workdir, references, spans_path):
    """An untraced and a traced pass per content seed; per-layer values
    are medians over the traced passes.  Returns what
    :func:`run_untraced` does, passes in pairs."""
    serial = {"backend": "serial"} if name == "matrix-sweep" else {}
    traces, per_pass = [], []

    def pair(k):
        workload = WORKLOADS[name](content_seed(name, seed, k))
        inputs = workload.make_inputs()
        plain = workload.run_pass(inputs, None, workdir, **serial)
        traced, recorder = _traced_pass(
            workload, inputs, workdir, layers.PLAN, **serial
        )
        values = _layer_values(traced, recorder)
        values["trace.overhead_share"] = traced.wall_s / plain.wall_s - 1
        traces.append(recorder)
        per_pass.append(values)
        digest = references[str(workload.seed)]
        return [(plain, digest), (traced, digest)]

    checked = [
        p for k in range(WORKLOADS[name].suite) for p in pair(k)
    ]
    per_layer = {
        metric: statistics.median(v[metric] for v in per_pass)
        for metric, _, _ in layers.PER_LAYER
    }
    if name == "matrix-sweep":
        workload = WORKLOADS[name](content_seed(name, seed, 0))
        pooled, recorder = _traced_pass(
            workload, workload.make_inputs(), workdir, layers.EXECUTOR_PLAN
        )
        checked.append((pooled, references[str(workload.seed)]))
        traces.append(recorder)
        values = _layer_values(pooled, recorder)
        per_layer.update({
            metric: values[metric] for metric, _, _ in layers.PER_LAYER
            if metric.startswith("executor.")
        })
    _write_spans(spans_path, traces)
    units = {metric: unit for metric, unit, _ in layers.PER_LAYER}
    passes, expected = zip(*checked)
    return passes, expected, {
        metric: _metric(value, units[metric], len(per_pass))
        for metric, value in per_layer.items()
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workdir", default=".")
    args = parser.parse_args(argv)

    WORKLOADS[args.workload](content_seed(args.workload, args.seed, 0)).setup()
    print("READY", flush=True)
    if args.setup_only:
        return 0

    with open(REFERENCE, encoding="utf-8") as fh:
        references = json.load(fh)[args.workload]
    if args.trace:
        spans_path = os.path.join(
            args.workdir, f"spans-{args.workload}-seed{args.seed}.jsonl"
        )
        passes, expected, metrics = run_traced(
            args.workload, args.seed, args.workdir, references, spans_path,
        )
    else:
        passes, expected, metrics = run_untraced(
            args.workload, args.seed, args.seconds, args.workdir, references
        )
        metrics["peak_rss_mb"] = _metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", 1
        )

    attempted = sum(p.attempted for p in passes)
    mismatched = [p.digest != digest for p, digest in zip(passes, expected)]
    failed = sum(p.failed_ops(m) for p, m in zip(passes, mismatched))
    if not args.trace:
        metrics["ops_failed_share"] = _metric(
            failed / attempted, "share", attempted
        )
    result = {
        "environment": {
            "cpus": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
        },
        "workload": args.workload,
        "seed": args.seed,
        "content_seeds": sorted(
            int(content) for content, digest in references.items()
            if digest in expected
        ),
        "passes": len(passes),
        "correct": not any(mismatched),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
