"""Run the repository benchmark and print its metrics.

    python3 perfbench/run.py --workload serve-fleet --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all            # every workload

Each workload run starts ``SETUP_SAMPLES`` fresh interpreters
(``perfbench/child.py``).  Every one is timed from spawn until it
reports that the program is imported and the workload's service or
engine is built: ``setup_s`` is their median.  The last one goes on to
measure a fixed number of whole cycles through the workload's suite of
content seeds, sized to ``--seconds`` on the tuning host (``--seed``
sets the order), and checks every output digest against
``reference.json``.

Time-based end-to-end metrics are in reference seconds: wall seconds
scaled by the machine's momentary speed, measured with a fixed kernel
next to each measurement (:mod:`perfbench.calibrate`); the wall values
are printed too.

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a traced run.  Human-readable lines (every metric
with its unit and sample count) come first; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  The exit code is 1 on a wrong output digest and 2
when a run cannot finish; spans of traced runs and scratch files go to
``.perfbench_out/`` at the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from perfbench.calibrate import REFERENCE_S, kernel_seconds  # noqa: E402
from perfbench.layers import PER_LAYER  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

SETUP_SAMPLES = 3
RUN_TIMEOUT_S = 170
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

#: ``(name, unit)`` of the end-to-end metrics every workload reports;
#: ``epochs_per_s`` on matrix-sweep counts scenario epochs swept on a
#: 2-worker pool, so it depends on the CPU count.
END_TO_END = (("setup_s", "s"), ("epochs_per_s", "1/s"), ("peak_rss_mb", "MB"))


class RunFailed(RuntimeError):
    """A child interpreter failed or ran out of time."""


def _spawn(argv: list[str], deadline: float):
    """Run a child to completion: ``(seconds to READY, RESULT or None)``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([os.path.join(ROOT, "src"), ROOT])
    start = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-m", "perfbench.child", *argv],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
    )
    timer = threading.Timer(max(deadline - perf_counter(), 0.0), proc.kill)
    timer.start()
    ready = result = None
    try:
        for line in proc.stdout:
            if line == "READY\n" and ready is None:
                ready = perf_counter() - start
            elif line.startswith("RESULT "):
                result = json.loads(line[len("RESULT "):])
            else:
                sys.stderr.write(line)
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if code != 0 or ready is None:
        raise RunFailed(f"child {' '.join(argv)} exited with {code}")
    return ready, result


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    deadline = perf_counter() + RUN_TIMEOUT_S
    argv = ["--workload", name, "--seed", str(seed), "--seconds",
            str(seconds), "--trace", str(trace), "--workdir", OUT_DIR]
    wall, kernel = [], []
    samples = 1 if trace else SETUP_SAMPLES  # traced runs report no setup_s
    for sample in range(samples):
        kernel.append(kernel_seconds())
        last = sample == samples - 1
        ready, result = _spawn(argv if last else argv + ["--setup-only"],
                               deadline)
        wall.append(ready)
    if result is None:
        raise RunFailed(f"{name}: no result")
    if not trace:
        # one slowdown for the whole set-up phase: the mean of the
        # kernel's median before the set-ups and the measured passes'
        # median right after them, since three kernel timings alone are
        # about as noisy as three set-ups
        slowdown = (statistics.median(kernel) / REFERENCE_S
                    + result["metrics"]["machine_slowdown"]["value"]) / 2
        median = statistics.median(wall)
        for key, value in (("setup_s", median / slowdown),
                           ("setup_wall_s", median)):
            result["metrics"][key] = {"value": value, "unit": "s",
                                      "n": len(wall)}
    return result


def _print_result(result: dict, trace: int) -> None:
    status = "ok" if result["correct"] else "MISMATCH"
    env = result["environment"]
    print(
        f"{result['workload']} seed={result['seed']} trace={trace} "
        f"passes={result['passes']} content seeds {result['content_seeds']} "
        f"output={status} | {env['cpus']} CPUs, "
        f"python {env['python']}, numpy {env['numpy']}"
    )
    for name, metric in result["metrics"].items():
        print(f"  {name:<28} {metric['value']:>16.6g} {metric['unit']:<6} "
              f"n={metric['n']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"perfbench: no program source under {ROOT}/src",
              file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    reported = PER_LAYER if args.trace else END_TO_END
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        try:
            result = run_workload(name, args.seed, args.seconds, args.trace)
        except RunFailed as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 2
        _print_result(result, args.trace)
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        prefix = "" if len(names) == 1 else f"{name}."
        for metric, *_ in reported:
            value = result["metrics"][metric]
            summary["metrics"][prefix + metric] = {
                "value": value["value"], "unit": value["unit"],
            }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
