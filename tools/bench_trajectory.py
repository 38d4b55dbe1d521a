#!/usr/bin/env python
"""Collect the bench-defined perf panel into ``BENCH_<pr>.json``, so
the perf trajectory is tracked across PRs.

Each row is measured by one function listed in its bench module's
``PANEL`` (E15, E16, E17, E19), which asserts the row's equality claim
and raises on a mismatch.  This tool only calls them, stamps the
environment and writes the document::

    PYTHONPATH=src python tools/bench_trajectory.py --pr N   # BENCH_N.json
    PYTHONPATH=src python tools/bench_trajectory.py --show   # measure nothing

``--pr`` defaults to the highest committed ``BENCH_<n>.json`` and
``--out`` writes elsewhere; ``--show`` prints every committed file as
one table.  Timings depend on the machine, recorded next to them, so
*equality* is the only hard claim to carry across files.
"""

from __future__ import annotations

import argparse
import glob
import importlib
import json
import os
import platform
import sys
from datetime import datetime, timezone

import numpy as np

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: v2 dropped v1's top-level ``config`` block: each row carries its
#: own ``rows``/``epochs``/``sessions`` fields.
SCHEMA_VERSION = 2


#: The bench modules whose ``PANEL`` rows make up the document.
PANEL_MODULES = (
    "bench_e15_inference",
    "bench_e16_treeshap",
    "bench_e17_serve",
    "bench_e19_chaos",
)


def collect() -> list[dict]:
    """Measure every bench panel row, in ``BENCH_10.json`` order."""
    sys.path[:0] = [
        os.path.join(REPO_ROOT, "src"),
        os.path.join(REPO_ROOT, "tests"),  # the oracles E16 times
        REPO_ROOT,
    ]
    return [
        row()
        for name in PANEL_MODULES
        for row in importlib.import_module(f"benchmarks.{name}").PANEL
    ]


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


def show_trajectory(paths) -> None:
    """Print the rows of the given BENCH JSON files as one table."""
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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="collect the bench-defined perf panel as JSON"
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
    parser.add_argument(
        "--show", action="store_true",
        help="print the trajectory from existing BENCH_*.json files",
    )
    args = parser.parse_args(argv)
    existing = _bench_files()
    if args.show:
        if not existing:
            print("no BENCH_*.json files found")
            return 1
        show_trajectory(existing)
        return 0
    if args.pr is None:
        if not existing:
            parser.error("no BENCH_*.json to infer --pr from; pass --pr N")
        args.pr = _pr_of(existing[-1])

    results = [
        {k: round(v, 6) if isinstance(v, float) else v for k, v in row.items()}
        for row in collect()
    ]
    doc = {
        "schema_version": SCHEMA_VERSION,
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
        "results": results,
    }
    out = args.out or os.path.join(REPO_ROOT, f"BENCH_{args.pr}.json")
    with open(out, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    show_trajectory([out])
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
