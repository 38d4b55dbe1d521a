"""Record the reference output digests the benchmark checks against.

    PYTHONPATH=src:. python3 -m perfbench.record_reference [workload ...]

Records every content seed ``0..suite - 1`` (see
``perfbench/child.py``) of the named workloads (default: every
workload) into ``perfbench/reference.json``.  Each digest comes from
the workload's reference path (the fleet never interrupted, the stream
regenerated in large batches and run through
``StreamingDiagnosisEngine.run``, the matrix on the serial backend),
never from the path the benchmark times.  Re-record only when a change
to the program is meant to change its output.
"""

from __future__ import annotations

import argparse
import json
import os

from .child import REFERENCE
from .workloads import WORKLOADS

WORKDIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    ".perfbench_out",
)


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workloads", nargs="*", metavar="workload")
    args = parser.parse_args(argv)
    unknown = set(args.workloads) - set(WORKLOADS)
    if unknown:
        parser.error(f"unknown workloads {sorted(unknown)}")
    with open(REFERENCE, encoding="utf-8") as fh:
        digests = json.load(fh)
    os.makedirs(WORKDIR, exist_ok=True)
    for name in args.workloads or WORKLOADS:
        recorded = {}
        for seed in range(WORKLOADS[name].suite):
            workload = WORKLOADS[name](seed)
            digest = workload.reference_digest(workload.make_inputs(), WORKDIR)
            recorded[str(seed)] = digest
            print(f"{name} seed={seed} {digest}", flush=True)
        # a workload's digests are replaced all at once, never in part
        digests[name] = recorded
        with open(REFERENCE + ".tmp", "w", encoding="utf-8") as fh:
            json.dump(digests, fh, indent=1, sort_keys=True)
            fh.write("\n")
        os.replace(REFERENCE + ".tmp", REFERENCE)


if __name__ == "__main__":
    main()
