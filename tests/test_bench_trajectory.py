"""``tools/bench_trajectory.py --show``: the committed perf trajectory."""

import glob
import json
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]


def test_show_lists_every_committed_row_without_measuring():
    # -X importtime logs every module the script imports to stderr; a
    # --show that imported no bench module and no repro code ran no panel
    proc = subprocess.run(
        [sys.executable, "-X", "importtime",
         str(REPO_ROOT / "tools" / "bench_trajectory.py"), "--show"],
        capture_output=True, text=True, timeout=60, cwd=REPO_ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    paths = sorted(glob.glob(str(REPO_ROOT / "BENCH_*.json")))
    assert paths
    for path in paths:
        name = Path(path).name
        for row in json.loads(Path(path).read_text())["results"]:
            assert any(
                line.startswith(f"{name} ") and f" {row['name']} " in line
                for line in lines
            ), f"{name}: row {row['name']} missing from --show"
    imported = [line.rsplit("|", 1)[-1].strip() for line in
                proc.stderr.splitlines() if line.startswith("import time:")]
    assert not [m for m in imported
                if m.startswith(("benchmarks", "repro"))], imported
