"""The runtime is numpy-only: scipy and networkx stay test-only oracles.

A fresh interpreter imports the CLI, the service and the matrix runner
(between them, every subsystem); neither scipy nor networkx may load.
A lazy or conditional import would dodge that check, so every module
under ``src/`` is also scanned for an import statement naming either.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parents[1]
FORBIDDEN = ("scipy", "networkx")


def test_entry_points_load_neither_scipy_nor_networkx():
    probe = (
        "import sys\n"
        "import repro.cli, repro.serve, repro.core.matrix\n"
        "roots = {name.split('.')[0] for name in sys.modules}\n"
        f"print(sorted(roots.intersection({FORBIDDEN!r})))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(SRC)}, cwd=SRC,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_no_module_under_src_imports_scipy_or_networkx():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module or ""]
            else:
                continue
            offenders += [
                f"{path.relative_to(SRC)}:{node.lineno} {name}"
                for name in names
                if name.split(".")[0] in FORBIDDEN
            ]
    assert offenders == []
