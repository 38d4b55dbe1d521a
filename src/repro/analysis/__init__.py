"""Rule-based static analysis for the repo's reproducibility contracts.

``repro.analysis`` is an AST linter purpose-built for this library's
three machine-checkable invariants:

* **determinism** (D-rules) — every stochastic or time-dependent value
  must flow from one integer seed through :mod:`repro.utils.rng`, and
  no unordered container may feed iteration order into results;
* **picklability** (P-rules) — tasks handed to
  :mod:`repro.core.executor` must survive the process backend's pickle
  round-trip;
* **lock discipline** (C-rules) — modules declaring a
  ``threading.Lock`` must mutate their shared module-level state only
  under it.

Run it as ``repro lint src`` (see ``docs/linting.md``), embed it via
:func:`run_lint`, or test single snippets with :func:`lint_source`.
Findings can be silenced per line with
``# repro: lint-ignore[RULE-ID] reason`` or grandfathered in a
committed :class:`Baseline` file.

The package is dependency-free (stdlib ``ast``/``tokenize`` only), so
the lint gate runs before any scientific stack is importable.
"""

from repro.analysis.baseline import Baseline, BaselineEntry
from repro.analysis.findings import Finding
from repro.analysis.reporters import render_json, render_text
from repro.analysis.rules import RULES, Rule, all_rules, get_rule
from repro.analysis.runner import (
    LintReport,
    default_checkers,
    lint_source,
    run_lint,
)

__all__ = [
    "Baseline",
    "BaselineEntry",
    "Finding",
    "LintReport",
    "RULES",
    "Rule",
    "all_rules",
    "default_checkers",
    "get_rule",
    "lint_source",
    "render_json",
    "render_text",
    "run_lint",
]
