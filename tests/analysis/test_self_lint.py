"""Self-application: the library must satisfy its own analyzer.

``src/`` lints clean with no baseline and no inline suppression at
all (its one wall-clock read lives in the sanctioned
``repro.utils.clock``), ``examples/`` lints clean too, and the
committed ``lint-baseline.json`` absorbs every finding in ``tests/``
and ``benchmarks/`` — the exact configuration the CI lint job runs.
"""

from pathlib import Path

import pytest

from repro.analysis import Baseline, run_lint

REPO_ROOT = Path(__file__).resolve().parents[2]
BASELINE_PATH = REPO_ROOT / "lint-baseline.json"


def test_src_is_clean_without_any_baseline():
    report = run_lint([str(REPO_ROOT / "src")], root=str(REPO_ROOT))
    assert report.clean, "\n".join(
        f"{f.location()}: {f.rule} {f.message}" for f in report.findings
    )


def test_src_has_no_suppressions():
    report = run_lint([str(REPO_ROOT / "src")], root=str(REPO_ROOT))
    assert not report.suppressed, "\n".join(
        f"{f.location()}: {f.rule} {f.message}" for f in report.suppressed
    )


def test_examples_are_clean_without_any_baseline():
    report = run_lint([str(REPO_ROOT / "examples")], root=str(REPO_ROOT))
    assert report.clean and not report.suppressed, "\n".join(
        f"{f.location()}: {f.rule} {f.message}"
        for f in [*report.findings, *report.suppressed]
    )


def test_src_suppressions_all_carry_reasons():
    """Every inline lint-ignore in src/ must state its justification —
    the suppression comment is a reviewed contract, not a mute button."""
    from repro.analysis.suppressions import collect_suppressions

    missing = []
    for py in sorted((REPO_ROOT / "src").rglob("*.py")):
        source = py.read_text(encoding="utf-8")
        for supp in collect_suppressions(source).values():
            if not supp.reason:
                missing.append(f"{py}:{supp.line}")
    assert not missing, f"suppressions without a reason: {missing}"


@pytest.mark.skipif(
    not BASELINE_PATH.exists(), reason="baseline not committed"
)
def test_full_tree_is_clean_modulo_committed_baseline():
    baseline = Baseline.load(BASELINE_PATH)
    report = run_lint(
        [
            str(REPO_ROOT / "src"),
            str(REPO_ROOT / "tests"),
            str(REPO_ROOT / "benchmarks"),
        ],
        baseline=baseline,
        root=str(REPO_ROOT),
    )
    src_failures = report.gate_failures(["src"])
    assert not src_failures, "\n".join(
        f"{f.location()}: {f.rule} {f.message}" for f in src_failures
    )


@pytest.mark.skipif(
    not BASELINE_PATH.exists(), reason="baseline not committed"
)
def test_committed_baseline_entries_all_still_match():
    """A baseline entry whose code is gone is dead weight — regenerate
    the file (repro lint ... --update-baseline) when refactors remove
    grandfathered patterns."""
    baseline = Baseline.load(BASELINE_PATH)
    report = run_lint(
        [
            str(REPO_ROOT / "src"),
            str(REPO_ROOT / "tests"),
            str(REPO_ROOT / "benchmarks"),
        ],
        baseline=baseline,
        root=str(REPO_ROOT),
    )
    matched = {
        (f.path, f.rule, f.snippet) for f in report.baselined
    }
    stale = [
        entry.key() for entry in baseline.entries
        if entry.key() not in matched
    ]
    assert not stale, f"baseline entries no longer matching code: {stale}"
