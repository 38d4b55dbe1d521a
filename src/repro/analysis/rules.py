"""The rule registry: every shipped rule, its family, and its rationale.

Rule identifiers are grouped into families that mirror the invariants
this library actually enforces dynamically (goldens, determinism
suites, hypothesis properties):

* ``D`` — determinism: one integer seed must reproduce every byte of
  output, so RNG construction is centralized in :mod:`repro.utils.rng`,
  wall-clock reads stay out of report-producing code, and unordered
  containers never feed iteration order into results or text.
* ``P`` — parallel/picklability: tasks handed to the executors in
  :mod:`repro.core.executor` must survive a trip through ``pickle``
  (the process backend ships them to workers), which lambdas and
  nested functions never do.
* ``C`` — concurrency: a module that declares a ``threading.Lock``
  advertises that its module-level mutable state is shared; mutating
  that state outside a ``with <lock>:`` block breaks the contract.
* ``U`` — analyzer hygiene (unused suppressions).

Checkers register their rules here so reporters, documentation, and the
CLI share one catalog.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import PurePath

__all__ = ["Rule", "RULES", "register_rule", "get_rule", "all_rules"]


@dataclass(frozen=True)
class Rule:
    """Metadata for one rule ID.

    Attributes
    ----------
    id:
        Short identifier used in findings, suppressions and baselines.
    name:
        kebab-case slug.
    family:
        ``"determinism"``, ``"parallel"``, ``"concurrency"`` or
        ``"hygiene"``.
    summary:
        One-line description of what the rule flags.
    rationale:
        Why violating it breaks a repo invariant.
    """

    id: str
    name: str
    family: str
    summary: str
    rationale: str


RULES: dict[str, Rule] = {}


def register_rule(rule: Rule) -> Rule:
    """Add ``rule`` to the registry (idempotent for identical rules)."""
    existing = RULES.get(rule.id)
    if existing is not None and existing != rule:
        raise ValueError(f"conflicting registration for rule {rule.id}")
    RULES[rule.id] = rule
    return rule


def get_rule(rule_id: str) -> Rule:
    if rule_id not in RULES:
        raise KeyError(
            f"unknown rule {rule_id!r}; known: {', '.join(sorted(RULES))}"
        )
    return RULES[rule_id]


def all_rules() -> list[Rule]:
    """Every registered rule, sorted by ID."""
    return [RULES[k] for k in sorted(RULES)]


# ----------------------------------------------------------------------
# path-based exemptions
# ----------------------------------------------------------------------
def path_parts(path: str) -> tuple[str, ...]:
    return PurePath(path.replace("\\", "/")).parts


def is_sanctioned_rng_module(path: str) -> bool:
    """``repro/utils/rng.py`` is the one module allowed to spell
    ``numpy.random`` — it exists to wrap it."""
    return path_parts(path)[-3:] == ("repro", "utils", "rng.py")


def is_sanctioned_clock_module(path: str) -> bool:
    """``repro/utils/clock.py`` is the one module allowed to read the
    wall clock — it exists to wrap it."""
    return path_parts(path)[-3:] == ("repro", "utils", "clock.py")


# ----------------------------------------------------------------------
# the shipped catalog
# ----------------------------------------------------------------------
D101 = register_rule(Rule(
    id="D101",
    name="unseeded-default-rng",
    family="determinism",
    summary="np.random.default_rng() called without a seed",
    rationale=(
        "A fresh-entropy generator makes the run irreproducible; derive "
        "generators from repro.utils.rng.check_random_state / spawn_seeds "
        "so one integer seed reproduces every byte of output."
    ),
))

D102 = register_rule(Rule(
    id="D102",
    name="raw-rng-surface",
    family="determinism",
    summary=(
        "numpy.random / stdlib random referenced outside repro.utils.rng"
    ),
    rationale=(
        "All RNG plumbing is centralized in repro.utils.rng (seed "
        "normalization, picklable child seeds, re-exported Generator "
        "type); raw references reintroduce shared global state and "
        "backend-dependent streams."
    ),
))

D103 = register_rule(Rule(
    id="D103",
    name="wall-clock",
    family="determinism",
    summary="wall-clock read (time.*, datetime.*) outside repro.utils.clock",
    rationale=(
        "Reports must be byte-identical across runs and backends; every "
        "clock read goes through repro.utils.clock.timed, whose seconds "
        "feed only opt-out presentation columns (timing=False / "
        "--no-timing) or checks that never reach report bytes."
    ),
))

D104 = register_rule(Rule(
    id="D104",
    name="unordered-iteration",
    family="determinism",
    summary="set iteration order leaks into results or report text",
    rationale=(
        "Set iteration order depends on hash randomization "
        "(PYTHONHASHSEED); sort first (sorted(...)) before iterating "
        "into lists, text, or return values."
    ),
))

P201 = register_rule(Rule(
    id="P201",
    name="unpicklable-task",
    family="parallel",
    summary=(
        "lambda or nested function passed to executor map/imap/map_seeded"
    ),
    rationale=(
        "The process backend pickles tasks to ship them to workers; "
        "lambdas and nested functions cannot be pickled, so the code "
        "works serially and explodes under --backend process. Use "
        "module-level functions, functools.partial, or picklable "
        "callable classes (see ModelOutputFn)."
    ),
))

C301 = register_rule(Rule(
    id="C301",
    name="unlocked-global-mutation",
    family="concurrency",
    summary=(
        "module-level mutable state mutated outside `with <lock>:` in a "
        "module that declares a threading.Lock"
    ),
    rationale=(
        "Declaring a lock advertises that the module's state is shared "
        "across threads; mutations that bypass the lock race with the "
        "thread backend."
    ),
))

U901 = register_rule(Rule(
    id="U901",
    name="unused-suppression",
    family="hygiene",
    summary="lint-ignore comment that suppresses nothing",
    rationale=(
        "Stale suppressions hide future regressions at that line; delete "
        "them once the finding they covered is gone."
    ),
))
