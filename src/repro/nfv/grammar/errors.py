"""Structured validation errors for the scenario grammar.

Every check the grammar runs — per-axis field validation, cross-axis
consistency, and the acceptance harness's probe checks — fails with a
:class:`RecipeValidationError` carrying a stable ``check`` name, so
callers (the adversarial search loop, the CLI, property tests) can
branch on *which* contract a generated recipe broke instead of parsing
message strings.
"""

from __future__ import annotations

__all__ = ["RecipeValidationError", "CHECKS"]

#: The closed set of named checks a recipe can fail.  ``topology`` /
#: ``traffic`` / ``faults`` / ``telemetry-noise`` / ``servers`` are the
#: per-axis structural validators; the rest are recipe-level and
#: acceptance-probe checks.
CHECKS = (
    "topology",
    "traffic",
    "faults",
    "telemetry-noise",
    "servers",
    "recipe",
    "fault-feasibility",
    "placement",
    "horizon",
    "violation-rate",
)


class RecipeValidationError(ValueError):
    """A scenario recipe failed one named grammar contract.

    Attributes
    ----------
    check:
        The failed check's name, one of :data:`CHECKS`.
    detail:
        The human-readable message without the check prefix.
    """

    def __init__(self, check: str, detail: str):
        if check not in CHECKS:
            raise ValueError(f"unknown check {check!r}; known: {CHECKS}")
        self.check = check
        self.detail = detail
        super().__init__(f"[{check}] {detail}")
