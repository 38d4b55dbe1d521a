"""Per-line ``# repro: lint-ignore[RULE-ID]`` suppression comments.

Syntax (on the line where the finding starts)::

    rng = np.random.default_rng(7)  # repro: lint-ignore[D102] oracle fixture
    x = rng()                       # repro: lint-ignore[D101,D102]

A bare ``# repro: lint-ignore`` (no bracket) suppresses every rule on
that line.  Comments are located with :mod:`tokenize`, so the marker
inside a string literal (e.g. an analyzer test fixture) is never
mistaken for a live suppression.
"""

from __future__ import annotations

import io
import re
import tokenize
from dataclasses import dataclass, field

__all__ = ["Suppression", "collect_suppressions"]

_PATTERN = re.compile(
    r"#\s*repro:\s*lint-ignore"      # the marker
    r"(?:\[(?P<ids>[A-Za-z0-9,\s]*)\])?"  # optional [D101,P201]
    r"(?:\s+(?P<reason>.*))?$"       # optional trailing justification
)


@dataclass
class Suppression:
    """One lint-ignore comment.

    ``rule_ids`` is ``None`` for the bare (suppress-everything) form.
    ``used`` is set by the runner when any finding on the line matched.
    """

    line: int
    rule_ids: frozenset[str] | None
    reason: str = ""
    used: bool = field(default=False, compare=False)

    def covers(self, rule_id: str) -> bool:
        # hygiene findings about suppressions are never self-suppressible
        if rule_id == "U901":
            return False
        return self.rule_ids is None or rule_id in self.rule_ids


def collect_suppressions(source: str) -> dict[int, Suppression]:
    """Map line number -> :class:`Suppression` for every comment in
    ``source`` carrying the marker.  Tolerates tokenize errors on
    otherwise-parsable files by falling back to no suppressions."""
    suppressions: dict[int, Suppression] = {}
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        comments = [
            (tok.start[0], tok.string)
            for tok in tokens
            if tok.type == tokenize.COMMENT
        ]
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return suppressions
    for line, text in comments:
        match = _PATTERN.search(text)
        if match is None:
            continue
        ids_text = match.group("ids")
        if ids_text is None:
            rule_ids = None
        else:
            rule_ids = frozenset(
                token.strip() for token in ids_text.split(",") if token.strip()
            )
            if not rule_ids:  # `lint-ignore[]` suppresses nothing
                rule_ids = frozenset()
        suppressions[line] = Suppression(
            line=line,
            rule_ids=rule_ids,
            reason=(match.group("reason") or "").strip(),
        )
    return suppressions
