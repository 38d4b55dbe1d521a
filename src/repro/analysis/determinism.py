"""D-family checkers: the seed contract, wall-clock, and set order.

Grounded in this repo's real invariants: a single integer seed must
reproduce every byte of output across serial/thread/process backends,
restarts, and batch sizes (the PR 3/4 determinism suites).  The three
checkers here flag the static patterns that have historically broken
that contract in ML pipelines.
"""

from __future__ import annotations

import ast

from repro.analysis.engine import Checker, dotted_name, is_set_expr
from repro.analysis.rules import (
    is_sanctioned_clock_module,
    is_sanctioned_rng_module,
)

__all__ = ["RngChecker", "WallClockChecker", "UnorderedIterationChecker"]

#: wall-clock reads (resolved dotted names) flagged by D103
_WALL_CLOCK = {
    "time.time", "time.time_ns",
    "time.perf_counter", "time.perf_counter_ns",
    "time.monotonic", "time.monotonic_ns",
    "time.process_time", "time.process_time_ns",
    "time.clock_gettime",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
}


class RngChecker(Checker):
    """D101 (unseeded ``default_rng()``) and D102 (raw RNG surface).

    Outside the sanctioned :mod:`repro.utils.rng` module, *any*
    reference into ``numpy.random`` or the stdlib ``random`` module is
    flagged: RNG construction, seeding, and even type references are
    concentrated in one place so the seed contract has exactly one
    implementation to audit.
    """

    def check(self, node, ctx):
        if is_sanctioned_rng_module(ctx.path):
            return []
        if isinstance(node, ast.Call):
            return self._check_call(node, ctx)
        if isinstance(node, ast.Attribute):
            return self._check_attribute(node, ctx)
        if isinstance(node, ast.ImportFrom):
            return self._check_import_from(node, ctx)
        return []

    def _check_call(self, node: ast.Call, ctx):
        resolved = dotted_name(node.func, ctx.aliases)
        if resolved is None:
            return []
        if resolved.endswith(".default_rng") and self._is_rng_surface(resolved):
            if not node.args and not node.keywords:
                return [ctx.finding(
                    "D101", node,
                    "np.random.default_rng() without a seed draws fresh "
                    "entropy — derive generators from "
                    "repro.utils.rng.check_random_state / spawn_seeds",
                )]
            return [ctx.finding(
                "D102", node,
                f"raw {resolved}(...) — normalize seeds through "
                "repro.utils.rng.check_random_state instead",
            )]
        return []

    def _check_attribute(self, node: ast.Attribute, ctx):
        # only flag the outermost attribute of a chain, and let
        # _check_call own chains that are directly called
        parent = ctx.parent_of(node)
        if isinstance(parent, ast.Attribute):
            return []
        if isinstance(parent, ast.Call) and parent.func is node:
            resolved = dotted_name(node, ctx.aliases)
            if resolved is not None and resolved.endswith(".default_rng") \
                    and self._is_rng_surface(resolved):
                return []  # reported at the Call node
        resolved = dotted_name(node, ctx.aliases)
        if resolved is None or not self._is_rng_surface(resolved):
            return []
        return [ctx.finding(
            "D102", node,
            f"reference to {resolved} outside repro.utils.rng — the RNG "
            "surface (construction, seeding, types) is centralized there",
        )]

    def _check_import_from(self, node: ast.ImportFrom, ctx):
        if node.level or node.module is None:
            return []
        if node.module == "random" or node.module.startswith("numpy.random"):
            return [ctx.finding(
                "D102", node,
                f"import from {node.module} outside repro.utils.rng — "
                "use its helpers (check_random_state, spawn_seeds, "
                "Generator) instead",
            )]
        return []

    @staticmethod
    def _is_rng_surface(resolved: str) -> bool:
        parts = resolved.split(".")
        if parts[0] == "random" and len(parts) >= 2:
            return True
        return parts[:2] == ["numpy", "random"] and len(parts) >= 3


class WallClockChecker(Checker):
    """D103: wall-clock reads outside :mod:`repro.utils.clock`, the one
    reader that library, benches and examples all time through."""

    def check(self, node, ctx):
        if is_sanctioned_clock_module(ctx.path) or not isinstance(node, ast.Call):
            return []
        resolved = dotted_name(node.func, ctx.aliases)
        if resolved not in _WALL_CLOCK:
            return []
        return [ctx.finding(
            "D103", node,
            f"wall-clock read {resolved}() outside repro.utils.clock — "
            "time through its timed() to keep output byte-comparable",
        )]


class UnorderedIterationChecker(Checker):
    """D104: set iteration order leaking into results or text.

    Flags iterating a set expression in ``for`` loops and list/dict/
    generator comprehensions, materializing one via ``list``/``tuple``/
    ``enumerate``/``iter``, and formatting one into text (``str.join``,
    f-strings, ``str``/``repr``).  ``sorted(...)`` normalizes the order
    and is the sanctioned spelling, so it is never flagged.
    """

    _MATERIALIZERS = {"list", "tuple", "enumerate", "iter"}
    _FORMATTERS = {"str", "repr"}

    def check(self, node, ctx):
        if isinstance(node, ast.For):
            return self._flag(node.iter, ctx, "iterated by a for loop")
        if isinstance(node, (ast.ListComp, ast.DictComp, ast.GeneratorExp)):
            findings = []
            for gen in node.generators:
                findings.extend(
                    self._flag(gen.iter, ctx, "iterated by a comprehension")
                )
            return findings
        if isinstance(node, ast.FormattedValue):
            return self._flag(node.value, ctx, "formatted into an f-string")
        if isinstance(node, ast.Call):
            return self._check_call(node, ctx)
        return []

    def _check_call(self, node: ast.Call, ctx):
        func = node.func
        if (
            isinstance(func, ast.Name)
            and func.id in (self._MATERIALIZERS | self._FORMATTERS)
            and node.args
        ):
            what = (
                "materialized in order" if func.id in self._MATERIALIZERS
                else "formatted into text"
            )
            return self._flag(node.args[0], ctx, f"{what} by {func.id}()")
        if isinstance(func, ast.Attribute) and func.attr == "join" and node.args:
            return self._flag(node.args[0], ctx, "joined into text")
        return []

    def _flag(self, expr, ctx, how: str):
        if not is_set_expr(expr, ctx):
            return []
        return [ctx.finding(
            "D104", expr,
            f"set with hash-randomized iteration order {how} — "
            "wrap it in sorted(...) first",
        )]
