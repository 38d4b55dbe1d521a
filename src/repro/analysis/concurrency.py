"""C-family checker: the lock contract for shared module state.

A module that declares a ``threading.Lock``/``RLock`` is advertising
that its state is shared with the thread backend, and every mutation
of module-level mutable containers must happen inside
``with <lock>:``.  This checker encodes that contract so a module that
shares state with threads cannot silently regress it.
"""

from __future__ import annotations

import ast

from repro.analysis.engine import Checker

__all__ = ["LockDisciplineChecker"]

#: method names that mutate their receiver in place
_MUTATORS = {
    "append", "extend", "insert",
    "add", "update", "pop", "popitem", "clear",
    "remove", "discard", "setdefault", "move_to_end",
    "appendleft", "extendleft",
}


class LockDisciplineChecker(Checker):
    """C301: unlocked mutation of module-level mutable state.

    Active only in modules that construct a ``threading.Lock`` or
    ``RLock`` somewhere.  Module-level mutable state is any module-scope
    name bound to a mutable literal/constructor (list/dict/set/
    OrderedDict/...).  Inside functions, three mutation shapes are
    flagged when not lexically under a ``with <lock>:`` block:

    * mutator method calls — ``STATE.append(...)``, ``.update(...)``, ...
    * subscript writes/deletes — ``STATE[k] = v``, ``del STATE[k]``
    * rebinding through ``global STATE``

    Module-scope statements are exempt: import-time initialization is
    single-threaded by construction.
    """

    def check(self, node, ctx):
        if not ctx.declares_lock or ctx.current_function is None:
            return []
        if ctx.lock_depth > 0:
            return []
        if isinstance(node, ast.Call):
            return self._check_mutator_call(node, ctx)
        if isinstance(node, (ast.Assign, ast.AugAssign)):
            return self._check_assignment(node, ctx)
        if isinstance(node, ast.Delete):
            findings = []
            for target in node.targets:
                findings.extend(self._check_subscript(target, ctx, "del"))
            return findings
        return []

    # ------------------------------------------------------------------
    def _is_module_state(self, name: str, ctx) -> bool:
        if name not in ctx.module_mutable_names:
            return False
        scope = ctx.current_function
        # a local rebinding shadows the module state — unless the
        # function declared it global, in which case it *is* the state
        if name in scope.global_names:
            return True
        return not ctx.name_is_local(name)

    def _check_mutator_call(self, node: ast.Call, ctx):
        func = node.func
        if not isinstance(func, ast.Attribute) or func.attr not in _MUTATORS:
            return []
        if not isinstance(func.value, ast.Name):
            return []
        name = func.value.id
        if not self._is_module_state(name, ctx):
            return []
        return [ctx.finding(
            "C301", node,
            f"{name}.{func.attr}(...) mutates module-level state outside "
            "`with <lock>:` in a module that declares a threading lock",
        )]

    def _check_assignment(self, node, ctx):
        findings = []
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        for target in targets:
            findings.extend(self._check_subscript(target, ctx, "assignment"))
            if (
                isinstance(target, ast.Name)
                and target.id in ctx.current_function.global_names
                and target.id in ctx.module_mutable_names
            ):
                findings.append(ctx.finding(
                    "C301", node,
                    f"rebinding global {target.id} outside `with <lock>:` "
                    "in a module that declares a threading lock",
                ))
        return findings

    def _check_subscript(self, target, ctx, how: str):
        if not isinstance(target, ast.Subscript):
            return []
        if not isinstance(target.value, ast.Name):
            return []
        name = target.value.id
        if not self._is_module_state(name, ctx):
            return []
        return [ctx.finding(
            "C301", target,
            f"subscript {how} on module-level {name} outside "
            "`with <lock>:` in a module that declares a threading lock",
        )]
