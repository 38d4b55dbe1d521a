"""Fixture sweep for the lock-discipline rule (C301).

Encodes the lock contract: a module that declares a
``threading.Lock`` is advertising shared state, and every mutation of
its module-level mutable containers inside functions must sit under
``with <lock>:``.  Modules without a lock are out of scope — the rule
never fires there.
"""

from textwrap import dedent

from repro.analysis import lint_source


def rules_of(report):
    return [f.rule for f in report.findings]


LOCKED_MODULE_HEADER = """\
import threading

_LOCK = threading.Lock()
_CACHE = {}
_ORDER = []
"""


class TestC301UnlockedGlobalMutation:
    def test_unlocked_subscript_write_fires(self):
        report = lint_source(LOCKED_MODULE_HEADER + dedent("""\

            def put(key, value):
                _CACHE[key] = value
        """))
        assert "C301" in rules_of(report)

    def test_unlocked_mutator_call_fires(self):
        report = lint_source(LOCKED_MODULE_HEADER + dedent("""\

            def record(item):
                _ORDER.append(item)
        """))
        assert "C301" in rules_of(report)

    def test_unlocked_delete_fires(self):
        report = lint_source(LOCKED_MODULE_HEADER + dedent("""\

            def evict(key):
                del _CACHE[key]
        """))
        assert "C301" in rules_of(report)

    def test_unlocked_global_rebinding_fires(self):
        report = lint_source(LOCKED_MODULE_HEADER + dedent("""\

            def reset():
                global _CACHE
                _CACHE = {}
        """))
        assert "C301" in rules_of(report)

    def test_mutation_under_lock_passes(self):
        report = lint_source(LOCKED_MODULE_HEADER + dedent("""\

            def put(key, value):
                with _LOCK:
                    _CACHE[key] = value
                    _ORDER.append(key)
        """))
        assert report.clean

    def test_module_without_lock_is_out_of_scope(self):
        report = lint_source(dedent("""\
            _REGISTRY = {}

            def register(name, value):
                _REGISTRY[name] = value
        """))
        assert report.clean

    def test_import_time_initialization_is_exempt(self):
        """Module-scope statements run single-threaded at import."""
        report = lint_source(LOCKED_MODULE_HEADER + dedent("""\

            _CACHE["warm"] = 1
            _ORDER.append("warm")
        """))
        assert report.clean

    def test_local_shadow_is_not_module_state(self):
        report = lint_source(LOCKED_MODULE_HEADER + dedent("""\

            def scratch(key, value):
                _CACHE = {}
                _CACHE[key] = value
                return _CACHE
        """))
        assert report.clean

    def test_immutable_module_scalar_is_not_tracked(self):
        """Only mutable containers are state; rebinding an int local
        never fires (and module scalars are not containers)."""
        report = lint_source(LOCKED_MODULE_HEADER + dedent("""\

            _HITS = 0

            def bump():
                hits = _HITS + 1
                return hits
        """))
        assert report.clean

    def test_suppressed(self):
        report = lint_source(LOCKED_MODULE_HEADER + dedent("""\

            def put_unlocked(key, value):
                _CACHE[key] = value  # repro: lint-ignore[C301] single-threaded init path
        """))
        assert report.clean
        assert any(f.rule == "C301" for f in report.suppressed)
