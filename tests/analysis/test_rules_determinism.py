"""Fixture sweep for the determinism rules (D101-D104).

Every rule gets a positive fixture (the violation fires), a negative
fixture (the sanctioned spelling passes), and a suppressed fixture
(the inline ``# repro: lint-ignore`` demotes it).  Fixtures live in
string literals, which the tokenize-based suppression collector and
the AST walk both ignore — so this file itself lints clean.
"""

from textwrap import dedent

from repro.analysis import lint_source


def rules_of(report):
    return [f.rule for f in report.findings]


class TestD101UnseededDefaultRng:
    def test_unseeded_call_fires(self):
        report = lint_source(dedent("""\
            import numpy as np

            def fresh():
                return np.random.default_rng()
        """))
        assert "D101" in rules_of(report)

    def test_seeded_call_is_not_d101(self):
        """A seeded call is deterministic — it downgrades to the
        surface rule D102, never D101."""
        report = lint_source(dedent("""\
            import numpy as np

            rng = np.random.default_rng(7)
        """))
        assert "D101" not in rules_of(report)
        assert "D102" in rules_of(report)

    def test_from_import_alias_resolves(self):
        """Alias resolution: the from-import itself is D102, and the
        bare-name unseeded call still resolves to D101."""
        report = lint_source(dedent("""\
            from numpy.random import default_rng

            rng = default_rng()
        """))
        assert "D101" in rules_of(report)

    def test_sanctioned_helper_passes(self):
        report = lint_source(dedent("""\
            from repro.utils.rng import check_random_state

            def make(seed):
                return check_random_state(seed)
        """))
        assert report.clean

    def test_suppressed(self):
        report = lint_source(dedent("""\
            import numpy as np

            rng = np.random.default_rng()  # repro: lint-ignore[D101] entropy wanted
        """))
        assert "D101" not in rules_of(report)
        assert any(f.rule == "D101" for f in report.suppressed)


class TestD102RawRngSurface:
    def test_module_level_numpy_random_fires(self):
        report = lint_source(dedent("""\
            import numpy as np

            noise = np.random.normal(size=10)
        """))
        assert "D102" in rules_of(report)

    def test_stdlib_random_fires(self):
        report = lint_source(dedent("""\
            import random

            def shuffle(items):
                random.shuffle(items)
        """))
        assert "D102" in rules_of(report)

    def test_stdlib_random_import_from_fires(self):
        report = lint_source("from random import shuffle\n")
        assert "D102" in rules_of(report)

    def test_type_reference_fires(self):
        """Even a bare type annotation reference counts: the whole
        surface is centralized in repro.utils.rng."""
        report = lint_source(dedent("""\
            import numpy as np

            def consume(rng: np.random.Generator) -> None:
                pass
        """))
        assert "D102" in rules_of(report)

    def test_sanctioned_module_is_exempt(self):
        report = lint_source(
            "import numpy as np\n\nGenerator = np.random.Generator\n",
            path="src/repro/utils/rng.py",
        )
        assert report.clean

    def test_reexported_generator_type_passes(self):
        report = lint_source(dedent("""\
            from repro.utils.rng import Generator

            def consume(rng: Generator) -> None:
                pass
        """))
        assert report.clean

    def test_one_finding_per_attribute_chain(self):
        """The outermost attribute reports once — not once per link."""
        report = lint_source(dedent("""\
            import numpy as np

            state = np.random.SeedSequence(3)
        """))
        assert rules_of(report).count("D102") == 1

    def test_suppressed(self):
        report = lint_source(dedent("""\
            import numpy as np

            noise = np.random.normal(size=3)  # repro: lint-ignore[D102] fixture
        """))
        assert report.clean
        assert any(f.rule == "D102" for f in report.suppressed)


class TestD103WallClock:
    def test_perf_counter_fires(self):
        report = lint_source(dedent("""\
            import time

            def stamp():
                return time.perf_counter()
        """))
        assert "D103" in rules_of(report)

    def test_datetime_now_fires(self):
        report = lint_source(dedent("""\
            import datetime

            def today():
                return datetime.datetime.now()
        """))
        assert "D103" in rules_of(report)

    def test_clock_module_is_sanctioned(self):
        """``repro/utils/clock.py`` is the one module that reads the
        clock; the same source anywhere else fires."""
        source = "import time\n\nstart = time.perf_counter()\n"
        assert lint_source(source, path="src/repro/utils/clock.py").clean
        assert "D103" in rules_of(
            lint_source(source, path="src/repro/utils/timer.py")
        )

    def test_benchmark_path_fires(self):
        """Benches time through ``repro.utils.clock.timed`` too: a raw
        read under ``benchmarks/`` is no longer exempt."""
        report = lint_source(
            "import time\n\nstart = time.perf_counter()\n",
            path="benchmarks/bench_e1.py",
        )
        assert "D103" in rules_of(report)

    def test_timing_through_the_clock_module_passes(self):
        report = lint_source(dedent("""\
            from repro.utils.clock import timed

            def run(fn):
                return timed(fn, 1, key=2)
        """), path="benchmarks/bench_e1.py")
        assert report.clean

    def test_time_sleep_passes(self):
        """Only clock *reads* are flagged; sleeping is not output."""
        report = lint_source(dedent("""\
            import time

            def wait():
                time.sleep(0.1)
        """))
        assert report.clean

    def test_suppressed_with_reason(self):
        report = lint_source(dedent("""\
            import time

            def run():
                start = time.perf_counter()  # repro: lint-ignore[D103] opt-out via timing=False
                return start
        """))
        assert report.clean
        assert report.suppressed[0].rule == "D103"


class TestD104UnorderedIteration:
    def test_for_loop_over_set_literal_fires(self):
        report = lint_source(dedent("""\
            def walk():
                for item in {"b", "a"}:
                    print(item)
        """))
        assert "D104" in rules_of(report)

    def test_comprehension_over_set_call_fires(self):
        report = lint_source(dedent("""\
            def names(rows):
                return [r.name for r in set(rows)]
        """))
        assert "D104" in rules_of(report)

    def test_join_over_set_typed_name_fires(self):
        report = lint_source(dedent("""\
            def render(rows):
                seen = {r.name for r in rows}
                return ", ".join(seen)
        """))
        assert "D104" in rules_of(report)

    def test_fstring_of_set_fires(self):
        report = lint_source(dedent("""\
            def render(tags):
                extra = set(tags)
                return f"tags: {extra}"
        """))
        assert "D104" in rules_of(report)

    def test_sorted_set_passes(self):
        report = lint_source(dedent("""\
            def walk(rows):
                for item in sorted({r.name for r in rows}):
                    print(item)
        """))
        assert report.clean

    def test_list_iteration_passes(self):
        report = lint_source(dedent("""\
            def walk(rows):
                for item in list(rows):
                    print(item)
        """))
        assert report.clean

    def test_membership_test_passes(self):
        """Sets used for O(1) membership — never iterated — are the
        sanctioned use and stay silent."""
        report = lint_source(dedent("""\
            ALLOWED = {"a", "b"}

            def ok(name):
                return name in ALLOWED
        """))
        assert report.clean

    def test_suppressed(self):
        report = lint_source(dedent("""\
            def walk():
                for item in {"b", "a"}:  # repro: lint-ignore[D104] order irrelevant
                    item()
        """))
        assert report.clean
