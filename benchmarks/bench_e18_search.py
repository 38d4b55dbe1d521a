"""E18 — adversarial scenario search: the grammar hunts explainer failure.

The scenario grammar's claim: regimes where attribution quality
degrades can be *found systematically* instead of hand-written.  A
seeded evolutionary loop mutates the catalog recipes, rejects mutants
failing the acceptance harness, and scores survivors for faithfulness
collapse plus cross-explainer disagreement.  Three properties, the
first two asserted **unconditionally** (they are correctness, not
timing):

* **discovery** — the default-budget search (seed 0, 2 generations of
  6) emits at least one generated recipe scoring strictly worse than
  *every* catalog regime;
* **admissibility** — every winner passes the same acceptance harness
  the catalog passes, and round-trips through the JSON store;
* **throughput** — candidates evaluated per second (reported here).

Timing numbers are reported whenever available; nothing correctness-
related is gated on ``--benchmark-disable`` (the CI smoke mode).
"""

from benchmarks._util import timing_enabled
from benchmarks.conftest import save_result
from repro.core.search import search_scenarios
from repro.nfv.grammar import (
    CATALOG_RECIPES,
    accept_recipe,
    load_generated,
    save_generated,
)

#: The committed default budget: seed 0 is known to produce a winner.
CONFIG = dict(
    seed=0,
    generations=2,
    population=6,
    top_k=3,
    n_epochs=600,
    n_explain=6,
    accept_probe_epochs=512,
    backend="thread",
    workers=4,
)


def test_adversarial_search(benchmark, tmp_path):
    result = benchmark.pedantic(
        lambda: search_scenarios(**CONFIG), rounds=1, iterations=1
    )

    # -- discovery (unconditional) -------------------------------------
    assert result.winners, (
        "the default-budget search found no recipe worse than the "
        "catalog — the adversarial loop has stopped discovering"
    )
    catalog_scores = {
        c.name: c.score for c in result.candidates if c.generation == 0
    }
    assert set(catalog_scores) == set(CATALOG_RECIPES)
    for winner in result.winners:
        for name, score in catalog_scores.items():
            assert winner.score > score, (
                f"winner {winner.name} does not beat catalog regime "
                f"{name} ({winner.score} <= {score})"
            )

    # -- admissibility (unconditional) ---------------------------------
    for recipe in result.winner_recipes():
        report = accept_recipe(
            recipe, probe_epochs=CONFIG["accept_probe_epochs"],
            random_state=0,
        )
        assert report.n_violations >= 2
    store = tmp_path / "generated.json"
    save_generated(result.winner_recipes(), store)
    assert load_generated(store) == {
        r.name: r for r in result.winner_recipes()
    }

    # -- report ---------------------------------------------------------
    n_evaluated = sum(
        1 for c in result.candidates if c.score is not None
    )
    lines = [result.format_trace().rstrip("\n")]
    if timing_enabled(benchmark):
        seconds = benchmark.stats["mean"]
        lines.append(
            f"\n{n_evaluated} candidates evaluated in {seconds:.1f}s "
            f"({n_evaluated / seconds:.2f} candidates/s, "
            f"{CONFIG['n_epochs']} epochs each)"
        )
    save_result("E18 adversarial scenario search", "\n".join(lines))
