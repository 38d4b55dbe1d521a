"""Deterministic adversarial scenario search.

The scenario grammar (:mod:`repro.nfv.grammar`) makes regimes mutable;
this module makes them *hunted*.  Starting from the catalog recipes, a
seeded evolutionary loop mutates recipes, rejects mutants that fail the
acceptance harness (recorded, by named check), evaluates the accepted
ones through :func:`repro.core.matrix.run_scenario_matrix` (so the
whole generation fans out across the parallel executor), and scores
each candidate for *explainer failure*: faithfulness collapse (deletion
AUC falling toward the shuffled-attribution control) plus
cross-explainer disagreement.  The worst offenders that beat every
catalog baseline are emitted as named, seeded, acceptance-checked
recipes — the regimes where attribution quality degrades, found
systematically instead of by hand.

Everything is a pure function of the integer seed: mutation draws come
from :func:`repro.utils.rng.spawn_seeds` hierarchies, evaluation rides
the matrix runner's byte-identical-across-backends contract, and the
trace (:meth:`SearchResult.format_trace`) is byte-identical across
serial/thread/process backends — golden-pinned in
``tests/core/test_search.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.core.executor import get_executor
from repro.core.matrix import default_model_factories, run_scenario_matrix
from repro.nfv.grammar import CATALOG_RECIPES, accept_recipe
from repro.nfv.grammar.errors import RecipeValidationError
from repro.nfv.grammar.recipe import ScenarioRecipe
from repro.nfv.scenarios import scenario_recipe
from repro.utils.rng import check_random_state, spawn_seeds

__all__ = [
    "SearchCandidate",
    "SearchResult",
    "adversarial_score",
    "search_scenarios",
]


def adversarial_score(cells) -> float:
    """How badly explainers fail on one scenario's matrix cells.

    ``-(mean faithfulness margin) - 0.5 * (mean explainer agreement)``,
    where the faithfulness margin is ``deletion_auc -
    random_deletion_auc`` (how much better than shuffled attributions
    the explainer ranks features) and agreement is the mean pairwise
    Spearman across explainers (0 when only one explainer ran).
    Higher = worse explainability = more adversarial.
    """
    cells = list(cells)
    if not cells:
        raise ValueError("adversarial_score needs at least one cell")
    margins = [c.deletion_auc - c.random_deletion_auc for c in cells]
    agreements = [
        c.agreement_spearman
        for c in cells
        if c.agreement_spearman is not None
    ]
    faith_margin = sum(margins) / len(margins)
    agreement = sum(agreements) / len(agreements) if agreements else 0.0
    return float(-faith_margin - 0.5 * agreement)


@dataclass
class SearchCandidate:
    """One recipe the search created or evaluated.

    ``status`` is ``"catalog"`` (generation-0 baseline), ``"accepted"``
    (mutant that passed acceptance and was evaluated), or
    ``"rejected:<check>"`` (mutant refused by the acceptance harness,
    named after the failed check — never evaluated).
    """

    recipe: ScenarioRecipe
    generation: int
    parent: str | None = None
    status: str = "accepted"
    score: float | None = None

    @property
    def name(self) -> str:
        return self.recipe.name


@dataclass
class SearchResult:
    """Everything one :func:`search_scenarios` run produced."""

    candidates: list[SearchCandidate]
    winners: list[SearchCandidate]
    baseline_worst: float
    baseline_worst_name: str
    seed: int
    generations: int
    population: int
    extras: dict = field(default_factory=dict)

    def winner_recipes(self) -> list[ScenarioRecipe]:
        """The winning recipes, worst offender first."""
        return [candidate.recipe for candidate in self.winners]

    def format_trace(self) -> str:
        """Deterministic run trace — the cross-backend comparison (and
        golden) surface, so no timing and no environment info."""
        lines = [
            "adversarial scenario search: "
            f"seed={self.seed} generations={self.generations} "
            f"population={self.population}",
        ]
        by_generation: dict[int, list[SearchCandidate]] = {}
        for candidate in self.candidates:
            by_generation.setdefault(candidate.generation, []).append(
                candidate
            )
        for generation in sorted(by_generation):
            title = (
                "gen 0 (catalog baselines)"
                if generation == 0
                else f"gen {generation}"
            )
            lines.append(f"{title}:")
            for c in by_generation[generation]:
                score = "-" if c.score is None else f"{c.score:+.6f}"
                parent = "" if c.parent is None else f" parent={c.parent}"
                lines.append(
                    f"  {c.name:<24} {c.status:<28} score={score}{parent}"
                )
        lines.append(
            f"worst catalog baseline: {self.baseline_worst_name} "
            f"(score={self.baseline_worst:+.6f})"
        )
        lines.append(f"winners ({len(self.winners)}):")
        for c in self.winners:
            lines.append(
                f"  {c.name:<24} score={c.score:+.6f} parent={c.parent}"
            )
        if not self.winners:
            lines.append("  (no generated recipe beat the catalog)")
        return "\n".join(lines) + "\n"


def _evaluate(recipes, *, matrix_kwargs) -> tuple:
    """Score each recipe with one matrix sweep; (name -> score, extras)."""
    try:
        report = run_scenario_matrix(recipes, **matrix_kwargs)
    except ValueError as err:
        if "2 classes" not in str(err):
            raise
        # The acceptance probe guards *mutants* against one-class data,
        # but the evaluation sweep runs at its own (larger) horizon and
        # seed — at very small n_epochs even a catalog regime can come
        # out single-class there.  Name the fix instead of leaking the
        # model's label-encoding error.
        n_epochs = matrix_kwargs.get("n_epochs")
        raise ValueError(
            f"evaluation sweep produced one-class data at "
            f"n_epochs={n_epochs} for one of "
            f"{sorted(r.name for r in recipes)}; raise n_epochs (catalog "
            f"regimes need a few hundred epochs to express both SLA "
            f"classes)"
        ) from err
    by_name: dict[str, list] = {}
    for cell in report.cells:
        by_name.setdefault(cell.scenario, []).append(cell)
    scores = {
        name: adversarial_score(cells) for name, cells in by_name.items()
    }
    return scores, dict(report.extras)


def search_scenarios(
    *,
    seed: int = 0,
    generations: int = 2,
    population: int = 6,
    top_k: int = 3,
    parents=None,
    explainers=("tree_shap", "lime"),
    models=None,
    n_epochs: int = 600,
    n_explain: int = 6,
    accept_probe_epochs: int = 512,
    backend: str = "auto",
    workers: int | None = None,
    progress=None,
) -> SearchResult:
    """Hunt for scenario recipes where explainers fail.

    Parameters
    ----------
    seed:
        The single integer everything derives from: parent selection,
        mutation draws, acceptance probes, and the matrix evaluations.
        Same seed — same trace, byte for byte, on every backend.
    generations, population:
        Mutation rounds, and mutants created per round.
    top_k:
        Max winners to emit.
    parents:
        Starting recipes: ``None`` (the full catalog), or an iterable
        of registered scenario names and/or :class:`ScenarioRecipe`
        objects, each resolved by
        :func:`~repro.nfv.scenarios.scenario_recipe`.
    explainers, models, n_epochs, n_explain:
        Evaluation matrix configuration, passed to
        :func:`~repro.core.matrix.run_scenario_matrix`.  At least two
        explainers are needed for the disagreement term.  ``models``
        defaults to the random forest alone (the default explainers
        include ``tree_shap``, which needs a tree model).
    accept_probe_epochs:
        Probe length for the acceptance harness each mutant must pass.
    backend, workers:
        Parallel executor configuration for the matrix sweeps (one
        sweep per generation, sharded per candidate × model).
    progress:
        Optional ``callable(str)`` receiving one line per generation.

    Returns
    -------
    SearchResult
        All candidates (with per-check rejection statuses), and the
        accepted generated recipes that scored *strictly worse* than
        every catalog baseline, worst first (max ``top_k``).
    """
    if generations < 1:
        raise ValueError(f"generations must be >= 1, got {generations}")
    if population < 1:
        raise ValueError(f"population must be >= 1, got {population}")
    if top_k < 1:
        raise ValueError(f"top_k must be >= 1, got {top_k}")

    if parents is None:
        parent_recipes = list(CATALOG_RECIPES.values())
    else:
        parent_recipes = [scenario_recipe(parent) for parent in parents]
    if not parent_recipes:
        raise ValueError("parents must not be empty")

    if models is None:
        models = {
            "random_forest": default_model_factories()["random_forest"]
        }

    def emit(line: str) -> None:
        if progress is not None:
            progress(line)

    # One seed per generation (index 0 feeds the acceptance probes).
    gen_seeds = spawn_seeds(seed, generations + 1)
    accept_seed = gen_seeds[0]

    emit(
        f"evaluating {len(parent_recipes)} catalog baseline(s) "
        f"({n_epochs} epochs each)"
    )
    # One executor for the whole search: each generation's matrix sweep
    # reuses the same pool instead of paying creation/teardown per
    # generation, and the context manager keeps an exception anywhere
    # in the loop (a one-class evaluation sweep, a rejected seed) from
    # leaking pooled workers.
    with get_executor(backend, workers) as executor:
        matrix_kwargs = dict(
            models=models,
            explainers=tuple(explainers),
            n_epochs=n_epochs,
            n_explain=n_explain,
            random_state=seed,
            executor=executor,
        )
        scores, extras = _evaluate(
            parent_recipes, matrix_kwargs=matrix_kwargs
        )
        candidates = [
            SearchCandidate(
                recipe=recipe,
                generation=0,
                status="catalog",
                score=scores[recipe.name],
            )
            for recipe in parent_recipes
        ]
        baseline_worst_candidate = max(
            candidates, key=lambda c: (c.score, c.name)
        )
        pool = list(candidates)

        for generation in range(1, generations + 1):
            child_seeds = spawn_seeds(gen_seeds[generation], population)
            accepted: list[SearchCandidate] = []
            for i, child_seed in enumerate(child_seeds):
                rng = check_random_state(child_seed)
                # Tournament of two: prefer the worse-scoring (more
                # adversarial) parent; rejected mutants never enter
                # `pool`, so selection only ever draws from scored
                # candidates.
                a = pool[int(rng.integers(0, len(pool)))]
                b = pool[int(rng.integers(0, len(pool)))]
                parent = a if (a.score, a.name) >= (b.score, b.name) else b
                child_recipe = replace(
                    parent.recipe.mutate(rng),
                    name=f"adv-g{generation}c{i}",
                    description=(
                        f"adversarial mutant of {parent.name} "
                        f"(generation {generation}, search seed {seed})"
                    ),
                )
                candidate = SearchCandidate(
                    recipe=child_recipe,
                    generation=generation,
                    parent=parent.name,
                )
                try:
                    accept_recipe(
                        child_recipe,
                        probe_epochs=accept_probe_epochs,
                        random_state=accept_seed,
                    )
                except RecipeValidationError as exc:
                    candidate.status = f"rejected:{exc.check}"
                    candidates.append(candidate)
                    continue
                candidates.append(candidate)
                accepted.append(candidate)
            emit(
                f"gen {generation}: {len(accepted)}/{population} mutants "
                "accepted, evaluating"
            )
            if accepted:
                scores, extras = _evaluate(
                    [c.recipe for c in accepted],
                    matrix_kwargs=matrix_kwargs,
                )
                for candidate in accepted:
                    candidate.score = scores[candidate.name]
                pool.extend(accepted)

    generated = [
        c
        for c in candidates
        if c.generation > 0
        and c.status == "accepted"
        and c.score is not None
        and c.score > baseline_worst_candidate.score
    ]
    winners = sorted(generated, key=lambda c: (-c.score, c.name))[:top_k]
    emit(
        f"{len(winners)} winner(s) beat the worst catalog baseline "
        f"({baseline_worst_candidate.name})"
    )

    return SearchResult(
        candidates=candidates,
        winners=winners,
        baseline_worst=baseline_worst_candidate.score,
        baseline_worst_name=baseline_worst_candidate.name,
        seed=seed,
        generations=generations,
        population=population,
        extras=extras,
    )
