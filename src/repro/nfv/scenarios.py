"""Named, seedable workload scenarios for the NFV testbed.

The paper's evaluation runs on a single synthetic testbed shape; real
deployments see wildly different regimes (bursty CDN traffic, strong
diurnal ISP swings, fault storms during rollouts, heterogeneous server
fleets, ...).  An explainer that looks faithful under one regime may
fall apart under another, so every explainer/model pairing should be
stress-tested across a *catalog* of conditions.

This module is that catalog: the one ``name -> ScenarioRecipe``
registry.  A scenario *is* a grammar
:class:`~repro.nfv.grammar.recipe.ScenarioRecipe`, lowered with a
random generator to a fully-configured :class:`ScenarioSpec` — a placed
testbed, a fault injector, and simulator parameters.  Everything
downstream (dataset builders, the matrix experiment runner, the CLI,
benches) refers to scenarios by name or by recipe, and
:func:`scenario_recipe` resolves either.  A variant is a recipe too:
override an axis field with :func:`dataclasses.replace` and pass the
result wherever a name is taken::

    from dataclasses import replace

    from repro.nfv.scenarios import build_scenario, list_scenarios, scenario_recipe

    list_scenarios()
    # ['baseline', 'bursty-traffic', 'cascading-overload', ...]

    # the telemetry make_scenario_dataset("fault-storm", 2000,
    # random_state=7) is cut from: the seed's first child builds the
    # spec, the second (data_rng) drives the simulation
    spec, data_rng = scenario_recipe("fault-storm").lower(7)
    stream = spec.stream(2000, batch_epochs=2000, random_state=data_rng)
    result = stream.collect()

    storm = scenario_recipe("fault-storm")
    calmer = replace(storm, faults=replace(storm.faults, rate=0.02))
    spec = build_scenario(calmer, random_state=7)

The 8 catalog regimes (``repro.nfv.grammar.catalog``) are registered at
import; :func:`register_recipe` registers custom recipes after
validating them.  The catalog's re-expression as recipes is byte-exact
— golden tests pin each recipe's
:func:`repro.datasets.make_scenario_dataset` output against hashes
captured before the grammar existed.

Scenarios are deterministic: the same name and integer seed always
produce the same testbed, schedule distribution, and (through
:func:`repro.datasets.make_scenario_dataset`) byte-identical datasets.
"""

from __future__ import annotations

from repro.nfv.grammar.catalog import CATALOG_RECIPES
from repro.nfv.grammar.recipe import ScenarioRecipe, ScenarioSpec

__all__ = [
    "ScenarioSpec",
    "register_recipe",
    "list_scenarios",
    "scenario_recipe",
    "build_scenario",
]


#: name -> the registered :class:`ScenarioRecipe`
_RECIPES: dict = {}


def register_recipe(recipe: ScenarioRecipe) -> None:
    """Register a grammar :class:`ScenarioRecipe` as a named scenario.

    The recipe is validated first, so a recipe that could never build
    raises its named :class:`~repro.nfv.grammar.errors.RecipeValidationError`
    here and is not registered.
    """
    if not isinstance(recipe, ScenarioRecipe):
        raise TypeError(
            f"recipe must be a ScenarioRecipe, got {type(recipe).__name__}"
        )
    recipe.validate()
    if recipe.name in _RECIPES:
        raise ValueError(f"scenario {recipe.name!r} is already registered")
    _RECIPES[recipe.name] = recipe


def scenario_recipe(ref) -> ScenarioRecipe:
    """Resolve a scenario reference: a registered name or a recipe.

    A :class:`ScenarioRecipe` is returned as is (search-generated
    recipes need no registration); an unknown name raises ``KeyError``
    listing the registered ones.
    """
    if isinstance(ref, ScenarioRecipe):
        return ref
    try:
        return _RECIPES[ref]
    except KeyError:
        raise KeyError(
            f"unknown scenario {ref!r}; available: {list_scenarios()}"
        ) from None


def list_scenarios() -> list[str]:
    """Sorted names of every registered scenario."""
    return sorted(_RECIPES)


def build_scenario(ref, *, random_state=None) -> ScenarioSpec:
    """Build one scenario's :class:`ScenarioSpec`.

    Parameters
    ----------
    ref:
        A name from :func:`list_scenarios`, or a :class:`ScenarioRecipe`.
    random_state:
        Seed/generator for the stochastic parts of testbed construction
        (background-traffic phases, server speeds, ...).  The same seed
        reproduces the same spec exactly.
    """
    return scenario_recipe(ref).build(random_state)


for _recipe in CATALOG_RECIPES.values():
    register_recipe(_recipe)
del _recipe
