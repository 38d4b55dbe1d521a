"""Property-based tests for the scenario-recipe grammar.

Three contracts, checked for *any* seed Hypothesis draws, not just the
committed ones:

* **byte determinism** — ``recipe.build(seed)`` and the dataset built
  from it are pure functions of (recipe, seed);
* **mutation reproducibility** — a seeded mutation chain replays
  exactly, and every mutant stays hashable / serializable;
* **mutants never crash** — any chain of mutations either yields a
  recipe that passes validation (and, where probed, acceptance) or
  fails with a named :class:`RecipeValidationError`; an unstructured
  exception from the grammar is a bug by definition.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import make_scenario_dataset
from repro.nfv.grammar import (
    CATALOG_RECIPES,
    RecipeValidationError,
    ScenarioRecipe,
    accept_recipe,
    validate_recipe,
)
from repro.utils.rng import check_random_state

CATALOG_NAMES = sorted(CATALOG_RECIPES)

recipe_names = st.sampled_from(CATALOG_NAMES)
seeds = st.integers(min_value=0, max_value=2**31 - 1)


def _mutant(name: str, seed: int, steps: int) -> ScenarioRecipe:
    """Apply a deterministic chain of ``steps`` mutations."""
    rng = check_random_state(seed)
    recipe = CATALOG_RECIPES[name]
    for _ in range(steps):
        recipe = recipe.mutate(rng)
    return recipe


class TestBuildDeterminism:
    @given(name=recipe_names, seed=seeds)
    @settings(max_examples=8, deadline=None)
    def test_dataset_bytes_are_a_function_of_recipe_and_seed(
        self, name, seed
    ):
        recipe = CATALOG_RECIPES[name]
        a = make_scenario_dataset(recipe, 64, random_state=seed)
        b = make_scenario_dataset(recipe, 64, random_state=seed)
        assert a.X.values.tobytes() == b.X.values.tobytes()
        assert (a.y == b.y).all()

    @given(name=recipe_names, seed=seeds)
    @settings(max_examples=8, deadline=None)
    def test_build_reproduces_traffic_and_injector(self, name, seed):
        recipe = CATALOG_RECIPES[name]
        a, b = recipe.build(seed), recipe.build(seed)
        assert a.testbed.traffic.base_kpps == b.testbed.traffic.base_kpps
        if a.injector is not None:
            assert a.injector.rate == b.injector.rate
            assert a.injector.kinds == b.injector.kinds
        speeds = lambda s: [  # noqa: E731
            srv.cpu_speed
            for _, srv in sorted(s.testbed.topology.servers.items())
        ]
        assert speeds(a) == speeds(b)


class TestMutationReproducibility:
    @given(
        name=recipe_names,
        seed=seeds,
        steps=st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=20, deadline=None)
    def test_mutation_chain_replays_exactly(self, name, seed, steps):
        assert _mutant(name, seed, steps) == _mutant(name, seed, steps)

    @given(
        name=recipe_names,
        seed=seeds,
        steps=st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=20, deadline=None)
    def test_mutants_stay_hashable_and_serializable(self, name, seed, steps):
        mutant = _mutant(name, seed, steps)
        assert isinstance(hash(mutant), int)
        assert ScenarioRecipe.from_dict(mutant.to_dict()) == mutant

    @given(name=recipe_names, seed=seeds)
    @settings(max_examples=20, deadline=None)
    def test_mutation_keeps_identity_fields(self, name, seed):
        mutant = _mutant(name, seed, 1)
        recipe = CATALOG_RECIPES[name]
        assert mutant.name == recipe.name
        assert mutant.description == recipe.description
        assert mutant.default_epochs == recipe.default_epochs


class TestMutantsNeverCrash:
    @given(
        name=recipe_names,
        seed=seeds,
        steps=st.integers(min_value=1, max_value=6),
    )
    @settings(max_examples=40, deadline=None)
    def test_structural_validation_passes_or_names_the_failure(
        self, name, seed, steps
    ):
        mutant = _mutant(name, seed, steps)
        try:
            validate_recipe(mutant)
        except RecipeValidationError:
            pass  # a *named* rejection is a valid outcome
        # anything else propagates and fails the property

    @given(
        name=recipe_names,
        seed=seeds,
        steps=st.integers(min_value=1, max_value=3),
    )
    @settings(max_examples=6, deadline=None)
    def test_acceptance_probe_passes_or_names_the_failure(
        self, name, seed, steps
    ):
        mutant = _mutant(name, seed, steps)
        try:
            report = accept_recipe(
                mutant, probe_epochs=64, random_state=0
            )
        except RecipeValidationError:
            return
        assert report.n_violations >= 2
        assert report.probe_epochs >= 64

    @given(seed=seeds)
    @settings(max_examples=10, deadline=None)
    def test_faultless_recipes_mutate_without_crashing(self, seed):
        recipe = ScenarioRecipe(name="x", faults=None)
        mutant = recipe.mutate(seed)
        try:
            validate_recipe(mutant)
        except RecipeValidationError:
            pytest.fail(
                "a single mutation of the default fault-free recipe "
                "must stay structurally valid"
            )
