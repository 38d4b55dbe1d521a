"""Named, seedable workload scenarios for the NFV testbed.

The paper's evaluation runs on a single synthetic testbed shape; real
deployments see wildly different regimes (bursty CDN traffic, strong
diurnal ISP swings, fault storms during rollouts, heterogeneous server
fleets, ...).  An explainer that looks faithful under one regime may
fall apart under another, so every explainer/model pairing should be
stress-tested across a *catalog* of conditions.

This module is that catalog: a registry of scenario recipes, each
lowered with a random generator (plus scenario-specific knobs) to a
fully-configured :class:`ScenarioSpec` — a placed testbed, a fault
injector, and simulator parameters.  Everything downstream
(dataset builders, the matrix experiment runner, the CLI, benches)
refers to scenarios by name::

    from repro.nfv.scenarios import build_scenario, list_scenarios

    list_scenarios()
    # ['baseline', 'bursty-traffic', 'cascading-overload', ...]

    spec = build_scenario("fault-storm", random_state=7)
    sim = Simulator(spec.testbed, random_state=7, **spec.simulator_kwargs)
    result = sim.run(2000, fault_injector=spec.injector)

Since the scenario-grammar rework, the *source of truth* for the
catalog is :mod:`repro.nfv.grammar`: the 8 legacy regimes are
declarative :class:`~repro.nfv.grammar.recipe.ScenarioRecipe` objects
(see ``repro.nfv.grammar.catalog``), registered here through
:func:`register_recipe`, which also registers custom recipes.  The
re-expression is byte-exact — golden tests pin each recipe's
:func:`repro.datasets.make_scenario_dataset` output against hashes
captured before the grammar existed.

Scenarios are deterministic: the same name and integer seed always
produce the same testbed, schedule distribution, and (through
:func:`repro.datasets.make_scenario_dataset`) byte-identical datasets.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.nfv.faults import FaultInjector
from repro.nfv.simulator import SimulationStream, Simulator, Testbed
from repro.utils.rng import check_random_state, spawn_rngs

__all__ = [
    "ScenarioSpec",
    "register_recipe",
    "list_scenarios",
    "scenario_descriptions",
    "scenario_knobs",
    "scenario_recipe",
    "build_scenario",
]


@dataclass
class ScenarioSpec:
    """One fully-configured workload scenario, ready to simulate.

    Attributes
    ----------
    name:
        Registry name the spec was built from.
    description:
        One-line operator-facing summary of the regime.
    testbed:
        Placed deployment (topology + monitored chain + background).
    injector:
        Fault injector to draw schedules from (``None`` = fault-free).
    simulator_kwargs:
        Extra keyword arguments for :class:`~repro.nfv.simulator.Simulator`
        (e.g. ``measurement_noise``).
    default_epochs:
        Suggested run length for a representative dataset.
    knobs:
        The resolved knob values the generator used (for reports).
    """

    name: str
    description: str
    testbed: Testbed
    injector: FaultInjector | None
    simulator_kwargs: dict = field(default_factory=dict)
    default_epochs: int = 2000
    knobs: dict = field(default_factory=dict)

    def stream(
        self,
        n_epochs: int | None = None,
        *,
        batch_epochs: int = 64,
        random_state=None,
    ) -> SimulationStream:
        """Simulate this scenario lazily, yielding epoch batches.

        The online counterpart of materializing a dataset from the
        spec: builds the scenario's simulator and returns a
        :class:`~repro.nfv.simulator.SimulationStream` over
        :class:`~repro.nfv.simulator.EpochBatch` slices.  The RNG
        discipline mirrors the dataset builders exactly — two child
        generators are spawned and the first (the testbed seed, unused
        here because the testbed is already built) is discarded — so
        streaming the full horizon and collecting reproduces
        :func:`repro.datasets.make_scenario_dataset` byte for byte
        under the same seed when driven through
        :func:`repro.datasets.stream_scenario_telemetry`.
        """
        if n_epochs is None:
            n_epochs = self.default_epochs
        rng = check_random_state(random_state)
        _tb_rng, sim_rng = spawn_rngs(rng, 2)
        sim = Simulator(
            self.testbed, random_state=sim_rng, **self.simulator_kwargs
        )
        return sim.stream(
            n_epochs, batch_epochs=batch_epochs, fault_injector=self.injector
        )


#: name -> the registered :class:`ScenarioRecipe`
_RECIPES: dict = {}


def register_recipe(recipe) -> None:
    """Register a grammar :class:`ScenarioRecipe` as a named scenario.

    The recipe's ``knob_paths`` become the scenario's tunable knobs
    (``build_scenario(name, knob=value)`` routes overrides through
    :meth:`ScenarioRecipe.with_knobs`), and the recipe itself stays
    reachable via :func:`scenario_recipe` for mutation and search.
    """
    from repro.nfv.grammar.recipe import ScenarioRecipe

    if not isinstance(recipe, ScenarioRecipe):
        raise TypeError(
            f"recipe must be a ScenarioRecipe, got {type(recipe).__name__}"
        )
    if recipe.name in _RECIPES:
        raise ValueError(f"scenario {recipe.name!r} is already registered")
    _RECIPES[recipe.name] = recipe


def scenario_recipe(name: str):
    """The :class:`ScenarioRecipe` behind one registered scenario;
    ``KeyError`` for unknown names."""
    try:
        return _RECIPES[name]
    except KeyError:
        raise KeyError(
            f"unknown scenario {name!r}; available: {list_scenarios()}"
        ) from None


def list_scenarios() -> list[str]:
    """Sorted names of every registered scenario."""
    return sorted(_RECIPES)


def scenario_descriptions() -> dict[str, str]:
    """Mapping of scenario name to its one-line description."""
    return {name: _RECIPES[name].description for name in list_scenarios()}


def scenario_knobs(name: str) -> dict:
    """Default knob values of one scenario (for docs and reports)."""
    return scenario_recipe(name).knob_defaults()


def build_scenario(name: str, *, random_state=None, **knobs) -> ScenarioSpec:
    """Build one scenario's :class:`ScenarioSpec` by registry name.

    Parameters
    ----------
    name:
        A name from :func:`list_scenarios`.
    random_state:
        Seed/generator for the stochastic parts of testbed construction
        (background-traffic phases, server speeds, ...).  The same seed
        reproduces the same spec exactly.
    knobs:
        Scenario-specific overrides; unknown knobs raise ``TypeError``
        so typos fail loudly.
    """
    recipe = scenario_recipe(name)
    defaults = recipe.knob_defaults()
    spec = recipe.with_knobs(**knobs).build(check_random_state(random_state))
    spec.knobs = {**defaults, **knobs}
    return spec


# ----------------------------------------------------------------------
# the catalog: grammar recipes, registered at import time
# ----------------------------------------------------------------------
# Imported at the bottom so ScenarioSpec and the registry exist before
# the grammar package (whose recipes lower to ScenarioSpec) loads.
from repro.nfv.grammar.catalog import CATALOG_RECIPES  # noqa: E402

for _recipe in CATALOG_RECIPES.values():
    register_recipe(_recipe)
del _recipe
