"""Compositional scenario grammar for the NFV testbed.

The only representation of a scenario: a :class:`ScenarioRecipe`
composes five orthogonal axes (topology, traffic shape, fault mix,
telemetry noise, server heterogeneity) into one declarative, seedable,
mutable description of a workload regime.  ``recipe.build(seed)``
lowers to a :class:`~repro.nfv.grammar.recipe.ScenarioSpec`, and
``recipe.lower(seed)`` is the seeded lowering every run path shares.
The 8 legacy regimes live on as :data:`CATALOG_RECIPES`
(byte-identical datasets, golden-pinned), which
:mod:`repro.nfv.scenarios` registers.  The catalog regimes and every
search winner pass the :func:`accept_recipe` harness.
"""

from repro.nfv.grammar.accept import (
    AcceptanceReport,
    accept_recipe,
    validate_recipe,
)
from repro.nfv.grammar.axes import (
    CHAIN_VNF_TYPES,
    FaultAxis,
    NoiseAxis,
    ServerAxis,
    TopologyAxis,
    TrafficAxis,
)
from repro.nfv.grammar.catalog import (
    CATALOG_RECIPES,
    DEFAULT_GENERATED_STORE,
    load_generated,
    save_generated,
)
from repro.nfv.grammar.errors import CHECKS, RecipeValidationError
from repro.nfv.grammar.recipe import AXIS_NAMES, ScenarioRecipe

__all__ = [
    "AXIS_NAMES",
    "AcceptanceReport",
    "CATALOG_RECIPES",
    "CHAIN_VNF_TYPES",
    "CHECKS",
    "DEFAULT_GENERATED_STORE",
    "FaultAxis",
    "NoiseAxis",
    "RecipeValidationError",
    "ScenarioRecipe",
    "ServerAxis",
    "TopologyAxis",
    "TrafficAxis",
    "accept_recipe",
    "load_generated",
    "save_generated",
    "validate_recipe",
]
