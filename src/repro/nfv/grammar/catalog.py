"""The legacy scenario catalog, re-expressed as grammar recipes.

Each of the 8 hand-written generators from the pre-grammar
``repro.nfv.scenarios`` is transcribed here as a declarative
:class:`~repro.nfv.grammar.recipe.ScenarioRecipe`.  The transcription
is byte-exact: ``recipe.build(rng)`` consumes rng in the same order and
lowers to the same testbed/injector/simulator parameters as the old
generator did, so :func:`repro.datasets.make_scenario_dataset` output
is unchanged — ``tests/nfv/test_grammar_goldens.py`` pins this against
dataset hashes captured before the grammar existed.

:mod:`repro.nfv.scenarios` registers these recipes at import; its
registry is the one name -> recipe table.

Also home to the *generated-recipe store*: adversarial-search winners
(:mod:`repro.core.search`) are serialized to a JSON sidecar via
:func:`save_generated` and read back by :func:`load_generated`
(``repro scenarios list --generated``).  They are never registered:
pass a loaded recipe itself wherever a scenario is taken (datasets,
streams, the matrix, the search); ``repro scenarios run`` takes
registered names only.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.nfv.grammar.axes import (
    FaultAxis,
    NoiseAxis,
    ServerAxis,
    TopologyAxis,
    TrafficAxis,
)
from repro.nfv.grammar.recipe import ScenarioRecipe

__all__ = [
    "CATALOG_RECIPES",
    "DEFAULT_GENERATED_STORE",
    "save_generated",
    "load_generated",
]

#: Default sidecar file for adversarial-search winners.
DEFAULT_GENERATED_STORE = "generated_scenarios.json"

_LONG_CHAIN_TYPES = (
    "firewall", "nat", "ids", "lb", "dpi", "wanopt", "cache", "transcoder",
)

#: The 8 legacy regimes.  Order matches the original module's
#: registration order; names and descriptions are identical.
CATALOG_RECIPES = {
    recipe.name: recipe
    for recipe in (
        ScenarioRecipe(
            name="baseline",
            description="the paper's canonical testbed: mixed faults at a low rate",
            knob_paths=(
                ("base_kpps", "traffic.base_kpps"),
                ("fault_rate", "faults.rate"),
            ),
        ),
        ScenarioRecipe(
            name="bursty-traffic",
            description=(
                "CDN-style load: frequent heavy-tailed flash crowds, surge faults"
            ),
            traffic=TrafficAxis(
                base_kpps=380.0,
                diurnal_amplitude=0.2,
                noise_sigma=0.15,
                flash_crowd_rate=0.02,
                flash_magnitude=2.6,
                flash_duration_epochs=20,
            ),
            faults=FaultAxis(
                kinds=("traffic_surge", "cpu_contention"),
                rate=0.012,
                duration_range=(8, 30),
            ),
            knob_paths=(
                ("base_kpps", "traffic.base_kpps"),
                ("flash_crowd_rate", "traffic.flash_crowd_rate"),
                ("flash_magnitude", "traffic.flash_magnitude"),
                ("fault_rate", "faults.rate"),
            ),
        ),
        ScenarioRecipe(
            name="diurnal",
            description=(
                "ISP-style day/night swing: violations cluster at the daily peak"
            ),
            traffic=TrafficAxis(
                base_kpps=420.0,
                diurnal_amplitude=0.6,
                period_epochs=288,
                noise_sigma=0.05,
                flash_crowd_rate=0.001,
            ),
            faults=FaultAxis(rate=0.008),
            knob_paths=(
                ("base_kpps", "traffic.base_kpps"),
                ("diurnal_amplitude", "traffic.diurnal_amplitude"),
                ("period_epochs", "traffic.period_epochs"),
                ("fault_rate", "faults.rate"),
            ),
        ),
        ScenarioRecipe(
            name="fault-storm",
            description=(
                "rollout gone wrong: short, frequent, severe faults of every kind"
            ),
            faults=FaultAxis(
                rate=0.06,
                duration_range=(5, 20),
                severity_range=(0.5, 1.0),
            ),
            knob_paths=(
                ("fault_rate", "faults.rate"),
                ("severity_range", "faults.severity_range"),
            ),
        ),
        ScenarioRecipe(
            name="cascading-overload",
            description=(
                "dense co-location near the knee: contention faults cascade"
            ),
            topology=TopologyAxis(n_background=4),
            traffic=TrafficAxis(base_kpps=450.0),
            faults=FaultAxis(
                kinds=("cpu_contention", "traffic_surge"),
                rate=0.015,
                duration_range=(10, 30),
                severity_range=(0.5, 0.9),
            ),
            knob_paths=(
                ("base_kpps", "traffic.base_kpps"),
                ("n_background", "topology.n_background"),
                ("fault_rate", "faults.rate"),
            ),
        ),
        ScenarioRecipe(
            name="noisy-telemetry",
            description=(
                "degraded monitoring plane: 12% relative measurement noise"
            ),
            noise=NoiseAxis(measurement_noise=0.12),
            knob_paths=(
                ("measurement_noise", "noise.measurement_noise"),
                ("fault_rate", "faults.rate"),
            ),
        ),
        ScenarioRecipe(
            name="long-chain",
            description=(
                "an 8-VNF service chain spread over six servers, relaxed SLA"
            ),
            topology=TopologyAxis(
                servers_per_leaf=3,
                chain_types=_LONG_CHAIN_TYPES,
                sla_latency_ms=5.0,
            ),
            traffic=TrafficAxis(base_kpps=320.0),
            knob_paths=(
                ("base_kpps", "traffic.base_kpps"),
                ("fault_rate", "faults.rate"),
            ),
        ),
        ScenarioRecipe(
            name="heterogeneous-servers",
            description=(
                "mixed-generation fleet: per-server CPU speeds in [0.6, 1.4]"
            ),
            servers=ServerAxis(speed_range=(0.6, 1.4)),
            knob_paths=(
                ("speed_range", "servers.speed_range"),
                ("fault_rate", "faults.rate"),
            ),
        ),
    )
}


# ----------------------------------------------------------------------
# generated-recipe store
# ----------------------------------------------------------------------
def save_generated(recipes, path=DEFAULT_GENERATED_STORE) -> Path:
    """Serialize generated recipes to a JSON store (sorted, stable).

    Overwrites the target; the store is a search artifact, regenerated
    deterministically from the search seed.
    """
    path = Path(path)
    payload = {
        "version": 1,
        "recipes": [
            recipe.to_dict()
            for recipe in sorted(recipes, key=lambda r: r.name)
        ],
    }
    path.write_text(
        json.dumps(payload, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    return path


def load_generated(path=DEFAULT_GENERATED_STORE) -> dict:
    """Load a generated-recipe store; ``{}`` when the file is absent."""
    path = Path(path)
    if not path.exists():
        return {}
    payload = json.loads(path.read_text(encoding="utf-8"))
    version = payload.get("version")
    if version != 1:
        raise ValueError(
            f"unsupported generated-recipe store version {version!r} "
            f"in {path}"
        )
    recipes = [
        ScenarioRecipe.from_dict(entry) for entry in payload.get("recipes", ())
    ]
    return {recipe.name: recipe for recipe in recipes}
