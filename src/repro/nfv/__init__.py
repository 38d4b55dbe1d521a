"""NFV substrate: topology, VNFs, service chains, traffic, faults, and
an epoch-based performance simulator that produces labelled telemetry.

This package replaces the production NFV traces the paper would have
used (see DESIGN.md "Substitutions"): every telemetry feature is
produced by an explicit queueing/contention model, so the causal path
from features to SLA outcomes is known — which is what the explanation
experiments need.

Typical usage::

    from repro.nfv import (
        build_testbed, FaultInjector, Simulator, TrafficModel,
    )

    testbed = build_testbed(random_state=7)
    sim = Simulator(testbed, random_state=7)
    result = sim.run(n_epochs=2000)
    X = result.features          # FeatureMatrix with named columns
    y = result.sla_violation     # binary labels
"""

from repro.nfv.faults import FaultEvent, FaultInjector, FaultKind
from repro.nfv.placement import (
    BestFitPlacement,
    FirstFitPlacement,
    PlacementError,
    RandomPlacement,
    WorstFitPlacement,
)
from repro.nfv.queueing import (
    mg1_waiting_time,
    mm1_queue_length,
    mm1_waiting_time,
    mmc_waiting_time,
    mm1k_loss_probability,
)
from repro.nfv.scenarios import (
    ScenarioSpec,
    build_scenario,
    list_scenarios,
    register_recipe,
    scenario_recipe,
)
from repro.nfv.sfc import SLA, ServiceFunctionChain
from repro.nfv.simulator import SimulationResult, Simulator, Testbed, build_testbed
from repro.nfv.topology import NfviTopology, Server
from repro.nfv.traffic import TrafficModel
from repro.nfv.vnf import VNF_CATALOG, VNFInstance, VNFProfile

__all__ = [
    "BestFitPlacement",
    "build_scenario",
    "build_testbed",
    "FaultEvent",
    "FaultInjector",
    "FaultKind",
    "FirstFitPlacement",
    "list_scenarios",
    "mg1_waiting_time",
    "mm1_queue_length",
    "mm1_waiting_time",
    "mm1k_loss_probability",
    "mmc_waiting_time",
    "NfviTopology",
    "PlacementError",
    "RandomPlacement",
    "register_recipe",
    "scenario_recipe",
    "ScenarioSpec",
    "Server",
    "ServiceFunctionChain",
    "SimulationResult",
    "Simulator",
    "SLA",
    "Testbed",
    "TrafficModel",
    "VNF_CATALOG",
    "VNFInstance",
    "VNFProfile",
    "WorstFitPlacement",
]
