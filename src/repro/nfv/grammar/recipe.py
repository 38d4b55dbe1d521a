"""Compositional scenario recipes and the specs they lower to.

A :class:`ScenarioRecipe` composes the five orthogonal axes of
:mod:`repro.nfv.grammar.axes` into one declarative, hashable,
picklable description of a workload regime.  ``recipe.build(seed)``
lowers it to a :class:`ScenarioSpec` (placed testbed, fault injector,
simulator parameters), so everything downstream — dataset builders,
the matrix runner, streaming, serving — rides unchanged.
``recipe.lower(seed)`` is the seeded lowering every run path shares:
it splits the run seed into the spec and the generator that drives the
spec's simulation.

The lowering consumes rng in a fixed order (server-speed draws, then
``build_testbed``'s background-phase draws) that reproduces the legacy
hand-written generators byte for byte; ``tests/nfv/test_grammar_goldens.py``
pins that equivalence against pre-grammar dataset hashes.

``mutate(rng)`` perturbs one or two axes with one seeded draw chain —
the unit step of the adversarial search loop
(:mod:`repro.core.search`).  Legacy scenario *knobs* (``fault_rate``,
``base_kpps``, ...) are declared as dotted paths into the axes
(``knob_paths``), which keeps :func:`repro.nfv.scenarios.build_scenario`'s
override surface working on top of recipes.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace

from repro.nfv.faults import FaultInjector
from repro.nfv.grammar.axes import (
    FaultAxis,
    NoiseAxis,
    ServerAxis,
    TopologyAxis,
    TrafficAxis,
)
from repro.nfv.grammar.errors import RecipeValidationError
from repro.nfv.simulator import SimulationStream, Simulator, Testbed, build_testbed
from repro.utils.rng import Generator, check_random_state, spawn_rngs

__all__ = ["ScenarioRecipe", "ScenarioSpec", "AXIS_NAMES"]

#: Fixed axis order for mutation draws and serialization.
AXIS_NAMES = ("topology", "traffic", "faults", "noise", "servers")

_AXIS_TYPES = {
    "topology": TopologyAxis,
    "traffic": TrafficAxis,
    "faults": FaultAxis,
    "noise": NoiseAxis,
    "servers": ServerAxis,
}


@dataclass
class ScenarioSpec:
    """One fully-configured workload scenario, ready to simulate.

    Attributes
    ----------
    name:
        Name of the recipe the spec was built from.
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
        The recipe's knob values (for reports).
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

        Builds the scenario's simulator and returns a
        :class:`~repro.nfv.simulator.SimulationStream` over
        :class:`~repro.nfv.simulator.EpochBatch` slices.  Pass the data
        generator of :meth:`ScenarioRecipe.lower` as ``random_state``:
        the stream then spawns the same two children as the dataset
        builders (the first, their testbed seed, is unused because the
        testbed is already built), so collecting the full horizon
        reproduces :func:`repro.datasets.make_scenario_dataset` byte for
        byte under the same seed.
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


@dataclass(frozen=True)
class ScenarioRecipe:
    """One composable workload-regime description.

    Attributes
    ----------
    name, description:
        Registry identity (generated recipes carry search provenance in
        the description).
    topology, traffic, faults, noise, servers:
        The five axes.  ``faults=None`` lowers to a fault-free spec.
    default_epochs:
        Suggested run length, forwarded to the spec.
    knob_paths:
        ``((knob_name, "axis.field"), ...)`` — the legacy tunable
        parameters this recipe exposes through
        :func:`repro.nfv.scenarios.build_scenario`.

    Frozen with tuple-valued fields throughout: recipes hash (they key
    the matrix runner's per-process dataset memo) and pickle (they ride
    shard tasks to process-backend workers).
    """

    name: str
    description: str = ""
    topology: TopologyAxis = field(default_factory=TopologyAxis)
    traffic: TrafficAxis = field(default_factory=TrafficAxis)
    faults: FaultAxis | None = field(default_factory=FaultAxis)
    noise: NoiseAxis = field(default_factory=NoiseAxis)
    servers: ServerAxis = field(default_factory=ServerAxis)
    default_epochs: int = 2000
    knob_paths: tuple = ()

    # -- validation ----------------------------------------------------
    def validate(self) -> None:
        """Structural checks; raises a named
        :class:`RecipeValidationError` on the first violation."""
        if not self.name or not isinstance(self.name, str):
            raise RecipeValidationError(
                "recipe", f"name must be a non-empty string, got {self.name!r}"
            )
        if self.default_epochs < 32:
            raise RecipeValidationError(
                "horizon",
                f"default_epochs must be >= 32, got {self.default_epochs}",
            )
        for axis_name in AXIS_NAMES:
            axis = getattr(self, axis_name)
            if axis is None:
                continue
            if not isinstance(axis, _AXIS_TYPES[axis_name]):
                raise RecipeValidationError(
                    "recipe",
                    f"{axis_name} must be a {_AXIS_TYPES[axis_name].__name__},"
                    f" got {type(axis).__name__}",
                )
            axis.validate()
        if self.faults is not None and self.faults.rate > 0.0:
            lo = self.faults.duration_range[0]
            if lo > self.default_epochs:
                raise RecipeValidationError(
                    "fault-feasibility",
                    f"minimum fault duration {lo} cannot fit the "
                    f"{self.default_epochs}-epoch horizon: no feasible "
                    "fault window exists",
                )
        for knob, path in self.knob_paths:
            self._resolve_path(path)  # raises "knobs" on a bad path
            if not isinstance(knob, str) or not knob:
                raise RecipeValidationError(
                    "knobs", f"knob names must be non-empty strings, got {knob!r}"
                )

    # -- legacy knob surface -------------------------------------------
    def _resolve_path(self, path: str) -> tuple[str, str]:
        try:
            axis_name, field_name = path.split(".", 1)
        except ValueError:
            raise RecipeValidationError(
                "knobs", f"knob path {path!r} is not of the form 'axis.field'"
            ) from None
        if axis_name not in AXIS_NAMES:
            raise RecipeValidationError(
                "knobs", f"knob path {path!r} names unknown axis {axis_name!r}"
            )
        axis_type = _AXIS_TYPES[axis_name]
        if field_name not in {f.name for f in fields(axis_type)}:
            raise RecipeValidationError(
                "knobs",
                f"knob path {path!r} names unknown field {field_name!r} "
                f"of {axis_type.__name__}",
            )
        return axis_name, field_name

    def knob_defaults(self) -> dict:
        """Current values at every knob path (the registry defaults)."""
        out = {}
        for knob, path in self.knob_paths:
            axis_name, field_name = self._resolve_path(path)
            axis = getattr(self, axis_name)
            if axis is None:
                raise RecipeValidationError(
                    "knobs", f"knob {knob!r} targets absent axis {axis_name!r}"
                )
            out[knob] = getattr(axis, field_name)
        return out

    def with_knobs(self, **overrides) -> "ScenarioRecipe":
        """Apply legacy knob overrides through their dotted paths."""
        if not overrides:
            return self
        paths = dict(self.knob_paths)
        unknown = set(overrides) - set(paths)
        if unknown:
            raise TypeError(
                f"scenario {self.name!r} got unknown knobs {sorted(unknown)}; "
                f"accepted: {sorted(paths)}"
            )
        per_axis: dict[str, dict] = {}
        for knob, value in overrides.items():
            axis_name, field_name = self._resolve_path(paths[knob])
            if isinstance(value, list):
                value = tuple(value)
            per_axis.setdefault(axis_name, {})[field_name] = value
        updates = {}
        for axis_name, axis_overrides in per_axis.items():
            axis = getattr(self, axis_name)
            if axis is None:
                raise RecipeValidationError(
                    "knobs",
                    f"cannot override {sorted(axis_overrides)} on absent "
                    f"axis {axis_name!r}",
                )
            updates[axis_name] = replace(axis, **axis_overrides)
        return replace(self, **updates)

    # -- mutation ------------------------------------------------------
    def mutate(self, random_state=None) -> "ScenarioRecipe":
        """One seeded mutation step: perturb one or two axes.

        Deterministic given the generator state; the returned recipe
        keeps this recipe's name (the search loop renames children as
        it adopts them).  ``faults=None`` recipes grow a default fault
        axis when the fault axis is drawn — mutation space is connected.
        """
        rng = check_random_state(random_state)
        n_axes = 1 if rng.random() < 0.7 else 2
        picked = []
        for _ in range(n_axes):
            axis_name = AXIS_NAMES[int(rng.integers(0, len(AXIS_NAMES)))]
            if axis_name not in picked:
                picked.append(axis_name)
        updates = {}
        for axis_name in picked:
            axis = getattr(self, axis_name)
            if axis is None:
                updates[axis_name] = FaultAxis()
            else:
                updates[axis_name] = axis.mutate(rng)
        return replace(self, **updates)

    # -- lowering ------------------------------------------------------
    def build(self, random_state=None) -> ScenarioSpec:
        """Lower to a :class:`ScenarioSpec`.

        Byte contract: under the same generator state this reproduces
        the legacy hand-written generator of the equivalent catalog
        scenario exactly — rng is consumed in the fixed order
        (1) server-speed draws over ``sorted(servers)``,
        (2) ``build_testbed``'s per-background-chain phase draws —
        and the monitored chain's traffic model is replaced after the
        testbed is built (construction consumes no rng).
        """
        self.validate()
        rng = check_random_state(random_state)
        topology = self.topology.build()
        self.servers.apply(topology, rng)
        testbed = build_testbed(
            chain_types=self.topology.chain_types,
            base_kpps=self.traffic.base_kpps,
            sla=self.topology.make_sla(),
            n_background=self.topology.n_background,
            topology=topology,
            random_state=rng,
        )
        testbed.traffic = self.traffic.make_model()
        injector = self.faults.make_injector() if self.faults is not None else None
        return ScenarioSpec(
            name=self.name,
            description=self.description,
            testbed=testbed,
            injector=injector,
            simulator_kwargs=self.noise.simulator_kwargs(),
            default_epochs=self.default_epochs,
            knobs=self.knob_defaults(),
        )

    def lower(self, random_state=None) -> tuple[ScenarioSpec, Generator]:
        """The seeded lowering of one run: ``(spec, data_rng)``.

        Spawns two children of ``random_state``; the first builds the
        spec, the second drives its simulation (the dataset builders,
        :meth:`ScenarioSpec.stream` and the acceptance probe all take
        it).  Every run path lowers through here, so a dataset, a stream
        and a probe at the same seed see the same testbed and telemetry.
        """
        scenario_rng, data_rng = spawn_rngs(random_state, 2)
        return self.build(scenario_rng), data_rng

    # -- serialization -------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-ready dict (tuples become lists; ``from_dict`` inverts)."""
        def axis_dict(axis):
            if axis is None:
                return None
            out = {}
            for f in fields(axis):
                value = getattr(axis, f.name)
                if isinstance(value, tuple):
                    value = list(value)
                out[f.name] = value
            return out

        return {
            "name": self.name,
            "description": self.description,
            "default_epochs": self.default_epochs,
            "knob_paths": [list(pair) for pair in self.knob_paths],
            "axes": {
                axis_name: axis_dict(getattr(self, axis_name))
                for axis_name in AXIS_NAMES
            },
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioRecipe":
        """Inverse of :meth:`to_dict`; round-trips exactly."""
        def load_axis(axis_name, axis_data):
            if axis_data is None:
                return None
            axis_type = _AXIS_TYPES[axis_name]
            kwargs = {}
            for f in fields(axis_type):
                if f.name not in axis_data:
                    continue
                value = axis_data[f.name]
                if isinstance(value, list):
                    value = tuple(value)
                kwargs[f.name] = value
            return axis_type(**kwargs)

        axes = data.get("axes", {})
        return cls(
            name=data["name"],
            description=data.get("description", ""),
            default_epochs=int(data.get("default_epochs", 2000)),
            knob_paths=tuple(
                (knob, path) for knob, path in data.get("knob_paths", ())
            ),
            **{
                axis_name: load_axis(axis_name, axes.get(axis_name))
                for axis_name in AXIS_NAMES
                if axes.get(axis_name) is not None or axis_name == "faults"
            },
        )
