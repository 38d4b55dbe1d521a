"""The three NFV learning tasks built on the simulator.

Each builder runs the canonical testbed (or a caller-supplied one) and
packages features + labels + ground truth into an :class:`NFVDataset`,
which keeps everything an explanation experiment later needs (culprit
VNFs, fault schedule, the simulation result itself).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.nfv.faults import NO_FAULT, FaultInjector
from repro.nfv.grammar.recipe import ScenarioRecipe
from repro.nfv.scenarios import scenario_recipe
from repro.nfv.simulator import SimulationResult, Simulator, Testbed, build_testbed
from repro.utils.rng import check_random_state, spawn_rngs
from repro.utils.tabular import FeatureMatrix

__all__ = [
    "NFVDataset",
    "make_sla_violation_dataset",
    "make_latency_dataset",
    "make_root_cause_dataset",
    "make_scenario_dataset",
    "stream_scenario_telemetry",
]


@dataclass
class NFVDataset:
    """A learning problem extracted from one simulation run.

    Attributes
    ----------
    X:
        Telemetry features (named columns).
    y:
        Task labels (binary ints, floats, or string classes).
    task:
        ``"sla_violation"``, ``"latency"`` or ``"root_cause"``.
    result:
        The full :class:`SimulationResult` the samples came from.
    rows:
        Indices into the simulation epochs each sample corresponds to
        (identity for the first two tasks, a subset for root-cause).
    metadata:
        Free-form provenance (e.g. the scenario name and knobs the
        dataset was generated under).
    """

    X: FeatureMatrix
    y: np.ndarray
    task: str
    result: SimulationResult
    rows: np.ndarray = field(default_factory=lambda: np.empty(0, int))
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        if len(self.X) != len(self.y):
            raise ValueError(
                f"X has {len(self.X)} rows but y has {len(self.y)}"
            )
        if self.rows.size == 0:
            self.rows = np.arange(len(self.y))

    @property
    def feature_names(self) -> list[str]:
        return self.X.feature_names

    def culprits_for_sample(self, sample_index: int) -> tuple[int, ...]:
        """Ground-truth culprit VNF indices for one sample."""
        return self.result.culprit_vnfs[self.rows[sample_index]]


def _resolve_injector(fault_injector, with_faults):
    """Default injector unless the caller supplied one (scenarios do)."""
    if fault_injector is not None:
        if not with_faults:
            raise ValueError("fault_injector conflicts with with_faults=False")
        return fault_injector
    return FaultInjector() if with_faults else None


def _run(testbed, n_epochs, injector, random_state, simulator_kwargs):
    rng = check_random_state(random_state)
    tb_rng, sim_rng = spawn_rngs(rng, 2)
    if testbed is None:
        testbed = build_testbed(random_state=tb_rng)
    if not isinstance(testbed, Testbed):
        raise TypeError(f"testbed must be a Testbed, got {type(testbed).__name__}")
    sim = Simulator(testbed, random_state=sim_rng, **(simulator_kwargs or {}))
    return sim.run(n_epochs, fault_injector=injector)


def make_sla_violation_dataset(
    n_epochs: int = 4000,
    *,
    testbed: Testbed | None = None,
    with_faults: bool = True,
    fault_injector: FaultInjector | None = None,
    horizon: int = 0,
    random_state=None,
    simulator_kwargs: dict | None = None,
) -> NFVDataset:
    """Binary classification: will this epoch violate the chain's SLA?

    This is the headline task (E1, E3–E5, E7): features are the noisy
    telemetry, the label is the ground-truth SLA check.

    ``horizon > 0`` turns diagnosis into *forecasting*: features at
    epoch ``t`` predict the violation at ``t + horizon``, which removes
    the near-deterministic shortcut of reading the current queue delays.
    ``fault_injector`` replaces the default injector (scenarios pass
    their own); it requires ``with_faults=True``.
    """
    if horizon < 0:
        raise ValueError(f"horizon must be >= 0, got {horizon}")
    injector = _resolve_injector(fault_injector, with_faults)
    result = _run(testbed, n_epochs, injector, random_state, simulator_kwargs)
    X = result.features
    y = result.sla_violation.copy()
    rows = np.arange(result.n_epochs)
    if horizon > 0:
        X = X.take(np.arange(result.n_epochs - horizon))
        y = y[horizon:]
        rows = np.arange(horizon, result.n_epochs)
    return NFVDataset(
        X=X,
        y=y,
        task="sla_violation",
        result=result,
        rows=rows,
    )


def make_latency_dataset(
    n_epochs: int = 4000,
    *,
    testbed: Testbed | None = None,
    with_faults: bool = True,
    fault_injector: FaultInjector | None = None,
    log_target: bool = False,
    horizon: int = 0,
    random_state=None,
    simulator_kwargs: dict | None = None,
) -> NFVDataset:
    """Regression: predict the chain's end-to-end latency (ms).

    ``log_target`` trains on ``log1p(latency)`` — the latency
    distribution is heavy-tailed, and tree ensembles regress the log
    much better.  ``horizon`` shifts the target forward as in
    :func:`make_sla_violation_dataset`.
    """
    if horizon < 0:
        raise ValueError(f"horizon must be >= 0, got {horizon}")
    injector = _resolve_injector(fault_injector, with_faults)
    result = _run(testbed, n_epochs, injector, random_state, simulator_kwargs)
    y = result.latency_ms.copy()
    if log_target:
        y = np.log1p(y)
    X = result.features
    rows = np.arange(result.n_epochs)
    if horizon > 0:
        X = X.take(np.arange(result.n_epochs - horizon))
        y = y[horizon:]
        rows = np.arange(horizon, result.n_epochs)
    return NFVDataset(X=X, y=y, task="latency", result=result, rows=rows)


def make_root_cause_dataset(
    n_epochs: int = 6000,
    *,
    testbed: Testbed | None = None,
    include_none_fraction: float = 0.5,
    fault_rate: float = 0.02,
    fault_injector: FaultInjector | None = None,
    random_state=None,
    simulator_kwargs: dict | None = None,
) -> NFVDataset:
    """Multi-class: which fault kind (or none) explains this epoch?

    Samples every fault-active epoch plus a random subset of fault-free
    epochs (``include_none_fraction`` of the fault count, so classes are
    not hopelessly imbalanced).  ``rows`` maps samples back to epochs so
    the culprit-VNF ground truth stays reachable (E6).
    ``fault_injector`` overrides the default ``FaultInjector(rate=fault_rate)``.
    """
    if not 0.0 <= include_none_fraction <= 10.0:
        raise ValueError(
            f"include_none_fraction must be in [0, 10], got {include_none_fraction}"
        )
    rng = check_random_state(random_state)
    data_rng, pick_rng = spawn_rngs(rng, 2)
    injector = (
        fault_injector
        if fault_injector is not None
        else FaultInjector(rate=fault_rate)
    )
    result = _run(testbed, n_epochs, injector, data_rng, simulator_kwargs)

    labels = result.root_cause
    fault_rows = np.flatnonzero(labels != NO_FAULT)
    none_rows = np.flatnonzero(labels == NO_FAULT)
    n_none = min(len(none_rows), int(round(include_none_fraction * len(fault_rows))))
    if n_none > 0:
        none_pick = pick_rng.choice(none_rows, size=n_none, replace=False)
        rows = np.sort(np.concatenate([fault_rows, none_pick]))
    else:
        rows = fault_rows
    if len(rows) == 0:
        raise RuntimeError(
            "simulation produced no fault epochs; increase n_epochs or fault_rate"
        )
    return NFVDataset(
        X=result.features.take(rows),
        y=labels[rows].astype(str),
        task="root_cause",
        result=result,
        rows=rows,
    )


def make_scenario_dataset(
    name: str | ScenarioRecipe,
    n_epochs: int | None = None,
    *,
    task: str = "sla_violation",
    horizon: int = 0,
    random_state=None,
    scenario_kwargs: dict | None = None,
    **task_kwargs,
) -> NFVDataset:
    """Build a learning task under a workload scenario.

    ``name`` is a registry name or a grammar
    :class:`~repro.nfv.grammar.recipe.ScenarioRecipe`, resolved by
    :func:`repro.nfv.scenarios.scenario_recipe` — search-generated
    recipes need no registration to be materialized.  The recipe is
    lowered by :meth:`~repro.nfv.grammar.recipe.ScenarioRecipe.lower`,
    the requested task builder runs on the spec with the lowering's
    data generator, and the scenario provenance is stamped into
    ``dataset.metadata``.

    Deterministic: the same scenario and integer ``random_state``
    produce a byte-identical dataset (features, labels, culprits, fault
    schedule) on every call — and a recipe produces the same bytes as
    the registry name it backs.

    Parameters
    ----------
    name:
        A scenario from :func:`repro.nfv.scenarios.list_scenarios`, or
        a :class:`ScenarioRecipe`.
    n_epochs:
        Run length; defaults to the scenario's ``default_epochs``.
    task:
        ``"sla_violation"`` (default), ``"latency"`` or ``"root_cause"``.
    horizon:
        Forecasting horizon for the first two tasks.
    scenario_kwargs:
        Knob overrides, applied by
        :meth:`~repro.nfv.grammar.recipe.ScenarioRecipe.with_knobs`.
    task_kwargs:
        Extra arguments for the underlying task builder (e.g.
        ``log_target=True`` for latency).
    """
    spec, data_rng = scenario_recipe(name).with_knobs(
        **(scenario_kwargs or {})
    ).lower(random_state)
    if n_epochs is None:
        n_epochs = spec.default_epochs
    common = dict(
        testbed=spec.testbed,
        fault_injector=spec.injector,
        random_state=data_rng,
        simulator_kwargs=spec.simulator_kwargs,
    )
    forecast_builders = {
        "sla_violation": make_sla_violation_dataset,
        "latency": make_latency_dataset,
    }
    if task in forecast_builders:
        dataset = forecast_builders[task](
            n_epochs,
            with_faults=spec.injector is not None,
            horizon=horizon,
            **common,
            **task_kwargs,
        )
    elif task == "root_cause":
        if spec.injector is None:
            raise ValueError(
                f"scenario {spec.name!r} is fault-free; root_cause needs faults"
            )
        if horizon != 0:
            raise ValueError("root_cause does not support a horizon")
        dataset = make_root_cause_dataset(n_epochs, **common, **task_kwargs)
    else:
        raise ValueError(
            f"unknown task {task!r}; choose sla_violation, latency or "
            "root_cause"
        )
    dataset.metadata.update(
        scenario=spec.name,
        description=spec.description,
        knobs=dict(spec.knobs),
        simulator_kwargs=dict(spec.simulator_kwargs),
    )
    return dataset


def stream_scenario_telemetry(
    name: str | ScenarioRecipe,
    n_epochs: int | None = None,
    *,
    batch_epochs: int = 64,
    random_state=None,
    scenario_kwargs: dict | None = None,
):
    """Stream a scenario's telemetry as epoch batches.

    ``name`` is a registry name or a grammar
    :class:`~repro.nfv.grammar.recipe.ScenarioRecipe`, as in
    :func:`make_scenario_dataset`.

    The online counterpart of :func:`make_scenario_dataset` for the
    ``sla_violation`` task: instead of materializing one
    :class:`NFVDataset` up front, it returns a
    :class:`~repro.nfv.simulator.SimulationStream` yielding
    :class:`~repro.nfv.simulator.EpochBatch` slices of ``batch_epochs``
    epochs — what the streaming diagnosis engine
    (:class:`repro.core.stream.StreamingDiagnosisEngine`) consumes.

    Determinism contract: both lower the scenario through
    :meth:`~repro.nfv.grammar.recipe.ScenarioRecipe.lower`, so
    streaming the full horizon and calling
    :meth:`~repro.nfv.simulator.SimulationStream.collect` reproduces
    the materialized dataset's features and labels byte for byte under
    the same integer ``random_state``
    (``tests/core/test_properties_stream.py`` enforces this).

    The returned stream additionally carries the built
    :class:`~repro.nfv.grammar.recipe.ScenarioSpec` as ``stream.spec``.
    """
    spec, data_rng = scenario_recipe(name).with_knobs(
        **(scenario_kwargs or {})
    ).lower(random_state)
    stream = spec.stream(
        n_epochs, batch_epochs=batch_epochs, random_state=data_rng
    )
    stream.spec = spec
    return stream
