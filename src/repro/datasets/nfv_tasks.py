"""The three NFV learning tasks built on the simulator.

Every dataset is one simulation cut into a task: the standalone
builders simulate the canonical testbed, :func:`make_scenario_dataset`
collects a scenario spec's stream, and both shape the same
:class:`~repro.nfv.simulator.SimulationResult` through one forecast
helper (SLA, latency) or one row sampler (root cause).  An
:class:`NFVDataset` keeps everything an explanation experiment later
needs (culprit VNFs, fault schedule, the simulation result itself).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.nfv.faults import NO_FAULT, FaultInjector
from repro.nfv.grammar.recipe import ScenarioRecipe
from repro.nfv.scenarios import scenario_recipe
from repro.nfv.simulator import SimulationResult, Simulator, build_testbed
from repro.utils.rng import spawn_rngs
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
        Free-form provenance (e.g. the scenario name and the recipe the
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


def _canonical_run(n_epochs, injector, random_state) -> SimulationResult:
    """Simulate the canonical testbed: the first child of
    ``random_state`` builds it, the second seeds the simulator (the
    split :meth:`~repro.nfv.grammar.recipe.ScenarioSpec.stream` makes
    for a scenario's prebuilt testbed)."""
    tb_rng, sim_rng = spawn_rngs(random_state, 2)
    sim = Simulator(build_testbed(random_state=tb_rng), random_state=sim_rng)
    return sim.run(n_epochs, fault_injector=injector)


def _forecast(task, result, target, horizon) -> NFVDataset:
    """Features at epoch ``t`` against ``target`` at ``t + horizon``."""
    n = result.n_epochs
    if not 0 <= horizon < n:
        raise ValueError(
            f"horizon must be >= 0 and shorter than the run; got horizon "
            f"{horizon} for a {n}-epoch run"
        )
    X = result.features
    return NFVDataset(
        X=FeatureMatrix(X.values[: n - horizon], X.feature_names),
        y=target[horizon:].copy(),
        task=task,
        result=result,
        rows=np.arange(horizon, n),
    )


def _sla_target(result):
    return result.sla_violation


def _latency_target(result, log_target=False):
    return np.log1p(result.latency_ms) if log_target else result.latency_ms


_FORECAST_TARGETS = {"sla_violation": _sla_target, "latency": _latency_target}


def _root_cause(result, pick_rng, include_none_fraction=0.5) -> NFVDataset:
    """Every fault-active epoch plus ``include_none_fraction`` times as
    many fault-free ones, drawn by ``pick_rng``."""
    if not 0.0 <= include_none_fraction <= 10.0:
        raise ValueError(
            f"include_none_fraction must be in [0, 10], got {include_none_fraction}"
        )
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
            "simulation produced no fault epochs; increase n_epochs (or, "
            "for a scenario, the recipe's faults.rate)"
        )
    return NFVDataset(
        X=result.features.take(rows),
        y=labels[rows].astype(str),
        task="root_cause",
        result=result,
        rows=rows,
    )


def make_sla_violation_dataset(
    n_epochs: int = 4000,
    *,
    with_faults: bool = True,
    horizon: int = 0,
    random_state=None,
) -> NFVDataset:
    """Binary classification: will this epoch violate the chain's SLA?

    This is the headline task (E1, E3–E5, E7): features are the noisy
    telemetry of the canonical testbed, the label is the ground-truth
    SLA check.  ``with_faults`` draws a default
    :class:`~repro.nfv.faults.FaultInjector` schedule.

    ``horizon > 0`` turns diagnosis into *forecasting*: features at
    epoch ``t`` predict the violation at ``t + horizon``, which removes
    the near-deterministic shortcut of reading the current queue delays.
    A horizon at or beyond ``n_epochs`` raises ``ValueError``.
    """
    injector = FaultInjector() if with_faults else None
    result = _canonical_run(n_epochs, injector, random_state)
    return _forecast("sla_violation", result, result.sla_violation, horizon)


def make_latency_dataset(
    n_epochs: int = 4000,
    *,
    with_faults: bool = True,
    log_target: bool = False,
    horizon: int = 0,
    random_state=None,
) -> NFVDataset:
    """Regression: predict the chain's end-to-end latency (ms).

    ``log_target`` trains on ``log1p(latency)`` — the latency
    distribution is heavy-tailed, and tree ensembles regress the log
    much better.  ``with_faults`` and ``horizon`` are as in
    :func:`make_sla_violation_dataset`.
    """
    injector = FaultInjector() if with_faults else None
    result = _canonical_run(n_epochs, injector, random_state)
    return _forecast(
        "latency", result, _latency_target(result, log_target), horizon
    )


def make_root_cause_dataset(
    n_epochs: int = 6000,
    *,
    include_none_fraction: float = 0.5,
    random_state=None,
) -> NFVDataset:
    """Multi-class: which fault kind (or none) explains this epoch?

    Simulates the canonical testbed under a ``FaultInjector(rate=0.02)``
    and samples every fault-active epoch plus a random subset of
    fault-free epochs (``include_none_fraction`` of the fault count, so
    classes are not hopelessly imbalanced).  ``rows`` maps samples back
    to epochs so the culprit-VNF ground truth stays reachable (E6).
    """
    data_rng, pick_rng = spawn_rngs(random_state, 2)
    result = _canonical_run(n_epochs, FaultInjector(rate=0.02), data_rng)
    return _root_cause(result, pick_rng, include_none_fraction)


def make_scenario_dataset(
    name: str | ScenarioRecipe,
    n_epochs: int | None = None,
    *,
    task: str = "sla_violation",
    horizon: int = 0,
    random_state=None,
    **task_kwargs,
) -> NFVDataset:
    """Build a learning task under a workload scenario.

    ``name`` is a registry name or a grammar
    :class:`~repro.nfv.grammar.recipe.ScenarioRecipe`, resolved by
    :func:`repro.nfv.scenarios.scenario_recipe` — search-generated
    recipes need no registration to be materialized.  The recipe is
    lowered by :meth:`~repro.nfv.grammar.recipe.ScenarioRecipe.lower`,
    the spec's stream is collected under the lowering's data generator
    (for ``root_cause``, under its first child; the second picks the
    fault-free rows), the task is cut from that one
    :class:`~repro.nfv.simulator.SimulationResult` exactly as the
    standalone builders cut theirs, and the scenario provenance (name,
    description, the resolved recipe and the simulator parameters) is
    stamped into ``dataset.metadata``.  Override a scenario parameter
    by passing a variant recipe, e.g.
    ``replace(r, faults=replace(r.faults, rate=0.0))``.

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
        Forecasting horizon for the first two tasks; it must be shorter
        than the run.
    task_kwargs:
        ``log_target`` for latency, ``include_none_fraction`` for
        root-cause (as in the standalone builders).  ``fault_rate`` is
        refused with a ``TypeError``: the recipe's ``faults.rate`` sets
        it.
    """
    if "fault_rate" in task_kwargs:
        raise TypeError(
            "make_scenario_dataset() takes no fault_rate; override the "
            "recipe's faults.rate instead, e.g. "
            "replace(r, faults=replace(r.faults, rate=...))"
        )
    recipe = scenario_recipe(name)
    spec, data_rng = recipe.lower(random_state)
    if n_epochs is None:
        n_epochs = spec.default_epochs
    if task == "root_cause":
        if spec.injector is None:
            raise ValueError(
                f"scenario {spec.name!r} is fault-free; root_cause needs faults"
            )
        if horizon != 0:
            raise ValueError("root_cause does not support a horizon")
        data_rng, pick_rng = spawn_rngs(data_rng, 2)
    elif task not in _FORECAST_TARGETS:
        raise ValueError(
            f"unknown task {task!r}; choose sla_violation, latency or "
            "root_cause"
        )
    result = spec.stream(
        n_epochs, batch_epochs=n_epochs, random_state=data_rng
    ).collect()
    if task == "root_cause":
        dataset = _root_cause(result, pick_rng, **task_kwargs)
    else:
        target = _FORECAST_TARGETS[task](result, **task_kwargs)
        dataset = _forecast(task, result, target, horizon)
    dataset.metadata.update(
        scenario=spec.name,
        description=spec.description,
        recipe=recipe,
        simulator_kwargs=dict(spec.simulator_kwargs),
    )
    return dataset


def stream_scenario_telemetry(
    name: str | ScenarioRecipe,
    n_epochs: int | None = None,
    *,
    batch_epochs: int = 64,
    random_state=None,
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
    spec, data_rng = scenario_recipe(name).lower(random_state)
    stream = spec.stream(
        n_epochs, batch_epochs=batch_epochs, random_state=data_rng
    )
    stream.spec = spec
    return stream
