"""Epoch-based NFV performance simulator.

The simulator computes a block of epochs as one array program over the
epoch axis.  For a block of T epochs it:

1. reads offered load for the monitored chain and all background
   chains (which share servers and create contention) from traffic
   traces drawn up front,
2. turns fault activity into a (T,) mask per scheduled event and
   applies the events in schedule order (see :mod:`repro.nfv.faults`);
   a memory leak's level is a running sum of per-epoch increments that
   restarts from zero after every epoch the leak is inactive,
3. accounts CPU demand per server; oversubscribed servers scale every
   hosted VNF's capacity down proportionally,
4. walks the monitored chain VNF by VNF, each step over all T epochs at
   once: M/M/1/K loss, M/G/1 queueing delay (scaled by a batch factor —
   software data planes process packets in batches, which inflates
   queueing delay relative to the per-packet ideal), memory pressure
   with a swap penalty,
5. records noisy telemetry and the ground-truth labels (end-to-end
   latency, loss, SLA violation, root cause, culprit VNF set).

Each epoch still gets exactly the floats a per-epoch loop gives it
(``tests/oracles/simulator_loop.py`` keeps that loop, and
``tests/nfv/test_simulator_oracle.py`` compares the two byte for byte).
That is why clamps are written ``np.where(b < a, b, a)`` (what Python's
``min(a, b)`` returns, signed zeros and NaN included), why overlapping
events are applied one at a time in schedule order, and why powers go
through Python's ``**``.

Units: kpps ≡ packets/ms, so queueing formulas fed kpps rates directly
return milliseconds.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.nfv.faults import (
    CHAIN_LEVEL_FAULTS,
    FaultEvent,
    FaultKind,
    NO_FAULT,
)
from repro.nfv.placement import FirstFitPlacement, WorstFitPlacement
from repro.nfv.queueing import mg1_waiting_time, mm1k_loss_probability
from repro.nfv.sfc import SLA, ServiceFunctionChain
from repro.nfv.telemetry import TelemetryCollector
from repro.nfv.topology import NfviTopology
from repro.nfv.traffic import TrafficModel
from repro.nfv.vnf import VNFInstance
from repro.utils.rng import check_random_state, spawn_rngs
from repro.utils.tabular import FeatureMatrix

__all__ = [
    "EpochBatch",
    "SimulationStream",
    "Testbed",
    "Simulator",
    "SimulationResult",
    "build_testbed",
]

#: Memory utilization above which the swap penalty kicks in.
SWAP_THRESHOLD = 0.9
#: Floor on the capacity multiplier under heavy swapping.
SWAP_FLOOR = 0.25
#: Leak growth per epoch at severity 1.0, as a fraction of allocation.
LEAK_RATE_PER_EPOCH = 0.04
#: Epochs per array program.  A stream simulates fixed blocks of this
#: many epochs and slices (or joins) them into the batches it emits, so
#: one-epoch batches pay the per-block overhead once per block.
BLOCK_EPOCHS = 512


@dataclass
class Testbed:
    """A placed deployment the simulator can run.

    Attributes
    ----------
    topology:
        The NFVI with all chains already placed.
    chain:
        The monitored chain (features/labels are recorded for it).
    background_chains:
        Chains that share servers with the monitored chain and create
        contention, with their own traffic models.
    traffic:
        Traffic model of the monitored chain.
    background_traffic:
        One traffic model per background chain.
    """

    topology: NfviTopology
    chain: ServiceFunctionChain
    traffic: TrafficModel
    background_chains: list[ServiceFunctionChain] = field(default_factory=list)
    background_traffic: list[TrafficModel] = field(default_factory=list)

    def __post_init__(self):
        if len(self.background_chains) != len(self.background_traffic):
            raise ValueError(
                "background_chains and background_traffic must align"
            )
        for inst in self.chain.instances:
            if inst.server_id is None:
                raise ValueError(
                    f"instance {inst.instance_id} is not placed; "
                    "run placement before building the testbed"
                )


@dataclass
class SimulationResult:
    """Everything one simulation run produced.

    Attributes
    ----------
    features:
        Noisy telemetry, one row per epoch (named columns).
    latency_ms, loss_rate:
        Ground-truth end-to-end metrics of the monitored chain.
    sla_violation:
        Binary labels (1 = violated).
    root_cause:
        Per-epoch string label: a :class:`FaultKind` value or ``"none"``.
    culprit_vnfs:
        Per-epoch tuple of VNF indices directly affected by the active
        fault (empty when no fault, or for chain-level faults).
    events:
        The injected fault schedule.
    chain:
        The monitored chain (for resolving VNF indices in reports).
    """

    features: FeatureMatrix
    latency_ms: np.ndarray
    loss_rate: np.ndarray
    sla_violation: np.ndarray
    root_cause: np.ndarray
    culprit_vnfs: list[tuple[int, ...]]
    events: list[FaultEvent]
    chain: ServiceFunctionChain | None = None

    @property
    def n_epochs(self) -> int:
        return len(self.latency_ms)

    @property
    def violation_rate(self) -> float:
        """Fraction of epochs that violated the SLA (0.0 for an empty
        run — never NaN, so downstream aggregation stays warning-free)."""
        if self.n_epochs == 0:
            return 0.0
        return float(np.mean(self.sla_violation))

    def summary(self) -> str:
        """One-paragraph run summary for logs and examples."""
        if self.n_epochs == 0:
            return "0 epochs | empty run (no telemetry recorded)"
        causes, counts = np.unique(self.root_cause, return_counts=True)
        cause_txt = ", ".join(f"{c}: {n}" for c, n in zip(causes, counts))
        return (
            f"{self.n_epochs} epochs | violation rate "
            f"{self.violation_rate:.1%} | median latency "
            f"{np.median(self.latency_ms):.2f} ms | root causes: {cause_txt}"
        )


@dataclass
class EpochBatch:
    """A contiguous slice of simulated epochs, emitted by a stream.

    The streaming unit of telemetry: everything
    :class:`SimulationResult` records, restricted to epochs
    ``[start_epoch, end_epoch)``.  Batches from one stream are disjoint,
    ordered, and cover the horizon exactly, so concatenating them
    reproduces the materialized run byte for byte (see
    :meth:`SimulationStream.collect`).
    """

    start_epoch: int
    features: FeatureMatrix
    latency_ms: np.ndarray
    loss_rate: np.ndarray
    sla_violation: np.ndarray
    root_cause: np.ndarray
    culprit_vnfs: list[tuple[int, ...]]

    @property
    def n_epochs(self) -> int:
        return len(self.latency_ms)

    @property
    def end_epoch(self) -> int:
        """One past the last epoch in this batch."""
        return self.start_epoch + self.n_epochs

    @property
    def violation_rate(self) -> float:
        if self.n_epochs == 0:
            return 0.0
        return float(np.mean(self.sla_violation))


class SimulationStream:
    """Single-pass iterator over :class:`EpochBatch` objects.

    Produced by :meth:`Simulator.stream` (and, one level up,
    :meth:`repro.nfv.grammar.recipe.ScenarioSpec.stream`).  The fault
    schedule, traffic traces, and chain metadata are resolved eagerly —
    ``events``, ``chain``, and ``feature_names`` are available before
    the first batch — while telemetry is simulated lazily, one block of
    :data:`BLOCK_EPOCHS` epochs at a time, as the stream is consumed.

    Attributes
    ----------
    chain:
        The monitored chain (for resolving VNF indices in reports).
    events:
        The full injected fault schedule (drawn up front, like
        :meth:`Simulator.run` does).
    feature_names:
        Telemetry schema of every batch's ``features``.
    n_epochs, batch_epochs:
        Total horizon and the batch granularity; every batch has
        ``batch_epochs`` epochs except possibly the last.
    """

    def __init__(self, batches, *, chain, events, feature_names,
                 n_epochs: int, batch_epochs: int):
        self._batches = batches
        self.chain = chain
        self.events = events
        self.feature_names = list(feature_names)
        self.n_epochs = int(n_epochs)
        self.batch_epochs = int(batch_epochs)

    def __iter__(self):
        return self._batches

    def collect(self) -> SimulationResult:
        """Drain the (remaining) stream into a :class:`SimulationResult`.

        Streaming the full horizon and collecting reproduces
        :meth:`Simulator.run` byte for byte under the same seed — the
        contract ``tests/nfv/test_simulator_stream.py`` enforces.
        """
        batches = list(self._batches)
        if not batches:
            raise ValueError("stream is exhausted; nothing to collect")
        joined = _join(batches)
        return SimulationResult(
            features=joined.features,
            latency_ms=joined.latency_ms,
            loss_rate=joined.loss_rate,
            sla_violation=joined.sla_violation,
            root_cause=joined.root_cause,
            culprit_vnfs=joined.culprit_vnfs,
            events=self.events,
            chain=self.chain,
        )


def _slice(batch: EpochBatch, start: int, stop: int) -> EpochBatch:
    """Epochs ``[start, stop)`` of ``batch`` (positions within it)."""
    if start == 0 and stop == batch.n_epochs:
        return batch
    return EpochBatch(
        start_epoch=batch.start_epoch + start,
        features=FeatureMatrix(
            batch.features.values[start:stop], batch.features.feature_names
        ),
        latency_ms=batch.latency_ms[start:stop],
        loss_rate=batch.loss_rate[start:stop],
        sla_violation=batch.sla_violation[start:stop],
        root_cause=batch.root_cause[start:stop],
        culprit_vnfs=batch.culprit_vnfs[start:stop],
    )


def _join(batches: list[EpochBatch]) -> EpochBatch:
    """Consecutive batches as one."""
    if len(batches) == 1:
        return batches[0]
    culprits: list[tuple[int, ...]] = []
    for batch in batches:
        culprits.extend(batch.culprit_vnfs)
    return EpochBatch(
        start_epoch=batches[0].start_epoch,
        features=FeatureMatrix(
            np.vstack([b.features.values for b in batches]),
            batches[0].features.feature_names,
        ),
        latency_ms=np.concatenate([b.latency_ms for b in batches]),
        loss_rate=np.concatenate([b.loss_rate for b in batches]),
        sla_violation=np.concatenate([b.sla_violation for b in batches]),
        root_cause=np.concatenate([b.root_cause for b in batches]),
        culprit_vnfs=culprits,
    )


class Simulator:
    """Runs a :class:`Testbed` for a number of epochs.

    Parameters
    ----------
    testbed:
        The placed deployment to simulate.
    batch_factor:
        Multiplier on queueing delay representing batched packet
        processing in software data planes (DPDK-style polling).
    buffer_pkts:
        Per-VNF queue size for the M/M/1/K loss model.
    measurement_noise:
        Relative telemetry noise (see
        :class:`~repro.nfv.telemetry.TelemetryCollector`).
    service_scv:
        Squared coefficient of variation of VNF service times
        (1.0 = exponential/M/M/1-like, 0.0 = deterministic/M/D/1).
    """

    def __init__(
        self,
        testbed: Testbed,
        *,
        batch_factor: float = 32.0,
        buffer_pkts: int = 64,
        measurement_noise: float = 0.02,
        service_scv: float = 1.0,
        random_state=None,
    ):
        if batch_factor <= 0:
            raise ValueError(f"batch_factor must be positive, got {batch_factor}")
        if buffer_pkts < 1:
            raise ValueError(f"buffer_pkts must be >= 1, got {buffer_pkts}")
        if service_scv < 0:
            raise ValueError(f"service_scv must be >= 0, got {service_scv}")
        self.testbed = testbed
        self.batch_factor = batch_factor
        self.buffer_pkts = buffer_pkts
        self.measurement_noise = measurement_noise
        self.service_scv = service_scv
        self.random_state = random_state

    # ------------------------------------------------------------------
    def run(
        self,
        n_epochs: int,
        *,
        fault_events: list[FaultEvent] | None = None,
        fault_injector=None,
    ) -> SimulationResult:
        """Simulate ``n_epochs`` epochs and return the labelled telemetry.

        Provide either an explicit ``fault_events`` schedule, a
        ``fault_injector`` (a schedule is drawn), or neither (fault-free
        run — violations then stem only from natural overload).

        Implemented as one maximal batch of :meth:`stream`, so the
        materialized and streaming paths cannot drift apart.
        """
        return self.stream(
            n_epochs,
            batch_epochs=n_epochs,
            fault_events=fault_events,
            fault_injector=fault_injector,
        ).collect()

    def stream(
        self,
        n_epochs: int,
        *,
        batch_epochs: int = 64,
        fault_events: list[FaultEvent] | None = None,
        fault_injector=None,
    ) -> SimulationStream:
        """Simulate lazily, yielding :class:`EpochBatch` slices.

        The online counterpart of :meth:`run`: setup (RNG spawning,
        fault schedule, traffic traces) happens eagerly and in exactly
        the same order as :meth:`run`, then epochs are simulated only as
        the returned :class:`SimulationStream` is consumed, in blocks of
        :data:`BLOCK_EPOCHS` that are cut into batches of
        ``batch_epochs``.  Collecting the full stream therefore
        reproduces :meth:`run` byte for byte under the same seed —
        batching changes *when* telemetry materializes, never its
        values.

        Parameters
        ----------
        n_epochs:
            Total simulation horizon.
        batch_epochs:
            Epochs per emitted batch (the last batch may be shorter).
        fault_events, fault_injector:
            As in :meth:`run` — one explicit schedule, one injector to
            draw from, or neither.
        """
        if n_epochs < 1:
            raise ValueError(f"n_epochs must be >= 1, got {n_epochs}")
        if batch_epochs < 1:
            raise ValueError(f"batch_epochs must be >= 1, got {batch_epochs}")
        if fault_events is not None and fault_injector is not None:
            raise ValueError("pass fault_events or fault_injector, not both")
        rng = check_random_state(self.random_state)
        (traffic_rng, bg_rng, telemetry_rng, sched_rng) = spawn_rngs(rng, 4)

        tb = self.testbed
        if fault_injector is not None:
            fault_events = fault_injector.schedule(n_epochs, tb.chain, sched_rng)
        events = list(fault_events) if fault_events else []

        trace = tb.traffic.generate(n_epochs, traffic_rng)
        bg_rngs = spawn_rngs(bg_rng, len(tb.background_chains))
        bg_traces = [
            model.generate(n_epochs, r)
            for model, r in zip(tb.background_traffic, bg_rngs)
        ]

        collector = TelemetryCollector(
            tb.chain, noise_sigma=self.measurement_noise, random_state=telemetry_rng
        )
        program = _EpochProgram(self, trace, bg_traces, events, collector)

        def batches():
            pending: list[EpochBatch] = []
            pending_epochs = 0
            for start in range(0, n_epochs, BLOCK_EPOCHS):
                block = program.simulate(start, min(start + BLOCK_EPOCHS, n_epochs))
                pos = 0
                while pos < block.n_epochs:
                    take = min(batch_epochs - pending_epochs, block.n_epochs - pos)
                    pending.append(_slice(block, pos, pos + take))
                    pending_epochs += take
                    pos += take
                    if pending_epochs == batch_epochs:
                        yield _join(pending)
                        pending, pending_epochs = [], 0
            if pending:
                yield _join(pending)

        return SimulationStream(
            batches(),
            chain=tb.chain,
            events=events,
            feature_names=collector.feature_names,
            n_epochs=n_epochs,
            batch_epochs=batch_epochs,
        )


def _cores_needed(inst: VNFInstance, offered_kpps, kflows):
    """Cores an instance needs to serve ``offered_kpps`` per epoch,
    capped at its allocation (``min(need, vcpus)``)."""
    need = (
        offered_kpps / inst.profile.capacity_kpps_per_vcpu
        + inst.profile.cpu_per_kflow * kflows
    )
    return np.where(inst.vcpus < need, inst.vcpus, need)


class _EpochProgram:
    """One stream's run-constant tables, and the fault state carried
    from one block of epochs to the next (each VNF's leak level)."""

    def __init__(self, sim: Simulator, trace, bg_traces, events, collector):
        tb = sim.testbed
        self.sim = sim
        self.trace = trace
        self.bg_traces = bg_traces
        self.events = events
        self.collector = collector
        self.server_row = {sid: row for row, sid in enumerate(tb.topology.servers)}
        self.server_cores = np.array(
            [[server.cpu_cores] for server in tb.topology.servers.values()],
            dtype=float,
        )
        self.base_propagation_ms = (
            tb.chain.propagation_latency_us(tb.topology) / 1000.0
        )
        self.leak_mb = [0.0] * tb.chain.length
        self.truth = [self._ground_truth(event) for event in events]

    def _ground_truth(self, event: FaultEvent) -> tuple[str, tuple[int, ...]]:
        """Root-cause label and culprit VNF set of epochs labelled with
        ``event``."""
        if event.kind in CHAIN_LEVEL_FAULTS:
            return event.kind.value, ()
        if event.vnf_index is not None:
            return event.kind.value, (event.vnf_index,)
        affected = tuple(
            i
            for i, inst in enumerate(self.sim.testbed.chain.instances)
            if inst.server_id == event.server_id
        )
        return event.kind.value, affected

    def simulate(self, t0: int, t1: int) -> EpochBatch:
        """Epochs ``[t0, t1)``; blocks must be simulated in order."""
        sim, tb = self.sim, self.sim.testbed
        epochs = np.arange(t0, t1)
        # (event index, event, (T,) activity mask), in schedule order
        active = [
            (e, event, (epochs >= event.start_epoch) & (epochs < event.end_epoch))
            for e, event in enumerate(self.events)
            if event.start_epoch < t1 and event.end_epoch > t0
        ]
        offered = self.trace.offered_kpps[t0:t1]
        kflows = self.trace.active_kflows[t0:t1]
        burstiness = self.trace.burstiness[t0:t1]

        # ---- chain-level faults -------------------------------------
        propagation_ms = np.full(len(epochs), self.base_propagation_ms)
        extra_chain_loss = np.zeros(len(epochs))
        for _, event, on in active:
            if event.kind is FaultKind.TRAFFIC_SURGE:
                offered = np.where(on, offered * (1.0 + 2.0 * event.severity), offered)
                kflows = np.where(on, kflows * (1.0 + 1.5 * event.severity), kflows)
            elif event.kind is FaultKind.LINK_DEGRADATION:
                propagation_ms = np.where(
                    on, propagation_ms * (1.0 + 3.0 * event.severity), propagation_ms
                )
                extra_chain_loss = np.where(
                    on, extra_chain_loss + 0.02 * event.severity, extra_chain_loss
                )

        # ---- per-VNF fault state ------------------------------------
        config_factor = []
        leak_mb = []
        for i, inst in enumerate(tb.chain.instances):
            factor = np.ones(len(epochs))
            leaks = []
            for _, event, on in active:
                if event.vnf_index != i:
                    continue
                if event.kind is FaultKind.CONFIG_ERROR:
                    cut = 1.0 - 0.7 * event.severity
                    factor = np.where(on & (cut < factor), cut, factor)
                elif event.kind is FaultKind.MEMORY_LEAK:
                    step = LEAK_RATE_PER_EPOCH * event.severity * inst.mem_mb
                    leaks.append((on, step))
            config_factor.append(factor)
            leak_mb.append(self._leak_level(i, leaks, len(epochs)))

        # ---- CPU demand accounting per server -----------------------
        demand = np.zeros((len(self.server_row), len(epochs)))
        for inst in tb.chain.instances:
            demand[self.server_row[inst.server_id]] += _cores_needed(
                inst, offered, kflows
            )
        for chain, bg_trace in zip(tb.background_chains, self.bg_traces):
            bg_offered = bg_trace.offered_kpps[t0:t1]
            bg_kflows = bg_trace.active_kflows[t0:t1]
            for inst in chain.instances:
                demand[self.server_row[inst.server_id]] += _cores_needed(
                    inst, bg_offered, bg_kflows
                )
        for _, event, on in active:
            if event.kind is FaultKind.CPU_CONTENTION:
                server = tb.topology.server(event.server_id)
                row = self.server_row[event.server_id]
                demand[row] = np.where(
                    on, demand[row] + event.severity * server.cpu_cores, demand[row]
                )
        loaded = demand > 0
        share = self.server_cores / np.where(loaded, demand, 1.0)
        contention = np.where(loaded & (share < 1.0), share, 1.0)
        pressure = demand / self.server_cores

        # ---- walk the chain -----------------------------------------
        # Python's ** is libm pow; numpy's x**2 is x*x, which can differ
        scv = sim.service_scv * np.array([b**2 for b in burstiness.tolist()])
        arrival = offered
        total_queue_ms = np.zeros(len(epochs))
        total_proc_ms = 0.0
        vnf_metrics = []
        for i, inst in enumerate(tb.chain.instances):
            server = tb.topology.server(inst.server_id)
            row = self.server_row[inst.server_id]
            capacity = (
                inst.nominal_capacity_kpps(server.cpu_speed)
                * contention[row]
                * config_factor[i]
            )
            mem_util = (inst.profile.memory_mb(kflows) + leak_mb[i]) / inst.mem_mb
            mem_util = np.where(1.05 < mem_util, 1.05, mem_util)
            swap_penalty = 1.0 - 3.0 * (mem_util - SWAP_THRESHOLD)
            swap_penalty = np.where(
                swap_penalty > SWAP_FLOOR, swap_penalty, SWAP_FLOOR
            )
            capacity = np.where(
                mem_util > SWAP_THRESHOLD, capacity * swap_penalty, capacity
            )
            capacity = np.where(1e-6 > capacity, 1e-6, capacity)

            p_loss = mm1k_loss_probability(arrival, capacity, sim.buffer_pkts)
            served = arrival * (1.0 - p_loss)
            utilization = arrival / capacity
            utilization = np.where(1.5 < utilization, 1.5, utilization)
            queue_ms = (
                mg1_waiting_time(served, capacity, scv=scv) * sim.batch_factor
            )
            total_queue_ms = total_queue_ms + queue_ms
            total_proc_ms += inst.profile.base_latency_us / 1000.0
            vnf_metrics.append(
                {
                    # capacity already includes contention and fault
                    # penalties, so utilization saturates past 1.0 when
                    # the VNF is starved or overloaded
                    "cpu_util": np.where(1.2 < utilization, 1.2, utilization),
                    "mem_util": mem_util,
                    "queue_ms": queue_ms,
                    "drop_rate": p_loss,
                    "host_pressure": pressure[row],
                }
            )
            arrival = served

        delivered = arrival * (1.0 - extra_chain_loss)
        has_load = offered > 0
        loss_rate = np.where(
            has_load, 1.0 - delivered / np.where(has_load, offered, 1.0), 0.0
        )
        latency_ms = total_queue_ms + total_proc_ms + propagation_ms

        self.collector.record_batch(
            vnf_metrics=vnf_metrics,
            chain_metrics={
                "offered_kpps": offered,
                "active_kflows": kflows,
                "burstiness": burstiness,
                "propagation_ms": propagation_ms,
            },
            epochs=epochs,
            period_epochs=tb.traffic.period_epochs,
        )
        root_cause, culprits = self._labels(active, len(epochs))
        return EpochBatch(
            start_epoch=t0,
            features=self.collector.flush(),
            latency_ms=latency_ms,
            loss_rate=loss_rate,
            sla_violation=tb.chain.sla.is_violated(latency_ms, loss_rate).astype(
                np.int64
            ),
            root_cause=root_cause,
            culprit_vnfs=culprits,
        )

    def _leak_level(self, i: int, leaks, n: int) -> np.ndarray:
        """VNF ``i``'s leaked memory per epoch, continuing the level
        carried from the previous block.

        While any of its leaks is active the level grows by each active
        leak's step in schedule order (``np.add.accumulate`` adds
        sequentially, as the loop did); an epoch with none active
        reclaims it to zero.
        """
        level = np.zeros(n)
        if leaks:
            on = np.logical_or.reduce([mask for mask, _ in leaks])
            # (T, n_leaks) epoch-major steps; an inactive leak adds 0.0
            steps = np.stack(
                [np.where(mask, step, 0.0) for mask, step in leaks], axis=1
            )
            edges = np.flatnonzero(np.diff(np.concatenate(([False], on, [False]))))
            for start, stop in zip(edges[::2], edges[1::2]):
                carried = self.leak_mb[i] if start == 0 else 0.0
                sums = np.add.accumulate(
                    np.concatenate(([carried], steps[start:stop].ravel()))
                )
                level[start:stop] = sums[len(leaks)::len(leaks)]
        self.leak_mb[i] = float(level[-1])
        return level

    def _labels(self, active, n: int):
        """Per-epoch root cause and culprit set.  With simultaneous
        faults (possible only with a manual schedule) the
        earliest-starting one is labelled, the first in schedule order
        on a tie."""
        if not active:
            return np.full(n, NO_FAULT, dtype=object), [()] * n
        masks = np.array([on for _, _, on in active])
        starts = np.array([[event.start_epoch] for _, event, _ in active])
        first = np.where(masks, starts, np.iinfo(np.int64).max).argmin(axis=0)
        pick = np.where(masks.any(axis=0), first, len(active)).tolist()
        truth = [self.truth[e] for e, _, _ in active] + [(NO_FAULT, ())]
        causes = np.array([cause for cause, _ in truth], dtype=object)
        return causes[pick], [truth[j][1] for j in pick]


# ----------------------------------------------------------------------
# canonical testbed
# ----------------------------------------------------------------------
#: Default monitored chain: a realistic security-service chain.
DEFAULT_CHAIN_TYPES = ("firewall", "nat", "ids", "lb", "dpi")

#: Per-type default allocations (vcpus, mem_mb) sized so the chain runs
#: at 45–80% utilization at the default base load — close enough to the
#: knee that surges and faults push it over.
DEFAULT_ALLOCATIONS = {
    "firewall": (1.0, 1024.0),
    "nat": (1.0, 1024.0),
    "ids": (2.0, 2048.0),
    "lb": (1.0, 512.0),
    "dpi": (3.0, 3072.0),
    "wanopt": (2.0, 4096.0),
    "transcoder": (4.0, 2048.0),
    "cache": (1.0, 8192.0),
}


def build_testbed(
    *,
    chain_types=DEFAULT_CHAIN_TYPES,
    base_kpps: float = 400.0,
    sla: SLA | None = None,
    n_background: int = 2,
    topology: NfviTopology | None = None,
    random_state=None,
) -> Testbed:
    """Build the canonical placed testbed used across examples/benches.

    A leaf-spine fabric hosts one monitored security chain plus
    ``n_background`` smaller chains placed first-fit, so several VNFs
    share servers and contention is real.
    """
    rng = check_random_state(random_state)
    if topology is None:
        topology = NfviTopology.leaf_spine(
            n_spine=2, n_leaf=2, servers_per_leaf=2, cpu_cores=8.0, mem_mb=16384.0
        )
    sla = sla or SLA(max_latency_ms=3.0, max_loss_rate=0.01)

    def make_chain(chain_id: str, types, scale: float = 1.0):
        instances = []
        for i, vnf_type in enumerate(types):
            vcpus, mem = DEFAULT_ALLOCATIONS[vnf_type]
            instances.append(
                VNFInstance(
                    vnf_type,
                    vcpus=vcpus * scale,
                    mem_mb=mem * scale,
                    instance_id=f"{chain_id}-{i}-{vnf_type}",
                )
            )
        return ServiceFunctionChain(chain_id, instances, sla)

    # worst-fit spreads the monitored chain across servers so that
    # inter-VNF propagation (and link-degradation faults) matter; the
    # background chains then pack first-fit onto the busiest servers,
    # which creates genuine co-location with the monitored VNFs.
    chain = make_chain("monitored", chain_types)
    WorstFitPlacement().place(chain, topology)
    placement = FirstFitPlacement()

    background_chains = []
    background_traffic = []
    bg_type_sets = [
        ("firewall", "lb"),
        ("nat", "ids"),
        ("firewall", "nat", "lb"),
        ("ids", "lb"),
    ]
    for b in range(n_background):
        bg_chain = make_chain(f"bg{b}", bg_type_sets[b % len(bg_type_sets)], scale=0.5)
        placement.place(bg_chain, topology)
        background_chains.append(bg_chain)
        background_traffic.append(
            TrafficModel(
                base_kpps=base_kpps * 0.5,
                diurnal_amplitude=0.3,
                phase=float(rng.uniform(0, 2 * np.pi)),
                flash_crowd_rate=0.002,
            )
        )

    traffic = TrafficModel(base_kpps=base_kpps)
    return Testbed(
        topology=topology,
        chain=chain,
        traffic=traffic,
        background_chains=background_chains,
        background_traffic=background_traffic,
    )
