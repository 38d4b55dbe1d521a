"""Reference per-epoch simulator for :meth:`repro.nfv.simulator.Simulator.stream`.

This is the simulator as it ran before a batch of epochs became one
array program over the epoch axis, kept verbatim: it walks the horizon
one epoch at a time, computes every quantity as a Python float, calls
the scalar M/M/1/K and M/G/1 formulas once per VNF and epoch, and
draws the telemetry noise one ``rng.normal`` scalar per feature.  The
array program must reproduce every :class:`SimulationResult` field it
yields bit for bit (``tests/nfv/test_simulator_oracle.py``).

The module imports nothing from :mod:`repro.nfv.queueing`,
:mod:`repro.nfv.simulator`'s epoch program or the telemetry collector,
and it inlines the two-float ``SLA.is_violated`` check, so a change to
a helper the array program uses cannot make both sides agree.  It takes the schedule, traffic and RNG set-up from the same
library calls as the simulator (those did not change), and returns the
library's :class:`SimulationResult` container.
"""

from __future__ import annotations

import math

import numpy as np

from repro.nfv.faults import CHAIN_LEVEL_FAULTS, FaultKind, NO_FAULT
from repro.nfv.simulator import SimulationResult
from repro.nfv.telemetry import (
    CHAIN_METRICS,
    PER_VNF_METRICS,
    feature_names_for_chain,
)
from repro.utils.rng import check_random_state, spawn_rngs
from repro.utils.tabular import FeatureMatrix

SWAP_THRESHOLD = 0.9
SWAP_FLOOR = 0.25
LEAK_RATE_PER_EPOCH = 0.04
MAX_STABLE_UTILIZATION = 0.995


# ----------------------------------------------------------------------
# scalar queueing formulas
# ----------------------------------------------------------------------
def _validate_rates(lam: float, mu: float) -> None:
    if lam < 0:
        raise ValueError(f"arrival rate must be >= 0, got {lam}")
    if mu <= 0:
        raise ValueError(f"service rate must be positive, got {mu}")


def mg1_waiting_time(lam: float, mu: float, scv: float = 1.0) -> float:
    _validate_rates(lam, mu)
    if scv < 0:
        raise ValueError(f"scv must be >= 0, got {scv}")
    rho = min(lam / mu, MAX_STABLE_UTILIZATION)
    return (1.0 + scv) / 2.0 * rho / (mu * (1.0 - rho))


def mm1k_loss_probability(lam: float, mu: float, k: int) -> float:
    _validate_rates(lam, mu)
    if k < 1:
        raise ValueError(f"buffer size k must be >= 1, got {k}")
    if lam == 0:
        return 0.0
    rho = lam / mu
    if math.isclose(rho, 1.0, rel_tol=1e-12):
        return 1.0 / (k + 1)
    try:
        rho_k = rho**k
    except OverflowError:
        return 1.0 - 1.0 / rho
    denom = 1.0 - rho * rho_k
    if not math.isfinite(denom):
        return 1.0 - 1.0 / rho
    return (1.0 - rho) * rho_k / denom


# ----------------------------------------------------------------------
# scalar telemetry collector
# ----------------------------------------------------------------------
class TelemetryCollector:
    """One row per ``record_epoch`` call, one noise draw per feature."""

    def __init__(self, chain, noise_sigma: float = 0.02, random_state=None):
        self.chain = chain
        self.noise_sigma = noise_sigma
        self._rng = check_random_state(random_state)
        self.feature_names = feature_names_for_chain(chain)
        self._rows: list[list[float]] = []

    def record_epoch(self, *, vnf_metrics, chain_metrics, epoch, period_epochs):
        row: list[float] = []
        for metrics in vnf_metrics:
            for key in PER_VNF_METRICS:
                row.append(self._noisy(key, metrics[key]))
        for key in CHAIN_METRICS:
            row.append(self._noisy(key, chain_metrics[key]))
        angle = 2.0 * np.pi * (epoch % period_epochs) / period_epochs
        row.append(np.sin(angle))
        row.append(np.cos(angle))
        self._rows.append(row)

    def _noisy(self, key: str, value: float) -> float:
        if self.noise_sigma == 0.0:
            return float(value)
        noisy = value * (1.0 + self._rng.normal(0.0, self.noise_sigma))
        if key in ("cpu_util", "mem_util", "drop_rate"):
            return float(np.clip(noisy, 0.0, 1.2 if key != "drop_rate" else 1.0))
        return float(max(noisy, 0.0))

    def to_feature_matrix(self) -> FeatureMatrix:
        return FeatureMatrix(np.asarray(self._rows), self.feature_names)


class _VNFState:
    """Mutable per-instance fault state (leak level, config factor)."""

    def __init__(self, instance):
        self.instance = instance
        self.leak_mb = 0.0
        self.config_factor = 1.0


# ----------------------------------------------------------------------
# the per-epoch loop
# ----------------------------------------------------------------------
def simulate(sim, n_epochs, *, fault_events=None, fault_injector=None):
    """``sim.run(n_epochs, ...)`` as the per-epoch loop computed it."""
    rng = check_random_state(sim.random_state)
    (traffic_rng, bg_rng, telemetry_rng, sched_rng) = spawn_rngs(rng, 4)

    tb = sim.testbed
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
        tb.chain, noise_sigma=sim.measurement_noise, random_state=telemetry_rng
    )
    states = [_VNFState(inst) for inst in tb.chain.instances]
    base_propagation_ms = tb.chain.propagation_latency_us(tb.topology) / 1000.0

    latency, loss, violation, root_cause, culprits = [], [], [], [], []
    for t in range(n_epochs):
        active = [e for e in events if e.active_at(t)]
        epoch_out = _run_epoch(
            sim, t, trace, bg_traces, states, active,
            base_propagation_ms, collector,
        )
        latency.append(epoch_out["latency_ms"])
        loss.append(epoch_out["loss_rate"])
        # SLA.is_violated as the loop called it, on two floats
        violation.append(int(
            epoch_out["latency_ms"] > tb.chain.sla.max_latency_ms
            or epoch_out["loss_rate"] > tb.chain.sla.max_loss_rate
        ))
        cause, culprit = _ground_truth(active, tb)
        root_cause.append(cause)
        culprits.append(culprit)
    return SimulationResult(
        features=collector.to_feature_matrix(),
        latency_ms=np.asarray(latency),
        loss_rate=np.asarray(loss),
        sla_violation=np.asarray(violation, dtype=np.int64),
        root_cause=np.asarray(root_cause, dtype=object),
        culprit_vnfs=culprits,
        events=events,
        chain=tb.chain,
    )


def _run_epoch(
    sim, t, trace, bg_traces, states, active, base_propagation_ms, collector
) -> dict:
    tb = sim.testbed
    offered = float(trace.offered_kpps[t])
    kflows = float(trace.active_kflows[t])
    burstiness = float(trace.burstiness[t])

    # ---- apply chain-level faults -------------------------------
    propagation_ms = base_propagation_ms
    extra_chain_loss = 0.0
    for event in active:
        if event.kind is FaultKind.TRAFFIC_SURGE:
            offered *= 1.0 + 2.0 * event.severity
            kflows *= 1.0 + 1.5 * event.severity
        elif event.kind is FaultKind.LINK_DEGRADATION:
            propagation_ms *= 1.0 + 3.0 * event.severity
            extra_chain_loss += 0.02 * event.severity

    # ---- per-VNF fault state updates ----------------------------
    for i, state in enumerate(states):
        state.config_factor = 1.0
        leak_active = False
        for event in active:
            if event.vnf_index != i:
                continue
            if event.kind is FaultKind.CONFIG_ERROR:
                state.config_factor = min(
                    state.config_factor, 1.0 - 0.7 * event.severity
                )
            elif event.kind is FaultKind.MEMORY_LEAK:
                leak_active = True
                state.leak_mb += (
                    LEAK_RATE_PER_EPOCH
                    * event.severity
                    * state.instance.mem_mb
                )
        if not leak_active and state.leak_mb > 0.0:
            # leaked memory is reclaimed once the buggy VNF restarts
            state.leak_mb = 0.0

    # ---- CPU demand accounting per server -----------------------
    demand = {sid: 0.0 for sid in tb.topology.servers}
    for state in states:
        demand[state.instance.server_id] += _cores_needed(
            state.instance, offered, kflows
        )
    for chain, bg_trace in zip(tb.background_chains, bg_traces):
        bg_offered = float(bg_trace.offered_kpps[t])
        bg_kflows = float(bg_trace.active_kflows[t])
        for inst in chain.instances:
            demand[inst.server_id] += _cores_needed(
                inst, bg_offered, bg_kflows
            )
    for event in active:
        if event.kind is FaultKind.CPU_CONTENTION:
            server = tb.topology.server(event.server_id)
            demand[event.server_id] += event.severity * server.cpu_cores

    contention = {}
    for sid, server in tb.topology.servers.items():
        contention[sid] = (
            min(1.0, server.cpu_cores / demand[sid]) if demand[sid] > 0 else 1.0
        )
    pressure = {
        sid: demand[sid] / tb.topology.servers[sid].cpu_cores
        for sid in demand
    }

    # ---- walk the chain -----------------------------------------
    arrival = offered
    total_queue_ms = 0.0
    total_proc_ms = 0.0
    vnf_metrics = []
    for state in states:
        inst = state.instance
        server = tb.topology.server(inst.server_id)
        capacity = inst.nominal_capacity_kpps(server.cpu_speed)
        capacity *= contention[inst.server_id]
        capacity *= state.config_factor

        mem_used = inst.profile.memory_mb(kflows) + state.leak_mb
        mem_util = min(mem_used / inst.mem_mb, 1.05)
        if mem_util > SWAP_THRESHOLD:
            swap_penalty = max(
                SWAP_FLOOR, 1.0 - 3.0 * (mem_util - SWAP_THRESHOLD)
            )
            capacity *= swap_penalty

        capacity = max(capacity, 1e-6)
        p_loss = mm1k_loss_probability(arrival, capacity, sim.buffer_pkts)
        served = arrival * (1.0 - p_loss)
        utilization = min(arrival / capacity, 1.5)
        queue_ms = (
            mg1_waiting_time(served, capacity, scv=sim.service_scv * burstiness**2)
            * sim.batch_factor
        )
        proc_ms = inst.profile.base_latency_us / 1000.0

        total_queue_ms += queue_ms
        total_proc_ms += proc_ms
        vnf_metrics.append(
            {
                "cpu_util": min(utilization, 1.2),
                "mem_util": mem_util,
                "queue_ms": queue_ms,
                "drop_rate": p_loss,
                "host_pressure": pressure[inst.server_id],
            }
        )
        arrival = served

    delivered = arrival * (1.0 - extra_chain_loss)
    loss_rate = 1.0 - delivered / offered if offered > 0 else 0.0
    latency_ms = total_queue_ms + total_proc_ms + propagation_ms

    collector.record_epoch(
        vnf_metrics=vnf_metrics,
        chain_metrics={
            "offered_kpps": offered,
            "active_kflows": kflows,
            "burstiness": burstiness,
            "propagation_ms": propagation_ms,
        },
        epoch=t,
        period_epochs=tb.traffic.period_epochs,
    )
    return {"latency_ms": latency_ms, "loss_rate": loss_rate}


def _cores_needed(inst, offered_kpps: float, kflows: float) -> float:
    per_core = inst.profile.capacity_kpps_per_vcpu
    return min(
        offered_kpps / per_core + inst.profile.cpu_per_kflow * kflows,
        inst.vcpus,
    )


def _ground_truth(active, tb) -> tuple[str, tuple[int, ...]]:
    if not active:
        return NO_FAULT, ()
    event = min(active, key=lambda e: e.start_epoch)
    if event.kind in CHAIN_LEVEL_FAULTS:
        return event.kind.value, ()
    if event.vnf_index is not None:
        return event.kind.value, (event.vnf_index,)
    affected = tuple(
        i
        for i, inst in enumerate(tb.chain.instances)
        if inst.server_id == event.server_id
    )
    return event.kind.value, affected
