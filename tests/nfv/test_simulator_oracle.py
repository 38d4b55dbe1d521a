"""The simulator's array program against the reference per-epoch loop.

``Simulator.stream`` simulates a batch of epochs as one array program
over the epoch axis.  Every run it yields must still equal the one the
per-epoch loop kept in ``tests/oracles/simulator_loop.py`` computes:
features, ``latency_ms``, ``loss_rate`` and ``sla_violation`` are
compared on their raw bytes, so a signed zero or a last-bit difference
fails; ``root_cause``, ``culprit_vnfs`` and the fault schedule are
compared by value.  The grammar golden pins only X and y, so without
this file ``latency_ms`` and ``loss_rate`` could drift unseen.

The queueing formulas take arrays; they are compared element by
element against the scalar formulas the loop called, on inputs that
reach every branch.
"""

import math

import numpy as np
import pytest
from oracles import simulator_loop

from repro.nfv.faults import FaultEvent, FaultKind
from repro.nfv.queueing import mg1_waiting_time, mm1k_loss_probability
from repro.nfv.scenarios import build_scenario, list_scenarios
from repro.nfv.simulator import BLOCK_EPOCHS, Simulator, build_testbed
from repro.utils.rng import check_random_state

EPOCHS = 320
BATCHES = (1, 7, 64, EPOCHS)


def _assert_same_bytes(a, b, what):
    assert a.dtype == b.dtype, what
    assert a.shape == b.shape, what
    assert a.tobytes() == b.tobytes(), what


def _assert_same_run(got, ref):
    assert got.features.feature_names == ref.features.feature_names
    _assert_same_bytes(got.features.values, ref.features.values, "features")
    _assert_same_bytes(got.latency_ms, ref.latency_ms, "latency_ms")
    _assert_same_bytes(got.loss_rate, ref.loss_rate, "loss_rate")
    _assert_same_bytes(got.sla_violation, ref.sla_violation, "sla_violation")
    assert got.root_cause.dtype == ref.root_cause.dtype == object
    assert got.root_cause.tolist() == ref.root_cause.tolist()
    assert got.culprit_vnfs == ref.culprit_vnfs
    assert got.events == ref.events


def _assert_matches_oracle(make_sim, n_epochs, batches=BATCHES, **schedule):
    """Collect ``make_sim()``'s stream at every batch size and compare
    each with the loop run from an identically seeded simulator."""
    ref = simulator_loop.simulate(make_sim(), n_epochs, **schedule)
    for batch_epochs in batches:
        stream = make_sim().stream(
            n_epochs, batch_epochs=min(batch_epochs, n_epochs), **schedule
        )
        _assert_same_run(stream.collect(), ref)
    return ref


class TestScenarios:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("name", list_scenarios())
    def test_scenario_matches_loop(self, name, seed):
        spec = build_scenario(name, random_state=seed)

        def make_sim():
            return Simulator(
                spec.testbed, random_state=seed, **spec.simulator_kwargs
            )

        ref = _assert_matches_oracle(
            make_sim, EPOCHS, fault_injector=spec.injector
        )
        assert ref.n_epochs == EPOCHS

    def test_catalog_has_eight_scenarios(self):
        assert len(list_scenarios()) == 8

    def test_fault_storm_reaches_every_fault_kind(self):
        spec = build_scenario("fault-storm", random_state=0)
        ref = simulator_loop.simulate(
            Simulator(spec.testbed, random_state=0, **spec.simulator_kwargs),
            1500,
            fault_injector=spec.injector,
        )
        assert {e.kind for e in ref.events} == set(FaultKind)


@pytest.fixture(scope="module")
def testbed():
    return build_testbed(random_state=3)


def _shared_server(testbed):
    """A server hosting a monitored VNF and at least one background VNF."""
    monitored = {inst.server_id for inst in testbed.chain.instances}
    for chain in testbed.background_chains:
        for inst in chain.instances:
            if inst.server_id in monitored:
                return inst.server_id
    raise AssertionError("testbed has no shared server")


class TestManualSchedules:
    def _check(self, testbed, events, n_epochs=160, **sim_kwargs):
        def make_sim():
            return Simulator(testbed, random_state=11, **sim_kwargs)

        return _assert_matches_oracle(
            make_sim, n_epochs, batches=(1, 7, 64, n_epochs),
            fault_events=events,
        )

    def test_overlapping_leaks_on_one_vnf(self, testbed):
        leak = FaultKind.MEMORY_LEAK
        events = [
            FaultEvent(leak, 10, 60, 0.9, vnf_index=4),
            FaultEvent(leak, 30, 50, 0.7, vnf_index=4),
            FaultEvent(leak, 40, 20, 0.5, vnf_index=4),
            FaultEvent(leak, 20, 30, 0.6, vnf_index=2),
        ]
        ref = self._check(testbed, events)
        assert "memory_leak" in ref.root_cause.tolist()

    def test_leak_that_ends_and_restarts(self, testbed):
        leak = FaultKind.MEMORY_LEAK
        events = [
            FaultEvent(leak, 5, 30, 0.8, vnf_index=1),
            FaultEvent(leak, 35, 30, 0.8, vnf_index=1),  # back to back
            FaultEvent(leak, 90, 40, 0.9, vnf_index=1),  # after a reset
        ]
        self._check(testbed, events)

    def test_leak_carries_across_a_block_boundary(self, testbed):
        # a slow leak active from epoch 3 to 100 epochs past the first
        # block: its level must carry into the second block
        events = [
            FaultEvent(
                FaultKind.MEMORY_LEAK, 3, BLOCK_EPOCHS + 97, 0.02, vnf_index=3
            )
        ]
        ref = self._check(testbed, events, n_epochs=BLOCK_EPOCHS + 150)
        assert ref.root_cause[BLOCK_EPOCHS] == "memory_leak"

    def test_cpu_contention_on_a_shared_server(self, testbed):
        server = _shared_server(testbed)
        contention = FaultKind.CPU_CONTENTION
        events = [
            FaultEvent(contention, 10, 50, 0.8, server_id=server),
            FaultEvent(contention, 40, 40, 0.6, server_id=server),
            FaultEvent(
                FaultKind.CONFIG_ERROR, 50, 30, 0.9, vnf_index=0
            ),
            FaultEvent(
                FaultKind.CONFIG_ERROR, 60, 30, 0.4, vnf_index=0
            ),
        ]
        ref = self._check(testbed, events)
        culprits = {c for c in ref.culprit_vnfs if c}
        assert culprits  # the shared server's monitored VNFs are labelled

    def test_surge_plus_link_degradation(self, testbed):
        events = [
            FaultEvent(FaultKind.TRAFFIC_SURGE, 10, 60, 0.9),
            FaultEvent(FaultKind.LINK_DEGRADATION, 30, 60, 0.7),
            FaultEvent(FaultKind.TRAFFIC_SURGE, 50, 20, 0.5),
            FaultEvent(FaultKind.LINK_DEGRADATION, 60, 50, 1.0),
        ]
        ref = self._check(testbed, events)
        assert ref.sla_violation.any()

    def test_noise_free_telemetry(self, testbed):
        events = [FaultEvent(FaultKind.TRAFFIC_SURGE, 10, 30, 0.9)]
        self._check(testbed, events, measurement_noise=0.0)

    def test_heavy_noise_and_deterministic_service(self, testbed):
        events = [FaultEvent(FaultKind.CONFIG_ERROR, 10, 40, 1.0, vnf_index=2)]
        self._check(
            testbed, events, measurement_noise=0.5, service_scv=0.0,
            batch_factor=3.0, buffer_pkts=5,
        )

    def test_overload_reaches_overflow_branches(self, monkeypatch):
        # offered load ~3e4x the first VNF's capacity: rho**64 overflows
        # (OverflowError) on some epochs, and on others rho**64 is finite
        # while rho * rho**64 is inf (a non-finite denominator)
        branches = []
        scalar = simulator_loop.mm1k_loss_probability

        def counting(lam, mu, k):
            rho = lam / mu
            try:
                denom = 1.0 - rho * rho**k
                branches.append("finite" if math.isfinite(denom) else "inf")
            except OverflowError:
                branches.append("overflow")
            return scalar(lam, mu, k)

        monkeypatch.setattr(simulator_loop, "mm1k_loss_probability", counting)
        testbed = build_testbed(base_kpps=3e7, random_state=3)
        ref = self._check(testbed, [], n_epochs=300)
        assert {"overflow", "inf", "finite"} <= set(branches)
        assert np.all(np.isfinite(ref.loss_rate))


class TestQueueingArrays:
    """The array formulas equal the loop's scalar formulas per element."""

    def _inputs(self):
        gen = check_random_state(0)
        mu = np.concatenate([gen.uniform(0.05, 900.0, 4000), [1.0] * 8])
        rho = np.concatenate([
            gen.uniform(0.0, 3.0, 2000),
            np.geomspace(1e-6, 1e6, 1500),
            np.linspace(5.5e4, 6.6e4, 500),
            [0.0, 1.0, 1.0 + 1e-13, 1.0 - 1e-13, 0.5, 2.0, 1e8, 1e300],
        ])
        lam = rho * mu
        lam[-8:] = [0.0, 1.0, 1.0 + 1e-13, 1.0 - 1e-13, 0.5, 2.0, 1e8, 1e300]
        return lam, mu

    @pytest.mark.parametrize("k", [1, 5, 64, 131, 10_000])
    def test_mm1k_matches_scalar_formula(self, k):
        lam, mu = self._inputs()
        got = mm1k_loss_probability(lam, mu, k)
        ref = np.array([
            simulator_loop.mm1k_loss_probability(a, b, k)
            for a, b in zip(lam.tolist(), mu.tolist())
        ])
        _assert_same_bytes(got, ref, f"mm1k k={k}")

    @pytest.mark.parametrize("scv", [0.0, 1.0, 2.7])
    def test_mg1_matches_scalar_formula(self, scv):
        lam, mu = self._inputs()
        scvs = np.full_like(lam, scv)
        got = mg1_waiting_time(lam, mu, scv=scvs)
        ref = np.array([
            simulator_loop.mg1_waiting_time(a, b, scv=scv)
            for a, b in zip(lam.tolist(), mu.tolist())
        ])
        _assert_same_bytes(got, ref, f"mg1 scv={scv}")

    def test_array_validation_names_the_bad_value(self):
        with pytest.raises(ValueError, match=r"arrival rate must be >= 0, got -2\.0"):
            mm1k_loss_probability(np.array([1.0, -2.0]), np.ones(2), 4)
        with pytest.raises(ValueError, match="service rate must be positive"):
            mg1_waiting_time(np.ones(2), np.array([1.0, 0.0]))
        with pytest.raises(ValueError, match="scv"):
            mg1_waiting_time(np.ones(2), np.ones(2), scv=np.array([1.0, -0.5]))

    def test_scalar_in_scalar_out(self):
        assert np.ndim(mm1k_loss_probability(0.5, 1.0, 2)) == 0
        assert np.ndim(mg1_waiting_time(0.5, 1.0)) == 0
