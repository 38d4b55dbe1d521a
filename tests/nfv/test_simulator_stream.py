"""Tests for the simulator/scenario streaming layer.

The contract under test: streaming is a *pacing* change, never a
*values* change.  `Simulator.stream` + `collect()` must reproduce
`Simulator.run` byte for byte, batch boundaries must tile the horizon
exactly, and the scenario-level entry points must thread the RNG
discipline through unchanged.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.datasets import make_scenario_dataset, stream_scenario_telemetry
from repro.nfv.faults import FaultInjector
from repro.nfv.scenarios import build_scenario, scenario_recipe
from repro.nfv.simulator import (
    EpochBatch,
    SimulationStream,
    Simulator,
    build_testbed,
)

EPOCHS = 150


def _sim(seed=5):
    return Simulator(
        build_testbed(random_state=3), random_state=seed
    )


class TestSimulatorStream:
    def test_batches_tile_the_horizon(self):
        stream = _sim().stream(
            EPOCHS, batch_epochs=32, fault_injector=FaultInjector(rate=0.05)
        )
        batches = list(stream)
        assert [b.n_epochs for b in batches] == [32, 32, 32, 32, 22]
        starts = [b.start_epoch for b in batches]
        assert starts == [0, 32, 64, 96, 128]
        for b in batches:
            assert isinstance(b, EpochBatch)
            assert b.end_epoch == b.start_epoch + b.n_epochs
            assert b.features.shape == (b.n_epochs, len(stream.feature_names))
            assert len(b.latency_ms) == b.n_epochs
            assert len(b.culprit_vnfs) == b.n_epochs
            assert set(np.unique(b.sla_violation)) <= {0, 1}

    def test_collect_reproduces_run_exactly(self):
        run = _sim().run(EPOCHS, fault_injector=FaultInjector(rate=0.05))
        collected = _sim().stream(
            EPOCHS, batch_epochs=17, fault_injector=FaultInjector(rate=0.05)
        ).collect()
        assert (
            run.features.values.tobytes()
            == collected.features.values.tobytes()
        )
        assert run.latency_ms.tobytes() == collected.latency_ms.tobytes()
        assert run.loss_rate.tobytes() == collected.loss_rate.tobytes()
        assert (run.sla_violation == collected.sla_violation).all()
        assert collected.sla_violation.dtype == run.sla_violation.dtype
        assert (run.root_cause == collected.root_cause).all()
        assert run.culprit_vnfs == collected.culprit_vnfs
        assert len(run.events) == len(collected.events)

    def test_batch_size_never_changes_values(self):
        reference = _sim().stream(EPOCHS, batch_epochs=EPOCHS).collect()
        for batch_epochs in (1, 7, 64, 1000):
            other = _sim().stream(EPOCHS, batch_epochs=batch_epochs).collect()
            assert (
                other.features.values.tobytes()
                == reference.features.values.tobytes()
            )
            assert (other.sla_violation == reference.sla_violation).all()

    def test_metadata_available_before_consumption(self):
        stream = _sim().stream(
            EPOCHS, batch_epochs=32, fault_injector=FaultInjector(rate=0.2)
        )
        assert isinstance(stream, SimulationStream)
        assert stream.n_epochs == EPOCHS
        assert stream.batch_epochs == 32
        assert stream.chain is not None
        assert len(stream.feature_names) == stream.chain.length * 5 + 6
        assert len(stream.events) > 0  # schedule drawn eagerly

    def test_stream_is_single_pass(self):
        stream = _sim().stream(EPOCHS, batch_epochs=50)
        first = list(stream)
        assert len(first) == 3
        assert list(stream) == []
        with pytest.raises(ValueError, match="exhausted"):
            stream.collect()

    def test_partial_collect_covers_the_remainder(self):
        stream = _sim().stream(EPOCHS, batch_epochs=50)
        head = next(iter(stream))
        rest = stream.collect()
        assert head.n_epochs == 50
        assert rest.n_epochs == EPOCHS - 50

    def test_validation(self):
        sim = _sim()
        with pytest.raises(ValueError, match="n_epochs"):
            sim.stream(0)
        with pytest.raises(ValueError, match="batch_epochs"):
            sim.stream(10, batch_epochs=0)
        with pytest.raises(ValueError, match="not both"):
            sim.stream(
                10,
                fault_events=[],
                fault_injector=FaultInjector(),
            )


class TestScenarioSpecStream:
    def test_spec_stream_yields_batches(self):
        spec = build_scenario("fault-storm", random_state=1)
        batches = list(spec.stream(100, batch_epochs=40, random_state=1))
        assert [b.n_epochs for b in batches] == [40, 40, 20]

    def test_spec_stream_defaults_to_scenario_epochs(self):
        spec = build_scenario("baseline", random_state=1)
        stream = spec.stream(random_state=1)
        assert stream.n_epochs == spec.default_epochs

    def test_same_seed_same_stream(self):
        spec = build_scenario("fault-storm", random_state=1)
        a = spec.stream(80, random_state=9).collect()
        b = spec.stream(80, random_state=9).collect()
        assert a.features.values.tobytes() == b.features.values.tobytes()


class TestStreamScenarioTelemetry:
    def test_reproduces_materialized_dataset_exactly(self):
        """The acceptance contract: full-horizon streaming == dataset."""
        dataset = make_scenario_dataset("fault-storm", 200, random_state=7)
        stream = stream_scenario_telemetry(
            "fault-storm", 200, batch_epochs=64, random_state=7
        )
        result = stream.collect()
        assert (
            dataset.X.values.tobytes() == result.features.values.tobytes()
        )
        assert (dataset.y == result.sla_violation).all()
        assert (
            dataset.result.latency_ms.tobytes()
            == result.latency_ms.tobytes()
        )
        assert dataset.result.culprit_vnfs == result.culprit_vnfs

    def test_carries_the_scenario_spec(self):
        stream = stream_scenario_telemetry("baseline", 60, random_state=0)
        assert stream.spec.name == "baseline"
        assert stream.spec.injector is not None

    def test_recipe_override_reaches_the_spec(self):
        storm = scenario_recipe("fault-storm")
        stream = stream_scenario_telemetry(
            replace(storm, faults=replace(storm.faults, rate=0.2)), 60,
            random_state=0,
        )
        assert stream.spec.injector.rate == 0.2

    def test_unknown_scenario_raises(self):
        with pytest.raises(KeyError, match="unknown scenario"):
            stream_scenario_telemetry("nope", 60)
