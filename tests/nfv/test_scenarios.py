"""Tests for the workload scenario catalog (repro.nfv.scenarios)."""

from dataclasses import replace

import numpy as np
import pytest

from repro.datasets import make_scenario_dataset
from repro.nfv.faults import FaultInjector
from repro.nfv.scenarios import (
    ScenarioSpec,
    build_scenario,
    list_scenarios,
    scenario_recipe,
)
from repro.nfv.simulator import Simulator
from repro.nfv.simulator import Testbed as _Testbed

EXPECTED = {
    "baseline",
    "bursty-traffic",
    "cascading-overload",
    "diurnal",
    "fault-storm",
    "heterogeneous-servers",
    "long-chain",
    "noisy-telemetry",
}

#: Short horizon keeping the full-catalog tests fast.
N_EPOCHS = 150


class TestRegistry:
    def test_catalog_contents(self):
        assert EXPECTED <= set(list_scenarios())
        assert list_scenarios() == sorted(list_scenarios())

    def test_descriptions_cover_catalog(self):
        for name in list_scenarios():
            assert scenario_recipe(name).description

    def test_unknown_scenario(self):
        with pytest.raises(KeyError, match="unknown scenario"):
            build_scenario("does-not-exist")

    def test_knob_override_applies(self):
        base = scenario_recipe("baseline")
        spec = build_scenario(
            replace(base, faults=replace(base.faults, rate=0.05)),
            random_state=0,
        )
        assert spec.injector.rate == 0.05


class TestSpecs:
    @pytest.mark.parametrize("name", sorted(EXPECTED))
    def test_spec_is_complete_and_placed(self, name):
        spec = build_scenario(name, random_state=3)
        assert isinstance(spec, ScenarioSpec)
        assert spec.name == name
        assert spec.description
        assert isinstance(spec.testbed, _Testbed)
        assert isinstance(spec.injector, FaultInjector)
        for inst in spec.testbed.chain.instances:
            assert inst.server_id is not None
        assert spec.default_epochs >= 1

    @pytest.mark.parametrize("name", sorted(EXPECTED))
    def test_spec_simulates(self, name):
        spec = build_scenario(name, random_state=5)
        sim = Simulator(
            spec.testbed, random_state=5, **spec.simulator_kwargs
        )
        result = sim.run(60, fault_injector=spec.injector)
        assert result.n_epochs == 60
        assert np.isfinite(result.latency_ms).all()

    def test_long_chain_has_eight_vnfs(self):
        spec = build_scenario("long-chain", random_state=0)
        assert spec.testbed.chain.length == 8

    def test_heterogeneous_speeds_differ(self):
        spec = build_scenario("heterogeneous-servers", random_state=1)
        speeds = {
            s.cpu_speed for s in spec.testbed.topology.servers.values()
        }
        assert len(speeds) > 1
        assert all(0.6 <= s <= 1.4 for s in speeds)

    def test_noisy_telemetry_sets_simulator_noise(self):
        spec = build_scenario("noisy-telemetry", random_state=0)
        assert spec.simulator_kwargs["measurement_noise"] == 0.12


class TestScenarioDatasets:
    @pytest.mark.parametrize("name", sorted(EXPECTED))
    def test_deterministic_same_seed(self, name):
        """Satellite requirement: same scenario + seed => byte-identical
        dataset (features, labels, culprits, schedule) across runs."""
        a = make_scenario_dataset(name, N_EPOCHS, random_state=11)
        b = make_scenario_dataset(name, N_EPOCHS, random_state=11)
        assert a.X.values.tobytes() == b.X.values.tobytes()
        assert a.y.tobytes() == b.y.tobytes()
        assert a.rows.tobytes() == b.rows.tobytes()
        assert list(a.result.root_cause) == list(b.result.root_cause)
        assert a.result.culprit_vnfs == b.result.culprit_vnfs
        assert [
            (e.kind, e.start_epoch, e.duration, e.severity)
            for e in a.result.events
        ] == [
            (e.kind, e.start_epoch, e.duration, e.severity)
            for e in b.result.events
        ]

    def test_different_seeds_differ(self):
        a = make_scenario_dataset("baseline", N_EPOCHS, random_state=1)
        b = make_scenario_dataset("baseline", N_EPOCHS, random_state=2)
        assert not np.array_equal(a.X.values, b.X.values)

    def test_metadata_records_provenance(self):
        ds = make_scenario_dataset("fault-storm", N_EPOCHS, random_state=0)
        assert ds.metadata["scenario"] == "fault-storm"
        assert ds.metadata["recipe"] == scenario_recipe("fault-storm")
        assert ds.metadata["recipe"].faults.rate == 0.06
        assert ds.task == "sla_violation"

    def test_default_epochs_used_when_omitted(self):
        spec = build_scenario("baseline", random_state=0)
        ds = make_scenario_dataset("baseline", random_state=0)
        assert len(ds.y) == spec.default_epochs

    def test_latency_task(self):
        ds = make_scenario_dataset(
            "baseline", N_EPOCHS, task="latency", random_state=0
        )
        assert ds.task == "latency"
        assert ds.y.dtype.kind == "f"

    def test_root_cause_task(self):
        ds = make_scenario_dataset(
            "fault-storm", 400, task="root_cause", random_state=0
        )
        assert ds.task == "root_cause"
        assert len(ds.y) == len(ds.rows)

    def test_unknown_task(self):
        with pytest.raises(ValueError, match="unknown task"):
            make_scenario_dataset("baseline", 50, task="nope")

    def test_fault_rate_keyword_refused(self):
        """The rate has one name on the scenario path, the recipe's
        ``faults.rate``; a ``fault_rate`` keyword is refused with a hint
        naming it."""
        with pytest.raises(TypeError, match=r"faults\.rate"):
            make_scenario_dataset(
                "baseline", 400, task="root_cause", random_state=0,
                fault_rate=0.5,
            )

    def test_no_fault_epochs_hint_names_the_recipe_rate(self):
        base = scenario_recipe("baseline")
        calm = replace(base, faults=replace(base.faults, rate=0.0))
        with pytest.raises(RuntimeError, match=r"faults\.rate") as info:
            make_scenario_dataset(calm, 50, task="root_cause", random_state=0)
        assert "fault_rate" not in str(info.value)

    def test_scenario_knob_override(self):
        base = scenario_recipe("baseline")
        variant = replace(
            base, name="baseline-calm", faults=replace(base.faults, rate=0.0)
        )
        ds = make_scenario_dataset(variant, N_EPOCHS, random_state=0)
        assert ds.result.events == []
        assert ds.metadata["scenario"] == "baseline-calm"
        assert ds.metadata["recipe"] == variant

    @pytest.mark.parametrize("task", ["sla_violation", "latency"])
    @pytest.mark.parametrize("horizon", [50, 51])
    def test_horizon_at_or_beyond_the_run_is_a_named_error(self, task, horizon):
        """An empty dataset would only fail later, inside a split."""
        with pytest.raises(
            ValueError, match=f"horizon {horizon} for a 50-epoch run"
        ):
            make_scenario_dataset(
                "baseline", 50, task=task, horizon=horizon, random_state=0
            )

    def test_root_cause_none_fraction_forwarded(self):
        base = make_scenario_dataset(
            "fault-storm", 400, task="root_cause", random_state=0
        )
        narrow = make_scenario_dataset(
            "fault-storm", 400, task="root_cause", random_state=0,
            include_none_fraction=0.25,
        )
        n_fault = int(np.sum(base.y != "none"))
        assert int(np.sum(narrow.y != "none")) == n_fault
        assert int(np.sum(narrow.y == "none")) == round(0.25 * n_fault)
        with pytest.raises(ValueError, match="include_none_fraction"):
            make_scenario_dataset(
                "fault-storm", 400, task="root_cause", random_state=0,
                include_none_fraction=11.0,
            )
