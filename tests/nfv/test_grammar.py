"""Tests for the scenario-recipe grammar (repro.nfv.grammar)."""

from dataclasses import replace

import numpy as np
import pytest

from repro.nfv.faults import FaultKind
from repro.nfv.grammar import (
    AXIS_NAMES,
    CATALOG_RECIPES,
    CHAIN_VNF_TYPES,
    CHECKS,
    AcceptanceReport,
    FaultAxis,
    NoiseAxis,
    RecipeValidationError,
    ScenarioRecipe,
    ServerAxis,
    TopologyAxis,
    TrafficAxis,
    accept_recipe,
    load_generated,
    save_generated,
    validate_recipe,
)
from repro.nfv.scenarios import (
    build_scenario,
    list_scenarios,
    register_recipe,
    scenario_recipe,
)
from repro.utils.rng import check_random_state, spawn_rngs


class TestErrors:
    def test_message_carries_check_prefix(self):
        err = RecipeValidationError("faults", "kinds must not be empty")
        assert str(err) == "[faults] kinds must not be empty"
        assert err.check == "faults"
        assert err.detail == "kinds must not be empty"

    def test_is_a_value_error(self):
        assert issubclass(RecipeValidationError, ValueError)

    def test_unknown_check_rejected(self):
        with pytest.raises(ValueError, match="unknown check"):
            RecipeValidationError("typo", "boom")

    def test_every_axis_has_a_check(self):
        for check in ("topology", "traffic", "faults", "telemetry-noise",
                      "servers", "violation-rate"):
            assert check in CHECKS


class TestAxisValidation:
    @pytest.mark.parametrize(
        "axis,check",
        [
            (TopologyAxis(n_leaf=0), "topology"),
            (TopologyAxis(chain_types=()), "topology"),
            (TopologyAxis(chain_types=("firewall", "quantum")), "topology"),
            (TopologyAxis(sla_latency_ms=0.0), "topology"),
            (TrafficAxis(base_kpps=-1.0), "traffic"),
            (TrafficAxis(diurnal_amplitude=1.0), "traffic"),
            (TrafficAxis(flash_magnitude=0.5), "traffic"),
            (FaultAxis(kinds=()), "faults"),
            (FaultAxis(kinds=("not_a_fault",)), "faults"),
            (FaultAxis(rate=1.5), "faults"),
            (FaultAxis(duration_range=(0, 5)), "faults"),
            (FaultAxis(severity_range=(0.5, 1.5)), "faults"),
            (NoiseAxis(measurement_noise=0.9), "telemetry-noise"),
            (NoiseAxis(service_scv=9.0), "telemetry-noise"),
            (ServerAxis(speed_range=(0.0, 1.0)), "servers"),
        ],
    )
    def test_invalid_axis_raises_named_error(self, axis, check):
        with pytest.raises(RecipeValidationError) as excinfo:
            axis.validate()
        assert excinfo.value.check == check

    def test_defaults_validate(self):
        for axis in (TopologyAxis(), TrafficAxis(), FaultAxis(),
                     NoiseAxis(), ServerAxis()):
            axis.validate()

    def test_chain_vnf_types_cover_the_allocation_catalog(self):
        assert "firewall" in CHAIN_VNF_TYPES
        assert CHAIN_VNF_TYPES == tuple(sorted(CHAIN_VNF_TYPES))

    def test_default_noise_lowers_to_empty_kwargs(self):
        assert NoiseAxis().simulator_kwargs() == {}
        assert NoiseAxis(measurement_noise=0.12).simulator_kwargs() == {
            "measurement_noise": 0.12
        }


class TestAxisMutation:
    @pytest.mark.parametrize(
        "axis",
        [TopologyAxis(), TrafficAxis(), FaultAxis(), NoiseAxis(),
         ServerAxis(), ServerAxis(speed_range=(0.6, 1.4))],
    )
    def test_mutation_changes_and_reproduces(self, axis):
        mutated = axis.mutate(check_random_state(5))
        assert type(mutated) is type(axis)
        assert mutated == axis.mutate(check_random_state(5))

    def test_homogeneous_server_mutation_turns_on_heterogeneity(self):
        mutated = ServerAxis().mutate(check_random_state(0))
        assert mutated.speed_range is not None
        lo, hi = mutated.speed_range
        assert 0.0 < lo <= hi

    def test_fault_kind_mutation_stays_in_enum_order(self):
        enum_order = [k.value for k in FaultKind]
        axis = FaultAxis()
        for seed in range(20):
            mutated = axis.mutate(check_random_state(seed))
            positions = [enum_order.index(k) for k in mutated.kinds]
            assert positions == sorted(positions)

    def test_single_kind_mutation_readmits_instead_of_emptying(self):
        axis = FaultAxis(kinds=("traffic_surge",))
        for seed in range(20):
            mutated = axis.mutate(check_random_state(seed))
            assert len(mutated.kinds) >= 1


class TestScenarioRecipe:
    def test_lower_splits_the_seed_into_spec_and_data_rng(self):
        recipe = CATALOG_RECIPES["fault-storm"]
        spec, data_rng = recipe.lower(4)
        scenario_rng, expected_data = spawn_rngs(4, 2)
        again = recipe.build(scenario_rng)
        a = spec.stream(96, random_state=1).collect()
        b = again.stream(96, random_state=1).collect()
        assert a.features.values.tobytes() == b.features.values.tobytes()
        assert data_rng.bit_generator.state == (
            expected_data.bit_generator.state
        )

    def test_default_recipe_is_the_baseline_testbed(self):
        recipe = ScenarioRecipe(name="x")
        recipe.validate()
        spec = recipe.build(0)
        assert spec.name == "x"
        assert spec.simulator_kwargs == {}
        assert spec.injector is not None

    def test_recipes_hash_and_compare(self):
        a = ScenarioRecipe(name="x")
        b = ScenarioRecipe(name="x")
        assert a == b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_recipe_name_required(self):
        with pytest.raises(RecipeValidationError) as excinfo:
            ScenarioRecipe(name="").validate()
        assert excinfo.value.check == "recipe"

    def test_short_horizon_named_error(self):
        with pytest.raises(RecipeValidationError) as excinfo:
            ScenarioRecipe(name="x", default_epochs=8).validate()
        assert excinfo.value.check == "horizon"

    def test_infeasible_faults_named_error(self):
        recipe = ScenarioRecipe(
            name="x",
            faults=FaultAxis(duration_range=(500, 600)),
            default_epochs=100,
        )
        with pytest.raises(RecipeValidationError) as excinfo:
            recipe.validate()
        assert excinfo.value.check == "fault-feasibility"

    def test_faultless_recipe_lowers_without_injector(self):
        spec = ScenarioRecipe(name="x", faults=None).build(0)
        assert spec.injector is None

    def test_build_is_deterministic(self):
        recipe = CATALOG_RECIPES["heterogeneous-servers"]
        a = recipe.build(11)
        b = recipe.build(11)
        speeds_a = [
            s.cpu_speed for _, s in sorted(a.testbed.topology.servers.items())
        ]
        speeds_b = [
            s.cpu_speed for _, s in sorted(b.testbed.topology.servers.items())
        ]
        assert speeds_a == speeds_b

    def test_mutate_keeps_name_and_reproduces(self):
        recipe = CATALOG_RECIPES["baseline"]
        mutated = recipe.mutate(3)
        assert mutated.name == recipe.name
        assert mutated != recipe
        assert mutated == recipe.mutate(3)

    def test_mutate_on_faultless_recipe_can_grow_faults(self):
        recipe = ScenarioRecipe(name="x", faults=None)
        grew = False
        for seed in range(40):
            if recipe.mutate(seed).faults is not None:
                grew = True
                break
        assert grew

    def test_to_dict_round_trip(self):
        for recipe in CATALOG_RECIPES.values():
            assert ScenarioRecipe.from_dict(recipe.to_dict()) == recipe

    def test_to_dict_round_trip_faultless(self):
        recipe = ScenarioRecipe(name="x", faults=None)
        assert ScenarioRecipe.from_dict(recipe.to_dict()) == recipe

    def test_to_dict_is_json_ready(self):
        import json

        payload = json.dumps(CATALOG_RECIPES["long-chain"].to_dict())
        assert "long-chain" in payload


class TestKnobs:
    def test_knob_defaults_read_the_axes(self):
        recipe = CATALOG_RECIPES["baseline"]
        defaults = recipe.knob_defaults()
        assert defaults == {"base_kpps": 400.0, "fault_rate": 0.01}

    def test_with_knobs_rewrites_the_axis(self):
        recipe = CATALOG_RECIPES["baseline"].with_knobs(fault_rate=0.2)
        assert recipe.faults.rate == 0.2
        assert CATALOG_RECIPES["baseline"].faults.rate == 0.01

    def test_with_knobs_unknown_name_lists_accepted(self):
        with pytest.raises(TypeError, match="unknown knobs"):
            CATALOG_RECIPES["baseline"].with_knobs(warp_factor=9)

    def test_with_knobs_converts_lists_to_tuples(self):
        recipe = CATALOG_RECIPES["heterogeneous-servers"].with_knobs(
            speed_range=[0.5, 1.5]
        )
        assert recipe.servers.speed_range == (0.5, 1.5)
        assert hash(recipe)  # still hashable after the override

    def test_bad_knob_path_named_error(self):
        recipe = ScenarioRecipe(
            name="x", knob_paths=(("k", "traffic.warp_factor"),)
        )
        with pytest.raises(RecipeValidationError) as excinfo:
            recipe.validate()
        assert excinfo.value.check == "knobs"


class TestCatalog:
    def test_eight_regimes(self):
        assert len(CATALOG_RECIPES) == 8
        assert set(CATALOG_RECIPES) == {
            "baseline", "bursty-traffic", "diurnal", "fault-storm",
            "cascading-overload", "noisy-telemetry", "long-chain",
            "heterogeneous-servers",
        }

    def test_every_catalog_recipe_validates(self):
        for recipe in CATALOG_RECIPES.values():
            validate_recipe(recipe)

    def test_every_catalog_recipe_is_accepted(self):
        for recipe in CATALOG_RECIPES.values():
            report = accept_recipe(
                recipe, probe_epochs=256, random_state=0
            )
            assert isinstance(report, AcceptanceReport)
            assert report.n_violations >= 2
            assert recipe.name in report.summary()

    def test_axis_names_cover_the_recipe_fields(self):
        assert AXIS_NAMES == ("topology", "traffic", "faults", "noise",
                              "servers")


class TestAcceptance:
    def test_negative_horizon_rejected(self):
        with pytest.raises(RecipeValidationError) as excinfo:
            accept_recipe(ScenarioRecipe(name="x"), horizon=-1)
        assert excinfo.value.check == "horizon"

    def test_huge_horizon_rejected(self):
        with pytest.raises(RecipeValidationError) as excinfo:
            accept_recipe(
                ScenarioRecipe(name="x", default_epochs=128),
                probe_epochs=128,
                horizon=100,
            )
        assert excinfo.value.check == "horizon"

    def test_infeasible_faults_surface_through_accept(self):
        recipe = ScenarioRecipe(
            name="x",
            faults=FaultAxis(duration_range=(300, 400)),
            default_epochs=100,
        )
        with pytest.raises(RecipeValidationError) as excinfo:
            accept_recipe(recipe, probe_epochs=128)
        assert excinfo.value.check == "fault-feasibility"

    def test_saturating_sla_loss_rate_is_a_named_topology_error(self):
        # 1.0 is SLA's own exclusive bound; the axis mirrors it so the
        # failure is named instead of a 'placement' crash at lowering
        with pytest.raises(RecipeValidationError) as excinfo:
            TopologyAxis(sla_loss_rate=1.0).validate()
        assert excinfo.value.check == "topology"

    def test_degenerate_regime_rejected(self):
        # no faults and a generous SLA: nothing ever violates
        recipe = ScenarioRecipe(
            name="x",
            topology=TopologyAxis(sla_latency_ms=10.0, sla_loss_rate=0.99),
            traffic=TrafficAxis(
                base_kpps=50.0, noise_sigma=0.0, flash_crowd_rate=0.0
            ),
            faults=None,
            default_epochs=256,
        )
        with pytest.raises(RecipeValidationError) as excinfo:
            accept_recipe(recipe, probe_epochs=128)
        assert excinfo.value.check == "violation-rate"
        assert "degenerate" in excinfo.value.detail

    def test_saturated_regime_rejected(self):
        # impossible SLA: every epoch violates
        recipe = ScenarioRecipe(
            name="x",
            topology=TopologyAxis(sla_latency_ms=0.001),
            faults=None,
            default_epochs=256,
        )
        with pytest.raises(RecipeValidationError) as excinfo:
            accept_recipe(recipe, probe_epochs=128)
        assert excinfo.value.check == "violation-rate"
        assert "saturated" in excinfo.value.detail

    def test_rare_violation_regime_escalates_probe(self):
        # long-chain violates too rarely for a 512-epoch probe at seed 0
        # but is accepted after the escalation pass at default_epochs
        report = accept_recipe(
            CATALOG_RECIPES["long-chain"], probe_epochs=512, random_state=0
        )
        assert report.probe_epochs > 512

    def test_acceptance_is_deterministic(self):
        a = accept_recipe(
            CATALOG_RECIPES["baseline"], probe_epochs=256, random_state=4
        )
        b = accept_recipe(
            CATALOG_RECIPES["baseline"], probe_epochs=256, random_state=4
        )
        assert a == b

    def test_non_recipe_rejected(self):
        with pytest.raises(RecipeValidationError) as excinfo:
            validate_recipe("baseline")
        assert excinfo.value.check == "recipe"


class TestGeneratedStore:
    def test_save_load_round_trip(self, tmp_path):
        store = tmp_path / "generated.json"
        recipes = [
            replace(CATALOG_RECIPES["baseline"].mutate(3), name="adv-a"),
            replace(CATALOG_RECIPES["fault-storm"].mutate(4), name="adv-b"),
        ]
        save_generated(recipes, store)
        loaded = load_generated(store)
        assert loaded == {"adv-a": recipes[0], "adv-b": recipes[1]}

    def test_load_missing_store_is_empty(self, tmp_path):
        assert load_generated(tmp_path / "absent.json") == {}

    def test_save_is_byte_stable(self, tmp_path):
        recipes = [replace(CATALOG_RECIPES["diurnal"].mutate(7), name="adv")]
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        save_generated(recipes, a)
        save_generated(list(reversed(recipes)), b)
        assert a.read_bytes() == b.read_bytes()

    def test_version_mismatch_rejected(self, tmp_path):
        store = tmp_path / "bad.json"
        store.write_text('{"version": 99, "recipes": []}')
        with pytest.raises(ValueError, match="version"):
            load_generated(store)


class TestRegistryIntegration:
    def test_catalog_scenarios_are_recipe_backed(self):
        for name in CATALOG_RECIPES:
            assert name in list_scenarios()
            assert scenario_recipe(name) == CATALOG_RECIPES[name]

    def test_register_recipe_round_trip(self):
        from repro.nfv.scenarios import _RECIPES

        recipe = replace(
            CATALOG_RECIPES["baseline"], name="test-grammar-reg",
            description="registered by the grammar test",
        )
        register_recipe(recipe)
        try:
            assert "test-grammar-reg" in list_scenarios()
            assert scenario_recipe("test-grammar-reg") == recipe
            assert scenario_recipe("test-grammar-reg").knob_defaults() == {
                "base_kpps": 400.0, "fault_rate": 0.01
            }
            spec = build_scenario(
                "test-grammar-reg", random_state=0, fault_rate=0.05
            )
            assert spec.knobs["fault_rate"] == 0.05
        finally:
            _RECIPES.pop("test-grammar-reg", None)

    def test_register_duplicate_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_recipe(CATALOG_RECIPES["baseline"])

    def test_register_non_recipe_rejected(self):
        with pytest.raises(TypeError, match="ScenarioRecipe"):
            register_recipe("baseline")

    @pytest.mark.parametrize("name, epochs, check", [
        ("bad", 5, "horizon"),
        ("", 2000, "recipe"),
    ])
    def test_register_refuses_a_recipe_that_cannot_build(
        self, name, epochs, check
    ):
        before = list_scenarios()
        with pytest.raises(RecipeValidationError) as excinfo:
            register_recipe(replace(
                CATALOG_RECIPES["baseline"], name=name, default_epochs=epochs
            ))
        assert excinfo.value.check == check
        assert list_scenarios() == before

    def test_build_scenario_takes_a_recipe(self):
        recipe = CATALOG_RECIPES["fault-storm"]
        assert scenario_recipe(recipe) is recipe
        by_name = build_scenario("fault-storm", random_state=3, fault_rate=0.1)
        by_recipe = build_scenario(recipe, random_state=3, fault_rate=0.1)
        assert by_recipe.knobs == by_name.knobs
        a = by_name.stream(96, random_state=5).collect()
        b = by_recipe.stream(96, random_state=5).collect()
        assert a.features.values.tobytes() == b.features.values.tobytes()

    def test_list_knob_reads_back_as_the_stored_tuple(self):
        spec = build_scenario(
            "fault-storm", random_state=0, severity_range=[0.6, 0.9]
        )
        assert spec.knobs["severity_range"] == (0.6, 0.9)
        assert spec.injector.severity_range == (0.6, 0.9)

    def test_scenario_recipe_on_non_recipe_scenario(self):
        with pytest.raises(KeyError, match="[Uu]nknown scenario"):
            scenario_recipe("nope")

    def test_recipe_and_name_datasets_are_byte_identical(self):
        from repro.datasets import make_scenario_dataset

        by_name = make_scenario_dataset("baseline", 96, random_state=11)
        by_recipe = make_scenario_dataset(
            CATALOG_RECIPES["baseline"], 96, random_state=11
        )
        assert (
            by_name.X.values.tobytes() == by_recipe.X.values.tobytes()
        )
        assert np.array_equal(by_name.y, by_recipe.y)
