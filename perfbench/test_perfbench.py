"""Tests of the benchmark's own helpers.

    PYTHONPATH=src python -m pytest perfbench -q
"""

import json
import math
import os
import sys
import types

import numpy as np
import pytest

from perfbench import layers, stats, tracing
from perfbench.tracing import Recorder, Span, Wrap
from perfbench.workloads import WORKLOADS, PassResult

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


# -- percentiles ----------------------------------------------------------
def test_percentile_needs_ten_samples_beyond():
    with pytest.raises(stats.InsufficientSamples):
        stats.percentile(range(100), 95)  # rank 95 of 100: 5 beyond
    with pytest.raises(stats.InsufficientSamples):
        stats.percentile(range(19), 50)  # rank 10 of 19: 9 beyond
    assert stats.percentile(range(20), 50) == 9
    assert stats.percentile(range(1, 201), 95) == 190


def test_failed_operations_count_as_missing_the_percentile():
    samples = [0.001] * 189 + [math.inf] * 11
    assert stats.percentile(samples, 95) == math.inf
    assert stats.percentile(samples, 50) == 0.001


# -- span arithmetic ----------------------------------------------------
def _spans():
    return [
        Span("root", 0.0, 10.0, -1),
        Span("a", 1.0, 4.0, 0),
        Span("c", 2.0, 3.0, 1),
        Span("b", 5.0, 7.0, 0),
        Span("a", 8.0, 9.0, 0),
    ]


def test_self_time_subtracts_children():
    assert tracing.self_times(_spans()) == pytest.approx([4, 2, 1, 2, 1])
    assert tracing.total_time(_spans(), "a") == pytest.approx(4)
    assert tracing.calls(_spans(), "a") == 2


def test_self_time_counts_overlapping_children_once():
    spans = [Span("root", 0, 10, -1), Span("x", 1, 4, 0), Span("y", 3, 6, 0)]
    assert tracing.self_times(spans)[0] == pytest.approx(5)


def test_total_time_of_several_names_counts_nesting_among_them_once():
    spans = _spans()  # c nests in the first a
    assert tracing.total_time(spans, "a", "c") == pytest.approx(4)
    assert tracing.total_time(spans, "c", "b") == pytest.approx(3)


def test_reentrant_spans_count_once():
    spans = [Span("root", 0, 10, -1), Span("fit", 1, 6, 0),
             Span("fit", 2, 3, 1)]
    assert tracing.total_time(spans, "fit") == pytest.approx(5)
    assert tracing.calls(spans, "fit") == 1


def test_recorder_nests_spans_and_measures_them():
    ticks = iter(range(100))
    recorder = Recorder(clock=lambda: float(next(ticks)))
    outer = recorder.enter("outer")
    inner = recorder.enter("inner")
    recorder.exit(inner)
    recorder.exit(outer)
    assert [(s.name, s.start, s.end, s.parent) for s in recorder.spans] == [
        ("outer", 0.0, 3.0, -1), ("inner", 1.0, 2.0, 0),
    ]
    assert tracing.self_times(recorder.spans) == [2.0, 1.0]


# -- wrappers -----------------------------------------------------------
@pytest.fixture
def fake_module():
    module = types.ModuleType("perfbench_fake_target")

    def double(x):
        return 2 * x

    class Thing:
        def method(self, x):
            return x + 1

        @classmethod
        def build(cls, x):
            return cls, x

        @staticmethod
        def helper(x):
            return -x

    module.double, module.Thing = double, Thing
    sys.modules[module.__name__] = module
    yield module
    del sys.modules[module.__name__]


def test_install_then_uninstall_restores_originals(fake_module):
    Thing = fake_module.Thing
    originals = {
        "double": fake_module.double,
        "method": vars(Thing)["method"],
        "build": vars(Thing)["build"],
        "helper": vars(Thing)["helper"],
    }
    plan = [
        Wrap("perfbench_fake_target:double", "f.double"),
        Wrap("perfbench_fake_target:Thing.method", "f.method"),
        Wrap("perfbench_fake_target:Thing.build", "f.build"),
        Wrap("perfbench_fake_target:Thing.helper", "f.helper"),
    ]
    recorder = Recorder()
    installed = tracing.install(recorder, plan)
    assert fake_module.double is not originals["double"]
    assert fake_module.double(3) == 6
    assert Thing().method(1) == 2
    assert Thing.build(5) == (Thing, 5)
    assert Thing.helper(4) == -4
    assert [s.name for s in recorder.spans] == [
        "f.double", "f.method", "f.build", "f.helper",
    ]
    tracing.uninstall(installed)
    assert fake_module.double is originals["double"]
    for name in ("method", "build", "helper"):
        assert vars(Thing)[name] is originals[name]


def test_the_full_plan_installs_and_uninstalls_on_the_program():
    originals = [wrap.resolve() for wrap in layers.PLAN]
    installed = tracing.install(Recorder(), layers.PLAN)
    assert all(
        vars(owner)[attr] is not raw for owner, attr, raw in originals
    )
    tracing.uninstall(installed)
    assert all(vars(owner)[attr] is raw for owner, attr, raw in originals)


def test_executor_wrapper_counts_tasks_and_times_every_step():
    from repro.core.executor import get_executor

    recorder = Recorder()
    installed = tracing.install(recorder, layers.EXECUTOR_PLAN)
    try:
        with get_executor("serial") as executor:
            assert executor.map(abs, iter([-1, -2, -3])) == [1, 2, 3]
    finally:
        tracing.uninstall(installed)
    assert recorder.counters["executor.map_calls"] == 1
    assert recorder.counters["executor.tasks"] == 3
    assert recorder.counters["executor.task_bytes"] > 0
    assert {s.name for s in recorder.spans} == {"executor.map"}


# -- failure accounting -------------------------------------------------
@pytest.mark.parametrize("attempted, failed, output_ops, failed_outputs", [
    (800, 800, 400, 400),  # fleet: every batch raised, so every window
    (800, 6, 400, 3),      # fleet: three batches raised
    (6790, 70, 70, 70),    # stream: every window missing
    (14, 14, 14, 14),      # matrix: the sweep raised
])
def test_a_pass_that_fails_and_mismatches_counts_each_operation_once(
    attempted, failed, output_ops, failed_outputs
):
    result = PassResult(
        digest="", epochs=1, busy_s=1.0, wall_s=1.0, attempted=attempted,
        failed=failed, output_ops=output_ops, failed_outputs=failed_outputs,
    )
    assert result.failed_ops(False) == failed
    both = result.failed_ops(True)
    assert failed <= both <= attempted
    assert both == failed - failed_outputs + output_ops


# -- inputs -------------------------------------------------------------
def _as_arrays(inputs):
    if isinstance(inputs, dict):
        return [a for batches in inputs.values() for a in _as_arrays(batches)]
    if isinstance(inputs, tuple):
        return [np.array(inputs)]
    return [a for b in inputs
            for a in (b.features.values, np.asarray(b.sla_violation))]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_are_a_function_of_the_seed(name):
    first = _as_arrays(WORKLOADS[name](7).make_inputs())
    again = _as_arrays(WORKLOADS[name](7).make_inputs())
    assert len(first) == len(again)
    assert all(np.array_equal(a, b) for a, b in zip(first, again))


def test_every_content_seed_has_a_reference_digest():
    from perfbench.child import REFERENCE, content_seed

    with open(REFERENCE, encoding="utf-8") as fh:
        references = json.load(fh)
    for name, workload in WORKLOADS.items():
        assert set(references[name]) == {
            str(content_seed(name, seed, k)) for seed in range(20)
            for k in range(workload.suite)
        }


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("seconds", [1, 20, 25, 60])
def test_a_run_measures_whole_cycles_of_the_suite(name, seconds):
    from perfbench.child import content_seed, untraced_passes

    suite = WORKLOADS[name].suite
    passes = untraced_passes(name, seconds)
    assert passes >= suite and passes % suite == 0
    for seed in range(20):
        seeds = [content_seed(name, seed, k) for k in range(passes)]
        assert sorted(seeds) == sorted(list(range(suite)) * (passes // suite))


# -- BENCHMARK.json ---------------------------------------------------
def test_benchmark_json_names_the_reported_metrics():
    from perfbench.run import END_TO_END

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(
        END_TO_END
    )
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == list(layers.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
