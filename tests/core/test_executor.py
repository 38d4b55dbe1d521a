"""Tests for the execution backbone (repro.core.executor).

The contract under test: every backend runs the same pure tasks and
returns the same results in the same order — parallelism changes
wall-clock, never bytes.  Worker functions live at module level so the
process backend can pickle them.
"""

import numpy as np
import pytest

from repro.core import NFVExplainabilityPipeline
from repro.core.executor import (
    BACKENDS,
    ProcessExecutor,
    SerialExecutor,
    ThreadExecutor,
    available_workers,
    get_executor,
)
from repro.datasets import make_sla_violation_dataset
from repro.ml import LogisticRegression
from repro.utils.rng import check_random_state, spawn_seeds

ALL_BACKENDS = list(BACKENDS)


def _square(x):
    return x * x


def _add(a, b):
    return a + b


def _fail_on_three(x):
    if x == 3:
        raise RuntimeError("task three exploded")
    return x


def _seeded_normal(item, seed):
    """A shard that mixes its payload with its own deterministic stream."""
    rng = check_random_state(seed)
    return float(item + rng.normal())


class TestGetExecutor:
    def test_auto_defaults_to_serial(self):
        assert isinstance(get_executor(), SerialExecutor)
        assert isinstance(get_executor("auto", 1), SerialExecutor)

    def test_auto_with_workers_prefers_processes(self, monkeypatch):
        import repro.core.executor as executor_mod

        monkeypatch.setattr(executor_mod, "available_workers", lambda: 4)
        with get_executor("auto", 2) as ex:
            assert isinstance(ex, ProcessExecutor)
            assert ex.workers == 2

    def test_auto_resolves_serial_on_one_usable_cpu(self, monkeypatch):
        """ISSUE 8 satellite: ``auto`` with a worker budget used to pay
        fork+pickle overhead even when CPU affinity leaves one core (a
        CI container) — zero speedup, results identical.  It must
        resolve to serial there; the choice is timing-only."""
        import repro.core.executor as executor_mod

        monkeypatch.setattr(executor_mod, "available_workers", lambda: 1)
        with get_executor("auto", 4) as ex:
            assert isinstance(ex, SerialExecutor)
        # an *explicit* backend request is still honored as asked
        with get_executor("process", 2) as ex:
            assert isinstance(ex, ProcessExecutor)

    def test_named_backends(self):
        assert isinstance(get_executor("serial"), SerialExecutor)
        with get_executor("thread", 2) as ex:
            assert isinstance(ex, ThreadExecutor)
        with get_executor("process", 2) as ex:
            assert isinstance(ex, ProcessExecutor)

    def test_pool_workers_default_to_available(self):
        with get_executor("thread") as ex:
            assert ex.workers == available_workers()

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            get_executor("gpu")

    def test_bad_worker_counts_rejected(self):
        for cls in (SerialExecutor, ThreadExecutor, ProcessExecutor):
            with pytest.raises(ValueError, match="workers"):
                cls(workers=0)

    def test_serial_ignores_worker_budget(self):
        assert SerialExecutor(workers=8).workers == 1

    def test_available_workers_positive(self):
        assert available_workers() >= 1


class TestMapContract:
    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_results_in_task_order(self, backend):
        with get_executor(backend, 2) as ex:
            assert ex.map(_square, range(10)) == [x * x for x in range(10)]

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_multiple_iterables(self, backend):
        with get_executor(backend, 2) as ex:
            assert ex.map(_add, [1, 2, 3], [10, 20, 30]) == [11, 22, 33]

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_empty_input(self, backend):
        with get_executor(backend, 2) as ex:
            assert ex.map(_square, []) == []

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_exceptions_propagate(self, backend):
        with get_executor(backend, 2) as ex:
            with pytest.raises(RuntimeError, match="task three"):
                ex.map(_fail_on_three, range(6))

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_executor_is_reusable_after_map(self, backend):
        with get_executor(backend, 2) as ex:
            first = ex.map(_square, range(4))
            second = ex.map(_square, range(4))
        assert first == second

    def test_close_is_idempotent(self):
        ex = get_executor("thread", 2)
        ex.map(_square, range(3))
        ex.close()
        ex.close()

    def test_imap_streams_in_order(self):
        with get_executor("thread", 2) as ex:
            seen = list(ex.imap(_square, range(5)))
        assert seen == [0, 1, 4, 9, 16]


class TestSeededMapping:
    def test_spawn_seeds_deterministic_and_distinct(self):
        a = spawn_seeds(123, 8)
        b = spawn_seeds(123, 8)
        assert a == b
        assert len(set(a)) == 8
        assert all(isinstance(s, int) and s >= 0 for s in a)

    def test_spawn_seeds_differ_across_master_seeds(self):
        assert spawn_seeds(0, 4) != spawn_seeds(1, 4)

    def test_spawn_seeds_prefix_stable(self):
        """Shard i's seed does not depend on how many shards there are."""
        assert spawn_seeds(7, 3) == spawn_seeds(7, 6)[:3]

    def test_spawn_seeds_validation(self):
        with pytest.raises(ValueError, match="non-negative"):
            spawn_seeds(0, -1)
        with pytest.raises(ValueError, match="non-negative"):
            spawn_seeds(-5, 2)
        with pytest.raises(TypeError, match="random_state"):
            spawn_seeds("seed", 2)

    def test_spawn_seeds_accepts_generator_and_seedsequence(self):
        assert spawn_seeds(np.random.SeedSequence(3), 2) == spawn_seeds(
            np.random.SeedSequence(3), 2
        )
        gen_seeds = spawn_seeds(np.random.default_rng(3), 4)
        assert len(gen_seeds) == 4

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_map_seeded_reads_a_seed_sequence_without_advancing_it(
        self, backend
    ):
        sequence = np.random.SeedSequence(42)
        with get_executor(backend, 2) as ex:
            first = ex.map_seeded(_seeded_normal, range(4), sequence)
            second = ex.map_seeded(_seeded_normal, range(4), sequence)
        with get_executor("serial") as serial:
            reference = serial.map_seeded(_seeded_normal, range(4), 42)
        assert first == second == reference

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_map_seeded_identical_across_backends(self, backend):
        with get_executor(backend, 2) as ex:
            result = ex.map_seeded(_seeded_normal, range(6), 42)
        with get_executor("serial") as serial:
            reference = serial.map_seeded(_seeded_normal, range(6), 42)
        assert result == reference  # bit-identical floats, in order


# ---------------------------------------------------------------------
# chunked batch dispatch + 64-row diagnose_batch determinism
# ---------------------------------------------------------------------

@pytest.fixture(scope="module")
def kernel_pipeline():
    """A fitted kernel-SHAP pipeline over a small SLA dataset."""
    dataset = make_sla_violation_dataset(n_epochs=700, random_state=3)
    pipeline = NFVExplainabilityPipeline(
        LogisticRegression(max_iter=200),
        explainer_method="kernel_shap",
        explainer_kwargs={"n_samples": 64, "random_state": 3},
        random_state=3,
    ).fit(dataset)
    return dataset, pipeline


class TestChunkedExplainBatch:
    def test_no_executor_falls_back_to_plain_batch(self, kernel_pipeline):
        dataset, pipeline = kernel_pipeline
        X = dataset.X.values[:8]
        chunked = pipeline.explainer_.explain_batch_chunked(X)
        plain = pipeline.explainer_.explain_batch(X)
        np.testing.assert_array_equal(chunked.values, plain.values)

    @pytest.mark.parametrize("chunk_rows", [1, 5, 16, 100])
    def test_chunked_matches_plain_batch(self, kernel_pipeline, chunk_rows):
        dataset, pipeline = kernel_pipeline
        X = dataset.X.values[:24]
        plain = pipeline.explainer_.explain_batch(X)
        with get_executor("thread", 2) as ex:
            chunked = pipeline.explainer_.explain_batch_chunked(
                X, ex, chunk_rows=chunk_rows
            )
        assert chunked.n_samples == plain.n_samples
        np.testing.assert_allclose(chunked.values, plain.values, atol=1e-10)
        np.testing.assert_allclose(
            chunked.predictions, plain.predictions, atol=1e-12
        )

    def test_bad_chunk_rows_rejected(self, kernel_pipeline):
        _, pipeline = kernel_pipeline
        with pytest.raises(ValueError, match="chunk_rows"):
            pipeline.explainer_.explain_batch_chunked(
                np.zeros((4, 31)), None, chunk_rows=0
            )

    def test_empty_batch_ok(self, kernel_pipeline):
        _, pipeline = kernel_pipeline
        with get_executor("serial") as ex:
            batch = pipeline.explainer_.explain_batch_chunked(
                np.zeros((0, 31)), ex
            )
        assert batch.n_samples == 0


class TestDiagnoseBatchDeterminism:
    """ISSUE satellite: serial == thread == process to exact equality
    for a 64-row diagnose_batch under fixed int seeds."""

    @pytest.fixture(scope="class")
    def per_backend(self, kernel_pipeline):
        dataset, pipeline = kernel_pipeline
        X = dataset.X.values[:64]
        results = {}
        for backend in ALL_BACKENDS:
            with get_executor(backend, 2) as ex:
                results[backend] = pipeline.diagnose_batch(X, executor=ex)
        return results

    def test_attributions_bit_identical(self, per_backend):
        reference = np.vstack(
            [d.explanation.values for d in per_backend["serial"]]
        )
        for backend in ("thread", "process"):
            values = np.vstack(
                [d.explanation.values for d in per_backend[backend]]
            )
            np.testing.assert_array_equal(values, reference, err_msg=backend)

    def test_diagnoses_identical(self, per_backend):
        reference = per_backend["serial"]
        for backend in ("thread", "process"):
            for a, b in zip(reference, per_backend[backend]):
                assert a.prediction == b.prediction
                assert a.alert == b.alert
                assert a.vnf_ranking == b.vnf_ranking
                assert a.vnf_scores == b.vnf_scores
                assert a.resource_scores == b.resource_scores

    def test_executor_path_matches_plain_path(self, kernel_pipeline, per_backend):
        dataset, pipeline = kernel_pipeline
        X = dataset.X.values[:64]
        plain = pipeline.diagnose_batch(X)
        serial = per_backend["serial"]
        for a, b in zip(plain, serial):
            np.testing.assert_allclose(
                a.explanation.values, b.explanation.values, atol=1e-10
            )
