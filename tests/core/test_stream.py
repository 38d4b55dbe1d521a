"""Tests for the streaming diagnosis engine (repro.core.stream)."""

import os
from dataclasses import asdict

import numpy as np
import pytest

from repro.core.stream import (
    MALFORMED_CHECKS,
    MalformedBatchError,
    PageHinkley,
    StreamingDiagnosisEngine,
    StreamReport,
    StreamWindow,
    window_seeds,
)
from repro.datasets import stream_scenario_telemetry
from repro.nfv.simulator import EpochBatch
from repro.utils.events import OperatorEvent, format_events
from repro.utils.rng import spawn_seeds
from repro.utils.tabular import FeatureMatrix

GOLDEN_PATH = os.path.join(
    os.path.dirname(__file__), "data", "stream_golden.txt"
)

#: Small-budget engine configuration shared by the seeded tests.
FAST = dict(
    window_epochs=64,
    refit_every=2,
    explain_per_window=4,
    explainer_kwargs={"n_samples": 64},
    random_state=7,
)


def _stream(n_epochs=320, batch_epochs=64, seed=7):
    return stream_scenario_telemetry(
        "fault-storm", n_epochs, batch_epochs=batch_epochs, random_state=seed
    )


@pytest.fixture(scope="module")
def report():
    return StreamingDiagnosisEngine(**FAST).run(_stream())


def _synthetic_batch(n_epochs, labels, start=0, n_features=4, seed=0):
    """A minimal EpochBatch with controllable labels."""
    rng = np.random.default_rng(seed)
    labels = np.asarray(labels, dtype=np.int64)
    assert len(labels) == n_epochs
    X = rng.normal(size=(n_epochs, n_features))
    X[:, 0] += 3.0 * labels  # make the label learnable
    return EpochBatch(
        start_epoch=start,
        features=FeatureMatrix(X, [f"f{i}" for i in range(n_features)]),
        latency_ms=np.zeros(n_epochs),
        loss_rate=np.zeros(n_epochs),
        sla_violation=labels,
        root_cause=np.asarray(["none"] * n_epochs, dtype=object),
        culprit_vnfs=[()] * n_epochs,
    )


class TestPageHinkley:
    def test_detects_an_upward_shift(self):
        detector = PageHinkley(delta=0.01, threshold=0.2, direction="up")
        fired = [detector.update(0.1) for _ in range(20)]
        assert not any(fired)
        fired = [detector.update(0.9) for _ in range(20)]
        assert any(fired)
        assert detector.n_alarms >= 1

    def test_detects_a_downward_shift(self):
        detector = PageHinkley(delta=0.01, threshold=0.2, direction="down")
        for _ in range(20):
            detector.update(0.9)
        assert any(detector.update(0.1) for _ in range(20))

    def test_up_detector_ignores_downward_shift(self):
        detector = PageHinkley(delta=0.01, threshold=0.2, direction="up")
        for _ in range(20):
            detector.update(0.9)
        assert not any(detector.update(0.1) for _ in range(40))

    def test_both_direction_sees_either(self):
        for values in ([0.1] * 20 + [0.9] * 20, [0.9] * 20 + [0.1] * 20):
            detector = PageHinkley(
                delta=0.01, threshold=0.2, direction="both"
            )
            assert any(detector.update(v) for v in values)

    def test_min_samples_suppresses_early_alarms(self):
        detector = PageHinkley(
            delta=0.0, threshold=0.01, min_samples=10, direction="up"
        )
        values = [0.0, 1.0, 0.0, 1.0, 5.0]
        assert not any(detector.update(v) for v in values)
        assert detector.n_seen == len(values)

    def test_reset_restores_fresh_state(self):
        detector = PageHinkley(delta=0.01, threshold=0.2)
        values = [0.1] * 15 + [0.8] * 15
        first = [detector.update(v) for v in values]
        detector.reset()
        alarms = detector.n_alarms
        second = [detector.update(v) for v in values]
        assert first == second
        assert detector.n_alarms == 2 * alarms

    def test_statistic_is_nonnegative(self):
        detector = PageHinkley(delta=0.0, threshold=10.0, direction="both")
        rng = np.random.default_rng(0)
        for v in rng.normal(size=50):
            detector.update(v)
            assert detector.statistic >= 0.0

    def test_validation(self):
        with pytest.raises(ValueError, match="delta"):
            PageHinkley(delta=-0.1)
        with pytest.raises(ValueError, match="threshold"):
            PageHinkley(threshold=0.0)
        with pytest.raises(ValueError, match="min_samples"):
            PageHinkley(min_samples=0)
        with pytest.raises(ValueError, match="direction"):
            PageHinkley(direction="sideways")


class TestWindowSeeds:
    def test_matches_spawn_seeds(self):
        assert window_seeds(7, 5) == spawn_seeds(7, 5)

    def test_prefix_stable(self):
        assert window_seeds(7, 3) == window_seeds(7, 10)[:3]

    def test_engine_windows_record_the_contract_seeds(self, report):
        seeds = window_seeds(7, len(report.windows))
        assert [w.seed for w in report.windows] == seeds


class TestEngineWindows:
    def test_windows_tile_the_stream(self, report):
        assert [w.n_epochs for w in report.windows] == [64] * 5
        assert [w.index for w in report.windows] == list(range(5))
        assert report.windows[0].start_epoch == 0
        assert report.windows[-1].end_epoch == 320
        assert report.n_epochs == 320

    def test_refit_cadence(self, report):
        # first fittable window fits, then every refit_every windows
        assert [w.refit for w in report.windows] == [
            True, False, True, False, True
        ]
        assert report.n_refits == 3

    def test_explanations_only_after_first_fit(self, report):
        for w in report.windows:
            assert w.n_explained <= FAST["explain_per_window"]
            assert w.n_alerts <= w.n_explained
            if w.n_explained:
                assert w.test_accuracy is not None
                assert w.top_feature is not None
                assert 0.0 <= w.mean_score <= 1.0

    def test_attribution_shift_needs_two_profiles(self, report):
        explained = [w for w in report.windows if w.n_explained]
        assert explained[0].attribution_shift is None
        for w in explained[1:]:
            assert 0.0 <= w.attribution_shift <= 2.0

    def test_trailing_partial_window_is_flushed(self):
        engine = StreamingDiagnosisEngine(**FAST)
        run = engine.run(_stream(n_epochs=300))
        assert [w.n_epochs for w in run.windows] == [64, 64, 64, 64, 44]

    def test_warmup_windows_are_not_explained(self):
        engine = StreamingDiagnosisEngine(
            window_epochs=16, refit_every=2, explain_per_window=4,
            explainer_method="lime",
            explainer_kwargs={"n_samples": 50}, random_state=0,
        )
        batches = [
            _synthetic_batch(16, [0] * 16, seed=1),       # one-class: warmup
            _synthetic_batch(16, [0] * 8 + [1] * 8, seed=2),
            _synthetic_batch(16, [0] * 8 + [1] * 8, seed=3),
        ]
        run = engine.run(iter(batches))
        assert [w.refit for w in run.windows] == [False, True, False]
        assert run.windows[0].n_explained == 0
        assert run.windows[0].test_accuracy is None
        assert run.windows[1].n_explained > 0

    def test_monitor_only_mode(self):
        engine = StreamingDiagnosisEngine(
            window_epochs=64, explain_per_window=0, random_state=7,
        )
        run = engine.run(_stream(n_epochs=192))
        assert all(w.n_explained == 0 for w in run.windows)
        assert all(w.mean_score is None for w in run.windows)
        # violation-rate drift still monitored without explanations
        assert len(run.windows) == 3


class TestEngineDeterminism:
    def test_batch_chunking_never_changes_the_report(self, report):
        reference = report.format_table(timing=False)
        for batch_epochs in (1, 40, 100, 320):
            engine = StreamingDiagnosisEngine(**FAST)
            run = engine.run(_stream(batch_epochs=batch_epochs))
            assert run.format_table(timing=False) == reference

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_backends_byte_identical(self, report, backend):
        engine = StreamingDiagnosisEngine(
            **{**FAST, "explain_per_window": 20},
        )
        serial = engine.run(_stream()).format_table(timing=False)
        parallel_engine = StreamingDiagnosisEngine(
            **{**FAST, "explain_per_window": 20},
            backend=backend, workers=2,
        )
        run = parallel_engine.run(_stream())
        assert run.format_table(timing=False) == serial
        assert run.extras["backend"] == backend
        assert run.extras["workers"] == 2

    def test_reset_reproduces_the_first_run(self, report):
        engine = StreamingDiagnosisEngine(**FAST)
        first = engine.run(_stream()).format_table(timing=False)
        engine.reset()
        second = engine.run(_stream()).format_table(timing=False)
        assert first == second == report.format_table(timing=False)

    def test_generator_seed_frozen_at_construction(self):
        """Non-int seeds freeze to one drawn integer, so reset() still
        reproduces and the report records a usable seed."""
        engine = StreamingDiagnosisEngine(
            **{**FAST, "random_state": np.random.default_rng(0)},
        )
        frozen = engine.random_state
        assert isinstance(frozen, int)
        first = engine.run(_stream(n_epochs=128))
        assert first.seed == frozen
        engine.reset()
        second = engine.run(_stream(n_epochs=128))
        assert first.format_table(timing=False) == second.format_table(
            timing=False
        )
        # the frozen seed reproduces the run in a fresh engine too
        replay = StreamingDiagnosisEngine(
            **{**FAST, "random_state": frozen},
        ).run(_stream(n_epochs=128))
        assert replay.format_table(timing=False) == first.format_table(
            timing=False
        )

    def test_auto_explainer_is_seeded_when_stochastic(self):
        """``auto`` resolving to a sampled method must still honor the
        integer-seed determinism contract (naive-bayes has no
        model-specific explainer, so auto -> kernel_shap)."""
        from repro.ml import GaussianNB

        def run():
            engine = StreamingDiagnosisEngine(
                GaussianNB,
                window_epochs=64,
                refit_every=2,
                explain_per_window=4,
                explainer_method="auto",
                explainer_kwargs={"n_samples": 64},
                random_state=7,
            )
            report = engine.run(_stream(n_epochs=128))
            return engine, report

        engine, first = run()
        assert engine._pipeline.explainer_.method_name == "kernel_shap"
        _, second = run()
        assert first.format_table(timing=False) == second.format_table(
            timing=False
        )

    def test_runs_without_reset_continue_the_stream(self):
        engine = StreamingDiagnosisEngine(**FAST)
        a = engine.run(_stream(n_epochs=128))
        b = engine.run(_stream(n_epochs=128, seed=8))
        assert [w.index for w in a.windows] == [0, 1]
        assert [w.index for w in b.windows] == [2, 3]
        assert b.windows[0].start_epoch == 128
        assert len(engine.windows) == 4


class TestEngineIncremental:
    def test_process_batch_emits_completed_windows_only(self):
        engine = StreamingDiagnosisEngine(
            window_epochs=32, explain_per_window=0, random_state=0
        )
        assert engine.process_batch(
            _synthetic_batch(20, [0] * 20, seed=1)
        ) == []
        windows = engine.process_batch(
            _synthetic_batch(50, [0] * 50, seed=2)
        )
        assert [w.n_epochs for w in windows] == [32, 32]
        assert engine.flush() != []
        assert engine.flush() == []

    def test_schema_change_mid_stream_rejected(self):
        engine = StreamingDiagnosisEngine(window_epochs=8, random_state=0)
        engine.process_batch(_synthetic_batch(4, [0] * 4, n_features=4))
        with pytest.raises(ValueError, match="schema"):
            engine.process_batch(_synthetic_batch(4, [0] * 4, n_features=5))

    def test_malformed_batch_rejected(self):
        engine = StreamingDiagnosisEngine(window_epochs=8, random_state=0)
        with pytest.raises(TypeError, match="features"):
            engine.process_batch(object())


class TestLabelValidation:
    """ISSUE 8 satellite: ``_ingest`` used to cast labels straight to
    int64 — float labels were silently truncated (0.5 -> 0) and
    negative or multi-class values only crashed much later, deep inside
    ``np.bincount`` in ``_history_fittable``, with no hint of which
    batch was bad.  Ingest now validates labels are binary 0/1 and
    names the offending batch."""

    @staticmethod
    def _batch_with_labels(labels, start=0):
        n = len(labels)
        batch = _synthetic_batch(n, [0] * n, start=start, seed=1)
        batch.sla_violation = np.asarray(labels)
        return batch

    def test_float_labels_rejected(self):
        engine = StreamingDiagnosisEngine(window_epochs=8, random_state=0)
        with pytest.raises(ValueError, match="binary 0/1"):
            engine.process_batch(self._batch_with_labels([0.0, 0.5, 1.0, 0.0]))

    def test_negative_labels_rejected_at_ingest(self):
        engine = StreamingDiagnosisEngine(window_epochs=8, random_state=0)
        with pytest.raises(ValueError, match=r"binary 0/1.*-1"):
            engine.process_batch(self._batch_with_labels([0, 1, -1, 0]))

    def test_multiclass_labels_rejected(self):
        engine = StreamingDiagnosisEngine(window_epochs=8, random_state=0)
        with pytest.raises(ValueError, match=r"binary 0/1.*\b2\b"):
            engine.process_batch(self._batch_with_labels([0, 1, 2, 1]))

    def test_error_names_the_offending_batch(self):
        engine = StreamingDiagnosisEngine(window_epochs=8, random_state=0)
        with pytest.raises(ValueError, match="epoch 128"):
            engine.process_batch(
                self._batch_with_labels([0, 1, 7, 1], start=128)
            )

    def test_rejected_batch_leaves_no_partial_state(self):
        engine = StreamingDiagnosisEngine(window_epochs=8, random_state=0)
        with pytest.raises(ValueError, match="binary 0/1"):
            engine.process_batch(self._batch_with_labels([0, 1, 2, 1]))
        assert engine.pending_epochs == 0
        assert engine.epochs_seen == 0

    @pytest.mark.parametrize(
        "labels",
        [
            np.array([0, 1, 2, 0]),
            np.array([0.0, 0.3, 1.0, 0.0]),
            np.array([0.0, np.nan, 1.0, 0.0]),
            np.array(["0", "1", "1", "0"]),
            np.array([0, None, 1, 0], dtype=object),
            np.array([0, None, 2], dtype=object),
        ],
        ids=["int", "float", "nan", "str", "object-none", "object-mixed"],
    )
    def test_labels_not_binary_fires_on_every_bad_dtype(self, labels):
        engine = StreamingDiagnosisEngine(window_epochs=8, random_state=0)
        with pytest.raises(MalformedBatchError) as excinfo:
            engine.process_batch(self._batch_with_labels(labels))
        assert excinfo.value.check == "labels-not-binary"
        assert engine.pending_epochs == 0

    @pytest.mark.parametrize(
        "labels",
        [
            np.array([True, False, True, False]),
            np.array([0, 1, 1, 0], dtype=object),
        ],
        ids=["bool", "object-int"],
    )
    def test_binary_labels_of_any_dtype_accepted(self, labels):
        engine = StreamingDiagnosisEngine(window_epochs=8, random_state=0)
        engine.process_batch(self._batch_with_labels(labels))
        assert engine.pending_epochs == 4
        assert engine._pending_y[0].tolist() == [int(v) for v in labels]

    def test_exact_binary_floats_and_bools_accepted(self):
        engine = StreamingDiagnosisEngine(window_epochs=32, random_state=0)
        engine.process_batch(
            self._batch_with_labels(np.array([0.0, 1.0, 0.0, 1.0]))
        )
        engine.process_batch(
            self._batch_with_labels(np.array([True, False, True, False]))
        )
        assert engine.pending_epochs == 8
        assert engine._pending_y[0].dtype == np.int64


class TestMalformedPolicy:
    """ISSUE 10: malformed batches are a *policy*, not just a crash.

    ``on_malformed="raise"`` (the default) fails fast with a
    :class:`MalformedBatchError` naming its check;
    ``on_malformed="skip"`` drops the batch before any state mutation
    and records a named ``skipped-batch`` :class:`OperatorEvent` at its
    stream epoch — diagnosis bytes stay
    identical to a run that never saw the bad batch."""

    @staticmethod
    def _bad_labels(start=0):
        n = 4
        batch = _synthetic_batch(n, [0] * n, start=start, seed=1)
        batch.sla_violation = np.asarray([0, 1, 7, 1])
        return batch

    def test_on_malformed_validated(self):
        with pytest.raises(ValueError, match="on_malformed"):
            StreamingDiagnosisEngine(on_malformed="explode")

    def test_config_dict_carries_the_policy(self):
        engine = StreamingDiagnosisEngine(on_malformed="skip")
        assert engine.config_dict()["on_malformed"] == "skip"

    def test_every_check_is_named(self):
        engine = StreamingDiagnosisEngine(window_epochs=8, random_state=0)
        good = _synthetic_batch(4, [0] * 4, n_features=4)

        misaligned = _synthetic_batch(4, [0] * 4, seed=1)
        misaligned.sla_violation = np.asarray([0, 1])
        nonfinite = _synthetic_batch(4, [0] * 4, seed=1)
        nonfinite.features.values[0, 0] = np.nan

        for check, batch in (
            ("misaligned-shapes", misaligned),
            ("non-finite-features", nonfinite),
            ("labels-not-binary", self._bad_labels()),
        ):
            assert check in MALFORMED_CHECKS
            with pytest.raises(MalformedBatchError) as excinfo:
                engine.ingest(batch)
            assert excinfo.value.check == check

        engine.ingest(good)
        with pytest.raises(MalformedBatchError) as excinfo:
            engine.ingest(_synthetic_batch(4, [0] * 4, n_features=5))
        assert excinfo.value.check == "schema-changed"

    @pytest.mark.parametrize(
        "labels", [np.int64(1), np.array([[0], [1], [0], [1]])],
        ids=["0-d", "column"],
    )
    def test_labels_must_be_one_per_row(self, labels):
        """0-d and column-vector labels fail ``misaligned-shapes`` at
        ingest, so the skip policy can drop them like any bad batch."""
        bad = _synthetic_batch(4, [0, 1, 0, 1], start=8, seed=1)
        bad.sla_violation = labels
        engine = StreamingDiagnosisEngine(
            window_epochs=8, explain_per_window=0, on_malformed="skip",
            random_state=0,
        )
        engine.ingest(_synthetic_batch(8, [0, 1] * 4, seed=2))
        assert engine.ingest(bad) == 8
        engine.ingest(_synthetic_batch(8, [0, 1] * 4, start=8, seed=3))
        assert [w.n_epochs for w in engine.process_pending()] == [8, 8]
        (event,) = engine.events
        assert event.check == "misaligned-shapes"

    def test_malformed_error_is_a_valueerror(self):
        # the pre-ISSUE-10 contract matched ValueError; keep it true
        assert issubclass(MalformedBatchError, ValueError)

    def test_type_errors_stay_unconditional(self):
        engine = StreamingDiagnosisEngine(
            window_epochs=8, on_malformed="skip", random_state=0
        )
        with pytest.raises(TypeError, match="features"):
            engine.ingest(object())

    def test_skip_records_event_and_mutates_nothing(self):
        engine = StreamingDiagnosisEngine(
            window_epochs=8, on_malformed="skip", random_state=0
        )
        engine.ingest(_synthetic_batch(4, [0] * 4))
        assert engine.ingest(self._bad_labels(start=4)) == 4
        assert engine.pending_epochs == 4
        assert engine.epochs_seen == 4
        (event,) = engine.events
        assert event.kind == "skipped-batch"
        assert event.check == "labels-not-binary"
        assert event.at == 4
        assert "binary 0/1" in event.detail

    def test_skips_never_change_diagnosis_bytes(self):
        def run(inject):
            engine = StreamingDiagnosisEngine(
                window_epochs=8,
                explain_per_window=0,
                on_malformed="skip",
                random_state=0,
            )
            for i in range(4):
                if inject:
                    engine.ingest(self._bad_labels(start=8 * i))
                engine.ingest(
                    _synthetic_batch(
                        8, [0, 1] * 4, start=8 * i, seed=i
                    )
                )
            engine.flush()
            report = StreamReport(
                windows=engine.windows,
                window_epochs=8,
                refit_every=engine.refit_every,
                explainer=engine.explainer_method,
                scenario="test",
                seed=0,
                events=list(engine.events),
            )
            return report

        clean = run(inject=False)
        chaotic = run(inject=True)
        assert (
            chaotic.format_table(timing=False)
            == clean.format_table(timing=False)
        )
        assert len(chaotic.events) == 4
        assert clean.events == []
        assert format_events(clean.events, "stream") == "no stream events"
        assert "skipped-batch[labels-not-binary] @0:" in (
            format_events(chaotic.events, "stream")
        )

    def test_events_survive_state_dict_round_trip(self):
        engine = StreamingDiagnosisEngine(
            window_epochs=8, on_malformed="skip", random_state=0
        )
        engine.ingest(self._bad_labels())
        state = engine.state_dict()
        clone = StreamingDiagnosisEngine(
            window_epochs=8, on_malformed="skip", random_state=0
        )
        clone.load_state_dict(state)
        assert clone.events == engine.events
        assert isinstance(clone.events[0], OperatorEvent)

    def test_old_state_dicts_without_events_still_load(self):
        """They no longer do: every state dict carries its event log
        (serve snapshots of that layout are schema 2), so one without
        it is refused instead of resuming with a silently empty log."""
        engine = StreamingDiagnosisEngine(window_epochs=8, random_state=0)
        state = engine.state_dict()
        state["state"].pop("events", None)
        clone = StreamingDiagnosisEngine(window_epochs=8, random_state=0)
        with pytest.raises(KeyError, match="events"):
            clone.load_state_dict(state)

    def test_run_report_scopes_events_to_the_run(self):
        engine = StreamingDiagnosisEngine(
            window_epochs=8,
            explain_per_window=0,
            on_malformed="skip",
            random_state=0,
        )
        engine.ingest(self._bad_labels())
        report = engine.run(
            iter([_synthetic_batch(8, [0, 1] * 4, seed=2)])
        )
        assert report.events == []
        assert len(engine.events) == 1


class TestEngineSnapshot:
    """Tentpole refactor: the engine's resumable state is extractable
    (``state_dict``) and installable (``load_state_dict``), and a
    restored engine continues its stream byte-identically to one that
    was never interrupted."""

    def test_ingest_process_pending_split(self):
        engine = StreamingDiagnosisEngine(
            window_epochs=32, explain_per_window=0, random_state=0
        )
        assert engine.ingest(_synthetic_batch(20, [0] * 20, seed=1)) == 20
        assert engine.pending_epochs == 20
        assert engine.epochs_seen == 20
        assert engine.process_pending() == []
        engine.ingest(_synthetic_batch(50, [0] * 50, seed=2))
        windows = engine.process_pending()
        assert [w.n_epochs for w in windows] == [32, 32]
        assert engine.pending_epochs == 6
        assert engine.epochs_seen == 70

    def test_snapshot_restore_resumes_byte_identically(self, report):
        """Interrupt mid-stream — with a partially filled window and a
        fitted pipeline in flight — pickle the state, restore it into a
        fresh engine, finish the stream: the combined report must match
        the uninterrupted run byte for byte."""
        import pickle

        batches = list(_stream(batch_epochs=40))  # 8 batches of 40
        engine = StreamingDiagnosisEngine(**FAST)
        for batch in batches[:3]:  # 120 epochs: 1 closed window + 56 pending
            engine.process_batch(batch)
        assert engine.pending_epochs == 56
        blob = pickle.dumps(engine.state_dict())

        restored = StreamingDiagnosisEngine(**FAST)
        restored.load_state_dict(pickle.loads(blob))
        assert restored.pending_epochs == 56
        assert restored.epochs_seen == engine.epochs_seen
        for batch in batches[3:]:
            restored.process_batch(batch)
        restored.flush()
        resumed = StreamReport(
            windows=restored.windows,
            window_epochs=restored.window_epochs,
            refit_every=restored.refit_every,
            explainer=restored.explainer_method,
        )
        assert resumed.format_table(timing=False) == report.format_table(
            timing=False
        )

    def test_config_mismatch_rejected(self):
        donor = StreamingDiagnosisEngine(**FAST)
        other = StreamingDiagnosisEngine(**{**FAST, "window_epochs": 32})
        with pytest.raises(ValueError, match="window_epochs"):
            other.load_state_dict(donor.state_dict())

    def test_config_dict_excludes_backend(self):
        serial = StreamingDiagnosisEngine(**FAST)
        threaded = StreamingDiagnosisEngine(**FAST, backend="thread", workers=2)
        assert serial.config_dict() == threaded.config_dict()


class TestEngineValidation:
    def test_bad_window_epochs(self):
        with pytest.raises(ValueError, match="window_epochs"):
            StreamingDiagnosisEngine(window_epochs=0)

    def test_bad_refit_every(self):
        with pytest.raises(ValueError, match="refit_every"):
            StreamingDiagnosisEngine(refit_every=0)

    def test_bad_explain_per_window(self):
        with pytest.raises(ValueError, match="explain_per_window"):
            StreamingDiagnosisEngine(explain_per_window=-1)

    def test_bad_history_bounds(self):
        with pytest.raises(ValueError, match="max_history"):
            StreamingDiagnosisEngine(window_epochs=64, max_history=10)
        with pytest.raises(ValueError, match="min_train_epochs"):
            StreamingDiagnosisEngine(min_train_epochs=1)


class TestStreamReport:
    def test_summary_mentions_the_shape(self, report):
        summary = report.summary()
        assert "320 epochs" in summary
        assert "5 windows" in summary

    def test_summary_rate_is_epoch_weighted(self):
        """With a short trailing window, the summary's mean violation
        rate is the true epoch-level rate, not a per-window mean."""
        run = StreamingDiagnosisEngine(**FAST).run(_stream(n_epochs=300))
        true_rate = float(
            np.mean(_stream(n_epochs=300).collect().sla_violation)
        )
        assert f"{true_rate:.1%}" in run.summary()

    def test_to_rows_roundtrip(self, report):
        rows = report.to_rows()
        assert len(rows) == 5
        assert rows[0]["index"] == 0
        assert set(rows[0]) >= {"violation_rate", "refit", "seed"}

    def test_scenario_and_seed_recorded(self, report):
        assert report.scenario == "fault-storm"
        assert report.seed == 7
        assert report.extras["backend"] == "serial"
        assert report.extras["workers"] == 1

    def test_timing_column_toggles(self, report):
        with_timing = report.format_table()
        without = report.format_table(timing=False)
        assert "sec" in with_timing.splitlines()[0]
        assert "sec" not in without.splitlines()[0]
        assert len(with_timing.splitlines()) == len(without.splitlines())

    def test_progress_lines_fire_per_window(self):
        lines = []
        StreamingDiagnosisEngine(**FAST).run(
            _stream(n_epochs=128), progress=lines.append
        )
        assert len(lines) == 2
        assert lines[0].startswith("window 0 [0-64)")

    def test_empty_report_formats(self):
        table = StreamReport(
            windows=[], window_epochs=64, refit_every=4, explainer="x"
        ).format_table()
        assert "win" in table

    def test_window_dataclass_n_epochs(self):
        w = StreamWindow(
            index=0, start_epoch=10, end_epoch=20, violation_rate=0.0,
            refit=False, seed=1, test_accuracy=None, n_explained=0,
            n_alerts=0, mean_score=None, top_feature=None,
            attribution_shift=None, violation_drift=False,
            attribution_drift=False, seconds=0.0,
        )
        assert w.n_epochs == 10


class TestGoldenTable:
    def test_format_table_matches_golden(self, report):
        """Golden regression for the seeded reference stream.

        Pins ``format_table(timing=False)`` for the module's fault-storm
        run (320 epochs, window 64, refit every 2, 4 explained per
        window, 64-coalition KernelSHAP, seed 7).  After an *intentional*
        change to the engine, the metrics, or the table format,
        regenerate and eyeball the diff::

            REGEN_STREAM_GOLDEN=1 PYTHONPATH=src python -m pytest \\
                tests/core/test_stream.py::TestGoldenTable -q

        Never regenerate to silence an unexplained diff — byte changes
        here mean the seeded streaming loop no longer reproduces itself.
        """
        table = report.format_table(timing=False) + "\n"
        if os.environ.get("REGEN_STREAM_GOLDEN"):
            with open(GOLDEN_PATH, "w") as fh:
                fh.write(table)
            pytest.skip(f"regenerated {GOLDEN_PATH}")
        with open(GOLDEN_PATH) as fh:
            assert table == fh.read()


class TestPackedWindowAttribution:
    """Per-window attribution rides the packed TreeSHAP kernel.

    ``_explain_window`` goes through ``pipeline.explain_rows``, which
    calls the explainer's ``explain_batch`` — for ``tree_shap`` on a
    forest that is the packed kernel.  This pins
    byte-equality of the report when attribution runs through the
    per-tree recursion of ``tests/oracles/tree_shap_recursion.py``
    instead."""

    CONFIG = dict(
        window_epochs=64,
        refit_every=2,
        explainer_method="tree_shap",
        explain_per_window=4,
        random_state=7,
    )

    def _forest_engine(self):
        from repro.core.matrix import default_model_factories

        return StreamingDiagnosisEngine(
            default_model_factories()["random_forest"], **self.CONFIG
        )

    def test_packed_path_byte_identical_to_recursion(self, monkeypatch):
        from oracles.tree_shap_recursion import reference_batch

        from repro.core.explainers.shap_tree import TreeShapExplainer

        packed = self._forest_engine().run(_stream())
        monkeypatch.setattr(TreeShapExplainer, "explain_batch", reference_batch)
        recursion = self._forest_engine().run(_stream())
        assert packed.windows  # the run actually explained windows
        assert packed.extras["backend"] == "serial"
        assert packed.format_table(timing=False) == recursion.format_table(
            timing=False
        )


class TestWindowOracle:
    """Windows read the attribution matrix and the scores as arrays;
    they must match the per-row diagnosis path of
    ``tests/oracles/stream_window.py`` byte for byte.  Up to 24 rows
    are explained per window: above 8 rows the column means of a
    Fortran-ordered matrix take other bits than a row stack's."""

    CONFIGS = {
        "tree_shap": dict(
            window_epochs=64,
            refit_every=2,
            explainer_method="tree_shap",
            explain_per_window=24,
            random_state=7,
        ),
        "kernel_shap": dict(
            FAST, explain_per_window=24, explainer_method="kernel_shap"
        ),
    }

    @pytest.mark.parametrize("method", sorted(CONFIGS))
    def test_windows_match_the_per_row_diagnosis_path(
        self, method, monkeypatch
    ):
        from oracles.stream_window import explain_window

        from repro.core.matrix import default_model_factories

        def run():
            return StreamingDiagnosisEngine(
                default_model_factories()["random_forest"],
                **self.CONFIGS[method],
            ).run(_stream())

        arrays = run()
        monkeypatch.setattr(
            StreamingDiagnosisEngine, "_explain_window", explain_window
        )
        per_row = run()
        assert max(w.n_explained for w in arrays.windows) > 8
        assert arrays.format_table(timing=False) == per_row.format_table(
            timing=False
        )

        def fields(report):
            return [
                {k: v for k, v in asdict(w).items() if k != "seconds"}
                for w in report.windows
            ]

        assert fields(arrays) == fields(per_row)
