"""Tests for the command-line interface."""

import re

import numpy as np
import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_simulate_defaults(self):
        args = build_parser().parse_args(["simulate"])
        assert args.command == "simulate"
        assert args.epochs == 2000

    def test_train_model_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["train", "--model", "svm"])

    @pytest.mark.parametrize("argv", [
        ["explain", "--top-k", "-2"],
        ["explain", "--top-k", "0"],
        ["explain-batch", "--top-k", "0"],
        ["train", "--horizon", "-3"],
    ])
    def test_parser_rejects_bad_values(self, argv):
        """Values the library rejects fail at parse (exit 2), not with a
        traceback after the whole fit."""
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2


class TestCommands:
    def test_simulate_prints_summary(self, capsys):
        code = main(["simulate", "--epochs", "300", "--seed", "3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "violation rate" in out

    def test_simulate_writes_npz(self, tmp_path, capsys):
        out_file = tmp_path / "trace.npz"
        code = main(
            ["simulate", "--epochs", "200", "--seed", "3", "--out", str(out_file)]
        )
        assert code == 0
        data = np.load(out_file, allow_pickle=False)
        assert data["features"].shape[0] == 200
        assert len(data["feature_names"]) == data["features"].shape[1]
        assert set(np.unique(data["sla_violation"])) <= {0, 1}

    def test_train_reports_accuracy(self, capsys):
        code = main(
            ["train", "--epochs", "600", "--seed", "3",
             "--model", "logistic_regression"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "test accuracy" in out

    def test_explain_default_violation(self, capsys):
        code = main(["explain", "--epochs", "600", "--seed", "3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "PREDICTION REPORT" in out
        assert "per-VNF attribution" in out

    def test_explain_bad_index(self, capsys):
        code = main(
            ["explain", "--epochs", "300", "--seed", "3",
             "--epoch-index", "99999"]
        )
        assert code == 1

    def test_validate_passes(self, capsys):
        code = main(["validate"])
        out = capsys.readouterr().out
        assert code == 0
        assert "ok" in out
        assert "FAIL" not in out


class TestExplainBatch:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["explain-batch"])
        assert args.command == "explain-batch"
        assert args.limit == 32
        assert args.method == "auto"

    def test_default_violations(self, capsys):
        code = main(
            ["explain-batch", "--epochs", "600", "--seed", "3",
             "--limit", "4"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "diagnosed 4 epochs" in out
        assert "epoch" in out and "score" in out

    def test_explicit_indices(self, capsys):
        code = main(
            ["explain-batch", "--epochs", "600", "--seed", "3",
             "--epoch-indices", "1,5,9"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "diagnosed 3 epochs" in out

    @pytest.mark.parametrize(
        "argv",
        [
            ["explain-batch", "--limit", "1", "--no-timing",
             "--method", "kernel_shap"],
            ["explain", "--method", "lime"],
        ],
    )
    def test_sampling_explainers_print_identical_bytes(self, capsys, argv):
        """The pipeline seeds a sampling explainer from ``--seed``, so
        two runs print the same attributions."""
        outputs = []
        for _ in range(2):
            assert main([*argv, "--epochs", "300", "--seed", "0"]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert "=+" in outputs[0] or "raises risk" in outputs[0]

    def test_bad_indices(self, capsys):
        code = main(
            ["explain-batch", "--epochs", "300", "--seed", "3",
             "--epoch-indices", "99999"]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "out of range" in out

    def test_unparseable_indices(self, capsys):
        code = main(
            ["explain-batch", "--epochs", "300", "--seed", "3",
             "--epoch-indices", "1,foo"]
        )
        assert code == 1

    def test_limit_zero_is_a_clear_error(self, capsys):
        """Regression: --limit 0 used to fall through to a misleading
        'no violations' message; degenerate limits now fail at parse."""
        with pytest.raises(SystemExit) as exc:
            main(["explain-batch", "--epochs", "300", "--limit", "0"])
        assert exc.value.code == 2
        assert "must be >= 1" in capsys.readouterr().err

    def test_negative_limit_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["explain-batch", "--epochs", "300", "--limit", "-4"])

    def test_zero_epochs_rejected_before_simulation(self, capsys):
        """Regression: --epochs 0 used to surface as a raw ValueError
        traceback from the simulator."""
        with pytest.raises(SystemExit) as exc:
            main(["explain-batch", "--epochs", "0"])
        assert exc.value.code == 2
        assert "must be >= 1" in capsys.readouterr().err

    def test_limit_larger_than_dataset_caps_cleanly(self, capsys):
        code = main(
            ["explain-batch", "--epochs", "600", "--seed", "3",
             "--limit", "1000000"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "diagnosed" in out

    def test_blank_indices_are_a_clear_error(self, capsys):
        code = main(
            ["explain-batch", "--epochs", "300", "--seed", "3",
             "--epoch-indices", ","]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "names no epochs" in out


class TestScenarios:
    def test_list_prints_catalog(self, capsys):
        from repro.nfv.scenarios import list_scenarios, scenario_recipe

        code = main(["scenarios", "list"])
        out = capsys.readouterr().out
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == len(list_scenarios())
        for name in ("baseline", "fault-storm", "long-chain"):
            line = next(line for line in lines if line.startswith(name + " "))
            assert scenario_recipe(name).description in line

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["scenarios"])

    def test_run_unknown_scenario(self, capsys):
        code = main(["scenarios", "run", "--scenarios", "nope"])
        out = capsys.readouterr().out
        assert code == 1
        assert "unknown scenarios" in out

    def test_run_unknown_model(self, capsys):
        code = main(
            ["scenarios", "run", "--scenarios", "baseline",
             "--models", "svm"]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "unknown models" in out

    def test_run_empty_lists(self, capsys):
        code = main(["scenarios", "run", "--scenarios", ","])
        assert code == 1

    def test_whitespace_around_commas_is_tolerated(self, capsys):
        code = main(
            ["scenarios", "run", "--scenarios", "baseline, nope",
             "--models", "random_forest"]
        )
        out = capsys.readouterr().out
        assert code == 1
        # 'nope' must be reported stripped — not as ' nope'
        assert "unknown scenarios ['nope']" in out

    def test_model_names_match_factory_registry(self):
        from repro.cli import _MODEL_NAMES
        from repro.core.matrix import default_model_factories

        assert tuple(sorted(default_model_factories())) == _MODEL_NAMES

    def test_run_bad_stability_repeats(self, capsys):
        for value in ("1", "-3"):
            code = main(
                ["scenarios", "run", "--scenarios", "baseline",
                 "--stability-repeats", value]
            )
            out = capsys.readouterr().out
            assert code == 1
            assert "must be 0 or >= 2" in out

    def test_run_unknown_explainer_rejected_before_sweeping(self, capsys):
        """Pre-flight check: a typo'd explainer must not cost a full
        dataset generation + model fit before crashing."""
        code = main(
            ["scenarios", "run", "--scenarios", "baseline",
             "--explainers", "kernel_shap,nope"]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "unknown explainers ['nope']" in out

    def test_run_small_matrix(self, capsys):
        """A 3-scenario × 2-model × 2-explainer matrix end to end."""
        code = main(
            ["scenarios", "run",
             "--scenarios", "baseline,noisy-telemetry,fault-storm",
             "--models", "random_forest,logistic_regression",
             "--explainers", "kernel_shap,lime",
             "--epochs", "250", "--explain", "3", "--seed", "0"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "12 cells" in out
        assert "del.AUC" in out
        for name in ("baseline", "noisy-telemetry", "fault-storm"):
            assert name in out


class TestParallelFlags:
    def test_parser_defaults_to_auto_serial(self):
        args = build_parser().parse_args(["scenarios", "run"])
        assert args.backend == "auto"
        assert args.workers is None
        args = build_parser().parse_args(["explain-batch"])
        assert args.backend == "auto"
        assert args.workers is None

    def test_unknown_backend_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["scenarios", "run", "--backend", "gpu"]
            )
        with pytest.raises(SystemExit):
            build_parser().parse_args(["explain-batch", "--workers", "0"])

    def test_scenarios_run_parallel_matches_serial(self, capsys):
        """The CLI's parallel matrix output equals the serial run,
        modulo the timing column and the trailer."""
        argv = ["scenarios", "run", "--scenarios", "baseline",
                "--models", "logistic_regression",
                "--explainers", "kernel_shap,lime",
                "--epochs", "200", "--explain", "2", "--seed", "0"]

        def table_lines(text):
            lines = text.splitlines()
            start = next(i for i, l in enumerate(lines)
                         if l.startswith("scenario"))
            # header + rule + 2 cells, without the per-run sec column
            return [l[:l.rfind(" ")].rstrip()
                    for l in lines[start:start + 4]]

        assert main(argv) == 0
        serial = capsys.readouterr().out
        assert main(argv + ["--workers", "2", "--backend", "process"]) == 0
        parallel = capsys.readouterr().out
        assert table_lines(parallel) == table_lines(serial)
        assert "backend=process x2" in parallel
        assert "backend=serial" in serial

    def test_scenarios_run_no_timing_bytes_match_across_backends(self, capsys):
        """--no-timing drops the progress lines and the sec column: the
        whole output but the backend trailer is the same bytes."""
        argv = ["scenarios", "run", "--scenarios", "baseline",
                "--models", "random_forest",
                "--explainers", "kernel_shap",
                "--epochs", "200", "--explain", "2", "--seed", "0",
                "--no-timing"]

        def body(text):
            return [l for l in text.splitlines() if "backend=" not in l]

        assert main(argv) == 0
        serial = capsys.readouterr().out
        assert main(argv + ["--workers", "2", "--backend", "thread"]) == 0
        thread = capsys.readouterr().out
        assert body(thread) == body(serial)
        header = next(l for l in serial.splitlines() if l.startswith("scenario"))
        assert not header.endswith("sec")
        assert not re.search(r"\(\d+\.\d+s\)", serial)  # no progress lines
        assert "backend=thread x2" in thread

    def test_explain_batch_parallel_backend_reported(self, capsys):
        code = main(
            ["explain-batch", "--epochs", "400", "--seed", "0",
             "--limit", "4", "--workers", "2", "--backend", "thread"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "backend=thread x2" in out


class TestStream:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["stream", "run"])
        assert args.command == "stream"
        assert args.stream_command == "run"
        assert args.scenario == "baseline"
        assert args.window == 64
        assert args.refit_every == 4
        assert args.backend == "auto"
        assert not args.no_timing

    def test_parser_rejects_bad_values(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["stream", "run", "--window", "0"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["stream", "run", "--explain-per-window", "-1"]
            )
        with pytest.raises(SystemExit):
            build_parser().parse_args(["stream"])  # subcommand required

    def test_unknown_scenario_rejected(self, capsys):
        assert main(["stream", "run", "--scenario", "nope"]) == 1
        assert "unknown scenario" in capsys.readouterr().out

    def test_unknown_method_rejected(self, capsys):
        assert main(
            ["stream", "run", "--method", "astrology", "--epochs", "64"]
        ) == 1
        assert "unknown explainer" in capsys.readouterr().out

    def test_stream_run_prints_windows_and_summary(self, capsys):
        code = main(
            ["stream", "run", "--scenario", "fault-storm",
             "--epochs", "192", "--window", "64", "--seed", "7",
             "--explain-per-window", "2"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "window 0 [0-64)" in out          # progress lines
        assert "viol" in out and "drift" in out  # report table
        assert "192 epochs in 3 windows" in out  # summary footer
        assert "epochs/s" in out                 # timing enabled

    def test_no_timing_output_is_byte_comparable(self, capsys):
        argv = ["stream", "run", "--scenario", "fault-storm",
                "--epochs", "192", "--window", "64", "--seed", "7",
                "--explain-per-window", "2", "--no-timing"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv + ["--backend", "thread", "--workers", "2"]) == 0
        second = capsys.readouterr().out
        assert "epochs/s" not in first
        # identical modulo the backend trailer line
        strip = lambda text: [l for l in text.splitlines()
                              if not l.startswith("scenario=")]
        assert strip(first) == strip(second)
        assert "backend=thread x2" in second


class TestServe:
    FAST = ["--tenants", "2", "--epochs", "64", "--window", "32",
            "--batch-epochs", "32", "--explain-per-window", "2",
            "--seed", "7"]

    def test_parser_defaults(self):
        args = build_parser().parse_args(["serve", "run"])
        assert args.command == "serve"
        assert args.serve_command == "run"
        assert args.tenants == 4
        assert args.window == 64
        assert args.backend == "auto"
        assert args.snapshot_epoch is None
        assert not args.no_timing

    def test_parser_rejects_bad_values(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "run", "--tenants", "0"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "run", "--max-pending", "0"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve"])  # subcommand required

    def test_unknown_scenario_rejected(self, capsys):
        assert main(["serve", "run", "--scenarios", "nope"]) == 1
        assert "unknown scenario" in capsys.readouterr().out

    def test_unknown_method_rejected(self, capsys):
        assert main(["serve", "run", "--method", "astrology"]) == 1
        assert "unknown explainer" in capsys.readouterr().out

    def test_snapshot_flag_validation(self, capsys, tmp_path):
        assert main(["serve", "run", "--snapshot-epoch", "64"]) == 1
        assert "--snapshot-out" in capsys.readouterr().out
        snap = str(tmp_path / "s.pkl")
        assert main(["serve", "run", "--snapshot-epoch", "65",
                     "--snapshot-out", snap, "--window", "32",
                     "--batch-epochs", "32"]) == 1
        assert "multiple of the batch granularity" in capsys.readouterr().out
        assert main(["serve", "run", "--snapshot-epoch", "64",
                     "--snapshot-out", snap, "--restore", snap]) == 1
        assert "mutually exclusive" in capsys.readouterr().out

    def test_oversized_batches_rejected_upfront(self, capsys):
        assert main(["serve", "run", "--batch-epochs", "512",
                     "--max-pending", "64"]) == 1
        assert "every submission would be rejected" in capsys.readouterr().out

    def test_run_prints_per_tenant_reports(self, capsys):
        assert main(["serve", "run", *self.FAST]) == 0
        out = capsys.readouterr().out
        assert "=== tenant-0 [fault-storm]" in out
        assert "=== tenant-1 [bursty-traffic]" in out
        assert "2 sessions, 4 windows, 64 epochs each" in out
        assert "shared cache" in out  # timing + cache stats by default

    def test_snapshot_restore_is_byte_identical(self, capsys, tmp_path):
        """The acceptance path: an interrupted-and-restored service
        prints exactly the bytes of one that was never interrupted."""
        assert main(["serve", "run", *self.FAST, "--no-timing"]) == 0
        full = capsys.readouterr().out
        snap = str(tmp_path / "svc.pkl")
        assert main(["serve", "run", *self.FAST, "--snapshot-epoch", "32",
                     "--snapshot-out", snap]) == 0
        assert "snapshot of 2 sessions" in capsys.readouterr().out
        assert main(["serve", "run", *self.FAST, "--restore", snap,
                     "--no-timing"]) == 0
        resumed = capsys.readouterr().out
        assert resumed == full
        assert "epochs/s" not in full and "shared cache" not in full

    def test_eleven_tenants_each_get_their_whole_stream(self, capsys):
        """From 11 tenants on, the sorted-name feeding order (tenant-10
        before tenant-2) differs from the tenant-index order; no tenant
        may lose a batch to another's progress.  Tenant seeds are
        prefix-stable, so tenants 0-9 print what a 10-tenant run does."""
        argv = ["serve", "run", "--epochs", "96", "--window", "32",
                "--explain-per-window", "1", "--method", "lime",
                "--no-timing"]

        def run(tenants):
            assert main([*argv, "--tenants", str(tenants)]) == 0
            tables, footer = capsys.readouterr().out.rsplit("\n\n", 1)
            return tables.split("\n\n=== "), footer

        (ten, _), (eleven, footer) = run(10), run(11)
        assert len(eleven) == 11
        assert eleven[:10] == ten
        assert footer == ("11 sessions, 33 windows, 96 epochs each, "
                          "seed=0, backend=serial\n")


class TestChaos:
    FAST = ["chaos", "run", "--epochs", "96", "--window", "48",
            "--method", "lime", "--no-timing"]

    def test_parser_defaults(self):
        args = build_parser().parse_args(["chaos", "run"])
        assert args.scenario == "fault-storm"
        assert args.transient == 0.25
        assert args.corrupt == 0.25
        assert args.explain_per_window == 24  # stays above the chunk size
        assert args.corrupt_mode == "duplicate"
        assert args.on_malformed == "skip"

    def test_rates_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["chaos", "run", "--transient", "1.5"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["chaos", "run", "--crash", "-0.1"])

    def test_all_zero_rates_is_an_error(self, capsys):
        assert main([*self.FAST, "--transient", "0", "--corrupt", "0"]) == 1
        assert "nothing to inject" in capsys.readouterr().out

    def test_unknown_scenario_rejected(self, capsys):
        assert main([*self.FAST, "--scenario", "nope"]) == 1
        assert "unknown scenario" in capsys.readouterr().out

    def test_recoverable_faults_end_byte_identical(self, capsys):
        assert main([*self.FAST, "--transient", "1.0", "--corrupt", "1.0"]) == 0
        out = capsys.readouterr().out
        assert "task-retry" in out
        assert "skipped-batch[labels-not-binary]" in out
        assert "verdict: recovered — report byte-identical" in out

    def test_lost_telemetry_fails_closed(self, capsys):
        assert main([*self.FAST, "--transient", "0", "--corrupt", "1.0",
                     "--corrupt-mode", "replace",
                     "--on-malformed", "raise"]) == 0
        out = capsys.readouterr().out
        assert "verdict: failed closed — MalformedBatchError" in out


class TestTimeoutFlags:
    @pytest.mark.parametrize("flag", ["--task-timeout", "--hang-seconds"])
    @pytest.mark.parametrize(
        "value", ["inf", "nan", "-1", "0", "soon", "1e20"]
    )
    def test_bad_durations_are_parse_errors(self, capsys, flag, value):
        """Non-finite and non-positive durations exit 2 at parse, not
        with a constructor traceback or a run that "fails closed"."""
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["chaos", "run", flag, value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "must be > 0 and <=" in err or "expected a number" in err

    def test_finite_durations_parse(self):
        args = build_parser().parse_args(
            ["chaos", "run", "--task-timeout", "2.5", "--hang-seconds", "1e-3"]
        )
        assert (args.task_timeout, args.hang_seconds) == (2.5, 1e-3)


class TestUnknownNames:
    @pytest.mark.parametrize("argv, message", [
        (["explain", "--method", "nope"], "unknown explainer 'nope'"),
        (["explain-batch", "--method", "nope"], "unknown explainer 'nope'"),
        (["stream", "run", "--method", "nope"], "unknown explainer 'nope'"),
        (["serve", "run", "--method", "nope"], "unknown explainer 'nope'"),
        (["chaos", "run", "--method", "nope"], "unknown explainer 'nope'"),
        (["stream", "run", "--scenario", "nope"], "unknown scenario 'nope'"),
        (["chaos", "run", "--scenario", "nope"], "unknown scenario 'nope'"),
        (["serve", "run", "--scenarios", "nope"],
         "unknown scenarios ['nope']"),
        (["scenarios", "run", "--scenarios", "nope"],
         "unknown scenarios ['nope']"),
        (["scenarios", "run", "--explainers", "nope"],
         "unknown explainers ['nope']"),
        (["scenarios", "search", "--explainers", "nope"],
         "unknown explainers ['nope']"),
    ])
    def test_exit_1_with_the_message_before_any_work(
        self, capsys, monkeypatch, argv, message
    ):
        import repro.cli
        import repro.core.matrix
        import repro.core.search

        def no_work(*args, **kwargs):
            raise AssertionError("work started before the name check")

        for module, name in ((repro.cli, "_load_dataset"),
                             (repro.cli, "_telemetry"),
                             (repro.cli, "_model_factories"),
                             (repro.core.matrix, "run_scenario_matrix"),
                             (repro.core.search, "search_scenarios")):
            monkeypatch.setattr(module, name, no_work, raising=False)
        assert main(argv) == 1
        out = capsys.readouterr().out
        assert message in out
        assert "choose from" in out or "see: repro scenarios list" in out
