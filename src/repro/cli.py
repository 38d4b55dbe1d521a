"""Command-line interface.

Eleven subcommands mirror the library's workflow::

    repro simulate      --epochs 2000 --seed 7 --out trace.npz
    repro train         --epochs 3000 --seed 7 --model random_forest
    repro explain       --epochs 3000 --seed 7 --epoch-index 42
    repro explain-batch --epochs 3000 --seed 7 --limit 32
    repro scenarios     list [--generated] | run --scenarios baseline,...
    repro scenarios     search --generations 2 --seed 0 --store gen.json
    repro stream        run --scenario fault-storm --window 64 ...
    repro serve         run --tenants 4 --epochs 256 ...
    repro chaos         run --transient 0.25 --corrupt 0.25 --seed 0
    repro lint          src tests --baseline lint-baseline.json
    repro validate

(``python -m repro.cli ...`` works identically without installing the
console script.)  ``simulate`` writes the raw telemetry + labels to an
``.npz`` archive; ``train`` reports model quality on a held-out split;
``explain`` prints the operator report for one epoch; ``explain-batch``
diagnoses many epochs in one vectorized pass (shared coalition design
and background evaluation — the fleet-triage fast path); ``scenarios``
lists the workload catalog (``--generated`` lists recipes found by the
adversarial search), sweeps the scenario × model × explainer matrix,
and runs the seeded adversarial search over the scenario-recipe grammar
(``search`` — mutate catalog recipes, keep the ones that most degrade
explainer faithfulness/agreement; see ``docs/scenarios.md``);
``stream`` runs the online diagnosis engine over a scenario's
telemetry as it is generated (sliding windows, cadenced refits,
Page–Hinkley drift alarms — see ``docs/streaming.md``); ``serve``
multiplexes many tenant streams through one
:class:`~repro.serve.DiagnosisService` — shared executor and explainer
cache, per-tenant seeds, backpressure, and snapshot/restore
(``--snapshot-epoch``/``--restore``; see ``docs/serving.md``);
``chaos`` runs the streaming engine under seeded fault injection
(worker crashes, hangs, transient errors, pool collapses, corrupted
batches — :mod:`repro.chaos`) behind the fault-tolerant executor
(:mod:`repro.resilience`) and verifies the recovery invariant: the
final report is byte-identical to a fault-free twin run, or the
command fails closed with one named error — silent divergence is the
only failing exit (see ``docs/resilience.md``);
``lint`` runs
the :mod:`repro.analysis` static analyzer over source trees, enforcing
the determinism / picklability / lock-discipline contracts (see
``docs/linting.md``); ``validate`` runs the explainers against
closed-form ground truth (a smoke test for installations).

The run flags are declared once: ``--epochs`` and ``--seed`` on every
data-driven command; on the timed fleet-scale commands also
``--no-timing`` (drop wall-clock output so reports are byte-comparable)
and ``--workers N --backend {serial,thread,process}``
(:mod:`repro.core.executor`; results equal the serial run for a fixed
``--seed``).
"""

from __future__ import annotations

import argparse
import sys
import threading

import numpy as np

from repro.analysis.cli import add_lint_arguments, run_lint_command
from repro.utils.clock import timed

__all__ = ["main", "build_parser"]

#: Model names resolved through
#: :func:`repro.core.matrix.default_model_factories` (kept static here
#: so ``--help`` does not import the ML stack).
_MODEL_NAMES = (
    "gradient_boosting",
    "logistic_regression",
    "mlp",
    "random_forest",
)


def _model_factories():
    from repro.core.matrix import default_model_factories

    return default_model_factories()


def _positive_int(text: str) -> int:
    """argparse type: an integer >= 1, with a readable error."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _nonnegative_int(text: str) -> int:
    """argparse type: an integer >= 0, with a readable error."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _rate(text: str) -> float:
    """argparse type: a probability in [0, 1], with a readable error."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}")
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(f"must be in [0, 1], got {value}")
    return value


def _positive_float(text: str) -> float:
    """argparse type: a duration in seconds that a timed wait and a
    sleep can take (> 0 and at most half of ``threading.TIMEOUT_MAX``,
    so also not nan or inf), with a readable error."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}")
    if not 0.0 < value <= threading.TIMEOUT_MAX / 2:
        raise argparse.ArgumentTypeError(
            f"must be > 0 and <= {threading.TIMEOUT_MAX / 2:.0f}, got {value}"
        )
    return value


def _add_run_args(parser, epochs: int, epochs_help: str | None = None, *,
                  method: str | None = None, timing: str | None = None):
    """The run flags, with this command's defaults: ``--epochs`` and
    ``--seed``; ``--method`` when ``method`` (its default) is given; and
    ``--no-timing``, ``--workers`` and ``--backend`` when ``timing``
    names what ``--no-timing`` drops."""
    parser.add_argument(
        "--epochs", type=_positive_int, default=epochs, help=epochs_help
    )
    parser.add_argument("--seed", type=int, default=0)
    if method is not None:
        parser.add_argument(
            "--method", default=method,
            help="explainer (auto, tree_shap, kernel_shap, lime, "
                 "sampling_shapley, ...; default: %(default)s)",
        )
    if timing is None:
        return
    parser.add_argument(
        "--no-timing", action="store_true",
        help=f"drop {timing} (output becomes byte-comparable across runs "
             "and backends)",
    )
    parser.add_argument(
        "--workers", type=_positive_int, default=None,
        help="worker budget for parallel execution "
             "(default: 1, i.e. serial; with --backend, all usable CPUs)",
    )
    parser.add_argument(
        "--backend", choices=("auto", "serial", "thread", "process"),
        default="auto",
        help="execution backend: serial, thread (numpy-bound models), "
             "process (interpreter-bound); auto = serial unless "
             "--workers > 1, then process.  Results are identical "
             "across backends for a fixed --seed",
    )


def _add_engine_args(parser, *, scenario: str | None, epochs: int,
                     window: int, refit_every: int, explain_per_window: int,
                     timing: str):
    """The streaming-engine flags of ``stream run``, ``serve run`` and
    ``chaos run`` plus the run flags, with this command's defaults
    (``serve run`` takes ``--scenarios`` instead of ``--scenario``)."""
    if scenario is not None:
        parser.add_argument(
            "--scenario", default=scenario,
            help="scenario name (see: repro scenarios list)",
        )
    _add_run_args(
        parser, epochs, "streaming horizon in epochs",
        method="kernel_shap", timing=timing,
    )
    parser.add_argument(
        "--window", type=_positive_int, default=window,
        help="epochs per diagnosis window",
    )
    parser.add_argument(
        "--refit-every", type=_positive_int, default=refit_every,
        help="refit the model + explainer every N windows",
    )
    parser.add_argument(
        "--explain-per-window", type=_nonnegative_int,
        default=explain_per_window,
        help="cap on violation epochs diagnosed per window (0 = monitor only)",
    )
    parser.add_argument(
        "--batch-epochs", type=_positive_int, default=None,
        help="epoch-batch granularity of the telemetry stream "
             "(default: --window; never changes results)",
    )
    parser.add_argument(
        "--model", choices=_MODEL_NAMES, default="logistic_regression"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Explainable AI for NFV — simulate, train, explain.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    simulate = sub.add_parser("simulate", help="generate labelled telemetry")
    _add_run_args(simulate, 2000)
    simulate.add_argument("--no-faults", action="store_true")
    simulate.add_argument("--out", default=None, help="write .npz archive")

    train = sub.add_parser("train", help="train an SLA-violation model")
    _add_run_args(train, 3000)
    train.add_argument("--horizon", type=_nonnegative_int, default=0)
    train.add_argument(
        "--model", choices=_MODEL_NAMES, default="random_forest"
    )

    explain = sub.add_parser("explain", help="explain one epoch's prediction")
    _add_run_args(explain, 3000, method="auto")
    explain.add_argument(
        "--epoch-index", type=int, default=None,
        help="epoch to explain (default: first violation)",
    )
    explain.add_argument("--top-k", type=_positive_int, default=5)

    batch = sub.add_parser(
        "explain-batch",
        help="diagnose many epochs in one vectorized pass",
    )
    _add_run_args(batch, 3000, method="auto", timing="wall-clock output")
    batch.add_argument(
        "--epoch-indices", default=None,
        help="comma-separated epochs to diagnose "
             "(default: every violation, capped by --limit)",
    )
    batch.add_argument(
        "--limit", type=_positive_int, default=32,
        help="cap on auto-selected violation epochs (default 32)",
    )
    batch.add_argument("--top-k", type=_positive_int, default=3)

    scenarios = sub.add_parser(
        "scenarios",
        help="workload scenario catalog and matrix sweeps",
    )
    scen_sub = scenarios.add_subparsers(dest="scenarios_command", required=True)
    slist = scen_sub.add_parser("list", help="list registered scenarios")
    slist.add_argument(
        "--generated", action="store_true",
        help="list recipes saved by 'repro scenarios search' instead of "
             "the built-in catalog",
    )
    slist.add_argument(
        "--store", default=None,
        help="generated-recipe JSON store (default: generated_scenarios"
             ".json; only meaningful with --generated)",
    )
    run = scen_sub.add_parser(
        "run", help="sweep scenarios × models × explainers"
    )
    _add_run_args(
        run, 1000,
        timing="wall-clock output: the per-cell progress lines and the "
               "table's sec column",
    )
    run.add_argument(
        "--scenarios", default="baseline,bursty-traffic,fault-storm",
        help="comma-separated scenario names (see: repro scenarios list)",
    )
    run.add_argument(
        "--models", default="random_forest,logistic_regression",
        help=f"comma-separated model names from {', '.join(_MODEL_NAMES)}",
    )
    run.add_argument(
        "--explainers", default="kernel_shap,lime",
        help="comma-separated model-agnostic explainer methods",
    )
    run.add_argument(
        "--explain", type=_positive_int, default=8,
        help="violation epochs diagnosed per matrix cell",
    )
    run.add_argument(
        "--stability-repeats", type=int, default=0,
        help="add the input-stability metric with N >= 2 repeats (0 = off)",
    )
    search = scen_sub.add_parser(
        "search",
        help="adversarial search over the scenario-recipe grammar",
    )
    _add_run_args(
        search, 600, "telemetry epochs per candidate evaluation",
        timing="the wall-clock footer",
    )
    search.add_argument(
        "--generations", type=_positive_int, default=2,
        help="mutation generations after the catalog baseline sweep",
    )
    search.add_argument(
        "--population", type=_positive_int, default=6,
        help="mutants drawn per generation",
    )
    search.add_argument(
        "--top-k", type=_positive_int, default=3,
        help="cap on winners kept (mutants scoring worse than every "
             "catalog regime)",
    )
    search.add_argument(
        "--explainers", default="tree_shap,lime",
        help="comma-separated explainer methods scored by the objective",
    )
    search.add_argument(
        "--explain", type=_positive_int, default=6,
        help="violation epochs diagnosed per evaluation cell",
    )
    search.add_argument(
        "--probe-epochs", type=_positive_int, default=512,
        help="acceptance-probe horizon for mutated recipes",
    )
    search.add_argument(
        "--store", default=None,
        help="save winning recipes to this JSON store (readable back "
             "via 'repro scenarios list --generated --store ...')",
    )

    stream = sub.add_parser(
        "stream",
        help="online streaming diagnosis over live telemetry",
    )
    stream_sub = stream.add_subparsers(dest="stream_command", required=True)
    srun = stream_sub.add_parser(
        "run",
        help="stream a scenario through the windowed diagnosis engine",
    )
    _add_engine_args(
        srun, scenario="baseline", epochs=1000, window=64, refit_every=4,
        explain_per_window=8, timing="wall-clock output",
    )

    serve = sub.add_parser(
        "serve",
        help="multi-tenant diagnosis service over shared infrastructure",
    )
    serve_sub = serve.add_subparsers(dest="serve_command", required=True)
    vrun = serve_sub.add_parser(
        "run",
        help="drive N interleaved tenant sessions through one service",
    )
    _add_engine_args(
        vrun, scenario=None, epochs=256, window=64, refit_every=2,
        explain_per_window=4,
        timing="wall-clock and cache-statistics output",
    )
    vrun.add_argument(
        "--tenants", type=_positive_int, default=4,
        help="number of tenant sessions (ignored with --restore, which "
             "resumes the snapshot's sessions)",
    )
    vrun.add_argument(
        "--scenarios", default="fault-storm,bursty-traffic,baseline",
        help="comma-separated scenario names, assigned to tenants "
             "round-robin by tenant index (see: repro scenarios list)",
    )
    vrun.add_argument(
        "--max-pending", type=_positive_int, default=None,
        help="per-session ingest budget in epochs before submissions "
             "are rejected with backpressure (default: 4x --window)",
    )
    vrun.add_argument(
        "--snapshot-epoch", type=_positive_int, default=None,
        help="stop every tenant once it has seen this many epochs (must "
             "be a multiple of the batch granularity) and write the "
             "service snapshot instead of reports; requires --snapshot-out",
    )
    vrun.add_argument(
        "--snapshot-out", default=None,
        help="path the --snapshot-epoch snapshot is pickled to",
    )
    vrun.add_argument(
        "--restore", default=None,
        help="resume from a snapshot written by --snapshot-out; output "
             "is byte-identical (under --no-timing) to a run that was "
             "never interrupted",
    )

    chaos = sub.add_parser(
        "chaos",
        help="deterministic fault injection against the streaming engine",
    )
    chaos_sub = chaos.add_subparsers(dest="chaos_command", required=True)
    crun = chaos_sub.add_parser(
        "run",
        help="stream a scenario under injected faults and verify the "
             "recovery invariant against a fault-free twin run",
    )
    # --explain-per-window stays above 16 (the vectorized explainer's
    # chunk size) so diagnosis actually fans tasks out through the
    # fault-injected executor
    _add_engine_args(
        crun, scenario="fault-storm", epochs=192, window=48, refit_every=2,
        explain_per_window=24,
        timing="wall-clock output",
    )
    crun.add_argument(
        "--chaos-seed", type=_nonnegative_int, default=0,
        help="seed of the fault-injection draws (independent of --seed, "
             "so the same workload can be hit with different fault plans)",
    )
    crun.add_argument(
        "--transient", type=_rate, default=0.25,
        help="per-task-attempt rate of injected transient errors",
    )
    crun.add_argument(
        "--crash", type=_rate, default=0.0,
        help="per-task-attempt rate of injected worker crashes",
    )
    crun.add_argument(
        "--hang", type=_rate, default=0.0,
        help="per-task-attempt rate of injected hangs (pair with "
             "--task-timeout below --hang-seconds to exercise timeouts)",
    )
    crun.add_argument(
        "--pool-break", type=_rate, default=0.0,
        help="per-task-attempt rate of injected pool collapses "
             "(rebuild-then-degrade path; pooled backends only)",
    )
    crun.add_argument(
        "--corrupt", type=_rate, default=0.25,
        help="per-batch rate of injected corrupted telemetry batches",
    )
    crun.add_argument(
        "--fault-attempts", type=_positive_int, default=1,
        help="consecutive attempts of one task a fired task-fault "
             "poisons; above --retries it becomes a permanent fault "
             "that must surface as a named error",
    )
    crun.add_argument(
        "--corrupt-mode", choices=("duplicate", "replace"),
        default="duplicate",
        help="duplicate: corrupted copy precedes the real batch (no "
             "telemetry lost — recoverable); replace: corrupted copy "
             "substitutes it (telemetry lost — must fail closed)",
    )
    crun.add_argument(
        "--on-malformed", choices=("raise", "skip"), default="skip",
        help="engine policy for malformed batches: fail fast, or skip "
             "and record a named stream event",
    )
    crun.add_argument(
        "--task-timeout", type=_positive_float, default=None,
        help="per-task budget in seconds (default: no timeout)",
    )
    crun.add_argument(
        "--retries", type=_nonnegative_int, default=2,
        help="per-task retry budget before the run fails closed",
    )
    crun.add_argument(
        "--hang-seconds", type=_positive_float, default=0.05,
        help="how long an injected hang sleeps",
    )

    lint = sub.add_parser(
        "lint",
        help="static determinism / picklability / lock-contract analysis",
    )
    add_lint_arguments(lint)

    sub.add_parser("validate", help="check explainers vs ground truth")
    return parser


def _names(text: str) -> list[str]:
    """The non-blank, stripped entries of a comma-separated flag."""
    return [token.strip() for token in text.split(",") if token.strip()]


def _scenario_names():
    """``(known scenario names, hint)`` for the name checks."""
    from repro.nfv.scenarios import list_scenarios

    return list_scenarios(), "see: repro scenarios list"


def _explainer_names():
    """``(known explainer methods, hint)`` for the name checks."""
    from repro.core.explainers import EXPLAINER_METHODS

    return EXPLAINER_METHODS, f"choose from {', '.join(EXPLAINER_METHODS)}"


_MODELS = (_MODEL_NAMES, f"choose from {list(_MODEL_NAMES)}")


def _unknown(kind: str, names: list[str], known, hint: str) -> bool:
    """The name check of a comma-separated flag: when ``names`` holds
    names that are not ``known``, print them with ``hint`` and return
    True."""
    unknown = sorted(set(names) - set(known))
    if unknown:
        print(f"unknown {kind}s {unknown}; {hint}")
    return bool(unknown)


def _unknown_one(kind: str, name: str, known, hint: str) -> bool:
    """:func:`_unknown` for a one-name flag (``--scenario``, ``--method``)."""
    if name in known:
        return False
    print(f"unknown {kind} {name!r}; {hint}")
    return True


def _backend_label(backend: str, workers: int) -> str:
    """``backend=NAME``, plus `` xWORKERS`` on a pool."""
    pool = "" if backend == "serial" else f" x{workers}"
    return f"backend={backend}{pool}"


def _engine_kwargs(args) -> dict:
    """Streaming-engine settings from the engine flags."""
    return dict(
        window_epochs=args.window,
        refit_every=args.refit_every,
        explainer_method=args.method,
        explain_per_window=args.explain_per_window,
        random_state=args.seed,
    )


def _telemetry(args, scenario: str, seed: int, from_epoch: int = 0):
    """``scenario``'s telemetry stream over ``--epochs``, cut into
    ``--batch-epochs`` batches (default ``--window``).  A positive
    ``from_epoch`` drops the batches that start before it, and with
    them the stream's ``spec``."""
    from repro.datasets import stream_scenario_telemetry

    stream = stream_scenario_telemetry(
        scenario,
        args.epochs,
        batch_epochs=args.batch_epochs or args.window,
        random_state=seed,
    )
    if from_epoch:
        return (b for b in stream if b.start_epoch >= from_epoch)
    return stream


def _load_dataset(args, horizon: int = 0):
    from repro.datasets import make_sla_violation_dataset

    return make_sla_violation_dataset(
        n_epochs=args.epochs,
        with_faults=not getattr(args, "no_faults", False),
        horizon=horizon,
        random_state=args.seed,
    )


def _cmd_simulate(args) -> int:
    dataset = _load_dataset(args)
    result = dataset.result
    print(result.summary())
    if args.out:
        np.savez_compressed(
            args.out,
            features=dataset.X.values,
            feature_names=np.asarray(dataset.X.feature_names),
            sla_violation=result.sla_violation,
            latency_ms=result.latency_ms,
            loss_rate=result.loss_rate,
            root_cause=result.root_cause.astype(str),
        )
        print(f"wrote {args.out}")
    return 0


def _cmd_train(args) -> int:
    from repro.core import NFVExplainabilityPipeline

    dataset = _load_dataset(args, horizon=args.horizon)
    pipeline = NFVExplainabilityPipeline(
        _model_factories()[args.model](),
        explainer_method="auto",
        random_state=args.seed,
    ).fit(dataset)
    print(f"model: {args.model}  (horizon={args.horizon})")
    print(f"train accuracy: {pipeline.train_score_:.3f}")
    print(f"test accuracy:  {pipeline.test_score_:.3f}")
    return 0


def _fit_explain_pipeline(args):
    """The reference forest + explainer pipeline shared by the explain
    and explain-batch commands; returns ``(dataset, fitted pipeline)``."""
    from repro.core import NFVExplainabilityPipeline
    from repro.ml import RandomForestClassifier

    dataset = _load_dataset(args)
    pipeline = NFVExplainabilityPipeline(
        RandomForestClassifier(n_estimators=60, max_depth=10, random_state=0),
        explainer_method=args.method,
        random_state=args.seed,
    ).fit(dataset)
    return dataset, pipeline


def _cmd_explain(args) -> int:
    dataset, pipeline = _fit_explain_pipeline(args)
    index = args.epoch_index
    if index is None:
        violations = np.flatnonzero(dataset.y == 1)
        if len(violations) == 0:
            print("no violations in this trace; pick --epoch-index")
            return 1
        index = int(violations[0])
    if not 0 <= index < len(dataset.y):
        print(f"epoch-index out of range [0, {len(dataset.y)})")
        return 1
    print(f"epoch {index} (label: "
          f"{'violation' if dataset.y[index] else 'ok'})")
    print(pipeline.report(dataset.X.values[index], top_k=args.top_k))
    return 0


def _cmd_explain_batch(args) -> int:
    from repro.core.executor import get_executor

    dataset, pipeline = _fit_explain_pipeline(args)

    if args.epoch_indices:
        try:
            indices = [int(token) for token in _names(args.epoch_indices)]
        except ValueError:
            print(f"bad --epoch-indices {args.epoch_indices!r}")
            return 1
        if not indices:
            print(f"--epoch-indices {args.epoch_indices!r} names no epochs")
            return 1
        bad = [i for i in indices if not 0 <= i < len(dataset.y)]
        if bad:
            print(f"epoch indices out of range [0, {len(dataset.y)}): {bad}")
            return 1
    else:
        violations = np.flatnonzero(dataset.y == 1)
        if args.limit < len(violations):
            print(f"capping {len(violations)} violations to --limit {args.limit}")
        indices = violations[: args.limit].tolist()
        if not indices:
            print("no violations in this trace; pass --epoch-indices")
            return 1

    with get_executor(args.backend, args.workers) as executor:
        diagnoses, elapsed = timed(
            pipeline.diagnose_batch, dataset.X.values[indices],
            executor=executor,
        )

    chain = pipeline.chain_
    print(f"{'epoch':>6} {'score':>7} {'alert':>6} {'vnf':>12} "
          f"{'resource':>10}  top features")
    for index, diagnosis in zip(indices, diagnoses):
        suspect = diagnosis.primary_suspect
        if suspect is None:
            vnf = "-"
        elif chain is not None and suspect < len(chain.instances):
            vnf = f"{suspect}:{chain.instances[suspect].vnf_type}"
        else:
            vnf = f"vnf{suspect}"
        resource = diagnosis.primary_resource or "-"
        top = ", ".join(
            f"{name}={value:+.3f}"
            for name, value in diagnosis.explanation.top_features(args.top_k)
        )
        print(f"{index:>6} {diagnosis.prediction:>7.3f} "
              f"{'YES' if diagnosis.alert else 'no':>6} {vnf:>12} "
              f"{resource:>10}  {top}")
    n_alerts = sum(d.alert for d in diagnoses)
    timing = "" if args.no_timing else f" in {elapsed:.2f}s"
    print(f"\ndiagnosed {len(diagnoses)} epochs ({n_alerts} alerts)"
          f"{timing} — method={pipeline.explainer_.method_name}, "
          f"{_backend_label(executor.backend, executor.workers)}")
    return 0


def _cmd_scenarios(args) -> int:
    if args.scenarios_command == "list":
        return _cmd_scenarios_list(args)
    if args.scenarios_command == "search":
        return _cmd_scenarios_search(args)

    from repro.core.matrix import run_scenario_matrix

    scenarios = _names(args.scenarios)
    models = _names(args.models)
    explainers = _names(args.explainers)
    if not scenarios or not models or not explainers:
        print("need at least one scenario, model and explainer")
        return 1
    if (
        _unknown("scenario", scenarios, *_scenario_names())
        or _unknown("model", models, *_MODELS)
        or _unknown("explainer", explainers, *_explainer_names())
    ):
        return 1
    if args.stability_repeats < 0 or args.stability_repeats == 1:
        print("--stability-repeats must be 0 or >= 2")
        return 1

    factories = _model_factories()
    report = run_scenario_matrix(
        scenarios,
        models={name: factories[name] for name in models},
        explainers=explainers,
        n_epochs=args.epochs,
        n_explain=args.explain,
        stability_repeats=args.stability_repeats,
        random_state=args.seed,
        backend=args.backend,
        workers=args.workers,
        # progress lines carry each cell's seconds
        progress=None if args.no_timing else print,
    )
    print()
    print(report.format_table(timing=not args.no_timing))
    print(
        f"\n{len(report.cells)} cells "
        f"({len(scenarios)} scenarios × {len(models)} models × "
        f"{len(explainers)} explainers), {args.epochs} epochs each, "
        f"seed={args.seed}, "
        f"{_backend_label(report.extras['backend'], report.extras['workers'])}"
    )
    return 0


def _cmd_scenarios_list(args) -> int:
    """One ``name  description  [knobs: ...]`` line per registered
    scenario, or per recipe in the ``--generated`` store, names
    aligned."""
    if args.generated:
        from repro.nfv.grammar import DEFAULT_GENERATED_STORE, load_generated

        store = args.store or DEFAULT_GENERATED_STORE
        recipes = load_generated(store)
        if not recipes:
            print(
                f"no generated scenarios in {store}; create some with: "
                f"repro scenarios search --store {store}"
            )
            return 0
    else:
        from repro.nfv.scenarios import list_scenarios, scenario_recipe

        recipes = {name: scenario_recipe(name) for name in list_scenarios()}
    width = max(map(len, recipes))
    for name in sorted(recipes):
        knobs = ", ".join(sorted(recipes[name].knob_defaults()))
        print(f"{name:<{width}}  {recipes[name].description}  [knobs: {knobs}]")
    return 0


def _cmd_scenarios_search(args) -> int:
    from repro.core.search import search_scenarios
    from repro.nfv.grammar import DEFAULT_GENERATED_STORE, save_generated

    explainers = _names(args.explainers)
    if not explainers:
        print("need at least one explainer")
        return 1
    if _unknown("explainer", explainers, *_explainer_names()):
        return 1

    result, elapsed = timed(
        search_scenarios,
        seed=args.seed,
        generations=args.generations,
        population=args.population,
        top_k=args.top_k,
        explainers=tuple(explainers),
        n_epochs=args.epochs,
        n_explain=args.explain,
        accept_probe_epochs=args.probe_epochs,
        backend=args.backend,
        workers=args.workers,
        progress=print,
    )
    print()
    print(result.format_trace(), end="")
    if args.store:
        winners = result.winner_recipes()
        if winners:
            save_generated(winners, args.store)
            print(f"saved {len(winners)} generated recipe(s) -> {args.store}")
        else:
            print(f"no winners to save to {args.store}")
    elif result.winners:
        print(
            "(pass --store "
            f"{DEFAULT_GENERATED_STORE} to save the winners)"
        )
    if not args.no_timing:
        extras = result.extras
        label = _backend_label(extras["backend"], extras["workers"])
        print(f"\n{elapsed:.2f}s total, {label}")
    return 0


def _cmd_stream(args) -> int:
    from repro.core.stream import StreamingDiagnosisEngine

    if _unknown_one("scenario", args.scenario, *_scenario_names()):
        return 1
    engine = StreamingDiagnosisEngine(
        _model_factories()[args.model],
        backend=args.backend,
        workers=args.workers,
        **_engine_kwargs(args),
    )
    stream = _telemetry(args, args.scenario, args.seed)
    report, elapsed = timed(engine.run, stream, progress=print)

    print()
    print(report.format_table(timing=not args.no_timing))
    footer = (
        f"\n{report.summary()}\nscenario={args.scenario}, "
        f"model={args.model}, explainer={args.method}, seed={args.seed}, "
        f"{_backend_label(report.extras['backend'], report.extras['workers'])}"
    )
    if not args.no_timing:
        footer += (
            f"; {args.epochs / elapsed:.0f} epochs/s ({elapsed:.2f}s total)"
        )
    print(footer)
    return 0


def _cmd_serve(args) -> int:
    from repro.serve import save_snapshot

    scenarios = _names(args.scenarios)
    if not scenarios:
        print("need at least one scenario")
        return 1
    if _unknown("scenario", scenarios, *_scenario_names()):
        return 1
    batch_epochs = args.batch_epochs or args.window
    max_pending = args.max_pending or max(4 * args.window, batch_epochs)
    if batch_epochs > max_pending:
        print(
            f"--batch-epochs {batch_epochs} exceeds --max-pending "
            f"{max_pending}: every submission would be rejected"
        )
        return 1
    if args.snapshot_epoch is not None:
        if not args.snapshot_out:
            print("--snapshot-epoch requires --snapshot-out")
            return 1
        if args.snapshot_epoch % batch_epochs:
            print(
                f"--snapshot-epoch must be a multiple of the batch "
                f"granularity ({batch_epochs}) so the cut falls on a "
                "batch boundary"
            )
            return 1
    if args.restore and args.snapshot_epoch is not None:
        print("--restore and --snapshot-epoch are mutually exclusive")
        return 1

    service, elapsed = timed(_drive_service, args, scenarios, max_pending)
    if args.snapshot_epoch is not None:
        save_snapshot(service.snapshot(), args.snapshot_out)
        print(
            f"snapshot of {len(service.session_names)} sessions at "
            f"epoch {args.snapshot_epoch} -> {args.snapshot_out}"
        )
        return 0

    total_windows = 0
    for name in service.session_names:
        session = service.session(name)
        scenario = scenarios[session.tenant_index % len(scenarios)]
        report = session.report()
        total_windows += len(report.windows)
        print(f"=== {name} [{scenario}] seed={session.seed} ===")
        print(report.format_table(timing=not args.no_timing))
        print()
    footer = (
        f"{len(service.session_names)} sessions, {total_windows} "
        f"windows, {args.epochs} epochs each, "
        f"seed={service.random_state}, "
        f"{_backend_label(service.executor.backend, service.executor.workers)}"
    )
    if not args.no_timing:
        stats = service.cache_stats()
        footer += (
            f"; {elapsed:.2f}s total; shared cache "
            f"{stats['hits']} hits / {stats['misses']} misses"
        )
    print(footer)
    return 0


def _drive_service(args, scenarios, max_pending):
    """Open the ``serve run`` service (or restore it from ``--restore``),
    feed every tenant its scenario's stream up to ``--snapshot-epoch``
    (else to the end, then flush) and return the closed service, whose
    sessions stay readable."""
    from repro.serve import DiagnosisService, interleave, load_snapshot

    factory = _model_factories()[args.model]
    if args.restore:
        service = DiagnosisService.restore(
            load_snapshot(args.restore),
            model_factory=factory,
            backend=args.backend,
            workers=args.workers,
        )
    else:
        service = DiagnosisService(
            factory,
            max_pending_epochs=max_pending,
            backend=args.backend,
            workers=args.workers,
            **_engine_kwargs(args),
        )
        for i in range(args.tenants):
            service.open_session(f"tenant-{i}")

    with service:
        streams = {}
        for name in service.session_names:
            session = service.session(name)
            scenario = scenarios[session.tenant_index % len(scenarios)]
            # a restored tenant regenerates its deterministic stream and
            # drops the batches the snapshot already absorbed
            streams[name] = _telemetry(
                args, scenario, session.seed, session.epochs_seen
            )
        interleave(service, streams, until_epoch=args.snapshot_epoch)
        if args.snapshot_epoch is None:
            service.flush_all()
    return service


def _cmd_chaos(args) -> int:
    from repro.chaos import ChaosFault, ChaosPolicy
    from repro.core.stream import MalformedBatchError, StreamingDiagnosisEngine
    from repro.resilience import ResilienceError, ResilientExecutor
    from repro.utils.events import format_events

    if _unknown_one("scenario", args.scenario, *_scenario_names()):
        return 1
    faults = [
        ChaosFault(kind, rate, attempts=args.fault_attempts)
        for kind, rate in (
            ("transient", args.transient),
            ("crash", args.crash),
            ("hang", args.hang),
            ("pool-break", args.pool_break),
        )
        if rate > 0
    ]
    if args.corrupt > 0:
        faults.append(ChaosFault("corrupt-batch", args.corrupt))
    if not faults:
        print("every fault rate is zero; nothing to inject")
        return 1

    policy = ChaosPolicy(
        args.chaos_seed, faults, hang_seconds=args.hang_seconds
    )
    factory = _model_factories()[args.model]
    knobs = " ".join(f"{f.kind}={f.rate:g}" for f in faults)
    print(
        f"chaos run: scenario={args.scenario} epochs={args.epochs} "
        f"window={args.window} seed={args.seed} "
        f"chaos-seed={args.chaos_seed}"
    )
    timeout = (
        "" if args.task_timeout is None
        else f", task-timeout={args.task_timeout:g}s"
    )
    print(
        f"policy: {knobs} (attempts={args.fault_attempts}, "
        f"corrupt-mode={args.corrupt_mode}, "
        f"on-malformed={args.on_malformed}, retries={args.retries}{timeout})"
    )

    # The fault-free twin: same workload, no chaos, default executor.
    # Its report is the byte-comparison reference for the invariant.
    twin = StreamingDiagnosisEngine(factory, **_engine_kwargs(args))
    clean_table = twin.run(
        _telemetry(args, args.scenario, args.seed)
    ).format_table(timing=False)

    engine = StreamingDiagnosisEngine(
        factory, on_malformed=args.on_malformed, **_engine_kwargs(args)
    )
    stream = policy.corrupt_stream(
        _telemetry(args, args.scenario, args.seed), mode=args.corrupt_mode
    )
    executor = ResilientExecutor(
        args.backend,
        args.workers,
        task_timeout=args.task_timeout,
        retries=args.retries,
        chaos=policy,
    )

    def run_under_chaos():
        """``(report, None)``, or ``(None, the named error)``."""
        with executor:
            try:
                return engine.run(stream, executor=executor), None
            except (MalformedBatchError, ResilienceError) as exc:
                return None, exc

    (report, named_error), elapsed = timed(run_under_chaos)

    print()
    if report is not None:
        print(report.format_table(timing=not args.no_timing))
        print()
        print(format_events(report.events, "stream"))
    print(format_events(executor.events, "resilience"))
    print(
        _backend_label(executor.backend, executor.workers)
        + ("" if args.no_timing else f"; {elapsed:.2f}s total")
    )

    if named_error is not None:
        print(
            f"verdict: failed closed — "
            f"{type(named_error).__name__}: {named_error}"
        )
        return 0
    if report.format_table(timing=False) == clean_table:
        print(
            "verdict: recovered — report byte-identical to the "
            "fault-free run"
        )
        return 0
    skipped = [e for e in report.events if e.kind == "skipped-batch"]
    if skipped:
        print(
            f"verdict: degraded — {len(skipped)} corrupted batch(es) "
            "skipped and recorded; the report reflects the surviving "
            "stream (lost telemetry cannot be byte-identical)"
        )
        return 0
    print(
        "verdict: SILENT DIVERGENCE — chaos report differs from the "
        "fault-free run with no recorded cause"
    )
    return 1


def _cmd_validate(_args) -> int:
    from repro.core.explainers import (
        ExactShapleyExplainer,
        KernelShapExplainer,
        model_output_fn,
    )
    from repro.datasets import make_linear_regression
    from repro.ml import LinearRegression

    X, y, _ = make_linear_regression(
        n_samples=300, noise=0.01, random_state=0
    )
    model = LinearRegression().fit(X.values, y)
    fn = model_output_fn(model)
    background = X.values[:50]
    x = X.values[3]
    truth = model.coef_ * (x - background.mean(axis=0))
    failures = 0
    for name, explainer in (
        ("exact_shapley", ExactShapleyExplainer(fn, background)),
        ("kernel_shap", KernelShapExplainer(
            fn, background, n_samples=128, random_state=0
        )),
    ):
        error = float(np.abs(explainer.explain(x).values - truth).max())
        status = "ok" if error < 1e-6 else "FAIL"
        if status == "FAIL":
            failures += 1
        print(f"{name:<16} max error to closed form: {error:.2e}  [{status}]")
    return 1 if failures else 0


def main(argv=None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    # every command that takes --method checks it here, before any work
    if "method" in args and _unknown_one(
        "explainer", args.method, *_explainer_names()
    ):
        return 1
    handlers = {
        "simulate": _cmd_simulate,
        "train": _cmd_train,
        "explain": _cmd_explain,
        "explain-batch": _cmd_explain_batch,
        "scenarios": _cmd_scenarios,
        "stream": _cmd_stream,
        "serve": _cmd_serve,
        "chaos": _cmd_chaos,
        "lint": run_lint_command,
        "validate": _cmd_validate,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
