"""Scenario × model × explainer matrix experiments.

One fitted model under one workload says little about which explainer
an operator should trust fleet-wide.  This module sweeps the full
matrix: for every registered scenario (see :mod:`repro.nfv.scenarios`)
it generates one dataset, fits every model once, rebuilds every
explainer on the shared fit (:meth:`NFVExplainabilityPipeline.with_explainer`),
explains a batch of violation epochs through the vectorized
:meth:`~repro.core.pipeline.NFVExplainabilityPipeline.explain_rows`
path, and scores each cell with the evaluation suite:

* **faithfulness** — normalized deletion/insertion AUCs plus a
  shuffled-attribution control (:mod:`repro.core.evaluation.faithfulness`),
* **comprehensiveness** — mean top-k score drop,
* **agreement** — mean Spearman rank correlation against the sibling
  explainers of the same (scenario, model) cell,
* **stability** — mean cosine similarity of attributions under small
  input perturbations (optional, it costs extra explain calls).

The result is a :class:`MatrixReport` whose :meth:`~MatrixReport.format_table`
is directly comparable across cells — the CLI (``repro scenarios run``)
and ``benchmarks/bench_e12_scenarios.py`` both print it.

The sweep is *sharded*: each scenario × model pair (one dataset, one
fit, all explainers sharing that fit) is an independent task dispatched
to an execution backend from :mod:`repro.core.executor` — serial,
threads, or processes (``repro scenarios run --workers 4 --backend
process``; speedup measured in ``benchmarks/bench_e13_parallel.py``).
Shards are pure functions of their task and the integer seed, so every
backend produces identical cells; ``format_table(timing=False)`` is
byte-identical across backends and worker counts.
"""

from __future__ import annotations

import contextlib
import pickle
from dataclasses import asdict, dataclass, field
from functools import lru_cache, partial

import numpy as np

from repro.core.evaluation import (
    agreement_matrix,
    comprehensiveness,
    faithfulness_report,
    input_stability,
)
from repro.core.executor import get_executor
from repro.core.pipeline import NFVExplainabilityPipeline
from repro.datasets import make_scenario_dataset
from repro.utils.clock import timed

__all__ = [
    "MatrixCell",
    "MatrixReport",
    "default_model_factories",
    "default_explainer_kwargs",
    "run_scenario_matrix",
]


def default_model_factories() -> dict:
    """Named factories for the reference models (shared with the CLI).

    Every factory returns a *fresh, unfitted* estimator, so one matrix
    run cannot leak fitted state into the next.  The factories are
    :func:`functools.partial` objects (not lambdas) so shard tasks
    carrying them can be pickled to process-backend workers.
    """
    from repro.ml import (
        GradientBoostingClassifier,
        LogisticRegression,
        MLPClassifier,
        RandomForestClassifier,
    )

    return {
        "random_forest": partial(
            RandomForestClassifier, n_estimators=60, max_depth=10, random_state=0
        ),
        "gradient_boosting": partial(
            GradientBoostingClassifier,
            n_estimators=80, max_depth=3, learning_rate=0.2, random_state=0,
        ),
        "logistic_regression": partial(LogisticRegression, max_iter=400),
        "mlp": partial(
            MLPClassifier,
            hidden_layer_sizes=(64, 32), max_epochs=60, random_state=0,
        ),
    }


def default_explainer_kwargs(method: str) -> dict:
    """Per-method sampling budgets sized for matrix sweeps.

    Smaller than the single-incident defaults: a matrix evaluates
    hundreds of (row, method) pairs, and the evaluation metrics average
    away per-row estimator noise.
    """
    return {
        "kernel_shap": {"n_samples": 256},
        "sampling_shapley": {"n_permutations": 16},
        "lime": {"n_samples": 400},
    }.get(method, {})


@dataclass
class MatrixCell:
    """Metrics of one (scenario, model, explainer) combination."""

    scenario: str
    model: str
    explainer: str
    train_accuracy: float
    test_accuracy: float
    violation_rate: float
    n_explained: int
    deletion_auc: float
    insertion_auc: float
    random_deletion_auc: float
    comprehensiveness: float
    agreement_spearman: float | None
    stability_cosine: float | None
    explain_seconds: float


@dataclass
class MatrixReport:
    """All cells of one matrix run plus the sweep configuration."""

    cells: list[MatrixCell]
    scenarios: list[str]
    models: list[str]
    explainers: list[str]
    n_epochs: int
    n_explain: int
    seed: int | None = None
    extras: dict = field(default_factory=dict)

    def to_rows(self) -> list[dict]:
        """Cells as plain dicts (for CSV/JSON serialization)."""
        return [asdict(cell) for cell in self.cells]

    def cell(self, scenario: str, model: str, explainer: str) -> MatrixCell:
        """Look one cell up by its coordinates."""
        for c in self.cells:
            if (c.scenario, c.model, c.explainer) == (scenario, model, explainer):
                return c
        raise KeyError(f"no cell ({scenario!r}, {model!r}, {explainer!r})")

    def format_table(self, *, timing: bool = True) -> str:
        """Aligned, comparable text table of every cell.

        ``timing=False`` drops the wall-clock ``sec`` column — the one
        field that varies between otherwise identical runs — leaving
        output that is byte-identical across repeats, execution
        backends, and worker counts under a fixed seed (what the
        determinism tests and the golden regression compare).
        """
        header = (
            f"{'scenario':<22} {'model':<20} {'explainer':<17} "
            f"{'acc':>5} {'viol':>6} {'del.AUC':>8} {'ins.AUC':>8} "
            f"{'rnd.del':>8} {'comp':>7} {'agree':>6} {'stab':>6}"
        )
        if timing:
            header += f" {'sec':>6}"
        lines = [header, "-" * len(header)]
        previous = None
        for c in self.cells:
            scenario = c.scenario if c.scenario != previous else ""
            previous = c.scenario
            agree = f"{c.agreement_spearman:.2f}" if c.agreement_spearman is not None else "-"
            stab = f"{c.stability_cosine:.2f}" if c.stability_cosine is not None else "-"
            line = (
                f"{scenario:<22} {c.model:<20} {c.explainer:<17} "
                f"{c.test_accuracy:>5.2f} {c.violation_rate:>6.1%} "
                f"{c.deletion_auc:>8.3f} {c.insertion_auc:>8.3f} "
                f"{c.random_deletion_auc:>8.3f} {c.comprehensiveness:>7.3f} "
                f"{agree:>6} {stab:>6}"
            )
            if timing:
                line += f" {c.explain_seconds:>6.2f}"
            lines.append(line)
        lines.append(
            "del.AUC: higher = attributed features collapse the prediction "
            "sooner (more faithful, as in E5); rnd.del is the shuffled-"
            "attribution control; comp = mean top-k score drop; agree = "
            "mean Spearman vs sibling explainers; stab = input-perturbation "
            "cosine."
        )
        return "\n".join(lines)


def _neutral_baseline(pipeline) -> np.ndarray:
    """Replacement values for the perturbation curves.

    The mean of the *negative-class* training rows when the task is
    binary classification: deleting a violation's features must move the
    score toward "healthy", otherwise the deletion/insertion curves are
    flat and their normalized AUCs are ill-conditioned (a saturated
    model scores the all-rows mean almost identically to a violation).
    Falls back to the background mean for non-binary tasks.
    """
    y = np.asarray(pipeline.y_train_)
    if y.dtype.kind in "iub":
        negatives = pipeline.X_train_[y == 0]
        if len(negatives) > 0:
            return negatives.mean(axis=0)
    return pipeline.background_.mean(axis=0)


def _select_rows(dataset, n_explain: int) -> np.ndarray:
    """Epochs to diagnose: violations first, newest fallback otherwise."""
    y = np.asarray(dataset.y)
    if y.dtype.kind in "iub":
        picked = np.flatnonzero(y == 1)[:n_explain]
        if len(picked) > 0:
            return picked
    return np.arange(len(y))[-n_explain:]


@dataclass
class _ShardTask:
    """One scenario × model unit of matrix work.

    A shard owns everything its cells share — one dataset generation,
    one model fit, and every explainer riding that fit — and carries
    only picklable configuration, so the same object drives the serial,
    thread, and process backends.  ``random_state`` is the matrix-wide
    integer seed: datasets are byte-identical per scenario under a
    fixed seed, so shards of the same scenario regenerate *the same*
    dataset in whichever worker they land on, and the shard result is a
    pure function of this task alone.
    """

    scenario: object  # registry name (str) or a grammar ScenarioRecipe
    model_name: str
    factory: object
    explainers: tuple
    explainer_kwargs: dict
    n_epochs: int
    n_explain: int
    horizon: int
    top_k: int
    stability_repeats: int
    random_state: int


def _scenario_name(scenario) -> str:
    """Display name of a scenario reference (name or grammar recipe)."""
    return scenario if isinstance(scenario, str) else scenario.name


@lru_cache(maxsize=8)
def _scenario_dataset(scenario, n_epochs: int, horizon: int, seed: int):
    """Per-process memo of seeded scenario datasets.

    Shards of the same scenario share one dataset generation within a
    process (serial and thread backends regain the one-generation-per-
    scenario cost of the unsharded runner; each process-backend worker
    pays at most one generation per scenario).  Safe because scenario
    datasets are byte-identical under a fixed integer seed and shards
    only read them.  ``scenario`` may be a registry name or a (frozen,
    hashable) grammar recipe — both are valid memo keys.
    """
    return make_scenario_dataset(
        scenario, n_epochs, horizon=horizon, random_state=seed
    )


def _run_matrix_shard(task: _ShardTask) -> list[MatrixCell]:
    """Compute every explainer cell of one scenario × model shard.

    Module-level (not a closure) so the process backend can pickle it;
    deterministic given the task, so every backend returns identical
    cells in identical order.
    """
    if isinstance(task.random_state, (int, np.integer)):
        dataset = _scenario_dataset(
            task.scenario, task.n_epochs, task.horizon, int(task.random_state)
        )
    else:  # non-integer seeds are not reproducible -> never memoize
        dataset = make_scenario_dataset(
            task.scenario, task.n_epochs,
            horizon=task.horizon, random_state=task.random_state,
        )
    rows = _select_rows(dataset, task.n_explain)
    X_sel = dataset.X.values[rows]
    violation_rate = dataset.result.violation_rate

    fitted = None
    cells: list[MatrixCell] = []
    attributions: dict[str, np.ndarray] = {}
    for method in task.explainers:
        kw = task.explainer_kwargs.get(method, {})
        if fitted is None:
            pipeline = NFVExplainabilityPipeline(
                task.factory(),
                explainer_method=method,
                explainer_kwargs=kw,
                random_state=task.random_state,
            ).fit(dataset)
            fitted = pipeline
        else:
            pipeline = fitted.with_explainer(method, **kw)

        # feeds only the `sec` column, dropped by format_table(timing=False)
        # — the byte-identical cross-backend comparison surface
        (batch, _), elapsed = timed(pipeline.explain_rows, X_sel)
        A = np.ascontiguousarray(batch.values)
        attributions[method] = A

        baseline = _neutral_baseline(pipeline)
        faith = faithfulness_report(
            pipeline.score_fn, X_sel, A, baseline,
            n_steps=10, random_state=task.random_state,
        )
        comp = float(np.mean([
            comprehensiveness(
                pipeline.score_fn, x, a, baseline,
                k=min(task.top_k, X_sel.shape[1]),
            )
            for x, a in zip(X_sel, A)
        ]))
        stability = None
        if task.stability_repeats >= 2:
            explainer = pipeline.explainer_
            stability = input_stability(
                lambda z: explainer.explain(z).values,
                X_sel[0],
                n_repeats=task.stability_repeats,
                feature_scales=pipeline.X_train_.std(axis=0),
                random_state=task.random_state,
            )["mean_cosine"]

        cells.append(MatrixCell(
            scenario=_scenario_name(task.scenario),
            model=task.model_name,
            explainer=method,
            train_accuracy=float(pipeline.train_score_),
            test_accuracy=float(pipeline.test_score_),
            violation_rate=float(violation_rate),
            n_explained=len(rows),
            deletion_auc=faith["deletion_auc"],
            insertion_auc=faith["insertion_auc"],
            random_deletion_auc=faith["random_deletion_auc"],
            comprehensiveness=comp,
            agreement_spearman=None,
            stability_cosine=stability,
            explain_seconds=elapsed,
        ))

    if len(attributions) >= 2:
        names, M = agreement_matrix(attributions, measure="spearman")
        off_diag = ~np.eye(len(names), dtype=bool)
        for cell in cells:
            i = names.index(cell.explainer)
            cell.agreement_spearman = float(np.mean(M[i][off_diag[i]]))
    return cells


def run_scenario_matrix(
    scenarios,
    models=None,
    explainers=("kernel_shap", "lime"),
    *,
    n_epochs: int = 1000,
    n_explain: int = 8,
    horizon: int = 0,
    top_k: int = 5,
    stability_repeats: int = 0,
    explainer_kwargs: dict | None = None,
    random_state: int = 0,
    backend: str = "auto",
    workers: int | None = None,
    executor=None,
    progress=None,
) -> MatrixReport:
    """Run the full scenario × model × explainer sweep.

    Parameters
    ----------
    scenarios:
        Scenario names from :func:`repro.nfv.scenarios.list_scenarios`,
        grammar :class:`~repro.nfv.grammar.recipe.ScenarioRecipe`
        objects (e.g. adversarial-search candidates that were never
        registered), or a mix of both.  Cells and the report always
        carry the scenario *name*.
    models:
        Mapping of name -> zero-argument model factory; ``None`` uses
        ``random_forest`` and ``logistic_regression`` from
        :func:`default_model_factories`.
    explainers:
        ``make_explainer`` method names.  With more than one model in
        the sweep they should be model-agnostic (``kernel_shap``,
        ``sampling_shapley``, ``lime``, ``exact_shapley``) — model-
        specific methods like ``tree_shap`` raise on the wrong model.
    n_epochs, horizon:
        Dataset length / forecasting horizon per scenario.
    n_explain:
        Violation epochs diagnosed per cell (the batched-engine batch).
    top_k:
        ``k`` for the comprehensiveness metric.
    stability_repeats:
        ``>= 2`` adds the input-stability metric with that many repeats
        (costs ``repeats`` extra explain calls per cell); ``0`` skips it.
    explainer_kwargs:
        Mapping of method -> constructor overrides, merged over
        :func:`default_explainer_kwargs`.
    random_state:
        Integer seed covering dataset generation, splits, and the
        stochastic explainers — the whole matrix is reproducible.
    backend, workers:
        Execution backend for the scenario × model shards (see
        :func:`repro.core.executor.get_executor`): ``"serial"`` (the
        default under ``"auto"`` with no workers), ``"thread"``, or
        ``"process"``.  Every shard is a pure function of its task and
        the integer seed, so the report's cells — and
        ``format_table(timing=False)`` byte-for-byte — are identical
        on every backend and worker count; only wall-clock changes.
    executor:
        A ready :class:`~repro.core.executor.Executor` to dispatch the
        shards on instead of building one from ``backend``/``workers``.
        The caller keeps ownership (this function never closes it) —
        how repeated sweeps (the adversarial search, one per
        generation) share a single pool instead of paying pool
        creation per call and risking a leak on an exception path.
    progress:
        Optional ``callable(str)`` receiving one line per finished cell
        (emitted shard by shard, in deterministic task order).
    """
    scenarios = list(scenarios)
    if not scenarios:
        raise ValueError("scenarios must not be empty")
    if models is None:
        factories = default_model_factories()
        models = {
            name: factories[name]
            for name in ("random_forest", "logistic_regression")
        }
    models = dict(models)
    if not models:
        raise ValueError("models must not be empty")
    explainers = list(explainers)
    if not explainers:
        raise ValueError("explainers must not be empty")
    if n_explain < 1:
        raise ValueError(f"n_explain must be >= 1, got {n_explain}")
    if stability_repeats < 0 or stability_repeats == 1:
        raise ValueError("stability_repeats must be 0 or >= 2")
    overrides = dict(explainer_kwargs or {})

    def emit(line: str) -> None:
        if progress is not None:
            progress(line)

    resolved_kwargs = {
        method: {**default_explainer_kwargs(method), **overrides.get(method, {})}
        for method in explainers
    }
    tasks = [
        _ShardTask(
            scenario=scenario,
            model_name=model_name,
            factory=factory,
            explainers=tuple(explainers),
            explainer_kwargs=resolved_kwargs,
            n_epochs=n_epochs,
            n_explain=n_explain,
            horizon=horizon,
            top_k=top_k,
            stability_repeats=stability_repeats,
            random_state=random_state,
        )
        for scenario in scenarios
        for model_name, factory in models.items()
    ]

    cells: list[MatrixCell] = []
    owned = (
        get_executor(backend, workers)
        if executor is None
        else contextlib.nullcontext(executor)
    )
    with owned as executor:
        if executor.backend == "process":
            try:
                pickle.dumps(tuple(models.values()))
            except Exception as exc:
                raise ValueError(
                    "model factories must be picklable for the process "
                    "backend (use functools.partial or module-level "
                    "functions, or backend='thread')"
                ) from exc
        for shard_cells in executor.imap(_run_matrix_shard, tasks):
            for cell in shard_cells:
                emit(
                    f"{cell.scenario} × {cell.model} × {cell.explainer}: "
                    f"acc={cell.test_accuracy:.2f} "
                    f"del.AUC={cell.deletion_auc:.3f} "
                    f"({cell.explain_seconds:.2f}s)"
                )
            cells.extend(shard_cells)
        extras = {"backend": executor.backend, "workers": executor.workers}

    return MatrixReport(
        cells=cells,
        scenarios=[_scenario_name(s) for s in scenarios],
        models=list(models),
        explainers=explainers,
        n_epochs=n_epochs,
        n_explain=n_explain,
        seed=random_state,
        extras=extras,
    )
