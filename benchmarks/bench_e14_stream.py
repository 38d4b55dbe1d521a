"""E14 — streaming diagnosis: cached windowed explanation vs naive loop.

The claim under test has two halves, and both matter:

* **throughput** — the streaming engine's fast path (one fitted model
  reused across windows between cadenced refits, one *batched*
  KernelSHAP call per window, one explainer reused until the next
  refit) must sustain >= 3x the epoch rate of the naive
  online loop that refits the model and explains each violation epoch
  individually, from a cold cache, as the epoch arrives;
* **equivalence** — the speedup must cost nothing in semantics:
  because both paths derive every stochastic choice from the same
  per-window child seeds (`repro.core.stream.window_seeds`) and the
  batched engine reproduces the per-sample loop under integer seeds,
  `StreamReport.format_table(timing=False)` must be byte-identical
  between the two.

The equivalence half is asserted unconditionally; the speedup half is
gated on pytest-benchmark timing being enabled (it is meaningless
under ``--benchmark-disable``, the CI smoke mode).
"""

import numpy as np

from benchmarks._util import timing_enabled
from benchmarks.conftest import SEED, save_result
from repro.core.cache import clear_cache
from repro.core.matrix import default_explainer_kwargs
from repro.core.pipeline import NFVExplainabilityPipeline
from repro.core.stream import (
    StreamingDiagnosisEngine,
    StreamReport,
    StreamWindow,
    window_seeds,
)
from repro.core.stream.engine import _HistoryDataset
from repro.datasets import stream_scenario_telemetry
from repro.utils.clock import timed

N_EPOCHS = 400
CONFIG = dict(
    window_epochs=50,
    refit_every=2,
    explainer_method="kernel_shap",
    explain_per_window=6,
    random_state=SEED,
)
SCENARIO = "fault-storm"


def _stream(batch_epochs=50):
    return stream_scenario_telemetry(
        SCENARIO, N_EPOCHS, batch_epochs=batch_epochs, random_state=SEED
    )


def _run_engine() -> StreamReport:
    clear_cache()
    return StreamingDiagnosisEngine(**CONFIG).run(_stream())


def _run_naive() -> StreamReport:
    """The loop the streaming engine replaces, made brutally explicit.

    For every explained epoch: re-fit the model *from scratch* on the
    governing history snapshot, rebuild the explainer, clear the cache
    (a naive loop has none), and explain that single row.  All
    stochastic choices use the same per-window child seeds as the
    engine, so the resulting report must match the engine's byte for
    byte — this function recomputes identical values, it just pays for
    them once per epoch instead of once per window.
    """
    reference = StreamingDiagnosisEngine(**CONFIG)  # config + detectors
    viol_det = reference.violation_detector
    attr_det = reference.attribution_detector
    kwargs = {
        **default_explainer_kwargs(CONFIG["explainer_method"]),
    }
    batches = list(_stream())
    names = batches[0].features.feature_names
    X = np.vstack([b.features.values for b in batches])
    y = np.concatenate([b.sla_violation for b in batches])
    window = CONFIG["window_epochs"]
    starts = list(range(0, len(y), window))
    seeds = window_seeds(SEED, len(starts))

    windows: list[StreamWindow] = []
    snapshot = None  # (X, y, seed, test_accuracy) at the last refit
    since_refit = 0
    prev_profile = None
    for index, start in enumerate(starts):
        stop = min(start + window, len(y))
        w_X, w_y = X[start:stop], y[start:stop]
        hist_X, hist_y = X[:stop][-4096:], y[:stop][-4096:]
        counts = np.bincount(hist_y, minlength=2)
        fittable = (
            len(hist_y) >= window and counts.min() >= 2
        )
        if snapshot is not None:
            since_refit += 1
        refit = fittable and (
            snapshot is None or since_refit >= CONFIG["refit_every"]
        )
        if refit:
            since_refit = 0
            # accuracy of this snapshot's fit (recomputed per epoch below)
            probe = _fit(hist_X, hist_y, names, seeds[index], kwargs)
            snapshot = (hist_X, hist_y, seeds[index], probe.test_score_)

        n_explained = n_alerts = 0
        mean_score = top_feature = shift = None
        rows = np.flatnonzero(w_y == 1)[: CONFIG["explain_per_window"]]
        if snapshot is not None and len(rows) > 0:
            values, scores, alerts = [], [], []
            for r in rows:
                # refit-and-explain-every-epoch: a fresh model, a fresh
                # explainer, and a cold cache for every single epoch
                clear_cache()
                pipe = _fit(
                    snapshot[0], snapshot[1], names, snapshot[2], kwargs
                )
                diagnosis = pipe.diagnose(w_X[r])
                values.append(diagnosis.explanation.values)
                scores.append(diagnosis.prediction)
                alerts.append(diagnosis.alert)
            n_explained, n_alerts = len(rows), int(sum(alerts))
            mean_score = float(np.mean(scores))
            profile = np.abs(np.vstack(values)).mean(axis=0)
            total = profile.sum()
            if total > 0:  # a zero profile names no feature (as engine)
                profile = profile / total
                top_feature = names[int(np.argmax(profile))]
                if prev_profile is not None:
                    denom = float(
                        np.linalg.norm(profile)
                        * np.linalg.norm(prev_profile)
                    )
                    if denom > 0:
                        shift = float(
                            1.0 - np.dot(profile, prev_profile) / denom
                        )
                prev_profile = profile

        violation_rate = float(np.mean(w_y))
        windows.append(StreamWindow(
            index=index,
            start_epoch=start,
            end_epoch=stop,
            violation_rate=violation_rate,
            refit=refit,
            seed=seeds[index],
            test_accuracy=snapshot[3] if snapshot else None,
            n_explained=n_explained,
            n_alerts=n_alerts,
            mean_score=mean_score,
            top_feature=top_feature,
            attribution_shift=shift,
            violation_drift=viol_det.update(violation_rate),
            attribution_drift=(
                attr_det.update(shift) if shift is not None else False
            ),
            seconds=0.0,
        ))
    return StreamReport(
        windows=windows,
        window_epochs=window,
        refit_every=CONFIG["refit_every"],
        explainer=CONFIG["explainer_method"],
        scenario=SCENARIO,
        seed=SEED,
    )


def _fit(hist_X, hist_y, names, seed, kwargs) -> NFVExplainabilityPipeline:
    from repro.core.matrix import default_model_factories

    return NFVExplainabilityPipeline(
        default_model_factories()["logistic_regression"](),
        explainer_method=CONFIG["explainer_method"],
        explainer_kwargs={**kwargs, "random_state": seed},
        random_state=seed,
    ).fit(_HistoryDataset(hist_X, hist_y, names))


def test_e14_streaming_beats_naive_with_identical_reports(benchmark):
    engine_report, t_engine = timed(_run_engine)
    naive_report, t_naive = timed(_run_naive)

    engine_table = engine_report.format_table(timing=False)
    naive_table = naive_report.format_table(timing=False)
    speedup = t_naive / t_engine

    lines = [
        f"{'path':<28} {'wall-clock':>10} {'epochs/s':>9}  identical-report",
        "-" * 66,
        f"{'streaming engine (cached)':<28} {t_engine:>9.2f}s "
        f"{N_EPOCHS / t_engine:>9.0f}  reference",
        f"{'naive refit+explain/epoch':<28} {t_naive:>9.2f}s "
        f"{N_EPOCHS / t_naive:>9.0f}  "
        f"{'yes' if naive_table == engine_table else 'NO'}",
        f"speedup: {speedup:.1f}x on {SCENARIO}, {N_EPOCHS} epochs, "
        f"window {CONFIG['window_epochs']}, refit every "
        f"{CONFIG['refit_every']} windows, "
        f"{CONFIG['explain_per_window']} explained per window, "
        f"KernelSHAP {default_explainer_kwargs('kernel_shap')['n_samples']} "
        f"coalitions, seed={SEED}",
        "",
        engine_table,
    ]
    save_result("E14 streaming diagnosis throughput", "\n".join(lines))

    # equivalence is unconditional: the fast path recomputes the naive
    # loop's exact report, it just pays for it once per window
    assert naive_table == engine_table, "naive report drifted from engine"
    assert engine_report.n_epochs == N_EPOCHS
    assert sum(w.n_explained for w in engine_report.windows) > 0

    # timed hot path for pytest-benchmark: one full engine run
    benchmark(_run_engine)

    # the speedup claim is only meaningful when timing is real
    if timing_enabled(benchmark):
        assert speedup >= 3.0, (
            f"cached streaming only {speedup:.2f}x vs naive loop"
        )
