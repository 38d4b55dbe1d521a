"""Reference per-window attribution of the streaming engine.

:meth:`repro.core.stream.StreamingDiagnosisEngine._explain_window` as it
was when every window went through ``pipeline.diagnose_batch``: one
:class:`~repro.core.pipeline.NFVDiagnosis` per explained row, the alert
count and mean score read back from the diagnoses, and the attribution
matrix restacked from their per-row values.  The engine now reads the
attribution matrix and the scores as arrays through ``explain_rows``;
its windows must match this one byte for byte
(``tests/core/test_stream.py::TestWindowOracle``).
"""

from __future__ import annotations

import numpy as np


def explain_window(engine, X, y, executor):
    """``(n_explained, n_alerts, mean_score, top_feature,
    attribution_shift)`` of one window; updates the engine's previous
    attribution profile like the engine does."""
    if engine._pipeline is None or engine.explain_per_window == 0:
        return 0, 0, None, None, None
    rows = np.flatnonzero(y == 1)[: engine.explain_per_window]
    if len(rows) == 0:
        return 0, 0, None, None, None
    diagnoses = engine._pipeline.diagnose_batch(X[rows], executor=executor)
    n_alerts = int(sum(d.alert for d in diagnoses))
    mean_score = float(np.mean([d.prediction for d in diagnoses]))
    A = np.vstack([d.explanation.values for d in diagnoses])
    profile = np.abs(A).mean(axis=0)
    total = profile.sum()
    if total <= 0:
        return len(rows), n_alerts, mean_score, None, None
    profile = profile / total
    top_feature = engine._feature_names[int(np.argmax(profile))]
    shift = None
    previous = engine._previous_profile
    if previous is not None:
        denom = float(np.linalg.norm(profile) * np.linalg.norm(previous))
        if denom > 0:
            shift = float(1.0 - np.dot(profile, previous) / denom)
    engine._previous_profile = profile
    return len(rows), n_alerts, mean_score, top_feature, shift
