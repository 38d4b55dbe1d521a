"""Reference hybrid rows of the perturbation faithfulness metrics.

These are the tile-and-assign loops :mod:`repro.core.evaluation.
faithfulness` ran before its four metrics shared one
``where(kept, x, baseline)`` helper, kept verbatim: each row starts as
a copy of ``x`` (deletion, comprehensiveness) or of the baseline
(insertion, sufficiency) and gets the top-ranked features assigned from
the other.  The helper must hand ``predict_fn`` these exact rows, in
this order, in one call per curve
(``tests/core/test_faithfulness_oracle.py``).
"""

from __future__ import annotations

import numpy as np


def _ranking(attributions, order):
    if order == "abs":
        return np.argsort(-np.abs(attributions))
    return np.argsort(-attributions)


def curve_rows(x, attributions, baseline, n_steps, order, kind):
    """``(fractions, rows)`` of a ``"deletion"`` or ``"insertion"``
    curve."""
    ranking = _ranking(attributions, order)
    d = len(x)
    counts = np.unique(
        np.round(np.linspace(0, d, n_steps + 1)).astype(int)
    )
    start, source = (x, baseline) if kind == "deletion" else (baseline, x)
    rows = np.tile(start, (len(counts), 1))
    for row, k in enumerate(counts):
        idx = ranking[:k]
        rows[row, idx] = source[idx]
    return counts / d, rows


def top_k_rows(x, attributions, baseline, k, kind):
    """The two rows of ``"comprehensiveness"`` or ``"sufficiency"``:
    ``x``, then the top-``k`` hybrid."""
    top = np.argsort(-np.abs(attributions))[:k]
    if kind == "comprehensiveness":
        modified = x.copy()
        modified[top] = baseline[top]
    else:
        modified = baseline.copy()
        modified[top] = x[top]
    return np.vstack([x, modified])
