"""Shared data, fixtures and result-reporting helpers for the benches.

Every bench both *times* a representative operation (pytest-benchmark)
and *prints/saves* the table or figure series it regenerates, so the
numbers survive output capture: see ``benchmarks/results/``.

The SLA split and reference models are memoised functions that the
fixtures wrap and the BENCH rows call, so both see the same objects.
"""

import functools
import os
import sys

import numpy as np
import pytest

from repro.core.explainers import model_output_fn
from repro.datasets import make_root_cause_dataset, make_sla_violation_dataset
from repro.ml import GradientBoostingClassifier, RandomForestClassifier
from repro.ml.model_selection import train_test_split

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

# the reference oracles in tests/oracles are the benches' baseline arms
sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "tests")
)

#: One seed for the whole evaluation — every bench sees the same world.
SEED = 2020


def save_result(name: str, text: str) -> None:
    """Print a result block and persist it under benchmarks/results/."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    banner = f"\n{'=' * 66}\n{name}\n{'=' * 66}\n{text}\n"
    print(banner)
    with open(os.path.join(RESULTS_DIR, f"{name.split(' ')[0].lower()}.txt"), "w") as fh:
        fh.write(banner)


@functools.cache
def sla_split():
    """The headline forecasting task: telemetry at t predicts the SLA
    check at t+1 (horizon=1 removes the read-the-answer shortcut).

    Returns ``(dataset, X_train, X_test, y_train, y_test)``.
    """
    dataset = make_sla_violation_dataset(
        n_epochs=4000, horizon=1, random_state=SEED
    )
    X_train, X_test, y_train, y_test = train_test_split(
        dataset.X.values, dataset.y, test_size=0.3,
        random_state=0, stratify=dataset.y,
    )
    return dataset, X_train, X_test, y_train, y_test


@functools.cache
def reference_forest():
    """The reference model all explanation benches explain."""
    _, X_train, _, y_train, _ = sla_split()
    return RandomForestClassifier(
        n_estimators=60, max_depth=10, random_state=0
    ).fit(X_train, y_train)


@functools.cache
def reference_boosting():
    """The boosting model of the E15 margin and E16 attribution rows."""
    _, X_train, _, y_train, _ = sla_split()
    return GradientBoostingClassifier(
        n_estimators=100, max_depth=3, random_state=0
    ).fit(X_train, y_train)


@pytest.fixture(scope="session")
def sla_data():
    return sla_split()


@pytest.fixture(scope="session")
def sla_forest():
    return reference_forest()


@pytest.fixture(scope="session")
def forest_fn(sla_forest):
    return model_output_fn(sla_forest)


@pytest.fixture(scope="session")
def root_cause_data():
    rc = make_root_cause_dataset(n_epochs=6000, random_state=SEED)
    sla = make_sla_violation_dataset(n_epochs=6000, random_state=SEED)
    model = RandomForestClassifier(
        n_estimators=60, max_depth=10, random_state=0
    ).fit(sla.X.values, sla.y)
    incidents, culprits = [], []
    for i in range(len(rc.y)):
        cs = rc.culprits_for_sample(i)
        if cs:
            incidents.append(rc.X.values[i])
            culprits.append(cs)
    return rc, model, np.asarray(incidents), culprits
