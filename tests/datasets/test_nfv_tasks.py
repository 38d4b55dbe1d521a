"""Tests for repro.datasets.nfv_tasks."""

import hashlib

import numpy as np
import pytest

from repro.datasets import (
    make_latency_dataset,
    make_root_cause_dataset,
    make_sla_violation_dataset,
)
from repro.nfv.faults import NO_FAULT


class TestSlaViolationDataset:
    def test_shapes_and_labels(self, sla_dataset):
        assert len(sla_dataset.X) == len(sla_dataset.y)
        assert set(np.unique(sla_dataset.y)) <= {0, 1}
        assert sla_dataset.task == "sla_violation"

    def test_nontrivial_class_balance(self, sla_dataset):
        rate = sla_dataset.y.mean()
        assert 0.05 < rate < 0.6

    def test_reproducible(self):
        a = make_sla_violation_dataset(n_epochs=300, random_state=5)
        b = make_sla_violation_dataset(n_epochs=300, random_state=5)
        np.testing.assert_array_equal(a.X.values, b.X.values)
        np.testing.assert_array_equal(a.y, b.y)

    def test_horizon_shifts_labels(self):
        base = make_sla_violation_dataset(n_epochs=300, random_state=6)
        shifted = make_sla_violation_dataset(
            n_epochs=300, horizon=3, random_state=6
        )
        assert len(shifted.y) == len(base.y) - 3
        np.testing.assert_array_equal(shifted.y, base.y[3:])
        np.testing.assert_array_equal(
            shifted.X.values, base.X.values[:-3]
        )

    def test_horizon_rows_track_label_epochs(self):
        ds = make_sla_violation_dataset(n_epochs=200, horizon=2, random_state=6)
        assert ds.rows[0] == 2
        assert len(ds.rows) == len(ds.y)

    def test_without_faults_only_natural_causes(self):
        ds = make_sla_violation_dataset(
            n_epochs=300, with_faults=False, random_state=7
        )
        assert all(cause == NO_FAULT for cause in ds.result.root_cause)

    def test_negative_horizon_rejected(self):
        with pytest.raises(ValueError, match="horizon"):
            make_sla_violation_dataset(n_epochs=100, horizon=-1)

    @pytest.mark.parametrize(
        "builder", [make_sla_violation_dataset, make_latency_dataset]
    )
    @pytest.mark.parametrize("horizon", [50, 51])
    def test_horizon_at_or_beyond_the_run_is_a_named_error(
        self, builder, horizon
    ):
        """An empty dataset would only fail later, inside
        ``train_test_split`` (``repro train --epochs 50 --horizon 50``)."""
        with pytest.raises(
            ValueError, match=f"horizon {horizon} for a 50-epoch run"
        ):
            builder(n_epochs=50, horizon=horizon, random_state=0)

    def test_last_epoch_horizon_keeps_one_sample(self):
        ds = make_sla_violation_dataset(n_epochs=50, horizon=49, random_state=0)
        assert list(ds.rows) == [49]
        np.testing.assert_array_equal(ds.X.values, ds.result.features.values[:1])

    def test_learnable(self, sla_dataset):
        """A forest must achieve clearly-above-chance accuracy."""
        from repro.ml import RandomForestClassifier
        from repro.ml.model_selection import train_test_split

        X_tr, X_te, y_tr, y_te = train_test_split(
            sla_dataset.X.values, sla_dataset.y,
            test_size=0.3, random_state=0, stratify=sla_dataset.y,
        )
        model = RandomForestClassifier(n_estimators=20, random_state=0)
        model.fit(X_tr, y_tr)
        majority = max(y_te.mean(), 1 - y_te.mean())
        assert model.score(X_te, y_te) > majority + 0.05


class TestLatencyDataset:
    def test_regression_target(self):
        ds = make_latency_dataset(n_epochs=300, random_state=8)
        assert ds.task == "latency"
        assert ds.y.dtype.kind == "f"
        assert np.all(ds.y > 0)

    def test_log_target(self):
        raw = make_latency_dataset(n_epochs=300, random_state=8)
        logged = make_latency_dataset(
            n_epochs=300, log_target=True, random_state=8
        )
        np.testing.assert_allclose(logged.y, np.log1p(raw.y))

    def test_horizon(self):
        base = make_latency_dataset(n_epochs=200, random_state=8)
        shifted = make_latency_dataset(n_epochs=200, horizon=1, random_state=8)
        np.testing.assert_allclose(shifted.y, base.y[1:])


class TestRootCauseDataset:
    @pytest.fixture(scope="class")
    def ds(self):
        return make_root_cause_dataset(n_epochs=3000, random_state=9)

    def test_multiclass_labels(self, ds):
        classes = set(np.unique(ds.y))
        assert NO_FAULT in classes
        assert len(classes) >= 3

    def test_rows_map_back_to_epochs(self, ds):
        for i in range(0, len(ds.y), 50):
            epoch = ds.rows[i]
            assert str(ds.result.root_cause[epoch]) == ds.y[i]

    def test_culprits_reachable(self, ds):
        fault_samples = np.flatnonzero(ds.y != NO_FAULT)
        kinds_with_culprits = 0
        for i in fault_samples:
            culprits = ds.culprits_for_sample(int(i))
            if culprits:
                kinds_with_culprits += 1
                assert all(0 <= c < ds.result.chain.length for c in culprits)
        assert kinds_with_culprits > 0

    def test_none_fraction_respected(self, ds):
        n_fault = int(np.sum(ds.y != NO_FAULT))
        n_none = int(np.sum(ds.y == NO_FAULT))
        assert n_none <= int(round(0.5 * n_fault)) + 1

    def test_no_fault_epochs_hint_names_real_parameters(self):
        with pytest.raises(RuntimeError, match="increase n_epochs") as info:
            make_root_cause_dataset(n_epochs=20, random_state=0)
        assert "fault_rate" not in str(info.value)

    def test_mismatched_xy_rejected(self, ds):
        from repro.datasets.nfv_tasks import NFVDataset

        with pytest.raises(ValueError, match="rows"):
            NFVDataset(X=ds.X, y=ds.y[:-1], task="x", result=ds.result)


#: case -> builder call; 400 epochs (1500 for root-cause, which needs
#: fault epochs at the default 2% rate)
STANDALONE_CASES = {
    "sla": lambda seed: make_sla_violation_dataset(400, random_state=seed),
    "sla_h2": lambda seed: make_sla_violation_dataset(
        400, horizon=2, random_state=seed
    ),
    "sla_no_faults": lambda seed: make_sla_violation_dataset(
        400, with_faults=False, random_state=seed
    ),
    "sla_no_faults_h2": lambda seed: make_sla_violation_dataset(
        400, with_faults=False, horizon=2, random_state=seed
    ),
    "latency_log_h1": lambda seed: make_latency_dataset(
        400, log_target=True, horizon=1, random_state=seed
    ),
    "root_cause": lambda seed: make_root_cause_dataset(
        1500, random_state=seed
    ),
    "root_cause_none_2": lambda seed: make_root_cause_dataset(
        1500, include_none_fraction=2.0, random_state=seed
    ),
}

#: (case, seed) -> digest; a byte change here means seeded datasets no
#: longer reproduce across versions.  Regenerate only for an intended
#: change to the simulator or the task shaping.
STANDALONE_GOLDEN = {
    ("sla", 0): "d8e029df16ffdbbdf5927989",
    ("sla", 1): "e6d1a71ef6eac8c7a1dbd118",
    ("sla", 2): "d353498beb20f543a6884cff",
    ("sla_h2", 0): "c0913d46efff330d8a093d23",
    ("sla_h2", 1): "f0ddeee1fbbf5cc673a85f95",
    ("sla_h2", 2): "0202cfb14e2c152e3c2efac6",
    ("sla_no_faults", 0): "79f1b7f0fe869b09ff99efc2",
    ("sla_no_faults", 1): "3b41e722de423525b3964f9d",
    ("sla_no_faults", 2): "b722d21ec3a56154884a1102",
    ("sla_no_faults_h2", 0): "7f3a13126754dd153c72b462",
    ("sla_no_faults_h2", 1): "7528e11bee6f0f9eb5fe7d1f",
    ("sla_no_faults_h2", 2): "d29082df0437622b7ac4261d",
    ("latency_log_h1", 0): "24d5a508f1614f4d8814c6a3",
    ("latency_log_h1", 1): "92d36155da64638710ecefe1",
    ("latency_log_h1", 2): "512a85a48c81075d264b62b7",
    ("root_cause", 0): "7002e16cc78ecca89d80699f",
    ("root_cause", 1): "c03f0615e74ceb4222bb1ced",
    ("root_cause", 2): "3c2bdac93899e976860928ef",
    ("root_cause_none_2", 0): "a2cb39b6ab209fd87b26fad9",
    ("root_cause_none_2", 1): "06c6c964418b1e83165f456f",
    ("root_cause_none_2", 2): "8a41f1749a75411a74dbc5d9",
}


def _dataset_digest(ds) -> str:
    """Hash of everything a dataset carries: samples, labels, rows and
    the simulation's latency, loss, root causes, culprits and events."""
    h = hashlib.sha256()
    result = ds.result
    for array in (ds.X.values, ds.y, ds.rows, result.latency_ms,
                  result.loss_rate, result.root_cause.astype(str)):
        h.update(str(array.dtype).encode())
        h.update(np.ascontiguousarray(array).tobytes())
    h.update(repr(result.culprit_vnfs).encode())
    h.update(repr(result.events).encode())
    return h.hexdigest()[:24]


@pytest.mark.parametrize(
    "case, seed", sorted(STANDALONE_GOLDEN), ids=lambda v: str(v)
)
def test_standalone_builders_match_digest_golden(case, seed):
    ds = STANDALONE_CASES[case](seed)
    assert _dataset_digest(ds) == STANDALONE_GOLDEN[case, seed]


def test_digest_golden_covers_every_case_and_seed():
    assert set(STANDALONE_GOLDEN) == {
        (case, seed) for case in STANDALONE_CASES for seed in (0, 1, 2)
    }
