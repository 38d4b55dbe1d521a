"""Tests for repro.nfv.telemetry."""

import numpy as np
import pytest

from repro.nfv.sfc import SLA, ServiceFunctionChain
from repro.nfv.telemetry import (
    CHAIN_METRICS,
    PER_VNF_METRICS,
    TelemetryCollector,
    feature_names_for_chain,
    vnf_of_feature,
)
from repro.nfv.vnf import VNFInstance


@pytest.fixture
def chain():
    return ServiceFunctionChain(
        "c0",
        [
            VNFInstance("firewall", 1.0, 512.0, "c0-0"),
            VNFInstance("dpi", 3.0, 3072.0, "c0-1"),
        ],
        SLA(),
    )


def make_metrics(chain, n_epochs=1):
    vnf_metrics = [
        {m: np.full(n_epochs, 0.5) for m in PER_VNF_METRICS}
        for _ in range(chain.length)
    ]
    chain_metrics = {m: np.full(n_epochs, 1.0) for m in CHAIN_METRICS}
    return vnf_metrics, chain_metrics


class TestFeatureNames:
    def test_names_structure(self, chain):
        names = feature_names_for_chain(chain)
        assert len(names) == 2 * len(PER_VNF_METRICS) + len(CHAIN_METRICS) + 2
        assert names[0] == "vnf0_firewall_cpu_util"
        assert "vnf1_dpi_queue_ms" in names
        assert names[-1] == "tod_cos"

    def test_vnf_of_feature_roundtrip(self, chain):
        for name in feature_names_for_chain(chain):
            vnf = vnf_of_feature(name)
            if name.startswith("vnf"):
                assert vnf in (0, 1)
            else:
                assert vnf is None

    def test_vnf_of_feature_double_digit(self):
        assert vnf_of_feature("vnf12_ids_cpu_util") == 12

    def test_vnf_of_feature_non_vnf(self):
        assert vnf_of_feature("offered_kpps") is None
        assert vnf_of_feature("vnfoo_bad") is None


class TestTelemetryCollector:
    def test_records_accumulate(self, chain):
        collector = TelemetryCollector(chain, noise_sigma=0.0)
        vnf_metrics, chain_metrics = make_metrics(chain, 5)
        collector.record_batch(
            vnf_metrics=vnf_metrics,
            chain_metrics=chain_metrics,
            epochs=np.arange(5),
            period_epochs=288,
        )
        vnf_metrics, chain_metrics = make_metrics(chain, 2)
        collector.record_batch(
            vnf_metrics=vnf_metrics,
            chain_metrics=chain_metrics,
            epochs=np.arange(5, 7),
            period_epochs=288,
        )
        assert collector.n_epochs == 7
        fm = collector.to_feature_matrix()
        assert fm.shape == (7, len(collector.feature_names))

    def test_noise_free_values_exact(self, chain):
        collector = TelemetryCollector(chain, noise_sigma=0.0)
        vnf_metrics, chain_metrics = make_metrics(chain)
        collector.record_batch(
            vnf_metrics=vnf_metrics, chain_metrics=chain_metrics,
            epochs=[0], period_epochs=288,
        )
        fm = collector.to_feature_matrix()
        assert fm.column("vnf0_firewall_cpu_util")[0] == 0.5
        assert fm.column("offered_kpps")[0] == 1.0

    def test_noise_perturbs_but_bounds_rates(self, chain):
        collector = TelemetryCollector(chain, noise_sigma=0.3, random_state=0)
        vnf_metrics, chain_metrics = make_metrics(chain, 200)
        collector.record_batch(
            vnf_metrics=vnf_metrics, chain_metrics=chain_metrics,
            epochs=np.arange(200), period_epochs=288,
        )
        fm = collector.to_feature_matrix()
        cpu = fm.column("vnf0_firewall_cpu_util")
        assert cpu.std() > 0.0
        assert cpu.min() >= 0.0 and cpu.max() <= 1.2
        drops = fm.column("vnf0_firewall_drop_rate")
        assert drops.max() <= 1.0

    def test_batching_never_changes_the_noise(self, chain):
        # one (T, m) normal draw consumes the generator exactly as T
        # one-row draws do, so batch boundaries cannot move a value
        whole = TelemetryCollector(chain, noise_sigma=0.3, random_state=4)
        rows = TelemetryCollector(chain, noise_sigma=0.3, random_state=4)
        vnf_metrics, chain_metrics = make_metrics(chain, 40)
        whole.record_batch(
            vnf_metrics=vnf_metrics, chain_metrics=chain_metrics,
            epochs=np.arange(40), period_epochs=288,
        )
        for t in range(40):
            row_vnf, row_chain = make_metrics(chain)
            rows.record_batch(
                vnf_metrics=row_vnf, chain_metrics=row_chain,
                epochs=[t], period_epochs=288,
            )
        assert (
            whole.flush().values.tobytes() == rows.flush().values.tobytes()
        )

    def test_time_encoding_on_unit_circle(self, chain):
        collector = TelemetryCollector(chain, noise_sigma=0.0)
        vnf_metrics, chain_metrics = make_metrics(chain, 10)
        collector.record_batch(
            vnf_metrics=vnf_metrics, chain_metrics=chain_metrics,
            epochs=np.arange(10) * 30, period_epochs=288,
        )
        fm = collector.to_feature_matrix()
        radius = fm.column("tod_sin") ** 2 + fm.column("tod_cos") ** 2
        np.testing.assert_allclose(radius, 1.0, atol=1e-12)

    def test_wrong_vnf_count_rejected(self, chain):
        collector = TelemetryCollector(chain)
        _, chain_metrics = make_metrics(chain)
        with pytest.raises(ValueError, match="metric dicts"):
            collector.record_batch(
                vnf_metrics=[{m: np.zeros(1) for m in PER_VNF_METRICS}],
                chain_metrics=chain_metrics,
                epochs=[0],
                period_epochs=288,
            )

    def test_empty_collector_rejected(self, chain):
        with pytest.raises(ValueError, match="no epochs"):
            TelemetryCollector(chain).to_feature_matrix()

    def test_flush_clears_what_it_renders(self, chain):
        collector = TelemetryCollector(chain, noise_sigma=0.0)
        vnf_metrics, chain_metrics = make_metrics(chain, 3)
        collector.record_batch(
            vnf_metrics=vnf_metrics, chain_metrics=chain_metrics,
            epochs=np.arange(3), period_epochs=288,
        )
        assert collector.flush().shape == (3, len(collector.feature_names))
        assert collector.n_epochs == 0
        with pytest.raises(ValueError, match="since the last flush"):
            collector.flush()

    def test_negative_noise_rejected(self, chain):
        with pytest.raises(ValueError, match="noise_sigma"):
            TelemetryCollector(chain, noise_sigma=-0.1)
