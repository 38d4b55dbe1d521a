"""Tests for repro.nfv.queueing against queueing-theory identities."""

import numpy as np
import pytest

from repro.nfv.queueing import (
    MAX_STABLE_UTILIZATION,
    erlang_c,
    mg1_waiting_time,
    mm1_queue_length,
    mm1_waiting_time,
    mm1k_loss_probability,
    mmc_waiting_time,
)


class TestMM1:
    def test_textbook_value(self):
        # rho = 0.5, mu = 1: W_q = 0.5 / (1 * 0.5) = 1.0
        assert mm1_waiting_time(0.5, 1.0) == pytest.approx(1.0)

    def test_monotone_in_load(self):
        waits = [mm1_waiting_time(lam, 1.0) for lam in (0.1, 0.5, 0.9, 0.99)]
        assert all(a < b for a, b in zip(waits, waits[1:]))

    def test_explodes_near_saturation_but_finite(self):
        w = mm1_waiting_time(10.0, 1.0)  # overload clamps at MAX_STABLE
        assert np.isfinite(w)
        assert w == pytest.approx(
            MAX_STABLE_UTILIZATION / (1 - MAX_STABLE_UTILIZATION), rel=1e-9
        )

    def test_zero_arrivals_no_wait(self):
        assert mm1_waiting_time(0.0, 1.0) == 0.0

    def test_littles_law_consistency(self):
        # L_q = lam * W_q
        lam, mu = 0.7, 1.0
        assert mm1_queue_length(lam, mu) == pytest.approx(
            lam * mm1_waiting_time(lam, mu)
        )

    def test_invalid_rates(self):
        with pytest.raises(ValueError, match="service rate"):
            mm1_waiting_time(1.0, 0.0)
        with pytest.raises(ValueError, match="arrival rate"):
            mm1_waiting_time(-1.0, 1.0)


class TestMG1:
    def test_scv_one_recovers_mm1(self):
        assert mg1_waiting_time(0.6, 1.0, scv=1.0) == pytest.approx(
            mm1_waiting_time(0.6, 1.0)
        )

    def test_deterministic_service_halves_wait(self):
        assert mg1_waiting_time(0.6, 1.0, scv=0.0) == pytest.approx(
            0.5 * mm1_waiting_time(0.6, 1.0)
        )

    def test_bursty_service_increases_wait(self):
        assert mg1_waiting_time(0.6, 1.0, scv=4.0) > mm1_waiting_time(0.6, 1.0)

    def test_negative_scv_rejected(self):
        with pytest.raises(ValueError, match="scv"):
            mg1_waiting_time(0.5, 1.0, scv=-0.1)


class TestMMC:
    def test_erlang_c_is_probability(self):
        for c, a in [(1, 0.5), (4, 3.0), (10, 8.0)]:
            p = erlang_c(c, a)
            assert 0.0 <= p <= 1.0

    def test_single_server_matches_mm1_wait(self):
        # M/M/1 via Erlang C: W_q = rho/(mu - lam)... identical formula
        assert mmc_waiting_time(0.5, 1.0, 1) == pytest.approx(
            mm1_waiting_time(0.5, 1.0)
        )

    def test_more_servers_less_wait(self):
        lam = 1.8
        waits = [mmc_waiting_time(lam, 1.0, c) for c in (2, 3, 5)]
        assert waits[0] > waits[1] > waits[2]

    def test_invalid_c(self):
        with pytest.raises(ValueError, match="c must be"):
            erlang_c(0, 1.0)


class TestMM1KLoss:
    def test_zero_arrivals_zero_loss(self):
        assert mm1k_loss_probability(0.0, 1.0, 10) == 0.0

    def test_textbook_value(self):
        # rho=0.5, K=2: P = (0.5)*(0.25)/(1-0.125) = 0.142857...
        assert mm1k_loss_probability(0.5, 1.0, 2) == pytest.approx(1.0 / 7.0)

    def test_rho_one_limit(self):
        assert mm1k_loss_probability(1.0, 1.0, 9) == pytest.approx(0.1)

    def test_monotone_in_load(self):
        losses = [
            mm1k_loss_probability(lam, 1.0, 16) for lam in (0.5, 0.9, 1.1, 2.0)
        ]
        assert all(a < b for a, b in zip(losses, losses[1:]))

    def test_monotone_in_buffer(self):
        # bigger buffer, less loss
        losses = [mm1k_loss_probability(0.9, 1.0, k) for k in (1, 4, 16, 64)]
        assert all(a > b for a, b in zip(losses, losses[1:]))

    def test_heavy_overload_approaches_capacity_ratio(self):
        # at rho >> 1 the queue serves mu, so loss -> 1 - 1/rho
        assert mm1k_loss_probability(4.0, 1.0, 64) == pytest.approx(0.75, abs=1e-6)

    def test_probability_bounds(self):
        for lam in (0.1, 0.5, 1.0, 3.0, 10.0):
            p = mm1k_loss_probability(lam, 1.0, 32)
            assert 0.0 <= p <= 1.0

    def test_large_k_no_overflow(self):
        assert np.isfinite(mm1k_loss_probability(2.0, 1.0, 10_000))

    def test_bad_buffer(self):
        with pytest.raises(ValueError, match="buffer"):
            mm1k_loss_probability(1.0, 1.0, 0)

    def test_overflow_of_rho_to_k_plus_one(self):
        # rho**131 is finite but rho * rho**131 overflows to inf without
        # raising; the formula alone gives -inf/-inf = nan
        rho = 22.0 / 0.1015625
        assert np.isfinite(rho**131) and np.isinf(rho * rho**131)
        p = mm1k_loss_probability(22.0, 0.1015625, 131)
        assert p == pytest.approx(1.0 - 1.0 / rho, rel=1e-15)

    def test_default_simulator_buffer_rho_sweep(self):
        # the simulator's default buffer is 64 packets; rho in about
        # (5.53e4, 6.55e4) used to give nan there
        rhos = np.concatenate(
            [np.geomspace(1.5, 5e4, 400), np.linspace(5.5e4, 6.6e4, 1101), [1e6]]
        )
        losses = np.array([mm1k_loss_probability(float(r), 1.0, 64) for r in rhos])
        assert np.all(np.isfinite(losses))
        assert np.all((losses >= 0.0) & (losses <= 1.0))
        assert np.all(np.diff(losses) >= -1e-15)
        heavy = rhos > 20.0
        np.testing.assert_allclose(losses[heavy], 1.0 - 1.0 / rhos[heavy], rtol=1e-12)
