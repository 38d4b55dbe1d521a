"""Queueing-theory primitives used by the VNF performance model.

All functions take arrival rate ``lam`` and service rate ``mu`` in the
same (arbitrary) unit and return waiting/sojourn times in units of
``1/mu``'s time base.  The simulator uses these for per-VNF queueing
delay; the M/M/1/K loss formula supplies drop probabilities below
saturation.

Every rate argument may be a scalar or an array (arrays broadcast
against each other); a scalar call returns a 0-d result.  The
simulator calls each formula once per VNF over a whole batch of
epochs, so the array path is the only one: it keeps the scalar
formulas' operation order, their ``min`` clamps (``np.where(b < a, b,
a)``, which keeps signed zeros and NaN as ``min(a, b)`` does) and
their overflow branches element for element.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "mm1_waiting_time",
    "mm1_queue_length",
    "mg1_waiting_time",
    "mmc_waiting_time",
    "mm1k_loss_probability",
]

#: Utilization is clamped here so delay formulas stay finite; the
#: simulator represents true overload through packet drops instead.
MAX_STABLE_UTILIZATION = 0.995


def _first(values, bad):
    """The first entry of ``values`` flagged by ``bad`` (for messages)."""
    return values[bad][0]


def _rates(lam, mu):
    """``lam`` and ``mu`` as float arrays, validated elementwise."""
    lam = np.asarray(lam, dtype=float)
    mu = np.asarray(mu, dtype=float)
    bad = lam < 0
    if bad.any():
        raise ValueError(f"arrival rate must be >= 0, got {_first(lam, bad)}")
    bad = mu <= 0
    if bad.any():
        raise ValueError(f"service rate must be positive, got {_first(mu, bad)}")
    return lam, mu


def _clamped_utilization(lam, mu):
    """``min(lam / mu, MAX_STABLE_UTILIZATION)`` per element."""
    rho = lam / mu
    return np.where(MAX_STABLE_UTILIZATION < rho, MAX_STABLE_UTILIZATION, rho)


def mm1_waiting_time(lam, mu):
    """Mean time in queue (excluding service) for an M/M/1 queue.

    ``W_q = rho / (mu - lam)``.  Utilization is clamped at
    :data:`MAX_STABLE_UTILIZATION` so the result stays finite; overload
    is modelled separately as loss.
    """
    lam, mu = _rates(lam, mu)
    rho = _clamped_utilization(lam, mu)
    return (rho / (mu * (1.0 - rho)))[()]


def mm1_queue_length(lam, mu):
    """Mean number waiting in queue, ``L_q = rho^2 / (1 - rho)``."""
    lam, mu = _rates(lam, mu)
    rho = _clamped_utilization(lam, mu)
    return (rho * rho / (1.0 - rho))[()]


def mg1_waiting_time(lam, mu, scv=1.0):
    """Pollaczek–Khinchine mean waiting time for M/G/1.

    Parameters
    ----------
    scv:
        Squared coefficient of variation of the service time (scalar
        or array); ``scv=1`` recovers M/M/1, ``scv=0`` gives M/D/1
        (half the wait).
    """
    lam, mu = _rates(lam, mu)
    scv = np.asarray(scv, dtype=float)
    bad = scv < 0
    if bad.any():
        raise ValueError(f"scv must be >= 0, got {_first(scv, bad)}")
    rho = _clamped_utilization(lam, mu)
    return ((1.0 + scv) / 2.0 * rho / (mu * (1.0 - rho)))[()]


def erlang_c(c: int, offered):
    """Erlang-C probability that an arrival waits, for ``c`` servers and
    offered load ``offered = lam/mu`` Erlangs (must be < c)."""
    if c < 1:
        raise ValueError(f"c must be >= 1, got {c}")
    offered = np.asarray(offered, dtype=float)
    bad = offered < 0
    if bad.any():
        raise ValueError(f"offered load must be >= 0, got {_first(offered, bad)}")
    cap = c * MAX_STABLE_UTILIZATION
    offered = np.where(cap < offered, cap, offered)
    # sum_{k<c} a^k/k! computed iteratively for numerical stability
    term = np.ones_like(offered)
    series = np.ones_like(offered)
    for k in range(1, c):
        term = term * (offered / k)
        series = series + term
    term = term * (offered / c)
    top = term * c / (c - offered)
    return (top / (series + top))[()]


def mmc_waiting_time(lam, mu, c: int):
    """Mean queueing delay for M/M/c (``mu`` is per-server rate)."""
    lam, mu = _rates(lam, mu)
    offered = lam / mu
    cap = c * MAX_STABLE_UTILIZATION
    offered = np.where(cap < offered, cap, offered)
    p_wait = erlang_c(c, offered)
    return (p_wait / (c * mu - mu * offered))[()]


def _pow_or_inf(x: float, k: int) -> float:
    try:
        return x**k
    except OverflowError:
        return math.inf


def _libm_power(rho, k: int):
    """``rho**k`` per element through Python's ``**`` (libm ``pow``).

    ``np.power`` may take a vectorised ``pow`` that differs from libm
    in the last bit, so the exact scalar call is kept; an element whose
    power overflows comes back as ``inf``.
    """
    values = rho.ravel().tolist()
    try:
        powers = [x**k for x in values]
    except OverflowError:
        powers = [_pow_or_inf(x, k) for x in values]
    return np.array(powers, dtype=float).reshape(rho.shape)


def mm1k_loss_probability(lam, mu, k: int):
    """Blocking probability of an M/M/1/K queue with buffer size ``k``.

    ``P_loss = (1-rho) rho^K / (1 - rho^{K+1})`` for ``rho != 1`` and
    ``1/(K+1)`` at ``rho == 1``.  For ``rho > 1`` the formula remains
    valid and tends to ``1 - 1/rho`` for large K; where ``rho**K`` or
    ``rho**(K+1)`` overflows, that limit is returned (it holds to
    within ``rho**-K``).  No arrivals means no loss.
    """
    lam, mu = _rates(lam, mu)
    if k < 1:
        raise ValueError(f"buffer size k must be >= 1, got {k}")
    with np.errstate(all="ignore"):
        rho = lam / mu
        # math.isclose(rho, 1.0, rel_tol=1e-12), elementwise
        diff = np.abs(rho - 1.0)
        near_one = (rho == 1.0) | (
            ~np.isinf(rho) & ((diff <= 1e-12) | (diff <= np.abs(1e-12 * rho)))
        )
        rho_k = _libm_power(rho, k)
        denom = 1.0 - rho * rho_k
        loss = np.where(
            np.isfinite(denom), (1.0 - rho) * rho_k / denom, 1.0 - 1.0 / rho
        )
    loss = np.where(near_one, 1.0 / (k + 1), loss)
    return np.where(lam == 0, 0.0, loss)[()]
