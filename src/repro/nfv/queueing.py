"""Queueing-theory primitives used by the VNF performance model.

All functions take arrival rate ``lam`` and service rate ``mu`` in the
same (arbitrary) unit and return waiting/sojourn times in units of
``1/mu``'s time base.  The simulator uses these for per-VNF queueing
delay; the M/M/1/K loss formula supplies drop probabilities below
saturation.
"""

from __future__ import annotations

import math

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


def _validate_rates(lam: float, mu: float) -> None:
    if lam < 0:
        raise ValueError(f"arrival rate must be >= 0, got {lam}")
    if mu <= 0:
        raise ValueError(f"service rate must be positive, got {mu}")


def mm1_waiting_time(lam: float, mu: float) -> float:
    """Mean time in queue (excluding service) for an M/M/1 queue.

    ``W_q = rho / (mu - lam)``.  Utilization is clamped at
    :data:`MAX_STABLE_UTILIZATION` so the result stays finite; overload
    is modelled separately as loss.
    """
    _validate_rates(lam, mu)
    rho = min(lam / mu, MAX_STABLE_UTILIZATION)
    return rho / (mu * (1.0 - rho))


def mm1_queue_length(lam: float, mu: float) -> float:
    """Mean number waiting in queue, ``L_q = rho^2 / (1 - rho)``."""
    _validate_rates(lam, mu)
    rho = min(lam / mu, MAX_STABLE_UTILIZATION)
    return rho * rho / (1.0 - rho)


def mg1_waiting_time(lam: float, mu: float, scv: float = 1.0) -> float:
    """Pollaczek–Khinchine mean waiting time for M/G/1.

    Parameters
    ----------
    scv:
        Squared coefficient of variation of the service time;
        ``scv=1`` recovers M/M/1, ``scv=0`` gives M/D/1 (half the wait).
    """
    _validate_rates(lam, mu)
    if scv < 0:
        raise ValueError(f"scv must be >= 0, got {scv}")
    rho = min(lam / mu, MAX_STABLE_UTILIZATION)
    return (1.0 + scv) / 2.0 * rho / (mu * (1.0 - rho))


def erlang_c(c: int, offered: float) -> float:
    """Erlang-C probability that an arrival waits, for ``c`` servers and
    offered load ``offered = lam/mu`` Erlangs (must be < c)."""
    if c < 1:
        raise ValueError(f"c must be >= 1, got {c}")
    if offered < 0:
        raise ValueError(f"offered load must be >= 0, got {offered}")
    offered = min(offered, c * MAX_STABLE_UTILIZATION)
    # sum_{k<c} a^k/k! computed iteratively for numerical stability
    term = 1.0
    series = 1.0
    for k in range(1, c):
        term *= offered / k
        series += term
    term *= offered / c
    top = term * c / (c - offered)
    return top / (series + top)


def mmc_waiting_time(lam: float, mu: float, c: int) -> float:
    """Mean queueing delay for M/M/c (``mu`` is per-server rate)."""
    _validate_rates(lam, mu)
    offered = lam / mu
    offered = min(offered, c * MAX_STABLE_UTILIZATION)
    p_wait = erlang_c(c, offered)
    return p_wait / (c * mu - mu * offered)


def mm1k_loss_probability(lam: float, mu: float, k: int) -> float:
    """Blocking probability of an M/M/1/K queue with buffer size ``k``.

    ``P_loss = (1-rho) rho^K / (1 - rho^{K+1})`` for ``rho != 1`` and
    ``1/(K+1)`` at ``rho == 1``.  For ``rho > 1`` the formula remains
    valid and tends to ``1 - 1/rho`` for large K.
    """
    _validate_rates(lam, mu)
    if k < 1:
        raise ValueError(f"buffer size k must be >= 1, got {k}")
    if lam == 0:
        return 0.0
    rho = lam / mu
    if math.isclose(rho, 1.0, rel_tol=1e-12):
        return 1.0 / (k + 1)
    try:
        rho_k = rho**k
    except OverflowError:
        return 1.0 - 1.0 / rho
    denom = 1.0 - rho * rho_k
    if not math.isfinite(denom):
        # rho**(k+1) overflowed to inf without raising (rho**k did not):
        # the formula would give -inf/-inf, while the loss sits at its
        # large-K limit to within rho**-K
        return 1.0 - 1.0 / rho
    return (1.0 - rho) * rho_k / denom
