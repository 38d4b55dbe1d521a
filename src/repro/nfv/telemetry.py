"""Telemetry schema and collection.

Defines the named feature vector the monitoring plane exports each
epoch, and a collector that applies measurement noise (telemetry is
never perfectly clean) to whole batches of epochs before assembling
the final :class:`~repro.utils.tabular.FeatureMatrix`.

Feature layout for a chain of K VNFs (names carry the VNF position and
type so explanations are readable by an operator):

* per VNF ``i`` of type ``T``:
  ``vnf{i}_{T}_cpu_util``, ``vnf{i}_{T}_mem_util``,
  ``vnf{i}_{T}_queue_ms``, ``vnf{i}_{T}_drop_rate``,
  ``vnf{i}_{T}_host_pressure`` (CPU demand / cores on its server);
* chain level: ``offered_kpps``, ``active_kflows``, ``burstiness``,
  ``propagation_ms``;
* time of day: ``tod_sin``, ``tod_cos``.
"""

from __future__ import annotations

import numpy as np

from repro.utils.rng import check_random_state
from repro.utils.tabular import FeatureMatrix

__all__ = [
    "PER_VNF_METRICS",
    "CHAIN_METRICS",
    "TIME_METRICS",
    "feature_names_for_chain",
    "vnf_of_feature",
    "TelemetryCollector",
]

#: Per-VNF telemetry metrics, in column order.
PER_VNF_METRICS = (
    "cpu_util",
    "mem_util",
    "queue_ms",
    "drop_rate",
    "host_pressure",
)

#: Chain-level metrics, in column order.
CHAIN_METRICS = ("offered_kpps", "active_kflows", "burstiness", "propagation_ms")

#: Time-of-day encoding.
TIME_METRICS = ("tod_sin", "tod_cos")


def feature_names_for_chain(chain) -> list[str]:
    """Full, ordered feature-name list for one monitored chain."""
    names = []
    for i, inst in enumerate(chain.instances):
        for metric in PER_VNF_METRICS:
            names.append(f"vnf{i}_{inst.vnf_type}_{metric}")
    names.extend(CHAIN_METRICS)
    names.extend(TIME_METRICS)
    return names


def vnf_of_feature(name: str) -> int | None:
    """VNF index encoded in a feature name, or ``None`` for chain-level
    features.  Inverse of the naming convention above."""
    if not name.startswith("vnf"):
        return None
    head = name.split("_", 1)[0]
    try:
        return int(head[3:])
    except ValueError:
        return None


class TelemetryCollector:
    """Accumulates batches of measurements and renders a feature matrix.

    Parameters
    ----------
    chain:
        The monitored (already-placed) chain; fixes the schema.
    noise_sigma:
        Relative gaussian measurement noise applied to utilization and
        delay readings (0 disables noise).
    """

    #: Per-VNF metrics clamped to ``[0, upper]`` after noise; every
    #: other reading is only floored at 0.
    _RATE_BOUNDS = {"cpu_util": 1.2, "mem_util": 1.2, "drop_rate": 1.0}

    def __init__(self, chain, noise_sigma: float = 0.02, random_state=None):
        if noise_sigma < 0:
            raise ValueError(f"noise_sigma must be >= 0, got {noise_sigma}")
        self.chain = chain
        self.noise_sigma = noise_sigma
        self._rng = check_random_state(random_state)
        self.feature_names = feature_names_for_chain(chain)
        self._blocks: list[np.ndarray] = []

    def record_batch(
        self,
        *,
        vnf_metrics: list[dict],
        chain_metrics: dict,
        epochs,
        period_epochs: int,
    ) -> None:
        """Append one batch of T epochs of measurements.

        ``vnf_metrics`` is one dict per VNF mapping each of
        :data:`PER_VNF_METRICS` to a length-T array; ``chain_metrics``
        maps :data:`CHAIN_METRICS` to length-T arrays; ``epochs`` holds
        the T epoch indices (for the time-of-day encoding).

        The noise of the whole batch is one ``normal(size=(T, m))`` draw
        over the m measured columns, which consumes the generator
        exactly as m draws per epoch in row order would.
        """
        if len(vnf_metrics) != self.chain.length:
            raise ValueError(
                f"expected {self.chain.length} VNF metric dicts, "
                f"got {len(vnf_metrics)}"
            )
        epochs = np.asarray(epochs)
        n_measured = len(self.feature_names) - len(TIME_METRICS)
        rows = np.empty((len(epochs), len(self.feature_names)))
        keys = []
        for metrics in vnf_metrics:
            for key in PER_VNF_METRICS:
                rows[:, len(keys)] = metrics[key]
                keys.append(key)
        for key in CHAIN_METRICS:
            rows[:, len(keys)] = chain_metrics[key]
            keys.append(key)
        if self.noise_sigma != 0.0:
            measured = rows[:, :n_measured]
            noise = self._rng.normal(0.0, self.noise_sigma, size=measured.shape)
            measured *= 1.0 + noise
            for j, key in enumerate(keys):
                col = measured[:, j]
                upper = self._RATE_BOUNDS.get(key)
                if upper is None:
                    # max(value, 0.0): keeps -0.0 and NaN as they are
                    measured[:, j] = np.where(0.0 > col, 0.0, col)
                else:
                    measured[:, j] = np.clip(col, 0.0, upper)
        angle = 2.0 * np.pi * (epochs % period_epochs) / period_epochs
        rows[:, n_measured] = np.sin(angle)
        rows[:, n_measured + 1] = np.cos(angle)
        self._blocks.append(rows)

    @property
    def n_epochs(self) -> int:
        return sum(len(block) for block in self._blocks)

    def to_feature_matrix(self) -> FeatureMatrix:
        """Render all recorded epochs as a named feature matrix."""
        if not self._blocks:
            raise ValueError("no epochs recorded")
        return FeatureMatrix(np.vstack(self._blocks), self.feature_names)

    def flush(self) -> FeatureMatrix:
        """Render the epochs recorded since the last flush and clear them.

        The streaming counterpart of :meth:`to_feature_matrix`: memory
        stays bounded by what was recorded since the last flush instead
        of the full horizon.  Flushing after every batch and stacking
        the results reproduces :meth:`to_feature_matrix` byte for byte.
        """
        if not self._blocks:
            raise ValueError("no epochs recorded since the last flush")
        matrix = self.to_feature_matrix()
        self._blocks = []
        return matrix
