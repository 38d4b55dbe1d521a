"""Service function chains and SLA specifications."""

from __future__ import annotations

from dataclasses import dataclass

from repro.nfv.vnf import VNFInstance

__all__ = ["SLA", "ServiceFunctionChain"]


@dataclass(frozen=True)
class SLA:
    """Service-level agreement for one chain.

    Attributes
    ----------
    max_latency_ms:
        End-to-end latency bound; exceeding it in an epoch is a
        violation.
    max_loss_rate:
        Packet-loss bound (fraction in [0, 1]).
    """

    max_latency_ms: float = 5.0
    max_loss_rate: float = 0.01

    def __post_init__(self):
        if self.max_latency_ms <= 0:
            raise ValueError(f"max_latency_ms must be positive, got {self.max_latency_ms}")
        if not 0.0 <= self.max_loss_rate < 1.0:
            raise ValueError(f"max_loss_rate must be in [0, 1), got {self.max_loss_rate}")

    def is_violated(self, latency_ms, loss_rate):
        """Whether an epoch's measurements breach this SLA (elementwise
        for arrays of per-epoch measurements)."""
        return (latency_ms > self.max_latency_ms) | (loss_rate > self.max_loss_rate)


class ServiceFunctionChain:
    """An ordered sequence of VNF instances traffic must traverse.

    Parameters
    ----------
    chain_id:
        Unique name.
    instances:
        VNF instances in traversal order.
    sla:
        The SLA this chain must honour.
    """

    def __init__(self, chain_id: str, instances: list[VNFInstance], sla: SLA):
        if not instances:
            raise ValueError(f"chain {chain_id!r} must contain at least one VNF")
        ids = [inst.instance_id for inst in instances]
        if len(set(ids)) != len(ids):
            raise ValueError(f"chain {chain_id!r} has duplicate instance ids")
        self.chain_id = chain_id
        self.instances = list(instances)
        self.sla = sla

    @property
    def length(self) -> int:
        return len(self.instances)

    @property
    def vnf_types(self) -> list[str]:
        return [inst.vnf_type for inst in self.instances]

    def bottleneck_capacity_kpps(self, cpu_speed: float = 1.0) -> float:
        """Chain capacity ignoring contention = min per-VNF capacity."""
        return min(
            inst.nominal_capacity_kpps(cpu_speed) for inst in self.instances
        )

    def propagation_latency_us(self, topology) -> float:
        """Sum of inter-VNF propagation latencies along the chain."""
        total = 0.0
        for a, b in zip(self.instances[:-1], self.instances[1:]):
            if a.server_id is None or b.server_id is None:
                raise ValueError(
                    f"chain {self.chain_id!r} has unplaced instances; "
                    "run placement first"
                )
            total += topology.path_latency_us(a.server_id, b.server_id)
        return total

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return (
            f"ServiceFunctionChain({self.chain_id!r}, "
            f"vnfs={'->'.join(self.vnf_types)})"
        )
