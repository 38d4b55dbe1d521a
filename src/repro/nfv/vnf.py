"""Virtual network function catalog and performance profiles.

Each :class:`VNFProfile` is a small analytic performance model of one
middlebox type: packet-processing capacity as a function of allocated
vCPUs, a memory footprint driven by the active-flow table, and a fixed
per-packet processing latency.  The numbers are calibrated to the
relative costs reported across the NFV literature (a DPI touches packet
payloads and is an order of magnitude more expensive per packet than a
stateless load balancer; caches and WAN optimizers are memory-bound).
Absolute units are kpps (kilo-packets per second) and MB.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["VNFProfile", "VNFInstance", "VNF_CATALOG", "vnf_profile"]


@dataclass(frozen=True)
class VNFProfile:
    """Analytic performance model of one VNF type.

    Attributes
    ----------
    name:
        Catalog key (e.g. ``"firewall"``).
    capacity_kpps_per_vcpu:
        Packet-processing capacity contributed by each allocated vCPU on
        a reference-speed core.
    base_latency_us:
        Fixed per-packet processing latency (pipeline cost), independent
        of load.
    mem_base_mb:
        Memory used at zero load (code, tables, buffers).
    mem_per_kflow_mb:
        Memory per thousand concurrently-active flows (flow table /
        cache entries).
    cpu_per_kflow:
        Extra fractional CPU consumed per thousand active flows (state
        lookups) — makes flow-heavy workloads costlier, as observed for
        stateful middleboxes.
    """

    name: str
    capacity_kpps_per_vcpu: float
    base_latency_us: float
    mem_base_mb: float
    mem_per_kflow_mb: float
    cpu_per_kflow: float = 0.0

    def __post_init__(self):
        if self.capacity_kpps_per_vcpu <= 0:
            raise ValueError(f"{self.name}: capacity must be positive")
        if self.base_latency_us < 0 or self.mem_base_mb < 0:
            raise ValueError(f"{self.name}: latency/memory must be non-negative")

    def capacity_kpps(self, vcpus: float, cpu_speed: float = 1.0) -> float:
        """Nominal capacity for ``vcpus`` cores at relative ``cpu_speed``."""
        if vcpus <= 0:
            raise ValueError(f"vcpus must be positive, got {vcpus}")
        return self.capacity_kpps_per_vcpu * vcpus * cpu_speed

    def memory_mb(self, active_kflows):
        """Resident memory when ``active_kflows`` thousand flows are live
        (a scalar, or an array of per-epoch flow counts)."""
        lowest = np.min(active_kflows)
        if lowest < 0:
            raise ValueError(f"active_kflows must be >= 0, got {lowest}")
        return self.mem_base_mb + self.mem_per_kflow_mb * active_kflows


#: Catalog of middlebox types with relative costs from the NFV literature.
VNF_CATALOG: dict[str, VNFProfile] = {
    profile.name: profile
    for profile in [
        VNFProfile(
            name="firewall",
            capacity_kpps_per_vcpu=850.0,
            base_latency_us=18.0,
            mem_base_mb=256.0,
            mem_per_kflow_mb=0.6,
            cpu_per_kflow=0.002,
        ),
        VNFProfile(
            name="nat",
            capacity_kpps_per_vcpu=950.0,
            base_latency_us=12.0,
            mem_base_mb=192.0,
            mem_per_kflow_mb=0.8,
            cpu_per_kflow=0.003,
        ),
        VNFProfile(
            name="lb",
            capacity_kpps_per_vcpu=1400.0,
            base_latency_us=8.0,
            mem_base_mb=128.0,
            mem_per_kflow_mb=0.3,
            cpu_per_kflow=0.001,
        ),
        VNFProfile(
            name="ids",
            capacity_kpps_per_vcpu=320.0,
            base_latency_us=45.0,
            mem_base_mb=1024.0,
            mem_per_kflow_mb=1.2,
            cpu_per_kflow=0.004,
        ),
        VNFProfile(
            name="dpi",
            capacity_kpps_per_vcpu=180.0,
            base_latency_us=70.0,
            mem_base_mb=1536.0,
            mem_per_kflow_mb=1.5,
            cpu_per_kflow=0.005,
        ),
        VNFProfile(
            name="wanopt",
            capacity_kpps_per_vcpu=420.0,
            base_latency_us=55.0,
            mem_base_mb=2048.0,
            mem_per_kflow_mb=2.5,
            cpu_per_kflow=0.002,
        ),
        VNFProfile(
            name="transcoder",
            capacity_kpps_per_vcpu=150.0,
            base_latency_us=120.0,
            mem_base_mb=1024.0,
            mem_per_kflow_mb=1.0,
            cpu_per_kflow=0.001,
        ),
        VNFProfile(
            name="cache",
            capacity_kpps_per_vcpu=1100.0,
            base_latency_us=10.0,
            mem_base_mb=4096.0,
            mem_per_kflow_mb=3.0,
            cpu_per_kflow=0.001,
        ),
    ]
}


def vnf_profile(name: str) -> VNFProfile:
    """Look up a profile by name with a helpful error message."""
    try:
        return VNF_CATALOG[name]
    except KeyError:
        raise KeyError(
            f"unknown VNF type {name!r}; available: {sorted(VNF_CATALOG)}"
        ) from None


class VNFInstance:
    """A deployed VNF: a profile plus a resource allocation and location.

    Parameters
    ----------
    profile:
        The :class:`VNFProfile` (or catalog name) this instance runs.
    vcpus:
        Number of virtual CPUs allocated.
    mem_mb:
        Memory allocation in MB.
    instance_id:
        Unique identifier within a deployment.
    """

    def __init__(self, profile, vcpus: float, mem_mb: float, instance_id: str):
        if isinstance(profile, str):
            profile = vnf_profile(profile)
        if vcpus <= 0:
            raise ValueError(f"vcpus must be positive, got {vcpus}")
        if mem_mb <= 0:
            raise ValueError(f"mem_mb must be positive, got {mem_mb}")
        self.profile = profile
        self.vcpus = float(vcpus)
        self.mem_mb = float(mem_mb)
        self.instance_id = instance_id
        self.server_id: str | None = None  # set by placement

    @property
    def vnf_type(self) -> str:
        return self.profile.name

    def nominal_capacity_kpps(self, cpu_speed: float = 1.0) -> float:
        """Capacity before contention/fault penalties."""
        return self.profile.capacity_kpps(self.vcpus, cpu_speed)

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return (
            f"VNFInstance({self.instance_id!r}, type={self.vnf_type}, "
            f"vcpus={self.vcpus}, mem_mb={self.mem_mb}, "
            f"server={self.server_id!r})"
        )
