"""NFVI topology: servers, switches, and links.

The topology supplies two things to the simulator: (1) server resources
(cores, memory, relative CPU speed) on which VNF instances are placed,
and (2) propagation latency between servers, computed as the shortest
path over per-link delays.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from itertools import count

__all__ = ["Server", "NfviTopology"]


@dataclass
class Server:
    """A compute node in the NFV infrastructure.

    Attributes
    ----------
    server_id:
        Unique node name (also its key in the topology's adjacency).
    cpu_cores:
        Physical cores available to VNFs.
    mem_mb:
        Memory available to VNFs.
    cpu_speed:
        Relative core speed (1.0 = reference); heterogeneous clusters
        mix speeds.
    """

    server_id: str
    cpu_cores: float = 16.0
    mem_mb: float = 65536.0
    cpu_speed: float = 1.0
    placed_instances: list = field(default_factory=list)

    def __post_init__(self):
        if self.cpu_cores <= 0 or self.mem_mb <= 0 or self.cpu_speed <= 0:
            raise ValueError(
                f"server {self.server_id}: resources must be positive"
            )

    @property
    def allocated_vcpus(self) -> float:
        return sum(inst.vcpus for inst in self.placed_instances)

    @property
    def allocated_mem_mb(self) -> float:
        return sum(inst.mem_mb for inst in self.placed_instances)

    @property
    def free_vcpus(self) -> float:
        return self.cpu_cores - self.allocated_vcpus

    @property
    def free_mem_mb(self) -> float:
        return self.mem_mb - self.allocated_mem_mb

    def can_host(self, instance) -> bool:
        """Whether the instance fits in the remaining capacity."""
        return (
            instance.vcpus <= self.free_vcpus + 1e-9
            and instance.mem_mb <= self.free_mem_mb + 1e-9
        )

    def place(self, instance) -> None:
        if not self.can_host(instance):
            raise ValueError(
                f"server {self.server_id} cannot host {instance.instance_id}: "
                f"free {self.free_vcpus:.1f} vcpu / {self.free_mem_mb:.0f} MB, "
                f"need {instance.vcpus} / {instance.mem_mb}"
            )
        self.placed_instances.append(instance)
        instance.server_id = self.server_id

    def remove(self, instance) -> None:
        self.placed_instances.remove(instance)
        instance.server_id = None


class NfviTopology:
    """Servers and switches connected by latency-annotated links.

    The fabric is one insertion-ordered adjacency dict, ``node ->
    {neighbour: latency_us}``; links are undirected.
    """

    def __init__(self):
        self._adj: dict[str, dict[str, float]] = {}
        self.servers: dict[str, Server] = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_server(self, server: Server) -> Server:
        self._add_node(server.server_id)
        self.servers[server.server_id] = server
        return server

    def add_switch(self, switch_id: str) -> None:
        self._add_node(switch_id)

    def _add_node(self, node: str) -> None:
        if node in self._adj:
            raise ValueError(f"duplicate node {node!r}")
        self._adj[node] = {}

    def add_link(self, a: str, b: str, latency_us: float = 50.0) -> None:
        self._check_nodes(a, b)
        if latency_us < 0:
            raise ValueError(f"latency must be >= 0, got {latency_us}")
        self._adj[a][b] = self._adj[b][a] = float(latency_us)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def server(self, server_id: str) -> Server:
        try:
            return self.servers[server_id]
        except KeyError:
            raise KeyError(
                f"unknown server {server_id!r}; known: {sorted(self.servers)}"
            ) from None

    def _check_nodes(self, *nodes: str) -> None:
        for node in nodes:
            if node not in self._adj:
                raise ValueError(f"unknown node {node!r}")

    def path_latency_us(self, a: str, b: str) -> float:
        """Propagation latency of the cheapest path between two nodes.

        Dijkstra from ``a``, relaxing neighbours in link-insertion order
        and breaking heap ties by push order, so tied path sums add up
        in the same order on every run.
        """
        self._check_nodes(a, b)
        if a == b:
            return 0.0
        done: set[str] = set()
        seen = {a: 0.0}
        push = count()
        fringe = [(0.0, next(push), a)]
        while fringe:
            dist, _, node = heapq.heappop(fringe)
            if node in done:
                continue
            if node == b:
                return dist
            done.add(node)
            for nbr, latency in self._adj[node].items():
                via = dist + latency
                if nbr not in done and (nbr not in seen or via < seen[nbr]):
                    seen[nbr] = via
                    heapq.heappush(fringe, (via, next(push), nbr))
        raise ValueError(f"no path between {a!r} and {b!r}")

    @property
    def n_servers(self) -> int:
        return len(self.servers)

    @property
    def n_nodes(self) -> int:
        """Servers plus switches."""
        return len(self._adj)

    def colocated(self, instance) -> list:
        """Other instances sharing the instance's server."""
        server = self.server(instance.server_id)
        return [i for i in server.placed_instances if i is not instance]

    # ------------------------------------------------------------------
    # builders
    # ------------------------------------------------------------------
    @classmethod
    def linear(
        cls,
        n_servers: int,
        *,
        cpu_cores: float = 16.0,
        mem_mb: float = 65536.0,
        link_latency_us: float = 50.0,
    ) -> "NfviTopology":
        """Servers in a row, each linked to the next (simplest fabric)."""
        if n_servers < 1:
            raise ValueError(f"n_servers must be >= 1, got {n_servers}")
        topo = cls()
        for i in range(n_servers):
            topo.add_server(
                Server(f"server{i}", cpu_cores=cpu_cores, mem_mb=mem_mb)
            )
        for i in range(n_servers - 1):
            topo.add_link(f"server{i}", f"server{i + 1}", link_latency_us)
        return topo

    @classmethod
    def leaf_spine(
        cls,
        n_spine: int = 2,
        n_leaf: int = 4,
        servers_per_leaf: int = 4,
        *,
        cpu_cores: float = 16.0,
        mem_mb: float = 65536.0,
        leaf_link_us: float = 20.0,
        spine_link_us: float = 40.0,
    ) -> "NfviTopology":
        """Standard two-tier data-centre fabric."""
        if min(n_spine, n_leaf, servers_per_leaf) < 1:
            raise ValueError("all leaf-spine dimensions must be >= 1")
        topo = cls()
        for s in range(n_spine):
            topo.add_switch(f"spine{s}")
        for leaf in range(n_leaf):
            topo.add_switch(f"leaf{leaf}")
            for s in range(n_spine):
                topo.add_link(f"leaf{leaf}", f"spine{s}", spine_link_us)
            for h in range(servers_per_leaf):
                sid = f"server{leaf}-{h}"
                topo.add_server(Server(sid, cpu_cores=cpu_cores, mem_mb=mem_mb))
                topo.add_link(sid, f"leaf{leaf}", leaf_link_us)
        return topo

    @classmethod
    def fat_tree(
        cls,
        k: int = 4,
        *,
        cpu_cores: float = 16.0,
        mem_mb: float = 65536.0,
        edge_link_us: float = 10.0,
        agg_link_us: float = 20.0,
        core_link_us: float = 40.0,
    ) -> "NfviTopology":
        """k-ary fat tree (k even): (k/2)^2 core switches, k pods with
        k/2 aggregation + k/2 edge switches, k/2 servers per edge."""
        if k < 2 or k % 2 != 0:
            raise ValueError(f"fat tree arity k must be even and >= 2, got {k}")
        topo = cls()
        half = k // 2
        for c in range(half * half):
            topo.add_switch(f"core{c}")
        for pod in range(k):
            for a in range(half):
                agg = f"agg{pod}-{a}"
                topo.add_switch(agg)
                for c in range(half):
                    topo.add_link(agg, f"core{a * half + c}", core_link_us)
            for e in range(half):
                edge = f"edge{pod}-{e}"
                topo.add_switch(edge)
                for a in range(half):
                    topo.add_link(edge, f"agg{pod}-{a}", agg_link_us)
                for h in range(half):
                    sid = f"server{pod}-{e}-{h}"
                    topo.add_server(
                        Server(sid, cpu_cores=cpu_cores, mem_mb=mem_mb)
                    )
                    topo.add_link(sid, edge, edge_link_us)
        return topo
