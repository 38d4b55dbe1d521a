"""``NfviTopology.path_latency_us`` against networkx, byte for byte.

The topology runs its own Dijkstra over an insertion-ordered adjacency
dict; networkx is a test-only oracle.  Each topology here is mirrored
into an ``nx.Graph`` built in the same insertion order, and every
ordered node pair must give the same float bytes as
``nx.shortest_path_length(..., weight="latency_us")``, or, for an
unreachable pair, a ``ValueError`` where networkx has no path.
Latencies such as 0.1 / 0.2 / 0.3 make tied routes sum to different
floats, so a different relaxation order would show.
"""

import networkx as nx
import numpy as np
import pytest

from repro.nfv.topology import NfviTopology
from repro.utils.rng import check_random_state

TIED = (0.1, 0.2, 0.3, 0.7, 1 / 3, 1e-3, 0.0, 50.0)


class _Mirrored(NfviTopology):
    """A topology that replays every insertion into an ``nx.Graph``."""

    def __init__(self):
        super().__init__()
        self.oracle = nx.Graph()

    def add_server(self, server):
        out = super().add_server(server)
        self.oracle.add_node(server.server_id)
        return out

    def add_switch(self, switch_id):
        super().add_switch(switch_id)
        self.oracle.add_node(switch_id)

    def add_link(self, a, b, latency_us=50.0):
        super().add_link(a, b, latency_us)
        self.oracle.add_edge(a, b, latency_us=float(latency_us))


def _assert_all_pairs_match(topo):
    graph = topo.oracle
    assert topo.n_nodes == graph.number_of_nodes()
    for a in graph:
        for b in graph:
            try:
                want = nx.shortest_path_length(graph, a, b, weight="latency_us")
            except nx.NetworkXNoPath:
                with pytest.raises(ValueError, match="no path"):
                    topo.path_latency_us(a, b)
                continue
            got = topo.path_latency_us(a, b)
            assert np.float64(got).tobytes() == np.float64(want).tobytes(), (a, b)


@pytest.mark.parametrize(
    "build",
    [
        lambda: _Mirrored.linear(6, link_latency_us=0.1),
        lambda: _Mirrored.leaf_spine(),
        lambda: _Mirrored.leaf_spine(
            3, 3, 2, leaf_link_us=0.1, spine_link_us=0.2
        ),
        lambda: _Mirrored.fat_tree(4),
        lambda: _Mirrored.fat_tree(
            4, edge_link_us=0.1, agg_link_us=0.2, core_link_us=0.3
        ),
    ],
    ids=["linear", "leaf-spine", "leaf-spine-tied", "fat-tree", "fat-tree-tied"],
)
def test_builders_match_networkx(build):
    _assert_all_pairs_match(build())


@pytest.mark.parametrize("seed", range(40))
def test_random_graphs_with_tied_sums_match_networkx(seed):
    rng = check_random_state(seed)
    topo = _Mirrored()
    n = int(rng.integers(2, 15))
    for i in range(n):
        topo.add_switch(f"n{i}")
    for _ in range(int(rng.integers(1, 3 * n + 1))):
        # repeats overwrite a link's latency in place; self-loops too
        a, b = rng.integers(0, n, 2)
        latency = TIED[rng.integers(len(TIED))] if seed % 2 else rng.random()
        topo.add_link(f"n{a}", f"n{b}", float(latency))
    _assert_all_pairs_match(topo)
